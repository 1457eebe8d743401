//! The ABR source end system (TM 4.0, \[Sat96\] Appendix I).
//!
//! The source paces cells at its Allowed Cell Rate (ACR). Every Nrm-th
//! cell is a forward RM cell carrying the current rate (CCR) and an ER
//! field initialized to PCR. On every backward RM cell the source applies
//! the TM 4.0 rules:
//!
//! ```text
//! if CI      { ACR -= ACR / RDF }          # multiplicative decrease
//! else if !NI{ ACR += AIR }                # additive increase
//! ACR = min(ACR, ER, PCR); ACR = max(ACR, MCR)
//! ```
//!
//! After an idle period longer than ADTF the source restarts from ICR
//! (use-it-or-lose-it). The traffic model gates *whether* the source has
//! cells to send; ACR gates *how fast* it may send them.

use crate::cell::{Cell, RmCell, VcId};
use crate::msg::{AtmMsg, Timer};
use crate::params::AtmParams;
use crate::traffic::{Traffic, TrafficGate};
use crate::units::pacing_interval;
use phantom_sim::probe::ProbeEvent;
use phantom_sim::stats::TimeSeries;
use phantom_sim::{Ctx, Node, NodeId, SimDuration, SimTime};

/// An ABR source end system.
pub struct AbrSource {
    vc: VcId,
    params: AtmParams,
    gate: TrafficGate,
    next_hop: NodeId,
    prop: SimDuration,
    acr: f64,
    /// Cached `pacing_interval(pace_acr)` — ACR only changes on backward
    /// RM feedback (once per Nrm cells), so the per-cell pacing send can
    /// skip the division while the rate is unchanged.
    pace: SimDuration,
    pace_acr: f64,
    cells_since_rm: u32,
    unacked_rm: u32,
    last_tx: Option<SimTime>,
    was_active: bool,
    /// Total cells sent (data + RM).
    pub cells_sent: u64,
    /// Forward RM cells sent.
    pub rm_sent: u64,
    /// Backward RM cells received.
    pub rm_received: u64,
    /// ACR trace — the paper's "sessions' allowed rate" lines.
    pub acr_series: TimeSeries,
    /// Sampling stride for the ACR trace: record at most one sample per
    /// this many backward RM cells (1 = every one).
    acr_sample_stride: u64,
}

impl AbrSource {
    /// A source for session `vc`, attached to `next_hop` over a link with
    /// propagation delay `prop`.
    pub fn new(
        vc: VcId,
        params: AtmParams,
        traffic: Traffic,
        next_hop: NodeId,
        prop: SimDuration,
    ) -> Self {
        params.validate().expect("invalid ATM parameters");
        AbrSource {
            vc,
            params,
            gate: TrafficGate::new(traffic),
            next_hop,
            prop,
            acr: params.icr,
            pace: pacing_interval(params.icr),
            pace_acr: params.icr,
            cells_since_rm: 0,
            unacked_rm: 0,
            last_tx: None,
            was_active: false,
            cells_sent: 0,
            rm_sent: 0,
            rm_received: 0,
            acr_series: TimeSeries::new(),
            acr_sample_stride: 1,
        }
    }

    /// Record only every `stride`-th ACR update (trace size control for
    /// long runs).
    pub fn with_acr_sample_stride(mut self, stride: u64) -> Self {
        self.acr_sample_stride = stride.max(1);
        self
    }

    /// Current allowed cell rate.
    pub fn acr(&self) -> f64 {
        self.acr
    }

    /// The session id.
    pub fn vc(&self) -> VcId {
        self.vc
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, AtmMsg>) {
        let now = ctx.now();
        let (active, wake) = self.gate.poll(now, ctx.rng());
        if active != self.was_active {
            self.was_active = active;
            let session = self.vc.0;
            if active {
                ctx.emit(|| ProbeEvent::SessionStart { session });
            } else {
                ctx.emit(|| ProbeEvent::SessionStop { session });
            }
        }
        if !active {
            // Sleep until the next active period (if any).
            if let Some(t) = wake {
                debug_assert!(t > now);
                ctx.send_at(ctx.self_id(), t, AtmMsg::Timer(Timer::SourceTx));
            }
            return;
        }
        // Use-it-or-lose-it: a long idle resets ACR towards ICR.
        if let Some(last) = self.last_tx {
            if now.saturating_sub(last) > self.params.adtf && self.acr > self.params.icr {
                self.acr = self.params.icr;
                self.acr_series.push(now, self.acr);
            }
        }
        // Every Nrm-th cell (starting with the very first) is a forward RM.
        let cell = if self.cells_since_rm == 0 {
            self.rm_sent += 1;
            // TM 4.0 CRM rule: too many forward RM cells in flight with no
            // feedback means the reverse path is broken or congested —
            // decrease instead of coasting at the last allowed rate.
            self.unacked_rm += 1;
            if self.unacked_rm > self.params.crm {
                self.acr = (self.acr - self.acr * self.params.cdf).max(self.params.mcr);
                self.acr_series.push(now, self.acr);
            }
            Cell::rm(
                self.vc,
                RmCell::forward(self.acr, self.params.pcr).with_mcr(self.params.mcr),
                now,
            )
        } else {
            Cell::data(self.vc, now)
        };
        // Counter stays in [0, Nrm); a compare beats a hardware divide on
        // this per-cell path.
        self.cells_since_rm += 1;
        if self.cells_since_rm == self.params.nrm {
            self.cells_since_rm = 0;
        }
        self.cells_sent += 1;
        self.last_tx = Some(now);
        ctx.send(self.next_hop, self.prop, AtmMsg::Cell(cell));
        if self.acr != self.pace_acr {
            self.pace_acr = self.acr;
            self.pace = pacing_interval(self.acr);
        }
        ctx.send_self(self.pace, AtmMsg::Timer(Timer::SourceTx));
    }

    fn on_backward_rm(&mut self, ctx: &mut Ctx<'_, AtmMsg>, rm: &RmCell) {
        self.rm_received += 1;
        self.unacked_rm = 0;
        if rm.ci {
            self.acr -= self.acr / self.params.rdf;
        } else if !rm.ni {
            self.acr += self.params.air;
        }
        self.acr = self.acr.min(rm.er).min(self.params.pcr);
        self.acr = self.acr.max(self.params.mcr);
        if self.rm_received.is_multiple_of(self.acr_sample_stride) {
            self.acr_series.push(ctx.now(), self.acr);
        }
    }
}

impl Node<AtmMsg> for AbrSource {
    fn on_event(&mut self, ctx: &mut Ctx<'_, AtmMsg>, msg: AtmMsg) {
        match msg {
            AtmMsg::Timer(Timer::SourceTx) => self.on_timer(ctx),
            AtmMsg::Cell(cell) => {
                debug_assert!(cell.is_backward_rm(), "source received a non-RM cell");
                if let Some(rm) = cell.as_rm() {
                    let rm = *rm;
                    self.on_backward_rm(ctx, &rm);
                }
            }
            AtmMsg::Timer(t) => unreachable!("source received {t:?}"),
            AtmMsg::Admin(c) => unreachable!("source received {c:?}"),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.acr_series.heap_bytes()
    }

    fn save_state(&self, w: &mut phantom_sim::KvWriter) -> Result<(), String> {
        // Params, vc, next hop, prop and the sampling stride are static.
        w.scope("gate", |w| self.gate.save_state(w));
        w.f64("acr", self.acr);
        // `pace` is recomputed from `pace_acr` on restore (the invariant
        // pace == pacing_interval(pace_acr) holds at every dispatch edge).
        w.f64("pace_acr", self.pace_acr);
        w.u64("cells_since_rm", u64::from(self.cells_since_rm));
        w.u64("unacked_rm", u64::from(self.unacked_rm));
        w.bool("has_last_tx", self.last_tx.is_some());
        w.u64("last_tx", self.last_tx.map_or(0, |t| t.0));
        w.bool("was_active", self.was_active);
        w.u64("cells_sent", self.cells_sent);
        w.u64("rm_sent", self.rm_sent);
        w.u64("rm_received", self.rm_received);
        w.scope("acr_series", |w| self.acr_series.save(w));
        Ok(())
    }

    fn restore_state(&mut self, r: &mut phantom_sim::KvReader) -> Result<(), String> {
        r.scope("gate", |r| self.gate.restore_state(r))?;
        self.acr = r.f64("acr")?;
        self.pace_acr = r.f64("pace_acr")?;
        self.pace = pacing_interval(self.pace_acr);
        self.cells_since_rm = r.u64("cells_since_rm")? as u32;
        self.unacked_rm = r.u64("unacked_rm")? as u32;
        self.last_tx = if r.bool("has_last_tx")? {
            Some(SimTime(r.u64("last_tx")?))
        } else {
            None
        };
        self.was_active = r.bool("was_active")?;
        self.cells_sent = r.u64("cells_sent")?;
        self.rm_sent = r.u64("rm_sent")?;
        self.rm_received = r.u64("rm_received")?;
        r.scope("acr_series", |r| self.acr_series.restore(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::mbps_to_cps;

    fn mk() -> AbrSource {
        AbrSource::new(
            VcId(1),
            AtmParams::paper(),
            Traffic::greedy(),
            NodeId(0),
            SimDuration::from_micros(10),
        )
    }

    /// Drive the TM4.0 rate rules directly (no engine) through a fake Ctx
    /// is impractical; instead verify the arithmetic via a tiny engine in
    /// the integration tests. Here we check construction invariants.
    #[test]
    fn starts_at_icr() {
        let s = mk();
        assert_eq!(s.acr(), AtmParams::paper().icr);
        assert_eq!(s.vc(), VcId(1));
    }

    #[test]
    fn rate_rules_applied_in_order() {
        // Replicate the backward-RM arithmetic standalone.
        let p = AtmParams::paper();
        let mut acr = mbps_to_cps(100.0);
        // CI decrease
        let before = acr;
        acr -= acr / p.rdf;
        assert!(acr < before);
        assert!((acr - before * (1.0 - 1.0 / 256.0)).abs() < 1e-9);
        // additive increase then ER clamp
        acr += p.air;
        let er = mbps_to_cps(50.0);
        acr = acr.min(er).min(p.pcr).max(p.mcr);
        assert_eq!(acr, er);
    }

    #[test]
    #[should_panic(expected = "invalid ATM parameters")]
    fn invalid_params_rejected() {
        let mut p = AtmParams::paper();
        p.air = -1.0;
        let _ = AbrSource::new(VcId(1), p, Traffic::greedy(), NodeId(0), SimDuration::ZERO);
    }
}
