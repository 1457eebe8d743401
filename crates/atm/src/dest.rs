//! The ABR destination end system.
//!
//! Per TM 4.0 the destination turns forward RM cells around (flipping the
//! direction bit) and echoes congestion experienced by data cells: if any
//! data cell since the last RM arrived with its EFCI bit set, the
//! turned-around RM cell carries CI=1. The destination also meters the
//! session's delivered rate — the "measured rate" lines in the paper's
//! TCP-style figures — and, unless built without one, a histogram of its
//! cell delays.

use crate::cell::{Cell, CellKind, VcId};
use crate::msg::{AtmMsg, Timer};
use phantom_sim::probe::ProbeEvent;
use phantom_sim::stats::{Histogram, TimeSeries};
use phantom_sim::{Ctx, Node, NodeId, SimDuration};

/// An ABR destination end system.
pub struct AbrDest {
    vc: VcId,
    reply_to: NodeId,
    prop: SimDuration,
    efci_seen: bool,
    /// Total cells received (data + RM).
    pub cells_received: u64,
    /// Data cells received.
    pub data_received: u64,
    /// Forward RM cells turned around.
    pub rm_turned: u64,
    /// Delivered goodput (cells/s), sampled every `sample_interval`.
    pub rate_series: TimeSeries,
    /// End-to-end delay of delivered data cells, milliseconds (0.1 ms
    /// bins up to 1 s) — the session's cell-delay statistics. `None` for
    /// untraced sessions of a lean network
    /// ([`crate::network::NetworkBuilder::lean_access`]).
    pub delay_hist: Option<Box<Histogram>>,
    sample_interval: SimDuration,
    data_in_window: u64,
}

impl AbrDest {
    /// A destination for `vc`, sending backward RM cells to `reply_to`
    /// (its attached switch) over a link with propagation delay `prop`,
    /// sampling goodput every `sample_interval` and recording cell delays.
    pub fn new(
        vc: VcId,
        reply_to: NodeId,
        prop: SimDuration,
        sample_interval: SimDuration,
    ) -> Self {
        assert!(!sample_interval.is_zero());
        AbrDest {
            vc,
            reply_to,
            prop,
            efci_seen: false,
            cells_received: 0,
            data_received: 0,
            rm_turned: 0,
            rate_series: TimeSeries::new(),
            delay_hist: Some(Box::new(Histogram::new(0.1, 10_000))),
            sample_interval,
            data_in_window: 0,
        }
    }

    /// Record no cell delays: for sessions no reader asks about at
    /// metro scale, where the histograms would dominate memory.
    pub(crate) fn without_delay_hist(mut self) -> Self {
        self.delay_hist = None;
        self
    }

    /// The session id.
    pub fn vc(&self) -> VcId {
        self.vc
    }
}

impl Node<AtmMsg> for AbrDest {
    fn on_event(&mut self, ctx: &mut Ctx<'_, AtmMsg>, msg: AtmMsg) {
        match msg {
            AtmMsg::Cell(cell) => {
                debug_assert_eq!(cell.vc, self.vc, "mis-routed cell");
                self.cells_received += 1;
                match cell.kind {
                    CellKind::Data => {
                        self.data_received += 1;
                        self.data_in_window += 1;
                        if let Some(h) = &mut self.delay_hist {
                            h.record(ctx.now().saturating_sub(cell.created).as_millis_f64());
                        }
                        if cell.efci {
                            self.efci_seen = true;
                        }
                    }
                    CellKind::Rm(rm) => {
                        debug_assert!(
                            matches!(rm.dir, crate::cell::Dir::Forward),
                            "destination received a backward RM cell"
                        );
                        let mut back = rm.turned_around();
                        if self.efci_seen {
                            back.ci = true;
                            self.efci_seen = false;
                        }
                        self.rm_turned += 1;
                        ctx.emit(|| ProbeEvent::RmTurnaround {
                            vc: self.vc.0,
                            er: back.er,
                            ci: back.ci,
                        });
                        ctx.send(
                            self.reply_to,
                            self.prop,
                            AtmMsg::Cell(Cell::rm(self.vc, back, ctx.now())),
                        );
                    }
                }
            }
            AtmMsg::Timer(Timer::Measure { .. }) => {
                let rate = self.data_in_window as f64 / self.sample_interval.as_secs_f64();
                self.rate_series.push(ctx.now(), rate);
                self.data_in_window = 0;
                ctx.send_self(
                    self.sample_interval,
                    AtmMsg::Timer(Timer::Measure { port: 0 }),
                );
            }
            AtmMsg::Timer(t) => unreachable!("destination received {t:?}"),
            AtmMsg::Admin(c) => unreachable!("destination received {c:?}"),
        }
    }

    fn heap_bytes(&self) -> usize {
        self.rate_series.heap_bytes()
            + self
                .delay_hist
                .as_ref()
                .map_or(0, |h| std::mem::size_of::<Histogram>() + h.heap_bytes())
    }

    fn save_state(&self, w: &mut phantom_sim::KvWriter) -> Result<(), String> {
        // vc, reply_to, prop, the sample interval and whether a delay
        // histogram exists are static.
        w.bool("efci_seen", self.efci_seen);
        w.u64("cells_received", self.cells_received);
        w.u64("data_received", self.data_received);
        w.u64("rm_turned", self.rm_turned);
        w.u64("data_in_window", self.data_in_window);
        w.scope("rate_series", |w| self.rate_series.save(w));
        if let Some(h) = &self.delay_hist {
            w.scope("delay_hist", |w| h.save(w));
        }
        Ok(())
    }

    fn restore_state(&mut self, r: &mut phantom_sim::KvReader) -> Result<(), String> {
        self.efci_seen = r.bool("efci_seen")?;
        self.cells_received = r.u64("cells_received")?;
        self.data_received = r.u64("data_received")?;
        self.rm_turned = r.u64("rm_turned")?;
        self.data_in_window = r.u64("data_in_window")?;
        r.scope("rate_series", |r| self.rate_series.restore(r))?;
        // A `delay_hist` scope for a destination without a histogram
        // (written before lean networks dropped untraced ones) is ignored.
        match &mut self.delay_hist {
            Some(h) => r.scope("delay_hist", |r| h.restore(r)),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic]
    fn zero_sample_interval_rejected() {
        let _ = AbrDest::new(VcId(1), NodeId(0), SimDuration::ZERO, SimDuration::ZERO);
    }
}
