//! The TCP sender end host.
//!
//! Wraps the pure [`crate::reno::Reno`] machine with everything a host
//! needs in the event loop: a NIC pacing model (one packet per
//! serialization time on the access link), the RTO timer, Karn-compliant
//! RTT sampling, the paper's CR meter ("the ratio between the size of
//! payload transmitted and acknowledged by the destination in a time
//! interval, and the length of the time interval"), and the reactions to
//! ECN echoes and Source Quench messages.

use crate::cc::{CcStats, CongestionControl};
use crate::packet::{FlowId, Packet, PktKind, TcpMsg, TcpTimer};
use crate::reno::Reno;
use crate::rtt::RttEstimator;
use phantom_sim::probe::ProbeEvent;
use phantom_sim::stats::TimeSeries;
use phantom_sim::{telemetry, Ctx, Node, NodeId, SimDuration, SimTime};

/// A greedy TCP Reno sender.
pub struct TcpSource {
    flow: FlowId,
    cc: Box<dyn CongestionControl>,
    rtt: RttEstimator,
    next_hop: NodeId,
    prop: SimDuration,
    access_rate: f64, // bytes/s
    /// Memoized serialization time for the last wire size sent — data
    /// segments are a single fixed size per flow, so this removes an f64
    /// division from every transmission.
    ser_wire: u32,
    ser_dur: SimDuration,
    start: SimTime,
    tx_busy: bool,
    pending_retx: Option<u64>,
    rto_gen: u64,
    timed: Option<(u64, SimTime)>, // (seq end, send time) for RTT sampling
    // CR metering
    cr: f64,
    acked_in_window: u64,
    cr_interval: SimDuration,
    cr_window_start: SimTime,
    last_quench_cut: Option<SimTime>,
    /// Congestion-window trace (segments).
    pub cwnd_series: TimeSeries,
    /// CR trace (bytes/s) — what gets stamped into headers.
    pub cr_series: TimeSeries,
    /// Data segments transmitted (including retransmissions).
    pub segments_sent: u64,
    /// Retransmitted segments.
    pub retransmissions: u64,
}

impl TcpSource {
    /// A sender for `flow` attached to `next_hop` over an access link of
    /// `access_rate` bytes/s and propagation delay `prop`, starting to
    /// send at `start`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        flow: FlowId,
        mss: u32,
        max_cwnd: f64,
        next_hop: NodeId,
        access_rate: f64,
        prop: SimDuration,
        start: SimTime,
        cr_interval: SimDuration,
    ) -> Self {
        Self::with_cc(
            flow,
            Box::new(Reno::new(mss, max_cwnd)),
            next_hop,
            access_rate,
            prop,
            start,
            cr_interval,
        )
    }

    /// A sender with an explicit congestion-control algorithm (Reno,
    /// Vegas, or a custom [`CongestionControl`]).
    pub fn with_cc(
        flow: FlowId,
        cc: Box<dyn CongestionControl>,
        next_hop: NodeId,
        access_rate: f64,
        prop: SimDuration,
        start: SimTime,
        cr_interval: SimDuration,
    ) -> Self {
        assert!(access_rate > 0.0);
        assert!(!cr_interval.is_zero());
        TcpSource {
            flow,
            cc,
            rtt: RttEstimator::default_paper(),
            next_hop,
            prop,
            access_rate,
            ser_wire: u32::MAX,
            ser_dur: SimDuration::ZERO,
            start,
            tx_busy: false,
            pending_retx: None,
            rto_gen: 0,
            timed: None,
            cr: 0.0,
            acked_in_window: 0,
            cr_interval,
            cr_window_start: start,
            last_quench_cut: None,
            cwnd_series: TimeSeries::new(),
            cr_series: TimeSeries::new(),
            segments_sent: 0,
            retransmissions: 0,
        }
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// The congestion-control state (for assertions and traces).
    pub fn cc(&self) -> &dyn CongestionControl {
        self.cc.as_ref()
    }

    /// Loss/recovery statistics of the congestion controller.
    pub fn cc_stats(&self) -> CcStats {
        self.cc.stats()
    }

    /// Smoothed RTT estimate, seconds.
    pub fn srtt(&self) -> f64 {
        self.rtt.srtt()
    }

    fn serialization(&mut self, wire: u32) -> SimDuration {
        if wire != self.ser_wire {
            self.ser_wire = wire;
            self.ser_dur = SimDuration::from_secs_f64(f64::from(wire) / self.access_rate);
        }
        self.ser_dur
    }

    fn arm_rto(&mut self, ctx: &mut Ctx<'_, TcpMsg>) {
        self.rto_gen += 1;
        let gen = self.rto_gen;
        ctx.send_self(self.rtt.rto(), TcpMsg::Timer(TcpTimer::Rto { gen }));
    }

    fn cancel_rto(&mut self) {
        self.rto_gen += 1; // any scheduled timer is now stale
    }

    fn send_segment(&mut self, ctx: &mut Ctx<'_, TcpMsg>, seq: u64, is_retx: bool) {
        let mss = self.cc.mss();
        let pkt = Packet::data(self.flow, seq, mss, self.cr);
        self.segments_sent += 1;
        if is_retx {
            self.retransmissions += 1;
            telemetry::note_retransmit();
            // Karn: a retransmitted segment must never be timed.
            if let Some((end, _)) = self.timed {
                if seq < end {
                    self.timed = None;
                }
            }
        } else if self.timed.is_none() {
            self.timed = Some((seq + u64::from(mss), ctx.now()));
        }
        let ser = self.serialization(pkt.wire);
        ctx.send(self.next_hop, ser + self.prop, TcpMsg::Pkt(pkt));
        self.tx_busy = true;
        ctx.send_self(ser, TcpMsg::Timer(TcpTimer::Tick));
    }

    /// NIC tick: transmit the most urgent eligible segment, if any.
    fn on_tick(&mut self, ctx: &mut Ctx<'_, TcpMsg>) {
        self.tx_busy = false;
        if ctx.now() < self.start {
            return;
        }
        if let Some(seq) = self.pending_retx.take() {
            self.send_segment(ctx, seq, true);
            return;
        }
        if self.cc.can_send() {
            let first_in_flight = !self.cc.outstanding();
            let seq = self.cc.take_segment();
            self.send_segment(ctx, seq, false);
            if first_in_flight {
                self.arm_rto(ctx);
            }
        }
    }

    /// Sample the congestion window into the trace and the probe stream.
    fn record_cwnd(&mut self, ctx: &mut Ctx<'_, TcpMsg>) {
        self.cwnd_series.push(ctx.now(), self.cc.cwnd());
        ctx.emit(|| ProbeEvent::CwndChange {
            flow: self.flow.0,
            cwnd: self.cc.cwnd(),
            ssthresh: self.cc.ssthresh(),
        });
    }

    fn kick_nic(&mut self, ctx: &mut Ctx<'_, TcpMsg>) {
        if !self.tx_busy {
            ctx.send_self(SimDuration::ZERO, TcpMsg::Timer(TcpTimer::Tick));
            self.tx_busy = true;
        }
    }

    fn on_ack(&mut self, ctx: &mut Ctx<'_, TcpMsg>, ack: u64, ecn_echo: bool) {
        let res = self.cc.on_ack(ack, ecn_echo);
        if res.newly_acked > 0 {
            self.acked_in_window += res.newly_acked;
            // RTT sample (Karn-safe: `timed` is cleared on retransmit).
            if let Some((end, at)) = self.timed {
                if ack >= end {
                    let sample = (ctx.now() - at).as_secs_f64();
                    self.rtt.sample(sample);
                    self.cc.on_rtt_sample(sample);
                    self.timed = None;
                }
            }
            if self.cc.outstanding() {
                self.arm_rto(ctx);
            } else {
                self.cancel_rto();
            }
        }
        if let Some(seq) = res.retransmit {
            self.pending_retx = Some(seq);
        }
        self.record_cwnd(ctx);
        self.kick_nic(ctx);
    }

    fn on_rto(&mut self, ctx: &mut Ctx<'_, TcpMsg>, gen: u64) {
        if gen != self.rto_gen || !self.cc.outstanding() {
            return; // stale timer
        }
        self.cc.on_timeout();
        self.rtt.back_off();
        self.timed = None;
        self.pending_retx = None; // snd_nxt was rewound; normal send resumes
        self.record_cwnd(ctx);
        self.arm_rto(ctx);
        self.kick_nic(ctx);
    }

    fn on_quench(&mut self, ctx: &mut Ctx<'_, TcpMsg>) {
        // Hold off repeated cuts for one RTT (or 10 ms before the first
        // estimate) so a burst of quenches counts once.
        let holdoff = SimDuration::from_secs_f64(self.srtt().max(0.01));
        if let Some(last) = self.last_quench_cut {
            if ctx.now() < last + holdoff {
                return;
            }
        }
        self.last_quench_cut = Some(ctx.now());
        self.cc.on_quench();
        self.record_cwnd(ctx);
    }

    /// CR metering. The paper: "each source computes its rate as the
    /// ratio between the size of payload transmitted and acknowledged by
    /// the destination in a time interval, and the length of the time
    /// interval." A fixed interval shorter than the connection's RTT
    /// over-estimates the rate of long-RTT flows (their ACKs arrive in
    /// window bursts), so the measurement window stretches to at least
    /// one smoothed RTT.
    fn on_cr_sample(&mut self, ctx: &mut Ctx<'_, TcpMsg>) {
        let elapsed = (ctx.now() - self.cr_window_start).as_secs_f64();
        let target = self.cr_interval.as_secs_f64().max(self.srtt());
        if elapsed >= target {
            self.cr = self.acked_in_window as f64 / elapsed;
            self.acked_in_window = 0;
            self.cr_window_start = ctx.now();
            self.cr_series.push(ctx.now(), self.cr);
        }
        ctx.send_self(self.cr_interval, TcpMsg::Timer(TcpTimer::CrSample));
    }
}

impl Node<TcpMsg> for TcpSource {
    fn on_event(&mut self, ctx: &mut Ctx<'_, TcpMsg>, msg: TcpMsg) {
        match msg {
            TcpMsg::Pkt(pkt) => match pkt.kind {
                PktKind::Ack { ack, ecn_echo } => self.on_ack(ctx, ack, ecn_echo),
                PktKind::Quench => self.on_quench(ctx),
                PktKind::Data { .. } => unreachable!("sender received data"),
            },
            TcpMsg::Timer(TcpTimer::Tick) => self.on_tick(ctx),
            TcpMsg::Timer(TcpTimer::Rto { gen }) => self.on_rto(ctx, gen),
            TcpMsg::Timer(TcpTimer::CrSample) => self.on_cr_sample(ctx),
            TcpMsg::Timer(t) => unreachable!("source received {t:?}"),
        }
    }
}
