//! The TCP receiver end host.
//!
//! Acknowledges data segments cumulatively — per packet by default (the
//! configuration the paper's figures assume), or RFC 1122-style delayed
//! ACKs via [`TcpSink::with_delayed_ack`] — buffers out-of-order
//! segments, and echoes the EFCI/ECN bit back to the sender in the ACK.
//! Also meters delivered goodput, the "measured rate" of the paper's TCP
//! figures.

use crate::packet::{FlowId, Packet, PktKind, TcpMsg, TcpTimer};
use phantom_sim::stats::TimeSeries;
use phantom_sim::{Ctx, Node, NodeId, SimDuration};
use std::collections::BTreeSet;

/// A TCP receiver for one flow.
pub struct TcpSink {
    flow: FlowId,
    reply_to: NodeId,
    prop: SimDuration,
    rcv_next: u64,
    ooo: BTreeSet<u64>,
    sample_interval: SimDuration,
    bytes_in_window: u64,
    /// Delayed-ACK mode: ACK every second in-order segment, or after
    /// `delay`, whichever first. Out-of-order arrivals (duplicate ACKs)
    /// are always acknowledged immediately, preserving fast retransmit.
    delayed_ack: Option<SimDuration>,
    unacked_segments: u32,
    ack_timer_armed: bool,
    last_echo: bool,
    /// In-order bytes delivered to the application.
    pub bytes_delivered: u64,
    /// Data segments received (including duplicates).
    pub segments_received: u64,
    /// Duplicate segments discarded.
    pub duplicates: u64,
    /// Goodput trace, bytes/s.
    pub goodput_series: TimeSeries,
}

impl TcpSink {
    /// A sink for `flow` ACKing through `reply_to` (its attached router),
    /// sampling goodput every `sample_interval`.
    pub fn new(
        flow: FlowId,
        reply_to: NodeId,
        prop: SimDuration,
        sample_interval: SimDuration,
    ) -> Self {
        assert!(!sample_interval.is_zero());
        TcpSink {
            flow,
            reply_to,
            prop,
            rcv_next: 0,
            ooo: BTreeSet::new(),
            sample_interval,
            bytes_in_window: 0,
            delayed_ack: None,
            unacked_segments: 0,
            ack_timer_armed: false,
            last_echo: false,
            bytes_delivered: 0,
            segments_received: 0,
            duplicates: 0,
            goodput_series: TimeSeries::new(),
        }
    }

    /// Enable delayed ACKs (RFC 1122-style): at most every second
    /// segment is acknowledged, with `delay` bounding the wait.
    pub fn with_delayed_ack(mut self, delay: SimDuration) -> Self {
        assert!(!delay.is_zero());
        self.delayed_ack = Some(delay);
        self
    }

    /// The flow id.
    pub fn flow(&self) -> FlowId {
        self.flow
    }

    /// Mean goodput over `elapsed` seconds.
    pub fn mean_goodput(&self, elapsed: f64) -> f64 {
        if elapsed <= 0.0 {
            0.0
        } else {
            self.bytes_delivered as f64 / elapsed
        }
    }

    fn on_data(&mut self, ctx: &mut Ctx<'_, TcpMsg>, seq: u64, len: u32, ecn: bool) {
        self.segments_received += 1;
        let in_order = seq == self.rcv_next;
        if in_order {
            self.rcv_next += u64::from(len);
            self.advance_over_buffered(len);
        } else if seq > self.rcv_next {
            self.ooo.insert(seq);
        } else {
            self.duplicates += 1;
        }
        let newly = self.rcv_next - self.bytes_delivered;
        self.bytes_delivered = self.rcv_next;
        self.bytes_in_window += newly;
        self.last_echo = ecn || self.last_echo;
        match self.delayed_ack {
            // Delay only clean in-order arrivals; anything out of order
            // (or filling a hole) must generate the ACK immediately so
            // duplicate-ACK counting at the sender keeps working.
            Some(delay) if in_order && self.ooo.is_empty() && !ecn => {
                self.unacked_segments += 1;
                if self.unacked_segments >= 2 {
                    self.send_ack(ctx);
                } else if !self.ack_timer_armed {
                    self.ack_timer_armed = true;
                    ctx.send_self(delay, TcpMsg::Timer(TcpTimer::DelayedAck));
                }
            }
            _ => self.send_ack(ctx),
        }
    }

    fn send_ack(&mut self, ctx: &mut Ctx<'_, TcpMsg>) {
        let ack = Packet::ack(self.flow, self.rcv_next, self.last_echo);
        self.last_echo = false;
        self.unacked_segments = 0;
        ctx.send(self.reply_to, self.prop, TcpMsg::Pkt(ack));
    }

    /// All segments are `len` bytes (the sender only emits full MSS
    /// segments), so contiguity is a walk over stored starts.
    fn advance_over_buffered(&mut self, len: u32) {
        while self.ooo.remove(&self.rcv_next) {
            self.rcv_next += u64::from(len);
        }
        // Discard anything now below rcv_next (late duplicates).
        while let Some(&first) = self.ooo.iter().next() {
            if first < self.rcv_next {
                self.ooo.remove(&first);
                self.duplicates += 1;
            } else {
                break;
            }
        }
    }
}

impl Node<TcpMsg> for TcpSink {
    fn on_event(&mut self, ctx: &mut Ctx<'_, TcpMsg>, msg: TcpMsg) {
        match msg {
            TcpMsg::Pkt(pkt) => match pkt.kind {
                PktKind::Data { seq, len } => self.on_data(ctx, seq, len, pkt.ecn),
                k => unreachable!("sink received {k:?}"),
            },
            TcpMsg::Timer(TcpTimer::DelayedAck) => {
                self.ack_timer_armed = false;
                if self.unacked_segments > 0 {
                    self.send_ack(ctx);
                }
            }
            TcpMsg::Timer(TcpTimer::Measure { .. }) => {
                let rate = self.bytes_in_window as f64 / self.sample_interval.as_secs_f64();
                self.goodput_series.push(ctx.now(), rate);
                self.bytes_in_window = 0;
                ctx.send_self(
                    self.sample_interval,
                    TcpMsg::Timer(TcpTimer::Measure { port: 0 }),
                );
            }
            TcpMsg::Timer(t) => unreachable!("sink received {t:?}"),
        }
    }
}
