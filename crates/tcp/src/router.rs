//! An output-queued IP router with pluggable queue disciplines.
//!
//! Mirrors the ATM switch: per-port FIFO, packet-by-packet serialization
//! at link rate, a measurement interval feeding the discipline, and
//! per-flow forward/backward routes. Data packets are subject to the
//! discipline's verdict; ACKs and quenches pass through the reverse-path
//! port untouched. A [`crate::qdisc::Verdict::Quench`] verdict makes the
//! router emit an ICMP Source Quench through the flow's backward port.

use crate::packet::{FlowId, Packet, TcpMsg, TcpTimer};
use crate::qdisc::{QueueDiscipline, RouterMeasurement, Verdict};
use phantom_sim::fifo::EnqueueResult;
use phantom_sim::probe::{DropReason, ProbeEvent};
use phantom_sim::stats::TimeSeries;
use phantom_sim::{BoundedFifo, Ctx, Node, NodeId, SimDuration};

/// Per-flow routing state.
#[derive(Clone, Copy, Debug)]
pub struct FlowRoute {
    /// Output port toward the receiver (data direction).
    pub fwd_port: usize,
    /// Output port toward the sender (ACK/quench direction).
    pub bwd_port: usize,
}

/// One output port of a router.
pub struct RPort {
    queue: BoundedFifo<Packet>,
    queue_bytes: u64,
    link_to: NodeId,
    prop: SimDuration,
    capacity: f64, // bytes/s
    /// Memoized serialization time for the last wire size transmitted.
    /// TCP traffic is dominated by two packet sizes (full data segments
    /// and 40-byte ACKs), so this removes an f64 division from every
    /// packet push and TxDone reschedule. Invalidated by `set_capacity`.
    ser_wire: u32,
    ser_dur: SimDuration,
    busy: bool,
    qdisc: Box<dyn QueueDiscipline>,
    measure_interval: SimDuration,
    arrival_bytes: u64,
    departure_bytes: u64,
    /// Packets dropped by the discipline (not counting tail drops).
    pub policy_drops: u64,
    /// Source Quench messages emitted because of this port's verdicts.
    pub quenches_sent: u64,
    /// Packets marked (EFCI/ECN) by the discipline.
    pub marks: u64,
    /// Queue-length samples (packets), one per interval.
    pub queue_series: TimeSeries,
    /// Fair-share (MACR) samples, one per interval (NaN-free only for
    /// Phantom disciplines).
    pub macr_series: TimeSeries,
    /// Throughput samples (bytes/s), one per interval.
    pub throughput_series: TimeSeries,
}

impl RPort {
    /// A port transmitting to `link_to` at `capacity` bytes/s.
    pub fn new(
        link_to: NodeId,
        capacity: f64,
        prop: SimDuration,
        queue_cap_pkts: usize,
        qdisc: Box<dyn QueueDiscipline>,
        measure_interval: SimDuration,
    ) -> Self {
        assert!(capacity > 0.0);
        RPort {
            queue: BoundedFifo::new(queue_cap_pkts),
            queue_bytes: 0,
            link_to,
            prop,
            capacity,
            ser_wire: u32::MAX,
            ser_dur: SimDuration::ZERO,
            busy: false,
            qdisc,
            measure_interval,
            arrival_bytes: 0,
            departure_bytes: 0,
            policy_drops: 0,
            quenches_sent: 0,
            marks: 0,
            queue_series: TimeSeries::new(),
            macr_series: TimeSeries::new(),
            throughput_series: TimeSeries::new(),
        }
    }

    /// Queue length in packets.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Tail drops (buffer overflow), excluding policy drops.
    pub fn tail_drops(&self) -> u64 {
        self.queue.drops() - self.policy_drops
    }

    /// All drops at this port.
    pub fn total_drops(&self) -> u64 {
        self.queue.drops()
    }

    /// Largest queue length observed.
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water()
    }

    /// The discipline's fair-share estimate.
    pub fn fair_share(&self) -> f64 {
        self.qdisc.fair_share()
    }

    /// The discipline itself.
    pub fn qdisc(&self) -> &dyn QueueDiscipline {
        self.qdisc.as_ref()
    }

    /// Link capacity, bytes/s.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Change the link capacity (takes effect from the next packet
    /// serialization; the packet currently on the wire is unaffected).
    /// Models ABR-carried trunks whose bandwidth follows the underlying
    /// network's allocation.
    pub fn set_capacity(&mut self, bps: f64) {
        assert!(bps > 0.0, "capacity must stay positive");
        self.capacity = bps;
        self.ser_wire = u32::MAX;
    }

    fn serialization(&mut self, wire: u32) -> SimDuration {
        if wire != self.ser_wire {
            self.ser_wire = wire;
            self.ser_dur = SimDuration::from_secs_f64(f64::from(wire) / self.capacity);
        }
        self.ser_dur
    }

    fn push(&mut self, ctx: &mut Ctx<'_, TcpMsg>, me: usize, pkt: Packet) {
        let wire = pkt.wire;
        match self.queue.push(pkt) {
            EnqueueResult::Accepted => {
                self.queue_bytes += u64::from(wire);
                ctx.emit(|| ProbeEvent::Enqueue {
                    port: me as u32,
                    qlen: self.queue.len() as u32,
                });
                if !self.busy {
                    self.busy = true;
                    ctx.send_self(
                        self.serialization(wire),
                        TcpMsg::Timer(TcpTimer::TxDone { port: me }),
                    );
                }
            }
            EnqueueResult::Dropped => {
                ctx.emit(|| ProbeEvent::Drop {
                    port: me as u32,
                    qlen: self.queue.len() as u32,
                    reason: DropReason::Overflow,
                });
            }
        }
    }

    /// Run the discipline on an arriving packet and act on the verdict.
    /// Returns `true` if a Source Quench must be sent to the flow's
    /// sender (the router handles the routing).
    pub fn arrive(&mut self, ctx: &mut Ctx<'_, TcpMsg>, me: usize, mut pkt: Packet) -> bool {
        self.arrival_bytes += u64::from(pkt.wire);
        let verdict = self
            .qdisc
            .on_arrival(&pkt, self.queue.len(), self.queue_bytes, ctx.rng());
        match verdict {
            Verdict::Enqueue => {
                self.push(ctx, me, pkt);
                false
            }
            Verdict::Drop => {
                self.queue.note_policy_drop();
                self.policy_drops += 1;
                ctx.emit(|| ProbeEvent::Drop {
                    port: me as u32,
                    qlen: self.queue.len() as u32,
                    reason: DropReason::Policy,
                });
                false
            }
            Verdict::Mark => {
                pkt.ecn = true;
                self.marks += 1;
                self.push(ctx, me, pkt);
                false
            }
            Verdict::Quench => {
                self.quenches_sent += 1;
                self.push(ctx, me, pkt);
                true
            }
        }
    }

    /// Head-of-line packet finished serializing.
    pub fn tx_done(&mut self, ctx: &mut Ctx<'_, TcpMsg>, me: usize) {
        let pkt = self.queue.pop().expect("TxDone with empty queue");
        self.queue_bytes -= u64::from(pkt.wire);
        self.departure_bytes += u64::from(pkt.wire);
        ctx.emit(|| ProbeEvent::Dequeue {
            port: me as u32,
            qlen: self.queue.len() as u32,
        });
        ctx.send(self.link_to, self.prop, TcpMsg::Pkt(pkt));
        let head_wire = self.queue.iter().next().map(|next| next.wire);
        match head_wire {
            Some(wire) => {
                let d = self.serialization(wire);
                ctx.send_self(d, TcpMsg::Timer(TcpTimer::TxDone { port: me }));
            }
            None => self.busy = false,
        }
    }

    /// End of a measurement interval.
    pub fn measure(&mut self, ctx: &mut Ctx<'_, TcpMsg>, me: usize) {
        let m = RouterMeasurement {
            dt: self.measure_interval.as_secs_f64(),
            arrival_bytes: self.arrival_bytes,
            departure_bytes: self.departure_bytes,
            queue_pkts: self.queue.len(),
            queue_bytes: self.queue_bytes,
            capacity: self.capacity,
        };
        self.qdisc.on_interval(&m);
        self.queue_series.push(ctx.now(), self.queue.len() as f64);
        let fs = self.qdisc.fair_share();
        if !fs.is_nan() {
            self.macr_series.push(ctx.now(), fs);
        }
        self.throughput_series.push(ctx.now(), m.departure_rate());
        if fs.is_finite() {
            ctx.emit(|| {
                let t = self.qdisc.telemetry();
                ProbeEvent::MacrUpdate {
                    port: me as u32,
                    macr: fs,
                    delta: t.delta,
                    dev: t.dev,
                    gain: t.gain,
                }
            });
        }
        self.arrival_bytes = 0;
        self.departure_bytes = 0;
        ctx.send_self(
            self.measure_interval,
            TcpMsg::Timer(TcpTimer::Measure { port: me }),
        );
    }
}

/// A router node.
pub struct Router {
    name: String,
    ports: Vec<RPort>,
    /// Routing table indexed by flow id. Flow ids are dense small
    /// integers, so a flat vector turns the per-packet route lookup into
    /// one bounds-checked load instead of a hash.
    routes: Vec<Option<FlowRoute>>,
}

impl Router {
    /// An empty router; ports and routes are installed by the builder.
    pub fn new(name: &str) -> Self {
        Router {
            name: name.to_string(),
            ports: Vec::new(),
            routes: Vec::new(),
        }
    }

    /// Router name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add an output port; returns its index.
    pub fn add_port(&mut self, port: RPort) -> usize {
        self.ports.push(port);
        self.ports.len() - 1
    }

    /// Install a flow route.
    pub fn add_route(&mut self, flow: FlowId, route: FlowRoute) {
        assert!(route.fwd_port < self.ports.len());
        assert!(route.bwd_port < self.ports.len());
        let idx = flow.0 as usize;
        if idx >= self.routes.len() {
            self.routes.resize(idx + 1, None);
        }
        assert!(self.routes[idx].is_none(), "duplicate route for {flow:?}");
        self.routes[idx] = Some(route);
    }

    /// Port accessor.
    pub fn port(&self, idx: usize) -> &RPort {
        &self.ports[idx]
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    fn handle_pkt(&mut self, ctx: &mut Ctx<'_, TcpMsg>, pkt: Packet) {
        let route = self
            .routes
            .get(pkt.flow.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("router {}: no route for {:?}", self.name, pkt.flow));
        if pkt.is_reverse() {
            // ACKs and quenches ride the reverse path untouched.
            let p = route.bwd_port;
            let wire = pkt.wire;
            self.ports[p].arrival_bytes += u64::from(wire);
            self.ports[p].push(ctx, p, pkt);
        } else {
            let flow = pkt.flow;
            let p = route.fwd_port;
            let quench = self.ports[p].arrive(ctx, p, pkt);
            if quench {
                let q = route.bwd_port;
                let qpkt = Packet::quench(flow);
                self.ports[q].arrival_bytes += u64::from(qpkt.wire);
                self.ports[q].push(ctx, q, qpkt);
            }
        }
    }
}

impl Node<TcpMsg> for Router {
    fn on_event(&mut self, ctx: &mut Ctx<'_, TcpMsg>, msg: TcpMsg) {
        match msg {
            TcpMsg::Pkt(pkt) => self.handle_pkt(ctx, pkt),
            TcpMsg::Timer(TcpTimer::TxDone { port }) => self.ports[port].tx_done(ctx, port),
            TcpMsg::Timer(TcpTimer::Measure { port }) => self.ports[port].measure(ctx, port),
            TcpMsg::Timer(TcpTimer::SetRate { port, bps }) => self.ports[port].set_capacity(bps),
            TcpMsg::Timer(t) => unreachable!("router received {t:?}"),
        }
    }
}
