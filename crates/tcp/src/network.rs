//! Topology builder for TCP scenarios, mirroring the ATM one.
//!
//! Routers are connected by trunks (each direction gets its own port and
//! its own queue-discipline instance); flows attach to their first router
//! through an access link whose propagation delay sets the flow's RTT
//! share (the heterogeneous-RTT experiments vary it per flow). Access
//! ports always run drop-tail — the mechanisms under test live on the
//! contended trunk ports.

use crate::cc::CongestionControl;
use crate::packet::{FlowId, TcpMsg, TcpTimer};
use crate::qdisc::{DropTail, QueueDiscipline};
use crate::reno::Reno;
use crate::router::{FlowRoute, RPort, Router};
use crate::sink::TcpSink;
use crate::source::TcpSource;
use crate::vegas::{Vegas, VegasConfig};
use phantom_sim::stats::TimeSeries;
use phantom_sim::{Engine, NodeId, ShardHints, SimDuration, SimTime};

/// Index of a router within the builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RtIdx(pub usize);

/// Index of a trunk within the builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrunkIdx(pub usize);

/// Convert Mb/s to bytes/s.
pub fn mbps_to_bps(mbps: f64) -> f64 {
    mbps * 1e6 / 8.0
}

/// Access-link rate, bytes/s (100 Mb/s).
const ACCESS_BPS: f64 = 100e6 / 8.0;

struct TrunkSpec {
    a: usize,
    b: usize,
    capacity: f64, // bytes/s
    prop: SimDuration,
}

/// Which congestion-control algorithm a flow's sender runs.
#[derive(Clone, Copy, Debug)]
pub enum CcAlgorithm {
    /// TCP Reno (the paper's default end system).
    Reno,
    /// TCP Vegas with the given thresholds.
    Vegas(VegasConfig),
}

impl CcAlgorithm {
    fn boxed(&self, mss: u32, max_cwnd: f64) -> Box<dyn CongestionControl> {
        match *self {
            CcAlgorithm::Reno => Box::new(Reno::new(mss, max_cwnd)),
            CcAlgorithm::Vegas(cfg) => {
                let cfg = VegasConfig { max_cwnd, ..cfg };
                Box::new(Vegas::new(mss, cfg))
            }
        }
    }
}

struct FlowSpec {
    path: Vec<usize>,
    start: SimTime,
    access_prop: SimDuration,
    cc: CcAlgorithm,
}

/// Declarative TCP topology.
pub struct TcpNetworkBuilder {
    mss: u32,
    max_cwnd: f64,
    queue_cap_pkts: usize,
    measure_interval: SimDuration,
    cr_interval: SimDuration,
    goodput_interval: SimDuration,
    access_prop: SimDuration,
    delayed_ack: Option<SimDuration>,
    router_names: Vec<String>,
    trunks: Vec<TrunkSpec>,
    flows: Vec<FlowSpec>,
}

impl Default for TcpNetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpNetworkBuilder {
    /// Paper-flavored defaults: 512-byte packets, 100-packet router
    /// buffers, 10 ms measurement and CR intervals, 100 Mb/s access links
    /// with 0.1 ms propagation.
    pub fn new() -> Self {
        TcpNetworkBuilder {
            mss: 512,
            max_cwnd: 10_000.0,
            queue_cap_pkts: 100,
            measure_interval: SimDuration::from_millis(10),
            cr_interval: SimDuration::from_millis(10),
            goodput_interval: SimDuration::from_millis(20),
            access_prop: SimDuration::from_micros(100),
            delayed_ack: None,
            router_names: Vec::new(),
            trunks: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Override the segment size.
    pub fn mss(mut self, mss: u32) -> Self {
        assert!(mss > 0);
        self.mss = mss;
        self
    }

    /// Override the router buffer size (packets).
    pub fn queue_cap(mut self, pkts: usize) -> Self {
        self.queue_cap_pkts = pkts;
        self
    }

    /// Override the measurement interval (Δt of the router's MACR).
    pub fn measure_interval(mut self, dt: SimDuration) -> Self {
        assert!(!dt.is_zero());
        self.measure_interval = dt;
        self
    }

    /// Override the senders' CR sampling interval.
    pub fn cr_interval(mut self, dt: SimDuration) -> Self {
        assert!(!dt.is_zero());
        self.cr_interval = dt;
        self
    }

    /// Override the default access propagation delay.
    pub fn access_prop(mut self, prop: SimDuration) -> Self {
        self.access_prop = prop;
        self
    }

    /// Enable delayed ACKs at every receiver (ack every second segment,
    /// bounded by `delay`).
    pub fn delayed_ack(mut self, delay: SimDuration) -> Self {
        assert!(!delay.is_zero());
        self.delayed_ack = Some(delay);
        self
    }

    /// Cap the senders' congestion window (segments).
    pub fn max_cwnd(mut self, segs: f64) -> Self {
        assert!(segs >= 2.0);
        self.max_cwnd = segs;
        self
    }

    /// Declare a router.
    pub fn router(&mut self, name: &str) -> RtIdx {
        self.router_names.push(name.to_string());
        RtIdx(self.router_names.len() - 1)
    }

    /// Declare a bidirectional trunk (capacity in Mb/s).
    pub fn trunk(&mut self, a: RtIdx, b: RtIdx, mbps: f64, prop: SimDuration) -> TrunkIdx {
        assert!(a != b);
        assert!(a.0 < self.router_names.len() && b.0 < self.router_names.len());
        self.trunks.push(TrunkSpec {
            a: a.0,
            b: b.0,
            capacity: mbps_to_bps(mbps),
            prop,
        });
        TrunkIdx(self.trunks.len() - 1)
    }

    /// Declare a Reno flow along `path`, starting at `start`.
    pub fn flow(&mut self, path: &[RtIdx], start: SimTime) -> usize {
        self.flow_with_cc(path, start, CcAlgorithm::Reno)
    }

    /// Declare a flow with an explicit congestion-control algorithm.
    pub fn flow_with_cc(&mut self, path: &[RtIdx], start: SimTime, cc: CcAlgorithm) -> usize {
        assert!(!path.is_empty());
        for w in path.windows(2) {
            assert!(
                self.find_trunk(w[0].0, w[1].0).is_some(),
                "no trunk between {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        self.flows.push(FlowSpec {
            path: path.iter().map(|r| r.0).collect(),
            start,
            access_prop: self.access_prop,
            cc,
        });
        self.flows.len() - 1
    }

    /// Override the access propagation delay of the most recently added
    /// flow (heterogeneous-RTT scenarios).
    pub fn last_flow_access_prop(&mut self, prop: SimDuration) {
        self.flows.last_mut().expect("no flow yet").access_prop = prop;
    }

    fn find_trunk(&self, a: usize, b: usize) -> Option<usize> {
        self.trunks
            .iter()
            .position(|t| (t.a == a && t.b == b) || (t.a == b && t.b == a))
    }

    /// Wire everything into `engine`. `qdisc` is called once per trunk
    /// direction.
    pub fn build(
        self,
        engine: &mut Engine<TcpMsg>,
        qdisc: &mut dyn FnMut() -> Box<dyn QueueDiscipline>,
    ) -> TcpNetwork {
        let router_ids: Vec<NodeId> = self
            .router_names
            .iter()
            .map(|n| engine.add_node(Router::new(n)))
            .collect();

        let mut flows = Vec::new();
        for (i, spec) in self.flows.iter().enumerate() {
            let flow = FlowId(i as u32);
            let first = router_ids[spec.path[0]];
            let last = router_ids[*spec.path.last().unwrap()];
            let source = engine.add_node(TcpSource::with_cc(
                flow,
                spec.cc.boxed(self.mss, self.max_cwnd),
                first,
                ACCESS_BPS,
                spec.access_prop,
                spec.start,
                self.cr_interval,
            ));
            let mut sink_node = TcpSink::new(flow, last, spec.access_prop, self.goodput_interval);
            if let Some(d) = self.delayed_ack {
                sink_node = sink_node.with_delayed_ack(d);
            }
            let sink = engine.add_node(sink_node);
            flows.push(FlowHandle {
                flow,
                source,
                sink,
                path: spec.path.clone(),
            });
        }

        let mut trunk_handles = Vec::new();
        for t in &self.trunks {
            let a_port = engine
                .node_mut::<Router>(router_ids[t.a])
                .add_port(RPort::new(
                    router_ids[t.b],
                    t.capacity,
                    t.prop,
                    self.queue_cap_pkts,
                    qdisc(),
                    self.measure_interval,
                ));
            let b_port = engine
                .node_mut::<Router>(router_ids[t.b])
                .add_port(RPort::new(
                    router_ids[t.a],
                    t.capacity,
                    t.prop,
                    self.queue_cap_pkts,
                    qdisc(),
                    self.measure_interval,
                ));
            trunk_handles.push(TcpTrunkHandle {
                a_router: router_ids[t.a],
                a_port,
                b_router: router_ids[t.b],
                b_port,
                a_idx: t.a,
            });
        }

        for (i, spec) in self.flows.iter().enumerate() {
            let h = &flows[i];
            let src_access = engine
                .node_mut::<Router>(router_ids[spec.path[0]])
                .add_port(RPort::new(
                    h.source,
                    ACCESS_BPS,
                    spec.access_prop,
                    self.queue_cap_pkts,
                    Box::new(DropTail),
                    self.measure_interval,
                ));
            let dst_access = engine
                .node_mut::<Router>(router_ids[*spec.path.last().unwrap()])
                .add_port(RPort::new(
                    h.sink,
                    ACCESS_BPS,
                    spec.access_prop,
                    self.queue_cap_pkts,
                    Box::new(DropTail),
                    self.measure_interval,
                ));
            for (pos, &rt) in spec.path.iter().enumerate() {
                let fwd_port = if pos + 1 < spec.path.len() {
                    let tr = self.find_trunk(rt, spec.path[pos + 1]).unwrap();
                    let th = &trunk_handles[tr];
                    if th.a_idx == rt {
                        th.a_port
                    } else {
                        th.b_port
                    }
                } else {
                    dst_access
                };
                let bwd_port = if pos > 0 {
                    let tr = self.find_trunk(rt, spec.path[pos - 1]).unwrap();
                    let th = &trunk_handles[tr];
                    if th.a_idx == rt {
                        th.a_port
                    } else {
                        th.b_port
                    }
                } else {
                    src_access
                };
                engine
                    .node_mut::<Router>(router_ids[rt])
                    .add_route(h.flow, FlowRoute { fwd_port, bwd_port });
            }
        }

        // Kick off timers.
        for &rt in &router_ids {
            let nports = engine.node::<Router>(rt).port_count();
            for p in 0..nports {
                engine.schedule(
                    SimTime::ZERO + self.measure_interval,
                    rt,
                    TcpMsg::Timer(TcpTimer::Measure { port: p }),
                );
            }
        }
        for (i, spec) in self.flows.iter().enumerate() {
            engine.schedule(spec.start, flows[i].source, TcpMsg::Timer(TcpTimer::Tick));
            engine.schedule(
                spec.start + self.cr_interval,
                flows[i].source,
                TcpMsg::Timer(TcpTimer::CrSample),
            );
            engine.schedule(
                SimTime::ZERO + self.goodput_interval,
                flows[i].sink,
                TcpMsg::Timer(TcpTimer::Measure { port: 0 }),
            );
        }

        // Shard hints: the minimum declared propagation delay (trunks
        // and access links) bounds every inter-node message, so it is a
        // sound conservative lookahead for `--shards` runs. Both flow
        // endpoints anchor to the flow's first router, keeping each
        // access link and single-trunk data path shard-local.
        let lookahead = self
            .trunks
            .iter()
            .map(|t| t.prop)
            .chain(self.flows.iter().map(|f| f.access_prop))
            .min()
            .unwrap_or(SimDuration::ZERO);
        let mut affinity = Vec::with_capacity(flows.len() * 2);
        for h in &flows {
            let anchor = router_ids[h.path[0]];
            affinity.push((h.source, anchor));
            affinity.push((h.sink, anchor));
        }
        engine.set_shard_hints(ShardHints {
            lookahead,
            affinity,
        });

        TcpNetwork {
            routers: router_ids,
            trunks: trunk_handles,
            flows,
        }
    }
}

/// Handle to a built trunk.
pub struct TcpTrunkHandle {
    /// Router owning the a→b port.
    pub a_router: NodeId,
    /// Port index of the a→b direction.
    pub a_port: usize,
    /// Router owning the b→a port.
    pub b_router: NodeId,
    /// Port index of the b→a direction.
    pub b_port: usize,
    a_idx: usize,
}

/// Handle to a built flow.
pub struct FlowHandle {
    /// The flow id.
    pub flow: FlowId,
    /// Sender node.
    pub source: NodeId,
    /// Receiver node.
    pub sink: NodeId,
    /// Router indices along the forward path.
    pub path: Vec<usize>,
}

/// The built TCP network.
pub struct TcpNetwork {
    /// Router node ids, in declaration order.
    pub routers: Vec<NodeId>,
    /// Trunk handles, in declaration order.
    pub trunks: Vec<TcpTrunkHandle>,
    /// Flow handles, in declaration order.
    pub flows: Vec<FlowHandle>,
}

impl TcpNetwork {
    /// The a→b port of trunk `t`.
    pub fn trunk_port<'e>(&self, engine: &'e Engine<TcpMsg>, t: TrunkIdx) -> &'e RPort {
        let th = &self.trunks[t.0];
        engine.node::<Router>(th.a_router).port(th.a_port)
    }

    /// Queue-length trace of trunk `t`'s a→b port.
    pub fn trunk_queue<'e>(&self, engine: &'e Engine<TcpMsg>, t: TrunkIdx) -> &'e TimeSeries {
        &self.trunk_port(engine, t).queue_series
    }

    /// MACR trace of trunk `t`'s a→b port (empty for non-Phantom qdiscs).
    pub fn trunk_macr<'e>(&self, engine: &'e Engine<TcpMsg>, t: TrunkIdx) -> &'e TimeSeries {
        &self.trunk_port(engine, t).macr_series
    }

    /// Goodput trace of flow `f`.
    pub fn flow_goodput<'e>(&self, engine: &'e Engine<TcpMsg>, f: usize) -> &'e TimeSeries {
        &engine.node::<TcpSink>(self.flows[f].sink).goodput_series
    }

    /// Mean goodput of flow `f` over the run, bytes/s.
    pub fn flow_mean_goodput(&self, engine: &Engine<TcpMsg>, f: usize) -> f64 {
        engine
            .node::<TcpSink>(self.flows[f].sink)
            .mean_goodput(engine.now().as_secs_f64())
    }

    /// The sender of flow `f`.
    pub fn source<'e>(&self, engine: &'e Engine<TcpMsg>, f: usize) -> &'e TcpSource {
        engine.node::<TcpSource>(self.flows[f].source)
    }

    /// The receiver of flow `f`.
    pub fn sink<'e>(&self, engine: &'e Engine<TcpMsg>, f: usize) -> &'e TcpSink {
        engine.node::<TcpSink>(self.flows[f].sink)
    }

    /// Schedule a capacity trace on trunk `t`'s a→b port: at each `(time,
    /// bps)` point the port's rate changes. Models a trunk carried over an
    /// ABR virtual circuit whose bandwidth follows the ATM network's
    /// allocation (the paper's TCP-over-ATM motivation).
    pub fn schedule_capacity_trace(
        &self,
        engine: &mut Engine<TcpMsg>,
        t: TrunkIdx,
        points: &[(SimTime, f64)],
    ) {
        let th = &self.trunks[t.0];
        for &(at, bps) in points {
            assert!(bps > 0.0, "capacity must stay positive");
            engine.schedule(
                at,
                th.a_router,
                TcpMsg::Timer(TcpTimer::SetRate {
                    port: th.a_port,
                    bps,
                }),
            );
        }
    }
}
