//! Topology builder: declare switches, trunks and sessions; get a wired
//! [`phantom_sim::Engine`] with all timers kicked off and handles for
//! reading traces back after the run.
//!
//! Conventions (matching the paper's BONeS configurations):
//!
//! * Sessions attach to their first switch through an *access link*
//!   (default: PCR capacity, 0.01 ms propagation — the paper's
//!   "negligible RTT" links). Access ports carry no allocator and record
//!   no series; rate control, and the traces readers ask for, live on the
//!   contended trunk ports.
//! * Each inter-switch *trunk* creates one output port per direction, each
//!   running its own instance of the allocator under test.
//! * The forward path of a session is source → sw₀ → … → swₖ → dest; the
//!   backward RM path retraces it in reverse.

use crate::allocator::{NoControl, RateAllocator};
use crate::cbr::CbrSource;
use crate::cell::VcId;
use crate::dest::AbrDest;
use crate::msg::{AtmMsg, Timer};
use crate::params::AtmParams;
use crate::port::{Port, PortSeries};
use crate::source::AbrSource;
use crate::switch::{Switch, VcRoute};
use crate::traffic::Traffic;
use crate::units::mbps_to_cps;
use phantom_sim::stats::TimeSeries;
use phantom_sim::{Engine, NodeId, ShardHints, SimDuration, SimTime};

/// Index of a switch within the builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SwIdx(pub usize);

/// Index of a trunk within the builder.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TrunkIdx(pub usize);

/// Index of a session within the builder (and the built [`Network`]).
///
/// Handed out by [`NetworkBuilder::session`] and friends in declaration
/// order; equal to the session's [`VcId`] value. Typed so a session index
/// cannot be confused with a switch, trunk or raw node index at
/// metro-scale call sites.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct SessionId(pub usize);

struct TrunkSpec {
    a: usize,
    b: usize,
    capacity: f64,
    prop: SimDuration,
    loss_prob: f64,
}

enum SessionKind {
    Abr { traffic: Traffic, params: AtmParams },
    Cbr { rate: f64, traffic: Traffic },
}

struct SessionSpec {
    path: Vec<usize>,
    kind: SessionKind,
    access_prop: SimDuration,
}

/// Declarative topology description.
pub struct NetworkBuilder {
    default_params: AtmParams,
    measure_interval: SimDuration,
    rate_sample_interval: SimDuration,
    queue_cap: usize,
    access_capacity: f64,
    access_prop: SimDuration,
    switch_names: Vec<String>,
    trunks: Vec<TrunkSpec>,
    sessions: Vec<SessionSpec>,
    cbr_priority: bool,
    /// `Some(traced sessions)` in lean mode (see
    /// [`NetworkBuilder::lean_access`]).
    lean: Option<Vec<SessionId>>,
    acr_sample_stride: u64,
}

impl Default for NetworkBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl NetworkBuilder {
    /// A builder with the paper's defaults: TM4.0 parameters, 1 ms
    /// measurement interval, 16 Ki-cell port buffers, PCR-speed access
    /// links with 0.01 ms propagation.
    pub fn new() -> Self {
        let params = AtmParams::paper();
        NetworkBuilder {
            default_params: params,
            measure_interval: SimDuration::from_millis(1),
            rate_sample_interval: SimDuration::from_millis(5),
            queue_cap: 16_384,
            access_capacity: params.pcr,
            access_prop: SimDuration::from_micros(10),
            switch_names: Vec::new(),
            trunks: Vec::new(),
            sessions: Vec::new(),
            cbr_priority: false,
            lean: None,
            acr_sample_stride: 1,
        }
    }

    /// Serve CBR-class cells from strict-priority queues on every port
    /// (how real switches isolate reserved traffic from ABR queueing).
    pub fn cbr_priority(mut self, on: bool) -> Self {
        self.cbr_priority = on;
        self
    }

    /// Lean mode for generated metro-scale scenes: keep per-session
    /// observability state only where a reader exists.
    ///
    /// * Only the destinations of the `traced` sessions (the ones the
    ///   standard panels read) keep a cell-delay histogram; at 10^5
    ///   sessions the others' histograms would be a third of the heap.
    /// * Access ports get no measurement timers. They carry no allocator
    ///   and record no series, so their ticks would do nothing but
    ///   schedule themselves; skipping them removes two timers per
    ///   session per interval.
    ///
    /// Trunk ports — where rate allocation happens — still measure every
    /// interval. Default off: the standard figures keep every delay
    /// histogram and their historical event streams.
    pub fn lean_access(mut self, traced: &[SessionId]) -> Self {
        self.lean = Some(traced.to_vec());
        self
    }

    /// Record only every `stride`-th ACR sample on every session source
    /// (trace-memory control for metro-scale runs). Default 1: record
    /// every update, as the paper figures do.
    pub fn acr_sample_stride(mut self, stride: u64) -> Self {
        self.acr_sample_stride = stride.max(1);
        self
    }

    /// Override the default end-system parameters for sessions added later.
    pub fn params(mut self, p: AtmParams) -> Self {
        self.default_params = p;
        self.access_capacity = p.pcr;
        self
    }

    /// Override the allocator measurement interval (the paper's Δt).
    pub fn measure_interval(mut self, dt: SimDuration) -> Self {
        assert!(!dt.is_zero());
        self.measure_interval = dt;
        self
    }

    /// Override the destination goodput sampling interval.
    pub fn rate_sample_interval(mut self, dt: SimDuration) -> Self {
        assert!(!dt.is_zero());
        self.rate_sample_interval = dt;
        self
    }

    /// Override the per-port queue bound, in cells.
    pub fn queue_cap(mut self, cells: usize) -> Self {
        self.queue_cap = cells;
        self
    }

    /// Override the default access-link propagation delay.
    pub fn access_prop(mut self, prop: SimDuration) -> Self {
        self.access_prop = prop;
        self
    }

    /// Declare a switch.
    pub fn switch(&mut self, name: &str) -> SwIdx {
        self.switch_names.push(name.to_string());
        SwIdx(self.switch_names.len() - 1)
    }

    /// Declare a bidirectional trunk between `a` and `b` with the given
    /// capacity (Mb/s) and one-way propagation delay.
    pub fn trunk(&mut self, a: SwIdx, b: SwIdx, mbps: f64, prop: SimDuration) -> TrunkIdx {
        assert!(a != b, "self-trunk");
        assert!(a.0 < self.switch_names.len() && b.0 < self.switch_names.len());
        self.trunks.push(TrunkSpec {
            a: a.0,
            b: b.0,
            capacity: mbps_to_cps(mbps),
            prop,
            loss_prob: 0.0,
        });
        TrunkIdx(self.trunks.len() - 1)
    }

    /// Inject link-level loss on the most recently declared trunk: each
    /// cell is dropped on the wire with probability `p` (both
    /// directions). Failure injection for resilience experiments.
    pub fn last_trunk_loss(&mut self, p: f64) {
        assert!((0.0..1.0).contains(&p));
        self.trunks.last_mut().expect("no trunk yet").loss_prob = p;
    }

    /// Declare a session crossing `path` (consecutive switches must be
    /// connected by trunks), with the given traffic model and default
    /// parameters. Returns the session index.
    pub fn session(&mut self, path: &[SwIdx], traffic: Traffic) -> SessionId {
        let params = self.default_params;
        self.session_with(path, traffic, params)
    }

    /// Like [`NetworkBuilder::session`] with per-session parameters.
    pub fn session_with(
        &mut self,
        path: &[SwIdx],
        traffic: Traffic,
        params: AtmParams,
    ) -> SessionId {
        self.push_session(path, SessionKind::Abr { traffic, params })
    }

    /// Declare an *unresponsive* CBR session sending at `mbps` whenever
    /// `traffic` is active. It emits no RM cells and ignores all
    /// feedback — background load the rate allocators must live with.
    pub fn cbr_session(&mut self, path: &[SwIdx], mbps: f64, traffic: Traffic) -> SessionId {
        assert!(mbps > 0.0);
        self.push_session(
            path,
            SessionKind::Cbr {
                rate: mbps_to_cps(mbps),
                traffic,
            },
        )
    }

    fn push_session(&mut self, path: &[SwIdx], kind: SessionKind) -> SessionId {
        assert!(
            !path.is_empty(),
            "session path must name at least one switch"
        );
        for w in path.windows(2) {
            assert!(
                self.find_trunk(w[0].0, w[1].0).is_some(),
                "no trunk between consecutive path switches {:?} and {:?}",
                w[0],
                w[1]
            );
        }
        self.sessions.push(SessionSpec {
            path: path.iter().map(|s| s.0).collect(),
            kind,
            access_prop: self.access_prop,
        });
        SessionId(self.sessions.len() - 1)
    }

    /// Override the access-link propagation delay of the *most recently
    /// added* session (for heterogeneous-RTT scenarios).
    pub fn last_session_access_prop(&mut self, prop: SimDuration) {
        self.sessions
            .last_mut()
            .expect("no session added yet")
            .access_prop = prop;
    }

    fn find_trunk(&self, a: usize, b: usize) -> Option<usize> {
        self.trunks
            .iter()
            .position(|t| (t.a == a && t.b == b) || (t.a == b && t.b == a))
    }

    /// Wire everything into `engine`. `alloc` is called once per trunk
    /// direction to create that port's allocator.
    pub fn build(
        self,
        engine: &mut Engine<AtmMsg>,
        alloc: &mut dyn FnMut() -> Box<dyn RateAllocator>,
    ) -> Network {
        // Event-kind attribution for the in-run profiler (free when
        // profiling is off: the classifier is only consulted from the
        // instrumented run loop).
        engine.set_event_classifier(|m| m.kind_label());

        // 1. Switch nodes.
        let switch_ids: Vec<NodeId> = self
            .switch_names
            .iter()
            .map(|n| engine.add_node(Switch::new(n)))
            .collect();

        // 2. End-system nodes.
        let mut sessions = Vec::new();
        for (i, spec) in self.sessions.iter().enumerate() {
            let vc = VcId(i as u32);
            let first = switch_ids[spec.path[0]];
            let last = switch_ids[*spec.path.last().unwrap()];
            let source = match spec.kind {
                SessionKind::Abr { traffic, params } => engine.add_node(
                    AbrSource::new(vc, params, traffic, first, spec.access_prop)
                        .with_acr_sample_stride(self.acr_sample_stride),
                ),
                SessionKind::Cbr { rate, traffic } => {
                    engine.add_node(CbrSource::new(vc, rate, traffic, first, spec.access_prop))
                }
            };
            let mut dest = AbrDest::new(vc, last, spec.access_prop, self.rate_sample_interval);
            if let Some(traced) = &self.lean {
                if !traced.contains(&SessionId(i)) {
                    dest = dest.without_delay_hist();
                }
            }
            let dest = engine.add_node(dest);
            sessions.push(SessionHandle {
                vc,
                source,
                dest,
                path: spec.path.clone(),
            });
        }

        // 3. Trunk ports (one per direction, each with its own allocator
        // and the series the `trunk_*` readers return).
        let mut trunk_handles = Vec::new();
        for t in &self.trunks {
            let mut mk = |to: NodeId| {
                let mut p = Port::new(
                    to,
                    t.capacity,
                    t.prop,
                    self.queue_cap,
                    alloc(),
                    self.measure_interval,
                );
                p.record_series();
                if t.loss_prob > 0.0 {
                    p.set_loss_prob(t.loss_prob);
                }
                if self.cbr_priority {
                    p.enable_cbr_priority(self.queue_cap);
                }
                p
            };
            let pa = mk(switch_ids[t.b]);
            let pb = mk(switch_ids[t.a]);
            let a_port = engine.node_mut::<Switch>(switch_ids[t.a]).add_port(pa);
            let b_port = engine.node_mut::<Switch>(switch_ids[t.b]).add_port(pb);
            trunk_handles.push(TrunkHandle {
                a_switch: switch_ids[t.a],
                a_port,
                b_switch: switch_ids[t.b],
                b_port,
                a_idx: t.a,
            });
        }

        // Ports added so far are trunk ports; everything after is access.
        let trunk_port_count: Vec<usize> = switch_ids
            .iter()
            .map(|&sw| engine.node::<Switch>(sw).port_count())
            .collect();

        // 4. Access ports and routes.
        for (i, spec) in self.sessions.iter().enumerate() {
            let h = &sessions[i];
            let vc = h.vc;
            let src_access = engine
                .node_mut::<Switch>(switch_ids[spec.path[0]])
                .add_port(Port::new(
                    h.source,
                    self.access_capacity,
                    spec.access_prop,
                    self.queue_cap,
                    Box::new(NoControl),
                    self.measure_interval,
                ));
            let dst_access = engine
                .node_mut::<Switch>(switch_ids[*spec.path.last().unwrap()])
                .add_port(Port::new(
                    h.dest,
                    self.access_capacity,
                    spec.access_prop,
                    self.queue_cap,
                    Box::new(NoControl),
                    self.measure_interval,
                ));
            // Per-switch routes along the path.
            for (pos, &sw) in spec.path.iter().enumerate() {
                let fwd_port = if pos + 1 < spec.path.len() {
                    let tr = self.find_trunk(sw, spec.path[pos + 1]).unwrap();
                    let th = &trunk_handles[tr];
                    if th.a_idx == sw {
                        th.a_port
                    } else {
                        th.b_port
                    }
                } else {
                    dst_access
                };
                let bwd_port = if pos > 0 {
                    let tr = self.find_trunk(sw, spec.path[pos - 1]).unwrap();
                    let th = &trunk_handles[tr];
                    if th.a_idx == sw {
                        th.a_port
                    } else {
                        th.b_port
                    }
                } else {
                    src_access
                };
                engine
                    .node_mut::<Switch>(switch_ids[sw])
                    .add_route(vc, VcRoute { fwd_port, bwd_port });
            }
        }
        // `add_route` grows the tables by doubling; every route is in now.
        for &sw in &switch_ids {
            engine.node_mut::<Switch>(sw).shrink_routes();
        }

        // 5. Kick off timers. In lean mode, access ports (every port
        // index at or past the trunk count) get no measurement timer at
        // all — `Port::measure` self-reschedules, so omitting the initial
        // kick silences the port for the whole run.
        for (si, &sw) in switch_ids.iter().enumerate() {
            let nports = if self.lean.is_some() {
                trunk_port_count[si]
            } else {
                engine.node::<Switch>(sw).port_count()
            };
            for p in 0..nports {
                engine.schedule(
                    SimTime::ZERO + self.measure_interval,
                    sw,
                    AtmMsg::Timer(Timer::Measure { port: p }),
                );
            }
        }
        for (i, spec) in self.sessions.iter().enumerate() {
            let traffic = match spec.kind {
                SessionKind::Abr { traffic, .. } => traffic,
                SessionKind::Cbr { traffic, .. } => traffic,
            };
            let kick = match traffic {
                Traffic::Random { .. } => Some(SimTime::ZERO),
                t => t.next_active(SimTime::ZERO),
            };
            if let Some(t) = kick {
                engine.schedule(t, sessions[i].source, AtmMsg::Timer(Timer::SourceTx));
            }
            engine.schedule(
                SimTime::ZERO + self.rate_sample_interval,
                sessions[i].dest,
                AtmMsg::Timer(Timer::Measure { port: 0 }),
            );
        }

        // 6. Shard hints: every inter-node message crosses a declared
        // link (trunk or access), so the minimum declared propagation
        // delay is a sound conservative lookahead for `--shards` runs.
        // Both endpoints of each session are anchored to its *first*
        // switch: the source-side access link and the whole forward data
        // path from the first switch stay shard-local for single-trunk
        // scenes, and fan-in destinations spread with their sources.
        let lookahead = self
            .trunks
            .iter()
            .map(|t| t.prop)
            .chain(self.sessions.iter().map(|s| s.access_prop))
            .min()
            .unwrap_or(SimDuration::ZERO);
        let mut affinity = Vec::with_capacity(sessions.len() * 2);
        for h in &sessions {
            let anchor = switch_ids[h.path[0]];
            affinity.push((h.source, anchor));
            affinity.push((h.dest, anchor));
        }
        engine.set_shard_hints(ShardHints {
            lookahead,
            affinity,
        });

        Network {
            switches: switch_ids
                .iter()
                .zip(&self.switch_names)
                .map(|(&node, name)| SwitchHandle {
                    node,
                    name: name.clone(),
                })
                .collect(),
            trunks: trunk_handles,
            sessions,
        }
    }
}

/// Handle to a built switch.
pub struct SwitchHandle {
    /// The engine node id.
    pub node: NodeId,
    /// The declared name.
    pub name: String,
}

/// Handle to a built trunk: the two directional ports.
pub struct TrunkHandle {
    /// Switch owning the a→b port.
    pub a_switch: NodeId,
    /// Port index of the a→b direction.
    pub a_port: usize,
    /// Switch owning the b→a port.
    pub b_switch: NodeId,
    /// Port index of the b→a direction.
    pub b_port: usize,
    a_idx: usize,
}

/// Handle to a built session.
pub struct SessionHandle {
    /// The session's VC id.
    pub vc: VcId,
    /// Source end-system node.
    pub source: NodeId,
    /// Destination end-system node.
    pub dest: NodeId,
    /// Switch indices along the forward path.
    pub path: Vec<usize>,
}

/// The built network: node handles for reading state after a run.
pub struct Network {
    /// All switches, in declaration order.
    pub switches: Vec<SwitchHandle>,
    /// All trunks, in declaration order.
    pub trunks: Vec<TrunkHandle>,
    /// All sessions, in declaration order.
    pub sessions: Vec<SessionHandle>,
}

impl Network {
    /// The traces of trunk `t`'s a→b port (every trunk port records them).
    fn trunk_series<'e>(&self, engine: &'e Engine<AtmMsg>, t: TrunkIdx) -> &'e PortSeries {
        self.trunk_port(engine, t)
            .series()
            .expect("the builder records series on every trunk port")
    }

    /// MACR (fair-share) trace of trunk `t`'s a→b port.
    pub fn trunk_macr<'e>(&self, engine: &'e Engine<AtmMsg>, t: TrunkIdx) -> &'e TimeSeries {
        &self.trunk_series(engine, t).macr
    }

    /// Queue-length trace of trunk `t`'s a→b port.
    pub fn trunk_queue<'e>(&self, engine: &'e Engine<AtmMsg>, t: TrunkIdx) -> &'e TimeSeries {
        &self.trunk_series(engine, t).queue
    }

    /// Throughput trace (cells/s) of trunk `t`'s a→b port.
    pub fn trunk_throughput<'e>(&self, engine: &'e Engine<AtmMsg>, t: TrunkIdx) -> &'e TimeSeries {
        &self.trunk_series(engine, t).throughput
    }

    /// The a→b port of trunk `t` itself.
    pub fn trunk_port<'e>(&self, engine: &'e Engine<AtmMsg>, t: TrunkIdx) -> &'e Port {
        let th = &self.trunks[t.0];
        engine.node::<Switch>(th.a_switch).port(th.a_port)
    }

    /// ACR trace of session `s`.
    pub fn session_acr<'e>(&self, engine: &'e Engine<AtmMsg>, s: SessionId) -> &'e TimeSeries {
        &engine
            .node::<AbrSource>(self.sessions[s.0].source)
            .acr_series
    }

    /// Delivered-rate trace of session `s`.
    pub fn session_rate<'e>(&self, engine: &'e Engine<AtmMsg>, s: SessionId) -> &'e TimeSeries {
        &engine.node::<AbrDest>(self.sessions[s.0].dest).rate_series
    }

    /// The [`SessionHandle`] of session `s`.
    pub fn session(&self, s: SessionId) -> &SessionHandle {
        &self.sessions[s.0]
    }
}
