//! Lowering a validated [`Scene`] onto the simulator.
//!
//! The compiler drives the builder in declaration order — switches,
//! then trunks, then sessions, then `NetworkBuilder::build` on a fresh
//! `Engine::new(seed)` — so a compiled scene is a pure function of
//! `(scene, seed)`, and its event stream (and therefore its traces and
//! analysis reports) is byte-identical at any `--jobs` level.
//!
//! Timeline events are resolved at compile time:
//!
//! * `session_start` / `session_stop` (churn) fold into the session's
//!   [`Traffic`] window before the source node is even constructed, so
//!   churn costs nothing at run time;
//! * `set_capacity`, `link_down` and `link_up` lower to
//!   [`AdminCmd`] messages scheduled against *both* directional ports
//!   of the trunk, making a dynamic run a pure function of
//!   `(scene, seed)`.

use crate::algorithm::AtmAlgorithm;
use crate::model::{EventKind, GenerateDecl, GenerateKind, Scene, TrafficDecl};
use phantom_atm::allocator::RateAllocator;
use phantom_atm::network::{Network, NetworkBuilder, SessionId, SwIdx, TrunkIdx};
use phantom_atm::units::mbps_to_cps;
use phantom_atm::{AdminCmd, AtmMsg, Traffic};
use phantom_core::{MacrConfig, PhantomAllocator, PhantomConfig};
use phantom_sim::{Engine, SimDuration, SimTime};

/// A scene lowered onto a ready-to-run engine.
pub struct CompiledScene {
    /// The engine, with all sources kicked off and timeline events queued.
    pub engine: Engine<AtmMsg>,
    /// Handles into the built topology.
    pub net: Network,
    /// Run horizon.
    pub until: SimTime,
    /// The trunk the standard panels watch.
    pub bottleneck: TrunkIdx,
    /// ABR session ids (traced in the standard panels).
    pub traced: Vec<SessionId>,
    /// Tail start (seconds) for whole-run aggregate metrics.
    pub tail_from_secs: f64,
}

/// Exact `ms → SimTime` conversion: agrees bit-for-bit with
/// `SimTime::from_millis` on integral inputs.
pub fn ms_to_time(ms: f64) -> SimTime {
    SimTime((ms * 1e6).round() as u64)
}

fn ms_to_dur(ms: f64) -> SimDuration {
    SimDuration((ms * 1e6).round() as u64)
}

fn us_to_dur(us: f64) -> SimDuration {
    SimDuration((us * 1e3).round() as u64)
}

/// The algorithm of a validated scene.
fn algorithm(scene: &Scene) -> AtmAlgorithm {
    AtmAlgorithm::from_name(&scene.algorithm)
        .unwrap_or_else(|| panic!("unvalidated scene algorithm `{}`", scene.algorithm))
}

/// The allocator for one direction of trunk `t`, honouring scene-wide
/// and per-trunk Phantom overrides. With no overrides this is exactly
/// `alg.boxed()`.
fn make_allocator(scene: &Scene, alg: AtmAlgorithm, t: usize) -> Box<dyn RateAllocator> {
    let trunk = &scene.trunks[t];
    let u = trunk.u.or(scene.u);
    if u.is_none() && trunk.alpha_inc.is_none() && trunk.alpha_dec.is_none() {
        return alg.boxed();
    }
    // validate() guarantees overrides only appear with algorithm "phantom".
    let mut macr = MacrConfig::default();
    if let Some(a) = trunk.alpha_inc {
        macr.alpha_inc = a;
    }
    if let Some(a) = trunk.alpha_dec {
        macr.alpha_dec = a;
    }
    let mut cfg = PhantomConfig::paper().with_macr(macr);
    if let Some(u) = u {
        cfg = cfg.with_utilization_factor(u);
    }
    Box::new(PhantomAllocator::new(cfg))
}

/// The offered-load pattern of session index `s`, with timeline churn
/// folded into a `Traffic::window` (missing start ⇒ active from 0,
/// missing stop ⇒ active forever).
fn lower_traffic(scene: &Scene, s: usize) -> Traffic {
    let sess = &scene.sessions[s];
    match sess.traffic {
        TrafficDecl::Greedy => {
            let mut start = None;
            let mut stop = None;
            for e in &scene.timeline {
                match &e.kind {
                    EventKind::SessionStart { session } if *session == sess.id => {
                        start = Some(e.at_ms)
                    }
                    EventKind::SessionStop { session } if *session == sess.id => {
                        stop = Some(e.at_ms)
                    }
                    _ => {}
                }
            }
            if start.is_none() && stop.is_none() {
                Traffic::greedy()
            } else {
                Traffic::window(
                    start.map(ms_to_time).unwrap_or(SimTime::ZERO),
                    stop.map(ms_to_time).unwrap_or(SimTime::MAX),
                )
            }
        }
        TrafficDecl::Window { start_ms, stop_ms } => {
            Traffic::window(ms_to_time(start_ms), ms_to_time(stop_ms))
        }
        TrafficDecl::OnOff {
            start_ms,
            on_ms,
            off_ms,
        } => Traffic::on_off(ms_to_time(start_ms), ms_to_dur(on_ms), ms_to_dur(off_ms)),
        TrafficDecl::Random {
            mean_on_ms,
            mean_off_ms,
        } => Traffic::random(ms_to_dur(mean_on_ms), ms_to_dur(mean_off_ms)),
    }
}

/// SplitMix64: the per-session jitter stream for generated scenes.
/// Dependency-free and stable by construction — the jitter of session
/// `i` is a pure function of the generation seed, so a metro scene is
/// reproducible from its JSON alone.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Lower a generated ("metro") topology: drive the builder directly,
/// leaning out per-session observability (delay histograms only on the
/// traced sessions, no access-port measurement timers, strided ACR
/// samples, coarse goodput sampling) so memory per session stays flat at
/// 10^5–10^6 sessions. Only a 3-session sample (first/middle/last) is
/// traced in the standard panels.
fn compile_generated(scene: &Scene, g: &GenerateDecl, seed: u64) -> CompiledScene {
    let alg = algorithm(scene);
    let n = g.n_sessions();
    let mut traced = vec![SessionId(0), SessionId(n / 2), SessionId(n - 1)];
    traced.dedup();
    let mut b = NetworkBuilder::new()
        .cbr_priority(scene.cbr_priority)
        .lean_access(&traced)
        .acr_sample_stride(g.acr_stride)
        .rate_sample_interval(ms_to_dur(g.rate_sample_ms));
    if let Some(icr) = g.icr_mbps {
        b = b.params(phantom_atm::params::AtmParams::paper().with_icr_mbps(icr));
    }
    let spread_ns = (g.start_spread_ms * 1e6).round() as u64;
    let mut jstate = g.seed;
    let mut jitter = move || {
        if spread_ns == 0 {
            Traffic::greedy()
        } else {
            Traffic::window(SimTime(splitmix64(&mut jstate) % spread_ns), SimTime::MAX)
        }
    };
    match g.kind {
        GenerateKind::FanIn {
            leaves,
            sessions_per_leaf,
            leaf_mbps,
            root_mbps,
            prop_us,
        } => {
            let core = b.switch("core");
            let sink = b.switch("sink");
            // Trunk 0 is the shared root — the default bottleneck.
            b.trunk(core, sink, root_mbps, us_to_dur(prop_us));
            for l in 0..leaves {
                let leaf = b.switch(&format!("leaf{l}"));
                b.trunk(leaf, core, leaf_mbps, us_to_dur(prop_us));
                for _ in 0..sessions_per_leaf {
                    b.session(&[leaf, core, sink], jitter());
                }
            }
        }
        GenerateKind::ParkingLot {
            hops,
            long_sessions,
            cross_per_hop,
            hop_mbps,
            prop_us,
        } => {
            let sws: Vec<SwIdx> = (0..=hops).map(|i| b.switch(&format!("s{i}"))).collect();
            for h in 0..hops {
                b.trunk(sws[h], sws[h + 1], hop_mbps, us_to_dur(prop_us));
            }
            for _ in 0..long_sessions {
                b.session(&sws, jitter());
            }
            for h in 0..hops {
                for _ in 0..cross_per_hop {
                    b.session(&sws[h..=h + 1], jitter());
                }
            }
        }
    }

    let mut engine = Engine::new(seed);
    let net = {
        // Generated scenes carry no per-trunk overrides (they declare no
        // trunks), so the only Phantom knob is the scene-wide `u`.
        let mut alloc = || -> Box<dyn RateAllocator> {
            match scene.u {
                None => alg.boxed(),
                Some(u) => Box::new(PhantomAllocator::new(
                    PhantomConfig::paper().with_utilization_factor(u),
                )),
            }
        };
        b.build(&mut engine, &mut alloc)
    };
    lower_link_timeline(scene, &net, &mut engine);

    CompiledScene {
        engine,
        net,
        until: ms_to_time(scene.duration_ms),
        bottleneck: TrunkIdx(scene.bottleneck),
        traced,
        tail_from_secs: scene
            .analysis
            .tail_from_ms
            .unwrap_or(scene.duration_ms / 2.0)
            / 1e3,
    }
}

/// Lower a validated scene onto a fresh engine seeded with `seed`.
///
/// Panics on unvalidated scenes — call [`Scene::validate`] (or parse
/// through [`Scene::parse`]) first.
pub fn compile(scene: &Scene, seed: u64) -> CompiledScene {
    if let Some(g) = &scene.generate {
        return compile_generated(scene, g, seed);
    }
    let alg = algorithm(scene);
    let mut b = NetworkBuilder::new().cbr_priority(scene.cbr_priority);
    let sw: Vec<SwIdx> = scene.switches.iter().map(|n| b.switch(n)).collect();
    // Name → index resolved once (first declaration wins, matching the
    // linear scan this replaces) so compile stays O(hops), not
    // O(hops × switches), on machine-generated topologies.
    let mut by_name = std::collections::HashMap::new();
    for (i, n) in scene.switches.iter().enumerate() {
        by_name.entry(n.as_str()).or_insert(i);
    }
    for t in &scene.trunks {
        let a = sw[by_name[t.a.as_str()]];
        let bb = sw[by_name[t.b.as_str()]];
        b.trunk(a, bb, t.mbps, us_to_dur(t.prop_us));
        if let Some(p) = t.loss {
            b.last_trunk_loss(p);
        }
    }
    let mut traced = Vec::new();
    for (i, s) in scene.sessions.iter().enumerate() {
        let path: Vec<SwIdx> = s.path.iter().map(|h| sw[by_name[h.as_str()]]).collect();
        let traffic = lower_traffic(scene, i);
        match s.cbr_mbps {
            Some(rate) => {
                b.cbr_session(&path, rate, traffic);
            }
            None => {
                let sid = b.session(&path, traffic);
                debug_assert_eq!(sid.0, i, "session ids track declaration order");
                traced.push(sid);
            }
        }
        if let Some(us) = s.access_prop_us {
            b.last_session_access_prop(us_to_dur(us));
        }
    }

    let mut engine = Engine::new(seed);
    let mut call = 0usize;
    let net = {
        let mut alloc = || {
            let t = call / 2;
            call += 1;
            make_allocator(scene, alg, t)
        };
        b.build(&mut engine, &mut alloc)
    };

    lower_link_timeline(scene, &net, &mut engine);

    CompiledScene {
        engine,
        net,
        until: ms_to_time(scene.duration_ms),
        bottleneck: TrunkIdx(scene.bottleneck),
        traced,
        tail_from_secs: scene
            .analysis
            .tail_from_ms
            .unwrap_or(scene.duration_ms / 2.0)
            / 1e3,
    }
}

/// Lower the link-level timeline to Admin messages on both directional
/// ports of each referenced trunk. Churn events fold into the sessions'
/// traffic windows instead and are skipped here.
fn lower_link_timeline(scene: &Scene, net: &Network, engine: &mut Engine<AtmMsg>) {
    for e in &scene.timeline {
        let at = ms_to_time(e.at_ms);
        let (trunk, a_cmd, b_cmd) = match e.kind {
            EventKind::SetCapacity { trunk, mbps } => {
                let h = &net.trunks[trunk];
                let cps = mbps_to_cps(mbps);
                (
                    h,
                    AdminCmd::SetCapacity {
                        port: h.a_port,
                        cps,
                    },
                    AdminCmd::SetCapacity {
                        port: h.b_port,
                        cps,
                    },
                )
            }
            EventKind::LinkDown { trunk } | EventKind::LinkUp { trunk } => {
                let h = &net.trunks[trunk];
                let loss = if matches!(e.kind, EventKind::LinkDown { .. }) {
                    1.0
                } else {
                    0.0
                };
                (
                    h,
                    AdminCmd::SetLoss {
                        port: h.a_port,
                        loss,
                    },
                    AdminCmd::SetLoss {
                        port: h.b_port,
                        loss,
                    },
                )
            }
            EventKind::SessionStart { .. } | EventKind::SessionStop { .. } => continue,
        };
        engine.schedule(at, trunk.a_switch, AtmMsg::Admin(a_cmd));
        engine.schedule(at, trunk.b_switch, AtmMsg::Admin(b_cmd));
    }
}
