//! In-process measurements of single layers: a scene driven in
//! `run_until` slices with the calendar depth sampled between them, the
//! engine profiler's per-node-type and calendar split, the MACR
//! estimator, and the trace writer.

use crate::host;
use crate::mix::Rng;
use crate::spans::Tracer;
use crate::Metrics;
use phantom_core::{MacrConfig, MacrEstimator};
use phantom_metrics::manifest::{Manifest, TRACE_SCHEMA};
use phantom_scene::{compile, parse_scene, Scene};
use phantom_sim::probe::{JsonlProbe, ProbeGuard};
use phantom_sim::telemetry::{self, RunCounters};
use phantom_sim::{profile, thread_events_dispatched, Engine, ProfileReport, SimTime};
use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

/// Host seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Per-slice record of a sliced run.
#[derive(Default)]
pub struct SliceLog {
    /// Host seconds of each slice.
    pub secs: Vec<f64>,
    /// Events dispatched in each slice.
    pub events: Vec<u64>,
    /// `Engine::pending_events()` after each slice.
    pub pending: Vec<f64>,
}

/// End of slice `k` (1-based) when `until` is cut into `slices` slices.
pub fn slice_end(until: SimTime, slices: u64, k: u64) -> SimTime {
    SimTime(until.0 / slices * k + until.0 % slices * k / slices)
}

/// Drive `engine` through slices `ks` of `until` cut into `slices`
/// equal `run_until` calls.
pub fn run_sliced<M: Send + 'static>(
    engine: &mut Engine<M>,
    until: SimTime,
    slices: u64,
    ks: std::ops::RangeInclusive<u64>,
    tr: &mut Tracer,
    req: &str,
) -> SliceLog {
    let mut log = SliceLog::default();
    for k in ks {
        let to = slice_end(until, slices, k);
        let ev0 = thread_events_dispatched();
        let (_, secs) =
            timed(|| tr.span("sim", "Engine::run_until", req, |_| engine.run_until(to)));
        log.secs.push(secs);
        log.events.push(thread_events_dispatched() - ev0);
        log.pending.push(engine.pending_events() as f64);
    }
    log
}

/// A scene parsed, compiled and run to its horizon in slices.
pub struct SceneRun {
    /// The parsed scene.
    pub scene: Scene,
    /// Host seconds of `parse_scene`.
    pub parse_s: f64,
    /// Host seconds of `compile`.
    pub compile_s: f64,
    /// Resident-set growth across `compile`.
    pub compile_rss: u64,
    /// Resident-set growth from before `compile` to the end of the run.
    pub rss_delta: u64,
    /// `Engine::nodes_footprint_bytes` at the end of the run.
    pub arena_bytes: u64,
    /// Sessions and nodes the compiled scene holds.
    pub sessions: u64,
    /// Engine nodes.
    pub nodes: u64,
    /// The slices of the run.
    pub log: SliceLog,
    /// Drops, retransmits and queue peak of the run.
    pub counters: RunCounters,
}

/// Parse, compile and run `text` under `seed` in `slices` slices.
pub fn run_scene(
    text: &str,
    seed: u64,
    slices: u64,
    tr: &mut Tracer,
    req: &str,
) -> Result<SceneRun, String> {
    let (scene, parse_s) = timed(|| tr.span("scene", "parse_scene", req, |_| parse_scene(text)));
    let scene = scene?;
    let rss0 = host::rss_bytes();
    let (c, compile_s) = timed(|| tr.span("scene", "compile", req, |_| compile(&scene, seed)));
    let compile_rss = host::rss_bytes().saturating_sub(rss0);
    let mut engine = c.engine;
    let marker = telemetry::begin_run();
    let log = run_sliced(&mut engine, c.until, slices, 1..=slices, tr, req);
    let counters = marker.finish();
    let rss_delta = host::rss_bytes().saturating_sub(rss0);
    let stats = engine.arena_stats();
    Ok(SceneRun {
        parse_s,
        compile_s,
        compile_rss,
        rss_delta,
        arena_bytes: engine.nodes_footprint_bytes() as u64,
        sessions: c.net.sessions.len() as u64,
        nodes: stats.iter().map(|s| s.nodes as u64).sum(),
        log,
        counters,
        scene,
    })
}

/// Compile `scene` afresh and run its first `to` of `slices` slices,
/// the ones after `from` under the engine profiler. Returns the profile
/// and the log of all `to` slices.
pub fn profile_slices(
    scene: &Scene,
    seed: u64,
    slices: u64,
    from: u64,
    to: u64,
    tr: &mut Tracer,
    req: &str,
) -> (ProfileReport, SliceLog) {
    let c = tr.span("scene", "compile", req, |_| compile(scene, seed));
    let mut engine = c.engine;
    let mut log = run_sliced(&mut engine, c.until, slices, 1..=from, tr, req);
    let marker = profile::begin_profile();
    let profiled = run_sliced(&mut engine, c.until, slices, from + 1..=to, tr, req);
    let report = marker.finish();
    log.secs.extend(profiled.secs);
    log.events.extend(profiled.events);
    log.pending.extend(profiled.pending);
    (report, log)
}

/// The scene-layer, engine and memory metrics of a sliced scene run.
pub fn scene_metrics(run: &SceneRun, m: &mut Metrics) {
    let secs: f64 = run.log.secs.iter().sum();
    let events: u64 = run.log.events.iter().sum();
    m.put("scene.parse_s", run.parse_s);
    m.put("scene.compile_s", run.compile_s);
    m.put("scene.compile_rss_mb", mib(run.compile_rss));
    m.put("sim.events", events as f64);
    m.put("sim.run_s", secs);
    m.put("sim.events_per_s", events as f64 / secs.max(1e-9));
    m.put("sim.pending_p50", crate::stats::median(&run.log.pending));
    m.put(
        "sim.pending_max",
        run.log.pending.iter().copied().fold(0.0, f64::max),
    );
    m.put("sim.pending_samples", run.log.pending.len() as f64);
    m.put("sim.arena_mb", mib(run.arena_bytes));
    m.put("mem.rss_delta_mb", mib(run.rss_delta));
    m.put(
        "mem.unattributed_frac",
        if run.rss_delta == 0 {
            0.0
        } else {
            1.0 - (run.arena_bytes as f64 / run.rss_delta as f64).min(1.0)
        },
    );
    m.put(
        "mem.bytes_per_session",
        run.rss_delta as f64 / run.sessions.max(1) as f64,
    );
}

/// Node-type self time per event and calendar cost from a profile.
pub fn profile_metrics(r: &ProfileReport, m: &mut Metrics) {
    let per_event = |type_name: &str| {
        let (ev, ns) = r
            .nodes
            .iter()
            .filter(|e| e.name == type_name)
            .fold((0u64, 0u64), |(ev, ns), e| (ev + e.events, ns + e.self_ns));
        if ev == 0 {
            0.0
        } else {
            ns as f64 / ev as f64
        }
    };
    use std::any::type_name;
    m.put(
        "atm.switch_ns_per_event",
        per_event(type_name::<phantom_atm::switch::Switch>()),
    );
    m.put(
        "atm.source_ns_per_event",
        per_event(type_name::<phantom_atm::source::AbrSource>()),
    );
    m.put(
        "atm.dest_ns_per_event",
        per_event(type_name::<phantom_atm::dest::AbrDest>()),
    );
    m.put(
        "tcp.router_ns_per_event",
        per_event(type_name::<phantom_tcp::router::Router>()),
    );
    m.put(
        "tcp.source_ns_per_event",
        per_event(type_name::<phantom_tcp::source::TcpSource>()),
    );
    m.put(
        "tcp.sink_ns_per_event",
        per_event(type_name::<phantom_tcp::sink::TcpSink>()),
    );
    let phase = |name: &str| r.phases.iter().find(|p| p.name == name);
    let pop = phase("calendar.pop").map_or(0.0, |p| p.self_ns as f64 / p.events.max(1) as f64);
    let cal = &r.calendar;
    let advance = (cal.scan_ns + cal.promote_ns + cal.sort_ns) as f64 / cal.advances.max(1) as f64;
    m.put("sim.calendar_pop_ns", pop);
    m.put("sim.calendar_advance_ns", advance);
}

/// Mean nanoseconds of one `MacrEstimator::update` over a seeded
/// sequence of residual measurements around a 2-session fixed point,
/// the median of five passes.
pub fn macr_update_ns(seed: u64, tr: &mut Tracer) -> f64 {
    const UPDATES: usize = 1 << 20;
    let capacity = 353_773.6; // 150 Mb/s in cells/s
    let mut rng = Rng::new(seed);
    let residuals: Vec<f64> = (0..UPDATES)
        .map(|_| capacity / 11.0 * (0.5 + (rng.next_u64() % 1000) as f64 / 1000.0))
        .collect();
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let mut est = MacrEstimator::new(MacrConfig::default(), capacity);
            let (_, secs) = timed(|| {
                tr.span("core", "MacrEstimator::update", "macr", |_| {
                    for &r in &residuals {
                        est.update(black_box(r), capacity);
                    }
                })
            });
            black_box(est.macr());
            secs * 1e9 / UPDATES as f64
        })
        .collect();
    crate::stats::median(&passes)
}

/// A writer that counts and discards.
struct Counting(Rc<Cell<u64>>);

impl std::io::Write for Counting {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.set(self.0.get() + buf.len() as u64);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Trace-writer throughput on `scene`: run it once without a probe and
/// once with a `JsonlProbe` into a discarding writer; returns bytes
/// written and MB/s over the extra time the writer cost.
pub fn writer_rate(scene: &Scene, seed: u64, tr: &mut Tracer) -> (u64, f64) {
    let req = scene.id.as_str();
    let c = compile(scene, seed);
    let mut engine = c.engine;
    let (_, plain) = timed(|| {
        tr.span("sim", "Engine::run_until", req, |_| {
            engine.run_until(c.until)
        })
    });
    drop(engine);
    let c = compile(scene, seed);
    let mut engine = c.engine;
    let bytes = Rc::new(Cell::new(0));
    let manifest = Manifest::new(TRACE_SCHEMA, &scene.id, seed, &scene.id);
    let probe = JsonlProbe::with_manifest(Counting(Rc::clone(&bytes)), &manifest.to_json())
        .expect("a discarding writer cannot fail");
    let (_, traced) = timed(|| {
        tr.span("trace", "JsonlProbe run", req, |_| {
            let guard = ProbeGuard::install(Box::new(probe));
            engine.run_until(c.until);
            drop(guard);
        })
    });
    let extra = (traced - plain).max(1e-9);
    (bytes.get(), bytes.get() as f64 / 1e6 / extra)
}

/// Bytes as MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}
