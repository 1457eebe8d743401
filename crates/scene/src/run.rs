//! Running scenes and registering them as experiments.
//!
//! [`RunPlan`] is the one scene-run pipeline: compile, probe, drive,
//! collect the standard figure panels.
//!
//! [`register_scene`] keeps a parsed scene under its id, so `repro <id>`,
//! the sweep runner and `--analyze` treat it exactly like a catalog
//! figure (and a registered scene with a catalog id shadows that id).

use crate::compile::{compile, CompiledScene};
use crate::model::Scene;
use crate::probes::{ProbeSpec, ProbeStack};
use phantom_analyze::{AnalysisReport, AnalysisTargets, EpochTarget};
use phantom_atm::dest::AbrDest;
use phantom_atm::network::{Network, SessionId, TrunkIdx};
use phantom_atm::units::{cps_to_mbps, mbps_to_cps};
use phantom_atm::AtmMsg;
use phantom_core::fixed_point::single_link_macr;
use phantom_metrics::manifest::{Manifest, TRACE_SCHEMA};
use phantom_metrics::{ExperimentResult, ScaleRecord, ShardScalePoint};
use phantom_sim::stats::TimeSeries;
use phantom_sim::telemetry::{self, RunCounters, RunMarker};
use phantom_sim::{Engine, SimTime};
use std::path::Path;
use std::sync::{Arc, RwLock};

/// The paper's default utilization factor, used when a scene derives
/// MACR targets from session counts without overriding `u`.
const DEFAULT_U: f64 = 5.0;

/// How the standard figure panels read a finished run. The default
/// plots every ABR session and averages over the scene's analysis tail.
#[derive(Clone, Copy, Debug)]
pub struct Panels<'a> {
    /// The result's provenance note.
    pub note: &'a str,
    /// Sessions whose allowed rate is plotted; the first also supplies
    /// the cell-delay metrics. `None` plots every ABR session.
    pub traced: Option<&'a [SessionId]>,
    /// Start (seconds) of the tail the whole-run metrics average over;
    /// `None` uses the scene's analysis tail.
    pub tail_from_secs: Option<f64>,
}

impl Default for Panels<'_> {
    fn default() -> Self {
        Panels {
            note: "compiled from a phantom-scene/1 file",
            traced: None,
            tail_from_secs: None,
        }
    }
}

/// One run of a scene: compile, install the probes, drive the engine,
/// collect the standard figure. Every harness that runs a scene — the
/// catalog, registered scenes ([`run_scene`]), `phantom run` and
/// `phantom resume` on a scene file, and the daemon's workers — goes
/// through [`RunPlan::run`], so their traces and reports agree byte for
/// byte by construction.
pub struct RunPlan<'a> {
    /// The validated scene.
    pub scene: &'a Scene,
    /// Master seed.
    pub seed: u64,
    /// What to observe.
    pub probes: ProbeSpec,
    /// Horizon override; `None` runs to the scene's own duration.
    pub until: Option<SimTime>,
    /// How the standard panels read the finished run.
    pub panels: Panels<'a>,
}

/// What the drive closure of [`RunPlan::run`] is handed: the compiled
/// engine before its first event, with everything a driver needs to
/// slice, checkpoint or cancel the run.
pub struct Drive<'a> {
    /// The compiled engine.
    pub engine: &'a mut Engine<AtmMsg>,
    /// Handles into the compiled topology.
    pub net: &'a Network,
    /// The run's horizon.
    pub until: SimTime,
    /// The run's manifest ([`RunPlan::manifest`]).
    pub manifest: &'a Manifest,
    /// The run's telemetry bracket.
    pub marker: &'a RunMarker,
}

/// Everything one scene run produced.
pub struct RunOutcome {
    /// The standard figure panels and metrics.
    pub result: ExperimentResult,
    /// Simulator events dispatched by this run.
    pub events: u64,
    /// Drop/retransmit/queue-peak telemetry observed during the run.
    pub counters: RunCounters,
    /// The live analysis report, when the probes ran a tap.
    pub analysis: Option<AnalysisReport>,
    /// The engine after the run, for readers of per-node state;
    /// `engine.cancelled()` tells whether a cancel token stopped it early.
    pub engine: Engine<AtmMsg>,
    /// Handles into the run's topology.
    pub net: Network,
}

impl<'a> RunPlan<'a> {
    /// An unobserved run of `scene` under `seed` to its own horizon.
    pub fn new(scene: &'a Scene, seed: u64) -> Self {
        RunPlan {
            scene,
            seed,
            probes: ProbeSpec::default(),
            until: None,
            panels: Panels::default(),
        }
    }

    /// The run's provenance manifest (`phantom-trace/1`): scenario and
    /// config are both the scene id.
    pub fn manifest(&self) -> Manifest {
        Manifest::new(TRACE_SCHEMA, &self.scene.id, self.seed, &self.scene.id)
    }

    /// Run the plan. `drive` may advance the engine towards the horizon
    /// in any slices it likes (heartbeats, checkpoints, cancellation);
    /// slicing never changes the event order, and whatever it leaves
    /// undone runs before the panels are read.
    pub fn run(
        self,
        drive: impl FnOnce(Drive<'_>) -> Result<(), String>,
    ) -> Result<RunOutcome, String> {
        let scene = self.scene;
        let manifest = self.manifest();
        let CompiledScene {
            mut engine,
            net,
            until,
            bottleneck,
            traced,
            tail_from_secs,
        } = compile(scene, self.seed);
        let until = self.until.unwrap_or(until);
        let probes = ProbeStack::install(&manifest, &self.probes)?;
        let marker = telemetry::begin_run();
        let events_before = phantom_sim::thread_events_dispatched();
        drive(Drive {
            engine: &mut engine,
            net: &net,
            until,
            manifest: &manifest,
            marker: &marker,
        })?;
        engine.run_until(until);
        let mut result = ExperimentResult::new(&scene.id, &scene.describe);
        result.add_note(self.panels.note);
        collect_standard(
            &engine,
            &net,
            &mut result,
            bottleneck,
            self.panels.traced.unwrap_or(&traced),
            self.panels.tail_from_secs.unwrap_or(tail_from_secs),
        );
        let events = phantom_sim::thread_events_dispatched() - events_before;
        let counters = marker.finish();
        Ok(RunOutcome {
            result,
            events,
            counters,
            analysis: probes.finish(),
            engine,
            net,
        })
    }
}

/// Attach the standard figure panels — queue length, MACR, the traced
/// sessions' allowed rates (rates in Mb/s) — plus the standard metrics,
/// mirroring the triple panels of the paper's ATM figures.
fn collect_standard(
    engine: &Engine<AtmMsg>,
    net: &Network,
    result: &mut ExperimentResult,
    trunk: TrunkIdx,
    traced: &[SessionId],
    tail_from: f64,
) {
    let in_mbps = |series: &TimeSeries| {
        let mut out = TimeSeries::new();
        for (t, v) in series.iter() {
            out.push(SimTime::from_secs_f64(t), cps_to_mbps(v));
        }
        out
    };
    result.add_series("macr_mbps", in_mbps(net.trunk_macr(engine, trunk)));
    result.add_series("queue_cells", net.trunk_queue(engine, trunk).clone());
    for &s in traced {
        result.add_series(
            &format!("acr_mbps_s{}", s.0),
            in_mbps(net.session_acr(engine, s)),
        );
    }

    let port = net.trunk_port(engine, trunk);
    let throughput = net.trunk_throughput(engine, trunk).mean_after(tail_from);
    result.add_metric("utilization", throughput / port.capacity());
    result.add_metric(
        "mean_queue_cells",
        net.trunk_queue(engine, trunk).mean_after(tail_from),
    );
    result.add_metric("max_queue_cells", port.queue_high_water() as f64);
    result.add_metric("cell_drops", port.drops() as f64);

    let rates: Vec<f64> = (0..net.sessions.len())
        .map(|s| net.session_rate(engine, SessionId(s)).mean_after(tail_from))
        .collect();
    result.add_metric("jain_index", phantom_metrics::jain_index(&rates));

    // Cell-delay statistics of the first traced session (propagation +
    // queueing along the path).
    if let Some(&s) = traced.first() {
        let dest = engine.node::<AbrDest>(net.sessions[s.0].dest);
        if let Some(h) = dest.delay_hist.as_deref().filter(|h| h.count() > 0) {
            result.add_metric("cell_delay_mean_ms", h.mean());
            result.add_metric("cell_delay_p99_ms", h.quantile(0.99));
        }
    }
}

/// Compile and run a validated scene with the default panels.
pub fn run_scene(scene: &Scene, seed: u64) -> ExperimentResult {
    RunPlan::new(scene, seed)
        .run(|_| Ok(()))
        .expect("an unobserved run does no I/O")
        .result
}

/// One compiled scene run to its horizon, with only the run timed.
struct MeasuredRun {
    engine: Engine<AtmMsg>,
    net: Network,
    events: u64,
    wall_secs: f64,
    counters: RunCounters,
}

/// Compile `scene` and run it to its own horizon, timing the run but
/// not the build.
fn measured_run(scene: &Scene, seed: u64) -> MeasuredRun {
    let CompiledScene {
        mut engine,
        net,
        until,
        ..
    } = compile(scene, seed);
    let marker = telemetry::begin_run();
    let events_before = phantom_sim::thread_events_dispatched();
    let start = std::time::Instant::now();
    engine.run_until(until);
    let wall_secs = start.elapsed().as_secs_f64();
    let events = phantom_sim::thread_events_dispatched() - events_before;
    MeasuredRun {
        engine,
        net,
        events,
        wall_secs,
        counters: marker.finish(),
    }
}

/// Build and run `scene` once as a *scale probe*: measure resident-set
/// growth across build + run, the engine's own per-node, node-heap and
/// calendar accounting, and run throughput. Returns the
/// `phantom-bench/5` scale record plus the per-arena breakdown (for
/// human-readable reporting).
///
/// RSS comes from [`phantom_sim::telemetry::rss_bytes`] (the same
/// reader the heartbeat uses); when `/proc/self/status` is unreadable
/// on this platform the record carries `rss_delta_bytes: None` and the
/// capacity numbers fall back to the engine's own arena accounting —
/// the probe degrades, it does not fail.
///
/// The RSS delta is a whole-process measurement — run this on a quiet
/// process (the `repro --scale` probe runs after the sweep, serially)
/// or the number includes unrelated allocations.
pub fn scale_scene(scene: &Scene, seed: u64) -> (ScaleRecord, Vec<phantom_sim::ArenaStats>) {
    let rss0 = telemetry::rss_bytes();
    let run = measured_run(scene, seed);
    let rss1 = telemetry::rss_bytes();
    let stats = run.engine.arena_stats();
    let record = ScaleRecord {
        scene: scene.id.clone(),
        seed,
        sessions: run.net.sessions.len() as u64,
        nodes: stats.iter().map(|s| s.nodes as u64).sum(),
        events: run.events,
        wall_secs: run.wall_secs,
        rss_delta_bytes: match (rss0, rss1) {
            (Some(before), Some(after)) => Some(after.saturating_sub(before)),
            _ => None,
        },
        arena_bytes: run.engine.nodes_footprint_bytes() as u64,
        calendar_bytes: run.engine.calendar_bytes() as u64,
        node_heap_bytes: stats.iter().map(|s| s.heap_bytes as u64).sum(),
        drops: run.counters.drops,
        queue_peak: run.counters.queue_peak,
    };
    (record, stats)
}

/// Build and run `scene` once at a fixed `--shards` count, measuring
/// events dispatched and wall-clock time — one point of the
/// `phantom-bench/5` `shard_scaling` array. The build is excluded from
/// the measurement; the run is the same conservative-PDES execution
/// `phantom run --shards N` performs, so the events count must be
/// identical at every shard count.
pub fn shard_scale_scene(scene: &Scene, seed: u64, shards: usize) -> ShardScalePoint {
    let _guard = phantom_sim::ShardGuard::new(shards);
    let run = measured_run(scene, seed);
    ShardScalePoint {
        shards,
        scene: scene.id.clone(),
        seed,
        events: run.events,
        wall_secs: run.wall_secs,
    }
}

/// The analysis targets a scene predicts: bottleneck capacity, the
/// `C/(1+n·u)` MACR fixed point (when declared via `macr_mbps` or
/// `n_sessions`), and one [`EpochTarget`] per declared perturbation
/// epoch.
pub fn analysis_targets(scene: &Scene) -> AnalysisTargets {
    let c = mbps_to_cps(scene.bottleneck_mbps());
    let u = scene.u.unwrap_or(DEFAULT_U);
    let a = &scene.analysis;
    let macr_cps = a
        .macr_mbps
        .map(mbps_to_cps)
        .or_else(|| a.n_sessions.map(|n| single_link_macr(c, n, u)));
    AnalysisTargets {
        macr_cps,
        capacity_cps: Some(c),
        conv_tol: a.conv_tol.unwrap_or(0.15),
        tail_from_secs: a.tail_from_ms.unwrap_or(scene.duration_ms / 2.0) / 1e3,
        epochs: a
            .epochs
            .iter()
            .map(|e| EpochTarget {
                from_secs: e.from_ms / 1e3,
                to_secs: e.to_ms / 1e3,
                macr_cps: e.macr_mbps.map(mbps_to_cps).unwrap_or_else(|| {
                    let ec = e.capacity_mbps.map(mbps_to_cps).unwrap_or(c);
                    single_link_macr(ec, e.n_sessions.expect("validated epoch"), u)
                }),
            })
            .collect(),
    }
}

/// The scenes registered with [`register_scene`], in registration order.
fn registry() -> &'static RwLock<Vec<Arc<Scene>>> {
    static SCENES: RwLock<Vec<Arc<Scene>>> = RwLock::new(Vec::new());
    &SCENES
}

/// Register (or replace, by id) a validated scene as a runnable
/// experiment. A registered id takes precedence over the catalog, so a
/// scene named `fig2` shadows the catalog's fig2, both when it runs and
/// for the analysis targets `--analyze` checks it against.
pub fn register_scene(scene: Scene) {
    let scene = Arc::new(scene);
    let mut scenes = registry().write().expect("scene registry poisoned");
    match scenes.iter_mut().find(|s| s.id == scene.id) {
        Some(slot) => *slot = scene,
        None => scenes.push(scene),
    }
}

/// The registered scene with this id, if any.
pub fn registered_scene(id: &str) -> Option<Arc<Scene>> {
    registry()
        .read()
        .expect("scene registry poisoned")
        .iter()
        .find(|s| s.id == id)
        .cloned()
}

/// Every registered scene, in registration order.
pub fn registered_scenes() -> Vec<Arc<Scene>> {
    registry().read().expect("scene registry poisoned").clone()
}

/// Parse **and validate** a scene document.
pub fn parse_scene(text: &str) -> Result<Scene, String> {
    Scene::parse(text)
}

/// Load one scene file.
pub fn load_scene_file(path: &Path) -> Result<Scene, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Scene::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every `*.json` scene in a directory, sorted by file name so
/// registration order (and thus sweep job order) is deterministic.
pub fn load_scene_dir(dir: &Path) -> Result<Vec<Scene>, String> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    paths.iter().map(|p| load_scene_file(p)).collect()
}
