//! Running scenes and registering them as first-class experiments.
//!
//! [`RunPlan`] is the one scene-run pipeline: compile, probe, drive,
//! collect.
//!
//! [`register_scene`] wires a parsed scene into the scenario registry
//! (so `repro <id>` and the sweep runner treat it exactly like a
//! built-in figure) and into the shape registry (so `--analyze` checks
//! it against the targets its own topology and timeline predict,
//! including per-perturbation-epoch fixed points).

use crate::compile::{compile, CompiledScene};
use crate::model::Scene;
use phantom_analyze::{AnalysisReport, AnalysisTargets, EpochTarget};
use phantom_atm::network::Network;
use phantom_atm::units::mbps_to_cps;
use phantom_atm::AtmMsg;
use phantom_core::fixed_point::single_link_macr;
use phantom_metrics::manifest::{Manifest, TRACE_SCHEMA};
use phantom_metrics::{ExperimentResult, ScaleRecord, ShardScalePoint};
use phantom_scenarios::atm::run_standard;
use phantom_scenarios::probes::{ProbeSpec, ProbeStack};
use phantom_scenarios::registry::{register_dynamic, DynamicExperiment, ExperimentOutput};
use phantom_scenarios::shape::register_shape;
use phantom_sim::telemetry::{self, RunCounters, RunMarker};
use phantom_sim::{Engine, SimTime};
use std::path::Path;
use std::sync::Arc;

/// The paper's default utilization factor, used when a scene derives
/// MACR targets from session counts without overriding `u`.
const DEFAULT_U: f64 = 5.0;

/// One run of a scene: compile, install the probes, drive the engine,
/// collect the standard figure. Every harness that runs a scene — the
/// sweep's registered closure ([`run_scene`]), `phantom run` and
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
    /// undone the standard collection runs before reading the panels.
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
        let (engine, net, result) = run_standard(
            engine,
            net,
            until,
            &scene.id,
            &scene.describe,
            "compiled from a phantom-scene/1 file",
            bottleneck,
            &traced,
            tail_from_secs,
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

/// Compile and run a validated scene, producing the same figure output
/// (standard panels + metrics) as the hard-coded runners.
pub fn run_scene(scene: &Scene, seed: u64) -> ExperimentResult {
    RunPlan::new(scene, seed)
        .run(|_| Ok(()))
        .expect("an unobserved run does no I/O")
        .result
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
    let rss0 = phantom_sim::telemetry::rss_bytes();
    let c = compile(scene, seed);
    let mut engine = c.engine;
    let marker = phantom_sim::telemetry::begin_run();
    let events_before = phantom_sim::thread_events_dispatched();
    let start = std::time::Instant::now();
    engine.run_until(c.until);
    let wall_secs = start.elapsed().as_secs_f64();
    let events = phantom_sim::thread_events_dispatched() - events_before;
    let counters = marker.finish();
    let rss1 = phantom_sim::telemetry::rss_bytes();
    let stats = engine.arena_stats();
    let record = ScaleRecord {
        scene: scene.id.clone(),
        seed,
        sessions: c.net.sessions.len() as u64,
        nodes: stats.iter().map(|s| s.nodes as u64).sum(),
        events,
        wall_secs,
        rss_delta_bytes: match (rss0, rss1) {
            (Some(before), Some(after)) => Some(after.saturating_sub(before)),
            _ => None,
        },
        arena_bytes: engine.nodes_footprint_bytes() as u64,
        calendar_bytes: engine.calendar_bytes() as u64,
        node_heap_bytes: stats.iter().map(|s| s.heap_bytes as u64).sum(),
        drops: counters.drops,
        queue_peak: counters.queue_peak,
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
    let c = compile(scene, seed);
    let mut engine = c.engine;
    let marker = phantom_sim::telemetry::begin_run();
    let events_before = phantom_sim::thread_events_dispatched();
    let start = std::time::Instant::now();
    engine.run_until(c.until);
    let wall_secs = start.elapsed().as_secs_f64();
    let events = phantom_sim::thread_events_dispatched() - events_before;
    let _ = marker.finish();
    ShardScalePoint {
        shards,
        scene: scene.id.clone(),
        seed,
        events,
        wall_secs,
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

/// Register a validated scene as a runnable experiment under its id,
/// shadowing any built-in of the same name, and publish its predicted
/// analysis shape. (For built-in ids the *static* shape table keeps
/// precedence, so twin scenes analyze against the identical committed
/// targets.)
pub fn register_scene(scene: Scene) {
    register_shape(&scene.id, analysis_targets(&scene));
    let id = scene.id.clone();
    let describe = scene.describe.clone();
    register_dynamic(DynamicExperiment {
        id,
        describe,
        run: Arc::new(move |seed| ExperimentOutput::Figure(run_scene(&scene, seed))),
    });
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
