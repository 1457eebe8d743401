//! Run a `phantom-scene/1` file through the CLI's observability stack.
//!
//! The run itself is a [`RunPlan`]; this module only maps
//! [`RunOptions`] onto it and writes the CLI-only artifacts (metrics
//! snapshot, engine profile). The analysis tap uses the targets *the
//! scene itself declares* (`analysis_targets`), since the file in hand
//! is the authority when running it directly.

use crate::checkpoint::{CkptDriver, KIND_SCENE};
use crate::exec::{run_driver, write_metrics, write_profile, RunOptions};
use phantom_metrics::manifest::METRICS_SCHEMA;
use phantom_metrics::Registry;
use phantom_scene::{analysis_targets, RunPlan, Scene};
use phantom_sim::profile;

/// Everything one scene run produced.
pub use phantom_scene::RunOutcome as SceneReport;

/// Compile and run a validated scene with the requested observability:
/// optional JSONL trace, optional metrics snapshot, optional live
/// `phantom-analysis/1` tap with window width `analyze_window` seconds,
/// plus the run-wide options (heartbeat, status file, engine profile,
/// panic flight recorder). None of them changes the simulation.
pub fn run_scene_opts(
    scene: &Scene,
    seed: u64,
    analyze_window: Option<f64>,
    opts: &RunOptions,
) -> Result<SceneReport, String> {
    // Scoped to this run; restored on drop, panics included.
    let _shard_guard = phantom_sim::ShardGuard::new(opts.shards);
    let wall_start = std::time::Instant::now();
    let plan = RunPlan {
        probes: opts.probe_spec(analyze_window.map(|w| (analysis_targets(scene), w))),
        ..RunPlan::new(scene, seed)
    };
    let manifest = plan.manifest();
    let registry = opts.metrics.as_ref().map(|_| Registry::new());
    let prof = opts.profile.as_ref().map(|_| profile::begin_profile());
    let outcome = plan.run(|d| {
        if let Some(r) = &registry {
            d.net.bind_metrics(d.engine, r);
        }
        // Pre-drive in heartbeat slices only when liveness or
        // checkpointing was requested; otherwise the plan's standard
        // collection runs the whole horizon in one call.
        let mut ckpt = CkptDriver::from_opts(opts, d.manifest, KIND_SCENE, d.until, d.marker)?;
        if opts.verbose || opts.status_file.is_some() || ckpt.is_some() {
            run_driver(d.engine, d.until, opts, &scene.id, seed, ckpt.as_mut())?;
        }
        Ok(())
    })?;
    let report = prof.map(profile::ProfileMarker::finish);

    if let (Some(path), Some(reg)) = (&opts.metrics, &registry) {
        write_metrics(path, reg, &manifest.for_schema(METRICS_SCHEMA))?;
    }
    if let (Some(path), Some(report)) = (&opts.profile, report) {
        write_profile(path, &manifest, wall_start.elapsed().as_secs_f64(), report)?;
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_scene::parse_scene;

    const DUMBBELL_SCENE: &str = r#"{
        "schema": "phantom-scene/1",
        "id": "cli-scene-test",
        "describe": "two greedy sessions for the CLI scene runner",
        "algorithm": "phantom",
        "duration_ms": 400,
        "switches": ["s1", "s2"],
        "trunks": [{"a": "s1", "b": "s2", "mbps": 150, "prop_us": 10}],
        "sessions": [
            {"id": "g0", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}},
            {"id": "g1", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}}
        ],
        "bottleneck": 0,
        "analysis": {"n_sessions": 2}
    }"#;

    #[test]
    fn scene_run_reports_convergence_and_artifacts() {
        let scene = parse_scene(DUMBBELL_SCENE).unwrap();
        let dir = std::env::temp_dir().join(format!("phantom-cli-scene-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            trace: Some(dir.join("run.jsonl")),
            metrics: Some(dir.join("run.prom")),
            profile: Some(dir.join("run.profile.json")),
            status_file: Some(dir.join("run.status.json")),
            ..RunOptions::default()
        };
        let report = run_scene_opts(
            &scene,
            1996,
            Some(phantom_analyze::DEFAULT_WINDOW_SECS),
            &opts,
        )
        .unwrap();
        assert!(report.events > 100_000);
        let rendered = report.result.render(0);
        assert!(rendered.contains("cli-scene-test"), "{rendered}");
        // MACR fixed point 150/(1+2·5) Mb/s ≈ 13.64.
        let analysis = report.analysis.expect("analysis tap enabled");
        let err = analysis.metric("fixed_point_error_rel").unwrap();
        assert!(err < 0.05, "fixed-point error {err}");

        let trace = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
        let first = trace.lines().next().unwrap();
        assert!(first.contains("\"schema\":\"phantom-trace/1\""), "{first}");
        assert!(first.contains("\"scenario\":\"cli-scene-test\""), "{first}");
        assert!(trace.lines().count() > 1);
        let prom = std::fs::read_to_string(dir.join("run.prom")).unwrap();
        assert!(prom.starts_with("# manifest: {\"schema\":\"phantom-metrics/1\""));
        let profile = std::fs::read_to_string(dir.join("run.profile.json")).unwrap();
        assert!(profile.starts_with("{\n  \"schema\": \"phantom-profile/1\""));
        assert!(profile.contains("\"scenario\":\"cli-scene-test\""));
        assert!(profile.contains("\"calendar.pop\""));
        let status = std::fs::read_to_string(dir.join("run.status.json")).unwrap();
        assert!(
            status.starts_with("{\"schema\": \"phantom-status/1\""),
            "{status}"
        );
        assert!(status.contains("\"state\": \"done\""));
        assert!(status.contains("\"unit\": \"slices\""));
        let _ = std::fs::remove_dir_all(&dir);

        // Untraced rerun is identical: observability never changes the run.
        let plain = run_scene_opts(&scene, 1996, None, &RunOptions::default()).unwrap();
        assert_eq!(plain.events, report.events);
        assert_eq!(plain.result.render(0), rendered);
    }

    /// `--shards 2` with `--checkpoint-every` runs on the topology-file
    /// path and the scene path alike, checkpoints, and traces the same
    /// bytes as the run without shards or checkpoints.
    #[test]
    fn shards_with_checkpoints_run_on_both_paths() {
        let dir = std::env::temp_dir().join(format!("phantom-cli-shard-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |tag: &str, shards: usize, every: Option<f64>| RunOptions {
            shards,
            trace: Some(dir.join(format!("{tag}.jsonl"))),
            checkpoint_every: every.map(crate::CheckpointEvery::SimSecs),
            checkpoint_dir: every.map(|_| dir.join(format!("{tag}-ckpts"))),
            checkpoint_source: "source".into(),
            ..RunOptions::default()
        };
        let spec = crate::parse_str(
            "switch s1\nswitch s2\ntrunk s1 s2 150mbps 10us\n\
             session s1 s2 greedy\nsession s1 s2 greedy\nalgorithm phantom u=5\n\
             run 10ms seed=3\n",
        )
        .unwrap();
        crate::run_spec_opts(&spec, &opts("dsl", 0, None)).unwrap();
        crate::run_spec_opts(&spec, &opts("dsl-s2", 2, Some(0.002))).unwrap();
        let mut scene = parse_scene(DUMBBELL_SCENE).unwrap();
        scene.duration_ms = 20.0;
        run_scene_opts(&scene, 1996, None, &opts("scene", 0, None)).unwrap();
        run_scene_opts(&scene, 1996, None, &opts("scene-s2", 2, Some(0.005))).unwrap();
        for tag in ["dsl", "scene"] {
            let read = |t: &str| std::fs::read(dir.join(format!("{t}.jsonl"))).unwrap();
            assert_eq!(read(tag), read(&format!("{tag}-s2")), "{tag}: trace bytes");
            let ckpts = std::fs::read_dir(dir.join(format!("{tag}-s2-ckpts"))).unwrap();
            assert!(ckpts.count() >= 3, "{tag}: checkpoints written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cancel at `--shards 2` stops the run at an epoch barrier: the
    /// outcome says cancelled and the truncated trace lints.
    #[test]
    fn cancel_at_two_shards_stops_cleanly_and_the_trace_lints() {
        let dir = std::env::temp_dir().join(format!("phantom-cli-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut scene = parse_scene(DUMBBELL_SCENE).unwrap();
        scene.duration_ms = 600_000.0; // far more than the test waits for
        let token = phantom_sim::CancelToken::new();
        let _guard = phantom_sim::CancelGuard::new(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(300));
            token.cancel();
        });
        let opts = RunOptions {
            shards: 2,
            trace: Some(dir.join("cancelled.jsonl")),
            ..RunOptions::default()
        };
        let outcome = run_scene_opts(&scene, 1996, None, &opts).unwrap();
        canceller.join().unwrap();
        assert!(outcome.cancelled, "the run reports the cancel");
        let text = std::fs::read_to_string(dir.join("cancelled.jsonl")).unwrap();
        let lines = phantom_analyze::lint_trace_str(&text).expect("truncated trace lints");
        assert!(lines > 0, "the run got under way before the cancel");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
