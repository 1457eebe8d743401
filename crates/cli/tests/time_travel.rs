//! PR 8 acceptance: deterministic time-travel.
//!
//! The hard contract under test: a run interrupted at a checkpoint and
//! resumed produces a trace suffix byte-identical to the uninterrupted
//! run — same report, same analysis — and `phantom diverge` localizes an
//! injected perturbation to its first differing event.

use phantom_cli::exec::CheckpointEvery;
use phantom_cli::{
    diverge, parse_str, resume, run_scene_opts, DivergeOptions, DivergeOutcome, RunOptions,
};
use phantom_scene::{analysis_targets, parse_scene, Scene};
use std::path::{Path, PathBuf};

fn scenes_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenes")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phantom-tt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn load_scene(file: &str) -> Scene {
    let text = std::fs::read_to_string(scenes_dir().join(file)).unwrap();
    parse_scene(&text).unwrap()
}

/// The full resume contract for one scene:
///
/// 1. checkpointing never perturbs the run (trace bytes + report equal
///    to an uncheckpointed run);
/// 2. resuming from a mid-run checkpoint writes a suffix that stitches
///    byte-identically onto the uninterrupted trace's prefix;
/// 3. the resumed report and the re-analyzed stitched trace match the
///    uninterrupted run's.
///
/// The reference run has no `--shards`; the checkpointed run uses
/// `ckpt_shards` and the resume `resume_shards`.
fn assert_resume_contract(
    file: &str,
    every: CheckpointEvery,
    ckpt_shards: usize,
    resume_shards: usize,
) {
    let scene = load_scene(file);
    assert_resume_contract_on(&scene, 1996, every, ckpt_shards, resume_shards, |t| {
        t.to_string()
    });
}

/// [`assert_resume_contract`] for a scene run under `seed`, resuming
/// from the mid-run checkpoint as `rewrite` edits it.
fn assert_resume_contract_on(
    scene: &Scene,
    seed: u64,
    every: CheckpointEvery,
    ckpt_shards: usize,
    resume_shards: usize,
    rewrite: impl Fn(&str) -> String,
) {
    let file = &scene.id;
    let dir = tmp(&format!("{}-s{ckpt_shards}-s{resume_shards}", scene.id));
    let window = phantom_analyze::DEFAULT_WINDOW_SECS;

    // Uninterrupted reference run, traced + live-analyzed.
    let full_trace = dir.join("full.jsonl");
    let plain = run_scene_opts(
        scene,
        seed,
        Some(window),
        &RunOptions {
            trace: Some(full_trace.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let full_bytes = std::fs::read(&full_trace).unwrap();
    let want_render = plain.result.render(0);
    let want_analysis = plain.analysis.as_ref().unwrap().to_json();

    // Checkpointed run: byte-identical trace and report.
    let ck_trace = dir.join("checkpointed.jsonl");
    let ck_dir = dir.join("ckpts");
    let checkpointed = run_scene_opts(
        scene,
        seed,
        None,
        &RunOptions {
            trace: Some(ck_trace.clone()),
            checkpoint_every: Some(every),
            checkpoint_dir: Some(ck_dir.clone()),
            shards: ckpt_shards,
            ..RunOptions::default()
        },
    )
    .unwrap();
    assert_eq!(
        std::fs::read(&ck_trace).unwrap(),
        full_bytes,
        "{file}: checkpointing must not perturb the trace"
    );
    assert_eq!(
        checkpointed.result.render(0),
        want_render,
        "{file}: checkpointing must not perturb the report"
    );
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&ck_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    ckpts.sort(); // zero-padded names: lexical order is sim order
    assert!(
        ckpts.len() >= 2,
        "{file}: expected several checkpoints, got {}",
        ckpts.len()
    );

    // Resume from a mid-run checkpoint; the suffix must stitch onto the
    // uninterrupted prefix byte-for-byte.
    let mid = &dir.join("resume-from.jsonl");
    let text = std::fs::read_to_string(&ckpts[ckpts.len() / 2]).unwrap();
    std::fs::write(mid, rewrite(&text)).unwrap();
    let doc = phantom_cli::read_checkpoint(mid).unwrap();
    assert!(doc.trace_offset > 0 && (doc.trace_offset as usize) < full_bytes.len());
    let suffix = dir.join("suffix.jsonl");
    let outcome = resume(
        mid,
        None,
        &RunOptions {
            trace: Some(suffix.clone()),
            shards: resume_shards,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let mut stitched = full_bytes[..doc.trace_offset as usize].to_vec();
    stitched.extend_from_slice(&std::fs::read(&suffix).unwrap());
    assert_eq!(
        stitched, full_bytes,
        "{file}: stitched trace must equal the uninterrupted trace"
    );
    assert_eq!(
        outcome.rendered, want_render,
        "{file}: resumed report must equal the uninterrupted report"
    );
    assert_eq!(outcome.events, plain.events, "{file}: total event count");

    // Re-analyzing the stitched trace reproduces the live analysis.
    let stitched_analysis = phantom_analyze::analyze_trace_str(
        std::str::from_utf8(&stitched).unwrap(),
        analysis_targets(scene),
        window,
    )
    .unwrap();
    assert_eq!(
        stitched_analysis.to_json(),
        want_analysis,
        "{file}: stitched-trace analysis must equal the live analysis"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_contract_fig2() {
    assert_resume_contract("fig2.json", CheckpointEvery::SimSecs(0.1), 0, 0);
}

#[test]
fn resume_contract_fig4() {
    assert_resume_contract("fig4.json", CheckpointEvery::SimSecs(0.2), 0, 0);
}

#[test]
fn resume_contract_fig6() {
    // Event-count cadence on one scene so both boundary kinds are
    // exercised end to end.
    assert_resume_contract("fig6.json", CheckpointEvery::Events(200_000), 0, 0);
}

#[test]
fn resume_contract_churn() {
    // Mid-run dynamic events (joins at 300 ms, leaves at 600 ms) must
    // survive the checkpoint round-trip like everything else.
    assert_resume_contract("churn.json", CheckpointEvery::SimSecs(0.2), 0, 0);
}

/// The `--jobs 1` vs `--jobs 4` half of the acceptance: four resumes of
/// the same checkpoint running concurrently (probes and telemetry are
/// thread-local) must each produce output byte-identical to a serial
/// resume.
#[test]
fn concurrent_resumes_match_serial() {
    let scene = load_scene("churn.json");
    let dir = tmp("jobs");
    let ck_dir = dir.join("ckpts");
    run_scene_opts(
        &scene,
        1996,
        None,
        &RunOptions {
            checkpoint_every: Some(CheckpointEvery::SimSecs(0.3)),
            checkpoint_dir: Some(ck_dir.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&ck_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    ckpts.sort();
    let mid = ckpts[ckpts.len() / 2].clone();

    let serial_suffix = dir.join("serial.jsonl");
    let serial = resume(
        &mid,
        None,
        &RunOptions {
            trace: Some(serial_suffix.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let serial_bytes = std::fs::read(&serial_suffix).unwrap();

    let results: Vec<_> = std::thread::scope(|s| {
        (0..4)
            .map(|i| {
                let mid = mid.clone();
                let suffix = dir.join(format!("par-{i}.jsonl"));
                s.spawn(move || {
                    let out = resume(
                        &mid,
                        None,
                        &RunOptions {
                            trace: Some(suffix.clone()),
                            ..RunOptions::default()
                        },
                    )
                    .unwrap();
                    (out, std::fs::read(&suffix).unwrap())
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect()
    });
    for (out, bytes) in results {
        assert_eq!(
            out.rendered, serial.rendered,
            "reports must not depend on jobs"
        );
        assert_eq!(out.events, serial.events);
        assert_eq!(bytes, serial_bytes, "suffix traces must not depend on jobs");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A topology file resumes as the scene it lowers to: a lossy trunk,
/// random, on/off and CBR sessions and strict-priority CBR queues, at
/// the file's own seed.
#[test]
fn resume_contract_kitchen_sink_topology_file() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/topologies/kitchen_sink.phantom"),
    )
    .unwrap();
    let (scene, seed) = parse_str(&text).unwrap();
    assert_resume_contract_on(&scene, seed, CheckpointEvery::SimSecs(0.2), 0, 0, |t| {
        t.to_string()
    });
}

/// The million-session scene, same contract. Ignored by default: it is
/// minutes of debug-build wall time. Run with `cargo test -- --ignored`.
#[test]
#[ignore = "large scene; run explicitly"]
fn resume_contract_metro_chain_10k() {
    // The metro scene simulates 200 ms, so checkpoint at 50 ms.
    assert_resume_contract(
        "metro/metro-chain-10k.json",
        CheckpointEvery::SimSecs(0.05),
        0,
        0,
    );
}

/// A generated (lean) fan-in: only the traced destinations hold a delay
/// histogram, and access ports record no series.
const LEAN_FAN_IN: &str = r#"{
  "schema": "phantom-scene/1",
  "id": "lean-fan-in",
  "describe": "small generated fan-in",
  "algorithm": "phantom",
  "duration_ms": 20,
  "generate": {
    "kind": "fan_in",
    "seed": 7,
    "leaves": 2,
    "sessions_per_leaf": 5,
    "leaf_mbps": 155.0,
    "root_mbps": 622.0,
    "prop_us": 10.0,
    "start_spread_ms": 5.0,
    "rate_sample_ms": 5.0,
    "acr_stride": 4,
    "icr_mbps": 0.5
  },
  "analysis": { "n_sessions": 10 }
}"#;

/// Adds to a checkpoint the state keys that builds before lean
/// observability wrote and this one no longer does: a `tw` scope on
/// every switch port, `macr`/`qs`/`tp` scopes on ports without series,
/// and a `delay_hist` scope on destinations without a histogram.
/// Returns the text and the number of each kind of key group added.
fn with_retired_keys(text: &str) -> (String, [usize; 3]) {
    let mut added = [0; 3];
    let mut out = String::new();
    for line in text.lines() {
        let is = |ty: &str| line.contains(&format!("\"type\":\"{ty}\""));
        let mut extra = Vec::new();
        if is("phantom_atm::switch::Switch") {
            let ports: usize = line
                .split(['"', ' '])
                .find_map(|t| t.strip_prefix("ports="))
                .expect("a switch record counts its ports")
                .parse()
                .unwrap();
            for i in 0..ports {
                extra.push(format!(
                    "p{i}.tw.last_t=1000 p{i}.tw.last_v=2 p{i}.tw.integral=0.5 \
                     p{i}.tw.max=3 p{i}.tw.started=1"
                ));
                added[0] += 1;
                if !line.contains(&format!("p{i}.macr.times=")) {
                    for s in ["macr", "qs", "tp"] {
                        extra.push(format!("p{i}.{s}.times=0.001 p{i}.{s}.values=7"));
                    }
                    added[1] += 1;
                }
            }
        } else if is("phantom_atm::dest::AbrDest") && !line.contains("delay_hist.") {
            extra.push(
                "delay_hist.bins=0,2 delay_hist.overflow=0 delay_hist.count=2 \
                 delay_hist.sum=0.3 delay_hist.max=0.15"
                    .to_string(),
            );
            added[2] += 1;
        }
        match line.strip_suffix("\"}") {
            Some(head) if !extra.is_empty() => {
                out.push_str(&format!("{head} {}\"}}\n", extra.join(" ")));
            }
            _ => {
                out.push_str(line);
                out.push('\n');
            }
        }
    }
    (out, added)
}

/// `phantom-checkpoint/2` files written before lean observability carry
/// state this build no longer holds; they still resume, and the resumed
/// trace stitches byte-identically.
#[test]
fn resume_contract_ignores_retired_state_keys() {
    let scene = parse_scene(LEAN_FAN_IN).unwrap();
    let counts = std::cell::Cell::new([0; 3]);
    assert_resume_contract_on(&scene, 1996, CheckpointEvery::SimSecs(0.005), 0, 0, |t| {
        let (text, added) = with_retired_keys(t);
        counts.set(added);
        text
    });
    // 6 trunk ports and 20 access ports; 10 destinations, 3 traced.
    assert_eq!(counts.get(), [26, 20, 7]);
}

/// The ordering keys do not depend on the shard count, so a checkpoint
/// taken at `--shards 2` resumes at one shard, and the reverse — each
/// stitching the trace of the run without `--shards`.
#[test]
fn resume_contract_across_shard_counts() {
    assert_resume_contract("churn.json", CheckpointEvery::SimSecs(0.2), 2, 1);
    assert_resume_contract("fig2.json", CheckpointEvery::SimSecs(0.1), 1, 2);
}

/// An event-count cadence on a sharded run checkpoints at the first
/// epoch barrier past each boundary; its resume still stitches.
#[test]
fn resume_contract_event_cadence_at_two_shards() {
    assert_resume_contract("fig6.json", CheckpointEvery::Events(200_000), 2, 0);
}

const DUMBBELL_A: &str = r#"{
    "schema": "phantom-scene/1",
    "id": "tt-diverge",
    "describe": "divergence-injection twin A",
    "algorithm": "phantom",
    "duration_ms": 300,
    "switches": ["s1", "s2"],
    "trunks": [{"a": "s1", "b": "s2", "mbps": 150, "prop_us": 10}],
    "sessions": [
        {"id": "g0", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}},
        {"id": "g1", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}}
    ],
    "bottleneck": 0,
    "analysis": {"n_sessions": 2}
}"#;

/// `phantom diverge` must call two identical-seed runs identical, and
/// localize an injected single-parameter perturbation (`alpha_dec`
/// 0.25 -> 0.26 on the bottleneck trunk) to its first differing event —
/// with the engine-state diff when run A's checkpoints are at hand.
#[test]
fn diverge_localizes_an_injected_perturbation() {
    let dir = tmp("diverge");
    let scene_a = parse_scene(DUMBBELL_A).unwrap();
    let perturbed_src =
        DUMBBELL_A.replace("\"prop_us\": 10}", "\"prop_us\": 10, \"alpha_dec\": 0.26}");
    let scene_b = parse_scene(&perturbed_src).unwrap();

    let trace_a = dir.join("a.jsonl");
    let trace_b = dir.join("b.jsonl");
    let ck_dir = dir.join("ckpts");
    run_scene_opts(
        &scene_a,
        7,
        None,
        &RunOptions {
            trace: Some(trace_a.clone()),
            checkpoint_every: Some(CheckpointEvery::SimSecs(0.01)),
            checkpoint_dir: Some(ck_dir.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    run_scene_opts(
        &scene_b,
        7,
        None,
        &RunOptions {
            trace: Some(trace_b.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();

    // Identical traces: exit path 0.
    let (same, report) = diverge(&trace_a, &trace_a, &DivergeOptions::default()).unwrap();
    assert!(matches!(same, DivergeOutcome::Identical { .. }));
    assert!(report.contains("\"identical\":true"), "{report}");

    // Perturbed twin: first divergence found, context retained, and the
    // checkpoint-backed engine-state diff produced.
    let (out, report) = diverge(
        &trace_a,
        &trace_b,
        &DivergeOptions {
            context: 4,
            checkpoints: Some(ck_dir),
        },
    )
    .unwrap();
    let DivergeOutcome::Diverged { line } = out else {
        panic!("perturbed twin must diverge");
    };
    assert!(line > 1, "the manifest lines match");
    assert!(report.contains("\"identical\":false"), "{report}");
    assert!(
        report.contains("\"record\":\"first-divergence\""),
        "{report}"
    );
    assert!(report.contains("\"record\":\"context\""), "{report}");
    // The perturbation is the decrease factor, so the first differing
    // event is a MACR update (embedded as an escaped JSON string).
    assert!(report.contains("\\\"kind\\\":\\\"macr\\\""), "{report}");
    assert!(report.contains("\"record\":\"checkpoint\""), "{report}");
    assert!(report.contains("\"record\":\"replay\""), "{report}");
    assert!(report.contains("\"record\":\"summary\""), "{report}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite (f): `phantom status --watch` must treat a status file
/// vanishing mid-watch as a normal end of run, not an error.
#[test]
fn status_watch_survives_file_removal() {
    let dir = tmp("watch");
    let path = dir.join("run.status.json");
    let status = phantom_metrics::RunStatus::starting("tt-watch", 7, 100, "slices");
    status.write(&path).unwrap();

    let child = std::process::Command::new(env!("CARGO_BIN_EXE_phantom"))
        .args(["status", path.to_str().unwrap(), "--watch"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();

    // Let the watcher read the file at least once (it polls every
    // second), then yank it.
    std::thread::sleep(std::time::Duration::from_millis(1500));
    std::fs::remove_file(&path).unwrap();

    let out = child.wait_with_output().unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "watch must exit cleanly: {:?}\nstdout: {stdout}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("tt-watch"), "{stdout}");
    assert!(stdout.contains("run ended"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// `phantom resume --metrics F --profile P` writes both files; the
/// metrics are read from the finished network, so resuming a mid-run
/// checkpoint reports the whole run, byte-identical to the
/// uninterrupted run's snapshot.
fn assert_resume_metrics(tag: &str, scene: &Scene, seed: u64) {
    let dir = tmp(&format!("metrics-{tag}"));
    let ck_dir = dir.join("ckpts");
    let full = dir.join("full.prom");
    run_scene_opts(
        scene,
        seed,
        None,
        &RunOptions {
            metrics: Some(full.clone()),
            checkpoint_every: Some(CheckpointEvery::SimSecs(0.1)),
            checkpoint_dir: Some(ck_dir.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let mut ckpts: Vec<PathBuf> = std::fs::read_dir(&ck_dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    ckpts.sort();
    let resumed = dir.join("resumed.prom");
    let profile = dir.join("resumed.profile.json");
    resume(
        &ckpts[ckpts.len() / 2],
        None,
        &RunOptions {
            metrics: Some(resumed.clone()),
            profile: Some(profile.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    for ext in ["", ".json"] {
        let read = |p: &Path| std::fs::read(format!("{}{ext}", p.display())).unwrap();
        assert_eq!(
            read(&resumed),
            read(&full),
            "{tag}: resumed .prom{ext} must equal the uninterrupted run's"
        );
    }
    let profile = std::fs::read_to_string(&profile).unwrap();
    assert!(
        profile.starts_with("{\n  \"schema\": \"phantom-profile/1\""),
        "{tag}: {profile}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_writes_whole_run_metrics_fig2() {
    assert_resume_metrics("fig2", &load_scene("fig2.json"), 1996);
}

#[test]
fn resume_writes_whole_run_metrics_kitchen_sink() {
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../examples/topologies/kitchen_sink.phantom"),
    )
    .unwrap();
    let (scene, seed) = parse_str(&text).unwrap();
    assert_resume_metrics("kitchen_sink", &scene, seed);
}

/// `phantom resume` refuses `--seed` (the checkpoint fixes it) and
/// `--analyze` (which belongs on the stitched trace) by name, rather
/// than accepting and dropping them.
#[test]
fn resume_refuses_seed_and_analyze() {
    let dir = tmp("refuse");
    let ck_dir = dir.join("ckpts");
    run_scene_opts(
        &load_scene("fig2.json"),
        1996,
        None,
        &RunOptions {
            checkpoint_every: Some(CheckpointEvery::SimSecs(0.2)),
            checkpoint_dir: Some(ck_dir.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let ckpt = std::fs::read_dir(&ck_dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    for (flags, named) in [
        (&["--seed", "7"][..], "--seed"),
        (&["--analyze"][..], "phantom analyze"),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_phantom"))
            .arg("resume")
            .arg(&ckpt)
            .args(flags)
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flags:?} must be refused");
        assert!(stderr.contains(named), "{flags:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{flags:?}: nothing may run");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
