//! The determinism contract of the scene-backed catalog:
//!
//! * every catalog figure that runs from an embedded scene produces the
//!   trace body it produced as a hand-written runner — pinned by FNV-1a
//!   digest at seed 1996 — at `--jobs 1` and `--jobs 4`;
//! * the committed churn scene (2 → 8 → 2 sessions) re-converges to
//!   `C/(1+n·u)` within 5% in every perturbation epoch, and stays
//!   inside its committed analysis baseline.

use phantom_analyze::baseline::{check_report, parse_baseline};
use phantom_analyze::DEFAULT_WINDOW_SECS;
use phantom_metrics::fnv1a_64;
use phantom_scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions};
use phantom_scene::{load_scene_file, register_scene};
use phantom_sim::probe::KindSet;
use std::path::{Path, PathBuf};

const SEED: u64 = 1996;

/// FNV-1a digests of the trace bodies (everything after the manifest
/// line) at [`SEED`], recorded from the hand-written Rust runners these
/// scenes replaced. A digest may change only together with a
/// documented, deliberate trace re-baseline.
const CATALOG_DIGESTS: [(&str, u64); 13] = [
    ("fig2", 0x4e64_fe28_e0a1_f1bc),
    ("fig3", 0x560e_45b7_4ed7_c0c3),
    ("fig4", 0xf244_33f2_ecf2_2561),
    ("fig5", 0x5e06_ad54_03f8_e855),
    ("fig6", 0xf755_55c8_6c6b_cc4e),
    ("fig7", 0x10ef_aa10_40f4_7938),
    ("fig8", 0xd45e_a0c5_269c_531f),
    ("fig9", 0x77b9_aa54_d74c_a4d2),
    ("fig11", 0x33b1_02be_b241_36d2),
    ("fig19", 0x661b_c90f_34b7_ea41),
    ("fig20", 0x00ea_90a6_5bce_db47),
    ("fig21", 0x85f5_b33c_7a90_f190),
    ("fig22", 0xe2b1_34b6_4bd5_05a9),
];

fn scenes_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenes")
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("phantom-scene-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Run `ids` traced at `jobs` and return each trace body's digest. The
/// traces are deleted as soon as they are hashed (fig22 alone writes
/// ~300 MB).
fn trace_digests(ids: &[&str], jobs: usize) -> Vec<u64> {
    let dir = fresh_dir(&format!("digests-j{jobs}"));
    let batch: Vec<SweepJob> = ids
        .iter()
        .map(|id| SweepJob {
            id: id.to_string(),
            seed: SEED,
        })
        .collect();
    let opts = SweepOptions {
        trace_dir: Some(dir.clone()),
        trace_filter: KindSet::ALL,
        ..SweepOptions::default()
    };
    let runs = run_sweep_with(&batch, jobs, &opts);
    let digests = runs
        .iter()
        .map(|run| {
            let id = &run.job.id;
            assert!(run.output.is_some(), "{id}: unknown experiment");
            let text = std::fs::read(dir.join(format!("{id}-{SEED}.jsonl"))).unwrap();
            let body = text
                .iter()
                .position(|&b| b == b'\n')
                .expect("manifest line")
                + 1;
            assert!(text.len() > body, "{id}: trace must contain events");
            fnv1a_64(&text[body..])
        })
        .collect();
    let _ = std::fs::remove_dir_all(&dir);
    digests
}

/// The recorded digests hold at `--jobs 1` and at `--jobs 4`, four
/// figures at a time so the traces on disk stay small.
#[test]
fn catalog_scenes_reproduce_the_recorded_trace_digests() {
    for chunk in CATALOG_DIGESTS.chunks(4) {
        let ids: Vec<&str> = chunk.iter().map(|(id, _)| *id).collect();
        for jobs in [1, 4] {
            for ((id, want), got) in chunk.iter().zip(trace_digests(&ids, jobs)) {
                assert_eq!(
                    got, *want,
                    "{id} at --jobs {jobs}: trace body digest {got:#x} differs from the \
                     recorded {want:#x}"
                );
            }
        }
    }
}

#[test]
fn churn_scene_reconverges_within_five_percent_every_epoch() {
    let scene = load_scene_file(&scenes_dir().join("churn.json")).unwrap();
    let n_epochs = scene.analysis.epochs.len();
    assert_eq!(n_epochs, 3);
    register_scene(scene);

    let jobs = [SweepJob {
        id: "churn".into(),
        seed: SEED,
    }];
    let runs = run_sweep_with(
        &jobs,
        1,
        &SweepOptions {
            trace_dir: None,
            trace_filter: KindSet::ALL,
            analyze_window: Some(DEFAULT_WINDOW_SECS),
            ..SweepOptions::default()
        },
    );
    let report = runs[0].analysis.as_ref().expect("analysis report");

    // The acceptance criterion: post-perturbation MACR within 5% of
    // C/(1+n·u) in every epoch (n = 2, 8, 2).
    for i in 0..n_epochs {
        let err = report
            .metric(&format!("epoch{i}_fixed_point_error_rel"))
            .unwrap_or_else(|| panic!("epoch{i}_fixed_point_error_rel missing"));
        assert!(
            err <= 0.05,
            "epoch {i}: fixed-point error {err:.4} exceeds 5%"
        );
        let reconv = report
            .metric(&format!("epoch{i}_reconvergence_secs"))
            .unwrap_or_else(|| panic!("epoch{i}_reconvergence_secs missing"));
        assert!(
            reconv.is_finite(),
            "epoch {i}: never re-entered the convergence band"
        );
    }

    // And the committed baseline gate holds.
    let baseline_path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../baselines/analysis/churn.json");
    let text = std::fs::read_to_string(&baseline_path)
        .unwrap_or_else(|e| panic!("{}: {e}", baseline_path.display()));
    let baseline = parse_baseline(&text).unwrap();
    let failures = check_report(report, &baseline);
    assert!(failures.is_empty(), "baseline check failed: {failures:?}");
}
