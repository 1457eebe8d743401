//! End-to-end determinism acceptance for the timer-wheel calendar,
//! busy-port cell batching and intra-run PDES sharding.
//!
//! The engine has one equal-time rule (the per-sender ordering key) and
//! one dispatch loop, so a run without `--shards` is a one-shard run.
//! Busy ports may emit up to `tx_batch_limit()` cells per `TxDone` inside
//! the quiet window, and one run may execute on several conservative
//! shards (`--shards N`). Both are pure performance choices within their
//! contract: the delivered event order — and therefore every probe event
//! a run emits — must be identical at any `--jobs` level, any batch limit
//! and any shard count. These tests digest full JSONL traces across one
//! `{shards 1,2,4} × {jobs 1,4} × {batch 64,1}` matrix against a single
//! reference run without `--shards`, on one ATM experiment (fig2), one
//! TCP experiment (fig17), a dynamic scene (`churn`) and a generated
//! metro scene (metro-chain-10k, shortened so the debug-build matrix
//! stays fast). The matrix is split over two tests by shard count.
//!
//! The matrices prove identity within one build only. The golden digests
//! below pin the trace bytes across commits, so a change to the engine,
//! the trace encoder or anything upstream of them cannot silently
//! rewrite every trace.

use phantom_repro::atm::{set_tx_batch_limit, tx_batch_limit};
use phantom_repro::metrics::fnv1a_64;
use phantom_repro::scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions};
use phantom_repro::sim::probe::KindSet;
use std::collections::BTreeMap;
use std::sync::{Mutex, Once, OnceLock};

/// Serializes the tests: the matrix tests flip the process-global batch
/// limit, and the harness runs test functions in parallel.
static BATCH_LIMIT_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 1996;
const IDS: [&str; 4] = ["fig2", "fig17", "churn", "metro-chain-10k"];

/// FNV-1a digests of the trace bodies of runs without `--shards` at
/// [`SEED`]. They were taken from the `--shards 1` traces of the last
/// commit whose engine still had a separate insertion-order rule for
/// runs without shards: that commit's sharded path minted the same keys,
/// so these digests witness that adopting the key everywhere changed
/// nothing else. fig17's was re-baselined when its Selective Discard run
/// moved out of the trace: its trace is now the drop-tail run alone,
/// byte for byte the first run of the trace it replaced. A digest may
/// change only together with a documented, deliberate trace re-baseline.
const GOLDEN_DIGESTS: [(&str, u64); 3] = [
    ("fig2", 0x4e64_fe28_e0a1_f1bc),
    ("fig17", 0x8f0a_c9ac_b7dd_27ca),
    ("churn", 0x68b8_ecc9_764f_b72d),
];

/// Register a shortened metro-chain-10k (8 ms instead of the committed
/// duration) as a dynamic experiment, once per process. The topology —
/// and thus the shard partition — is exactly the committed scene's.
fn register_short_metro() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let text = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("scenes/metro/metro-chain-10k.json"),
        )
        .expect("committed metro scene");
        let mut scene = phantom_repro::scene::parse_scene(&text).expect("scene parses");
        scene.duration_ms = 8.0;
        phantom_repro::scene::register_scene(scene);
    });
}

/// One configuration's fingerprints: per experiment id, the FNV-1a
/// digest of the trace body (everything after the manifest line — the
/// manifest is identical here anyway, but it carries provenance rather
/// than behavior) plus the dispatched event count and run telemetry.
#[derive(Debug, PartialEq, Eq)]
struct Fingerprint {
    trace_digest: u64,
    events: u64,
    drops: u64,
    retransmits: u64,
    queue_peak: u64,
}

/// Register the committed `churn` scene unchanged, once per process.
fn register_churn() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenes/churn.json");
        let scene = phantom_repro::scene::load_scene_file(&path).expect("committed churn scene");
        phantom_repro::scene::register_scene(scene);
    });
}

fn run_matrix_point(jobs: usize, shards: usize, tag: &str) -> BTreeMap<String, Fingerprint> {
    register_short_metro();
    register_churn();
    run_traces(&IDS, jobs, shards, tag)
}

/// Run `ids` at [`SEED`] with full tracing and fingerprint each trace.
fn run_traces(
    ids: &[&str],
    jobs: usize,
    shards: usize,
    tag: &str,
) -> BTreeMap<String, Fingerprint> {
    let dir = std::env::temp_dir().join(format!(
        "phantom-trace-determinism-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions {
        trace_dir: Some(dir.clone()),
        trace_filter: KindSet::ALL,
        analyze_window: None,
        shards,
        ..SweepOptions::default()
    };
    let batch: Vec<SweepJob> = ids
        .iter()
        .map(|id| SweepJob {
            id: id.to_string(),
            seed: SEED,
        })
        .collect();
    let runs = run_sweep_with(&batch, jobs, &opts);
    let mut out = BTreeMap::new();
    for run in &runs {
        let id = &run.job.id;
        assert!(run.output.is_some(), "{id} must be a known experiment");
        let text = std::fs::read_to_string(dir.join(format!("{id}-{SEED}.jsonl"))).unwrap();
        let body_start = text.find('\n').expect("trace has a manifest line") + 1;
        assert!(
            text[..body_start].contains("phantom-trace/1"),
            "{id}: first line must be the manifest"
        );
        assert!(text.len() > body_start, "{id}: trace must contain events");
        out.insert(
            id.clone(),
            Fingerprint {
                trace_digest: fnv1a_64(&text.as_bytes()[body_start..]),
                events: run.events,
                drops: run.counters.drops,
                retransmits: run.counters.retransmits,
                queue_peak: run.counters.queue_peak,
            },
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Run the fingerprint of every `(shards, jobs, batch)` point and assert
/// it matches `reference`, byte for byte and counter for counter.
fn assert_points_match(
    reference: &BTreeMap<String, Fingerprint>,
    points: &[(usize, usize, u32)],
    default_limit: u32,
) {
    for &(shards, jobs, batch) in points {
        set_tx_batch_limit(batch);
        let tag = format!("s{shards}-j{jobs}-b{batch}");
        let got = run_matrix_point(jobs, shards, &tag);
        set_tx_batch_limit(default_limit);
        for id in IDS {
            assert_eq!(
                got[id], reference[id],
                "{id} at shards={shards} jobs={jobs} batch={batch} must match \
                 the run without --shards at jobs=1 batch={default_limit}"
            );
        }
    }
}

/// The reference point: a run without `--shards` at jobs 1 and the
/// default batch limit, checked to cover a substantial run. Computed
/// once per process and shared by both matrix tests.
fn reference_run() -> &'static (BTreeMap<String, Fingerprint>, u32) {
    static REFERENCE: OnceLock<(BTreeMap<String, Fingerprint>, u32)> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let default_limit = tx_batch_limit();
        assert_eq!(default_limit, 64, "documented default batch limit");
        let reference = run_matrix_point(1, 0, "reference");
        for id in IDS {
            assert!(
                reference[id].events > 10_000,
                "{id}: the determinism check must cover a substantial run, saw {}",
                reference[id].events
            );
        }
        (reference, default_limit)
    })
}

/// The matrix points at the given shard counts:
/// `shards × {jobs 1,4} × {batch 64,1}`.
fn matrix_points(shards: &[usize], default_limit: u32) -> Vec<(usize, usize, u32)> {
    let mut points = Vec::new();
    for &s in shards {
        for jobs in [1usize, 4] {
            for batch in [default_limit, 1] {
                points.push((s, jobs, batch));
            }
        }
    }
    points
}

/// The one-shard row of the matrix: `--shards 1` at `{jobs 1,4} ×
/// {batch 64,1}` must match the run without `--shards` (jobs 1, batch
/// 64) in trace digest, event count and telemetry per experiment — the
/// run without `--shards` is a one-shard run of the same loop.
/// One test function (not four) because the batch limit is
/// process-global and the harness runs tests in parallel.
#[test]
fn traces_are_identical_across_jobs_and_batch_limits() {
    let _lock = BATCH_LIMIT_LOCK.lock().unwrap();
    let (reference, default_limit) = reference_run();
    let points = matrix_points(&[1], *default_limit);
    assert_points_match(reference, &points, *default_limit);
}

/// The rest of the matrix: every `{shards 2,4} × {jobs 1,4} × {batch
/// 64,1}` point must match the same reference byte for byte.
#[test]
fn traces_are_identical_across_shard_counts() {
    let _lock = BATCH_LIMIT_LOCK.lock().unwrap();
    let (reference, default_limit) = reference_run();
    let points = matrix_points(&[2, 4], *default_limit);
    assert_points_match(reference, &points, *default_limit);
}

/// The cross-commit pin: the trace bodies of fig2, fig17 and the
/// `churn` scene, run without `--shards`, must hash to the golden
/// digests.
#[test]
fn trace_bodies_match_golden_digests() {
    let _lock = BATCH_LIMIT_LOCK.lock().unwrap();
    register_churn();
    let ids: Vec<&str> = GOLDEN_DIGESTS.iter().map(|(id, _)| *id).collect();
    let got = run_traces(&ids, 1, 0, "golden");
    for (id, want) in GOLDEN_DIGESTS {
        assert_eq!(
            got[id].trace_digest, want,
            "{id}: trace body digest {:#x} differs from the golden {want:#x}",
            got[id].trace_digest
        );
    }
}
