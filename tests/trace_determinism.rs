//! End-to-end determinism acceptance for the timer-wheel calendar,
//! busy-port cell batching and intra-run PDES sharding.
//!
//! The event calendar was swapped (binary heap → hierarchical timer
//! wheel), busy ports may emit up to `tx_batch_limit()` cells per
//! `TxDone` inside the quiet window, and one run may now execute on
//! several conservative shards (`--shards N`). All are pure performance
//! changes within their contract: the delivered event order — and
//! therefore every probe event a run emits — must be identical at any
//! `--jobs` level, any batch limit and any shard count ≥ 1. (Shard
//! count 0, the serial engine, uses a different equal-time tie-break
//! and is pinned by the pre-existing serial matrix.) This test digests
//! full JSONL traces across the `{shards 1,2,4} × {jobs 1,4} ×
//! {batch 64,1}` matrix on one ATM experiment (fig2), one TCP
//! experiment (fig17) and a generated metro scene (metro-chain-10k,
//! shortened so the debug-build matrix stays fast).
//!
//! Those matrices prove identity within one build only. The golden
//! digests below pin the trace bytes across commits, so a change to the
//! trace encoder (or anything upstream of it) cannot silently rewrite
//! every trace.

use phantom_repro::atm::{set_tx_batch_limit, tx_batch_limit};
use phantom_repro::metrics::fnv1a_64;
use phantom_repro::scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions};
use phantom_repro::sim::probe::KindSet;
use std::collections::BTreeMap;
use std::sync::{Mutex, Once};

/// Serializes the two matrix tests: both flip the process-global batch
/// limit, and the harness runs test functions in parallel.
static BATCH_LIMIT_LOCK: Mutex<()> = Mutex::new(());

const SEED: u64 = 1996;
const IDS: [&str; 3] = ["fig2", "fig17", "metro-chain-10k"];

/// FNV-1a digests of serial (`shards 0`) trace bodies at [`SEED`],
/// recorded with the `format!`-based encoder that predates
/// `write_event_json`. A digest may change only together with a
/// documented, deliberate trace re-baseline.
const GOLDEN_DIGESTS: [(&str, u64); 3] = [
    ("fig2", 0x5103_2447_dfe2_7afa),
    ("fig17", 0x47ae_59f4_b067_6e93),
    ("churn", 0xc605_d314_8205_3497),
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

/// The serial matrix: `{jobs} × {batch limit}` at shards 0 must produce
/// identical trace digests, event counts and telemetry per experiment.
/// One test function (not four) because the batch limit is
/// process-global and the harness runs tests in parallel.
#[test]
fn traces_are_identical_across_jobs_and_batch_limits() {
    let _lock = BATCH_LIMIT_LOCK.lock().unwrap();
    let default_limit = tx_batch_limit();
    assert_eq!(default_limit, 64, "documented default batch limit");

    let reference = run_matrix_point(1, 0, "serial-j1-b64");
    let variants = [
        (4, default_limit, "serial-j4-b64"),
        (1, 1, "serial-j1-b1"),
        (4, 1, "serial-j4-b1"),
    ];
    for (jobs, limit, tag) in variants {
        set_tx_batch_limit(limit);
        let got = run_matrix_point(jobs, 0, tag);
        set_tx_batch_limit(default_limit);
        for id in IDS {
            assert_eq!(
                got[id], reference[id],
                "{id} at jobs={jobs} batch={limit} must match jobs=1 batch=64"
            );
        }
    }
    for id in IDS {
        assert!(
            reference[id].events > 10_000,
            "{id}: the determinism check must cover a substantial run, saw {}",
            reference[id].events
        );
    }
}

/// The sharded matrix: every `{shards 1,2,4} × {jobs 1,4} × {batch
/// 64,1}` point must match the `shards=1, jobs=1, batch=64` reference
/// byte for byte — the `--shards` determinism contract, proven one
/// level below the `--jobs` one.
#[test]
fn traces_are_identical_across_shard_counts() {
    let _lock = BATCH_LIMIT_LOCK.lock().unwrap();
    let default_limit = tx_batch_limit();
    let reference = run_matrix_point(1, 1, "shard-s1-j1-b64");
    for id in IDS {
        assert!(
            reference[id].events > 10_000,
            "{id}: the shard determinism check must cover a substantial run, saw {}",
            reference[id].events
        );
    }
    let mut variants = Vec::new();
    for shards in [1usize, 2, 4] {
        for jobs in [1usize, 4] {
            for batch in [default_limit, 1] {
                if (shards, jobs, batch) != (1, 1, default_limit) {
                    variants.push((shards, jobs, batch));
                }
            }
        }
    }
    for (shards, jobs, batch) in variants {
        set_tx_batch_limit(batch);
        let tag = format!("shard-s{shards}-j{jobs}-b{batch}");
        let got = run_matrix_point(jobs, shards, &tag);
        set_tx_batch_limit(default_limit);
        for id in IDS {
            assert_eq!(
                got[id], reference[id],
                "{id} at shards={shards} jobs={jobs} batch={batch} must match \
                 shards=1 jobs=1 batch={default_limit}"
            );
        }
    }
}

/// The cross-commit pin: serial trace bodies of fig2, fig17 and the
/// `churn` scene must hash to the digests recorded before the encoder
/// rewrite.
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
