//! # phantom-metrics — fairness, convergence and reporting
//!
//! Everything the paper's evaluation measures, reusable across the ATM and
//! TCP experiments:
//!
//! * [`fairness`] — Jain's fairness index and a (weighted) max-min
//!   water-filling reference allocator, including the *phantom prediction*:
//!   the fixed point the Phantom algorithm should converge to, obtained by
//!   adding one imaginary session of weight `1/u` to every link.
//! * [`convergence`] — convergence-time detection on rate traces and
//!   steady-state oscillation measurement.
//! * [`series`] — resampling and smoothing helpers for recorded traces.
//! * [`report`] — structured experiment results and their ASCII/CSV
//!   rendering, used by the `repro` binary to "print" each figure.
//! * [`bench_record`] — the machine-readable `BENCH_phantom.json` schema
//!   (runs/sec, events/sec, per-run wall time and health telemetry) the
//!   `repro` harness emits.
//! * [`loghist`] — HDR-style log-bucketed integer histogram for queue
//!   occupancies (bounded relative error, constant memory).
//! * [`registry`] — named counters/gauges/histograms that nodes register
//!   into, exported per run as a Prometheus-style text snapshot and a
//!   JSON summary.
//! * [`manifest`] — the provenance manifest (scenario, seed, config
//!   hash, git rev, schema version) embedded in every artifact.
//! * [`profile_record`] — the `phantom-profile/1` artifact wrapping the
//!   engine's in-run profiler report (`phantom run --profile`).
//! * [`status`] — live run-status files (`phantom-status/1`), rewritten
//!   atomically every heartbeat for `phantom status` to poll.
//! * [`json`] — the hand-rolled JSON emission helpers all of the above
//!   share (the workspace builds without serde).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bench_record;
pub mod convergence;
pub mod fairness;
pub mod json;
pub mod loghist;
pub mod manifest;
pub mod profile_record;
pub mod registry;
pub mod report;
pub mod series;
pub mod status;

pub use bench_record::{BenchRecord, RunRecord, ScaleRecord, ShardScalePoint};
pub use convergence::{convergence_time, oscillation_amplitude};
pub use fairness::{
    jain_index, max_min_fair, normalized_jain_index, phantom_prediction, weighted_max_min,
};
pub use loghist::LogHistogram;
pub use manifest::{fnv1a_64, Manifest};
pub use profile_record::ProfileRecord;
pub use registry::{
    CounterHandle, GaugeSummary, HistogramHandle, Registry, PROMETHEUS_CONTENT_TYPE,
};
pub use report::{aggregate_runs, ExperimentResult, Table};
pub use status::{write_atomic, RunStatus};
