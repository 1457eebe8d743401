//! # phantom-analyze — streaming analysis of `phantom-trace/1` streams
//!
//! One pass, constant memory per session/port: the analyzer folds a trace
//! (file or live probe tap) into a `phantom-analysis/1` report with the
//! paper's headline quantities — convergence time and fixed-point error
//! against `C/(1+n·u)`, sliding-window Jain fairness, MACR oscillation
//! amplitude and mean deviation, link utilization, and log-bucketed queue
//! occupancy quantiles — plus per-window rows for plotting.
//!
//! * [`stream`] — the core [`StreamingAnalyzer`], the [`AnalysisSink`]
//!   probe adapter for live taps, and the [`AnalysisReport`] JSON form.
//! * [`jsonl`] — parsing of `phantom-trace/1` lines (exact inverse of the
//!   writer), the `trace-lint` validator with its truncation distinction,
//!   and whole-file analysis entry points.
//! * [`baseline`] — committed per-scenario baselines with explicit
//!   tolerances and the `--check` regression gate over them.
//! * [`reference`] — a buffered two-pass reference implementation used by
//!   tests to prove the streaming pass byte-identical.
//!
//! The same report must come out whether the events were tapped live or
//! re-read from the written JSONL: the trace writer emits `f64`s in Rust's
//! shortest-roundtrip form, the parser recovers identical bits, and both
//! analyzer paths share one arithmetic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod jsonl;
pub mod reference;
pub mod stream;

pub use baseline::{
    check_report, default_tolerance, parse_baseline, render_baseline, Baseline, BaselineEntry,
    TolMode, BASELINE_SCHEMA,
};
pub use jsonl::{analyze_trace_file, analyze_trace_str, lint_trace_str, LintError};
pub use stream::{
    parse_epoch_metric, AnalysisHandle, AnalysisReport, AnalysisSink, AnalysisTargets, EpochRow,
    EpochTarget, StreamingAnalyzer, WindowRow, DEFAULT_WINDOW_SECS, EPOCH_METRIC_SUFFIXES,
    METRIC_NAMES,
};
