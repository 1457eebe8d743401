//! # phantom-scenarios — the paper's evaluation, experiment by experiment
//!
//! One entry per figure/table of *Phantom: A Simple and Effective Flow
//! Control Scheme* (see DESIGN.md for the experiment index and the
//! provenance of each reconstruction). Every entry runs a deterministic
//! simulation and returns a structured
//! [`phantom_metrics::ExperimentResult`] (figures) or
//! [`phantom_metrics::Table`] (tables) that the `repro` binary renders.
//!
//! * [`catalog`] — the single-network ATM figures (Sections 2–3 and 5:
//!   convergence, staggered joins, on/off sources, heterogeneous RTT,
//!   parking lot, upstream restrictions, scale, the canonical u=5
//!   scenario, the NI-bit variant and the EPRCA/APRC/CAPC figures), each
//!   an embedded `phantom-scene/1` file plus a reading of the run.
//! * [`atm`] — the ATM runners that stay in Rust: the adaptive-α
//!   ablation and the extensions (loss, statistical multiplexing, MCR,
//!   CBR background, ERICA comparison).
//! * [`tcp`] — Section 4: RTT unfairness under drop-tail and its
//!   reduction by Selective Discard, Selective Source Quench, Selective
//!   RED, ECN marking, and the beat-down (parking-lot) experiment.
//! * [`compare`] — the cross-algorithm summary tables.
//! * [`ablation`] — design-choice sweeps (Δt, α, u, residual mode).
//! * [`registry`] — string-keyed access to every experiment for the
//!   CLI, and the analysis targets of each id.
//! * [`sweep`] — parallel fan-out of independent `(experiment, seed)`
//!   runs across OS threads, with results identical to a serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod atm;
pub mod catalog;
pub mod common;
pub mod compare;
pub mod registry;
pub mod sweep;
pub mod tcp;
pub mod tcp_ablation;
pub mod wan;

pub use registry::{
    all_experiments, run_experiment, suggest_from, suggest_id, targets_for, ExperimentOutput,
};
pub use sweep::{run_sweep, SweepJob, SweepRun};
