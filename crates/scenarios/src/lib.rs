//! # phantom-scenarios — the paper's evaluation, experiment by experiment
//!
//! One module per figure/table of *Phantom: A Simple and Effective Flow
//! Control Scheme* (see DESIGN.md for the experiment index and the
//! provenance of each reconstruction). Every runner builds its topology,
//! runs the deterministic simulation, and returns a structured
//! [`phantom_metrics::ExperimentResult`] (figures) or
//! [`phantom_metrics::Table`] (tables) that the `repro` binary renders.
//!
//! * [`atm`] — Sections 2–3 and 5: convergence, staggered joins, on/off
//!   sources, heterogeneous RTT, parking lot, upstream restrictions,
//!   the canonical u=5 scenario, the NI-bit variant, the adaptive-α
//!   ablation, and the EPRCA/APRC/CAPC baseline figures.
//! * [`tcp`] — Section 4: RTT unfairness under drop-tail and its
//!   reduction by Selective Discard, Selective Source Quench, Selective
//!   RED, ECN marking, and the beat-down (parking-lot) experiment.
//! * [`compare`] — the cross-algorithm summary tables.
//! * [`ablation`] — design-choice sweeps (Δt, α, u, residual mode).
//! * [`registry`] — string-keyed access to every experiment for the CLI.
//! * [`probes`] — the probe stack (analysis tap, trace, flight ring)
//!   every run harness installs.
//! * [`sweep`] — parallel fan-out of independent `(experiment, seed)`
//!   runs across OS threads, with results identical to a serial run.
//! * [`shape`] — per-figure expected-shape tables (fixed points,
//!   capacities, measurement tails) feeding the `phantom-analyze` gate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod atm;
pub mod common;
pub mod compare;
pub mod probes;
pub mod registry;
pub mod shape;
pub mod sweep;
pub mod tcp;
pub mod tcp_ablation;
pub mod wan;

pub use registry::{all_experiments, run_experiment, suggest_from, suggest_id, ExperimentOutput};
pub use sweep::{run_sweep, SweepJob, SweepRun};
