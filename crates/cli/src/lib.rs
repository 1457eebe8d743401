//! # phantom-cli — run Phantom experiments from a scene or topology file
//!
//! Every input is a `phantom-scene/1` scene. A scene file is JSON; a
//! topology file is a small line-oriented DSL that [`parse_str`] lowers
//! to a validated scene plus the seed of its `run` line. Either way the
//! CLI simulates the scene through the one `phantom_scene::RunPlan`
//! pipeline — run, checkpoint, resume and diverge alike — prints
//! per-session rates and per-trunk statistics, and can also print the
//! *analytic* phantom prediction (weighted max-min with one imaginary
//! session per link) without simulating at all.
//!
//! ```text
//! # dumbbell.phantom — two greedy sessions over one OC-3
//! switch s1
//! switch s2
//! trunk s1 s2 150mbps 10us
//! session s1 s2 greedy
//! session s1 s2 greedy rtt=5ms
//! algorithm phantom u=5
//! run 500ms seed=42
//! ```
//!
//! ```sh
//! phantom run dumbbell.phantom          # simulate, print the report
//! phantom predict dumbbell.phantom     # closed-form fixed point only
//! phantom check scenes/fig2.json       # parse + validate, no run
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod diverge;
pub mod exec;
pub mod parse;

pub use checkpoint::{nearest_checkpoint, read_checkpoint, resume, CheckpointDoc, ResumeOutcome};
pub use diverge::{diverge, DivergeOptions, DivergeOutcome};
pub use exec::{
    collect_report, compare_algorithms, predict, run_scene_opts, sweep_u, CheckpointEvery,
    RunOptions, RunReport, SceneReport,
};
pub use parse::{parse_str, ParseError};
