//! `phantom-scene`: declarative experiment descriptions for the
//! Phantom reproduction.
//!
//! A *scene* is a JSON document (schema tag `phantom-scene/1`) that
//! declares a topology (switches, trunks with capacity/delay), a
//! session mix (greedy/windowed/bursty ABR sources plus unresponsive
//! CBR background), optional Phantom parameter overrides (`u`,
//! `alpha_inc`, `alpha_dec` — scene-wide or per trunk), a *timeline*
//! of mid-run events (session churn, link capacity changes, link
//! failure/recovery) and the analysis targets the configuration
//! predicts.
//!
//! The pipeline is: [`Scene::parse`] (strict JSON decode + semantic
//! validation, every error naming the offending key) →
//! [`compile::compile`] (lowering onto the existing
//! [`phantom_sim::Engine`] / `NetworkBuilder`, timeline events
//! scheduled as admin messages) → [`run::RunPlan`] (probes, drive, and
//! the standard figure panels and metrics) — or [`run::register_scene`],
//! which makes the scene a first-class experiment id for `repro` and
//! the parallel sweep runner.
//!
//! Determinism contract: a compiled scene is a pure function of
//! `(scene, seed)`, and a scene that transliterates a hard-coded
//! figure reproduces its event stream — traces and analysis reports —
//! byte-identically at any `--jobs` level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod compile;
pub mod model;
pub mod run;

pub use check::{check_error_json, check_ok_json, CHECK_SCHEMA};
pub use compile::{compile, CompiledScene};
pub use model::{
    AnalysisDecl, EpochDecl, EventKind, GenerateDecl, GenerateKind, Scene, SessionDecl,
    TimelineEvent, TrafficDecl, TrunkDecl, SCENE_SCHEMA,
};
pub use phantom_metrics::json::Json;
pub use run::{
    analysis_targets, load_scene_dir, load_scene_file, parse_scene, register_scene, run_scene,
    scale_scene, shard_scale_scene, Drive, RunOutcome, RunPlan,
};
