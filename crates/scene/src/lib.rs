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
//! the standard figure panels and metrics). [`run::register_scene`]
//! makes a scene a first-class experiment id for `repro` and the
//! parallel sweep runner.
//!
//! Scenes are the primitive the paper's catalog is built on: most of
//! its ATM figures are an embedded scene plus a small reading of the
//! finished run (`phantom-scenarios`). This crate also owns what every
//! run shares: the [`AtmAlgorithm`] table and the [`probes`] stack.
//!
//! Determinism contract: a compiled scene is a pure function of
//! `(scene, seed)` — its event stream, and therefore its traces and
//! analysis reports, are byte-identical at any `--jobs` level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algorithm;
pub mod check;
pub mod compile;
pub mod model;
pub mod probes;
pub mod run;

pub use algorithm::AtmAlgorithm;
pub use check::{check_error_json, check_ok_json, CHECK_SCHEMA};
pub use compile::{compile, CompiledScene};
pub use model::{
    AnalysisDecl, EpochDecl, EventKind, GenerateDecl, GenerateKind, Scene, SessionDecl,
    TimelineEvent, TrafficDecl, TrunkDecl, SCENE_SCHEMA,
};
pub use phantom_metrics::json::Json;
pub use run::{
    analysis_targets, load_scene_dir, load_scene_file, parse_scene, register_scene,
    registered_scene, registered_scenes, run_scene, scale_scene, shard_scale_scene, Drive, Panels,
    RunOutcome, RunPlan,
};
