//! # phantom-serve — phantom-as-a-service
//!
//! A dependency-free daemon turning the deterministic scene runner
//! into a long-lived service: `phantom serve --listen ADDR --workers N`
//! accepts `phantom-scene/1` documents over a hand-rolled HTTP/1.1
//! layer on [`std::net::TcpListener`], validates them with the same
//! compiler `phantom check` uses, queues them on a bounded FIFO with
//! admission control, and runs them on a worker pool through the same
//! `phantom_scene::RunPlan` the CLI uses.
//!
//! Endpoints (see `schemas/phantom-serve-v1.md` for the wire format):
//!
//! * `POST /v1/jobs` — submit a scene (`?seed=N`); 202 + job record,
//!   400 with a `phantom-check/1` body on invalid scenes, 429 with the
//!   queue depth when the bounded queue is full, 503 while draining.
//! * `GET /v1/jobs` / `GET /v1/jobs/{id}` — records with live
//!   heartbeat fields; unknown ids get an edit-distance hint.
//! * `GET /v1/jobs/{id}/trace` — chunked live stream of the job's
//!   `phantom-trace/1` spool. **Determinism contract:** the streamed
//!   bytes equal `phantom run <scene> --seed N --trace` exactly.
//! * `GET /v1/jobs/{id}/analysis` — the final `phantom-analysis/1`
//!   report, or an incremental one computed from the spooled prefix
//!   while the job runs.
//! * `DELETE /v1/jobs/{id}` — cooperative cancel, honoured by the
//!   engine within one calendar slice ([`phantom_sim::CancelToken`]).
//! * `GET /metrics` — Prometheus text format
//!   ([`phantom_metrics::PROMETHEUS_CONTENT_TYPE`]).
//!
//! SIGTERM (or [`Server::drain`]) drains gracefully: admission stops,
//! queued and running jobs finish, the process exits 0.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod http;
pub mod job;
pub mod server;
pub mod signal;

pub use job::{Job, JobState, SERVE_SCHEMA};
pub use server::{serve, Server, ServerConfig};

/// Seed used when a submission does not pass `?seed=` (the same
/// default as `phantom run`).
pub const DEFAULT_SEED: u64 = 1996;
