//! # phantom-sim — deterministic discrete-event simulation kernel
//!
//! This crate is the substrate that replaces BONeS, the commercial
//! block-oriented network simulator the Phantom paper used for all of its
//! experiments. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulation time, so
//!   event ordering is exact and runs are bit-reproducible.
//! * [`Engine`] — one event loop dispatching typed messages to [`Node`]s
//!   through a hierarchical timer-wheel calendar ([`event`], tagged
//!   [`CALENDAR`]), with one equal-time rule: the per-sender ordering key
//!   of [`shard`].
//! * [`rng`] — seed-derived per-stream random number generators so that
//!   adding a node never perturbs the random sequence of another.
//! * [`stats`] — time series, time-weighted averages, counters and
//!   histograms used by every experiment to record queue lengths, MACR
//!   traces and session rates.
//! * [`fifo`] — a bounded FIFO queue with drop and occupancy accounting,
//!   the building block of every switch output port and router.
//! * [`trace`] — CSV export of recorded series for offline plotting.
//! * [`probe`] — typed semantic events (enqueue/drop/MACR update/…) with
//!   pluggable sinks (JSONL, ring buffer), zero-cost when no probe is
//!   installed.
//! * [`telemetry`] — thread-local run-wide counters (drops, retransmits,
//!   queue peak) harvested per run by harnesses.
//! * [`profile`] — in-run engine profiler attributing wall time per node
//!   type, event kind and calendar phase; always compiled, off by
//!   default, one branch per run call when disabled.
//! * [`flight`] — panic flight recorder: a ring of the last semantic
//!   events plus an engine snapshot, dumped as post-mortem JSONL from a
//!   chained panic hook.
//! * [`snapshot`] — engine checkpointing: complete dynamic-state
//!   snapshots (node fields, RNG streams, timer-wheel contents) that
//!   restore into a rebuilt engine and resume byte-identically.
//! * [`shard`] — the ordering key, and conservative intra-run
//!   parallelism: the topology is partitioned into shards that advance in
//!   lookahead-bounded epochs on their own threads, with deterministic
//!   cross-shard merge — byte-identical output at any shard count, a run
//!   without shards being a one-shard run.
//!
//! The kernel is deliberately synchronous by default: a flow-control
//! simulation is CPU-bound and must be deterministic, so an async runtime
//! would add overhead and nondeterminism without benefit. The opt-in
//! sharded run keeps that bargain by trading asynchrony for conservative
//! time barriers.
//!
//! ## Example
//!
//! ```
//! use phantom_sim::{Engine, Node, Ctx, SimTime, SimDuration};
//!
//! struct Ping { peer: phantom_sim::NodeId, count: u32 }
//!
//! impl Node<u32> for Ping {
//!     fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
//!         self.count += 1;
//!         if msg < 10 {
//!             ctx.send(self.peer, SimDuration::from_micros(5), msg + 1);
//!         }
//!     }
//! }
//!
//! let mut engine = Engine::<u32>::new(42);
//! let a = engine.add_node(Ping { peer: phantom_sim::NodeId(1), count: 0 });
//! let b = engine.add_node(Ping { peer: a, count: 0 });
//! engine.schedule(SimTime::ZERO, a, 0);
//! engine.run_until(SimTime::from_secs_f64(1.0));
//! assert_eq!(engine.now(), SimTime::from_secs_f64(1.0));
//! ```

// `deny`, not `forbid`: the dispatch loop holds nodes in `UnsafeCell`
// arenas so disjoint shard workers can dispatch through a shared
// reference. Every use is a scoped `#[allow(unsafe_code)]` with a
// SAFETY argument; everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cancel;
pub mod engine;
pub mod event;
pub mod fifo;
pub mod flight;
pub mod probe;
pub mod profile;
pub mod rng;
pub mod shard;
pub mod snapshot;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use cancel::{CancelGuard, CancelToken};
pub use engine::{thread_events_dispatched, ArenaStats, Ctx, Engine, Node, NodeId};
pub use event::CALENDAR;
pub use fifo::BoundedFifo;
pub use flight::{FlightGuard, FlightProbe};
pub use probe::{
    install_thread_probe, take_thread_probe, without_thread_probe, DropReason, JsonlProbe, KindSet,
    Probe, ProbeEvent, ProbeGuard, ProbeKind, RingProbe,
};
pub use profile::{CalendarStats, ProfileEntry, ProfileMarker, ProfileReport};
pub use rng::SeedStream;
pub use shard::{set_shards, shards, ShardGuard, ShardHints};
pub use snapshot::{
    EngineSnapshot, EventSnapshot, KvReader, KvWriter, NodeSnapshot, SnapshotMessage,
};
pub use stats::{Counter, Histogram, TimeSeries};
pub use time::{SimDuration, SimTime};
