//! Conservative intra-run parallelism: topology sharding and lookahead.
//!
//! One simulation is partitioned into `k` *shards* — disjoint groups of
//! nodes, each with its own timer-wheel calendar, advanced in lockstep
//! *epochs* of width `lookahead` (the minimum declared link propagation
//! delay). Within an epoch a shard dispatches only its own nodes' events;
//! a cross-shard `Ctx::send` lands in a staging queue that is merged into
//! the destination shard's calendar at the epoch barrier, in the
//! deterministic total order of its `(time, key)` pair. Because every
//! inter-node message in a built topology crosses a declared link whose
//! propagation delay is at least the lookahead, no cross-shard message
//! can ever arrive inside the epoch that produced it — the classic
//! conservative-PDES argument — and the merged event sequence is a pure
//! function of `(topology, seed)`, independent of the shard count.
//!
//! ## The deterministic ordering key
//!
//! Several shards insert concurrently, so no global insertion counter can
//! order equal-time events. Every send instead mints the 64-bit key
//!
//! ```text
//! key = (sender + 1) << 40 | per_sender_counter
//! ```
//!
//! which is unique (the counter is per node and monotonic), reproducible
//! (it depends only on the sender's own dispatch history, which is
//! shard-invariant), and totally ordered. Events scheduled from outside
//! any node — topology kicks, timeline admin messages — take the
//! calendar's insertion number, always below `1 << 40`, so they sort ahead
//! of every in-run send at an equal timestamp. The per-sender counters
//! live in the engine, persist across `run_until` slices and go into
//! checkpoints, so a sliced or resumed run mints the same keys as a
//! single-call run.
//!
//! This is the engine's only equal-time rule: a run without `--shards` is
//! a one-shard run, on the same dispatch loop with the same keys. The
//! contract is invariance across shard counts: no `--shards`,
//! `--shards 1`, `--shards 2` and `--shards 4` produce byte-identical
//! traces, analysis reports and telemetry.
//!
//! ## Partitioning
//!
//! [`ShardHints`] — attached by the topology builders at build time —
//! carry the lookahead and *affinity* edges (each session endpoint is
//! anchored to its first switch/router). [`partition`] unions the
//! affinity edges into clusters and greedily bin-packs clusters (largest
//! first) onto the `k` shards. The cut is a balance/locality heuristic
//! only: correctness needs nothing from it, because every inter-node
//! delay is at least the lookahead no matter where the cut falls.

use crate::probe::{Probe, ProbeEvent};
use crate::time::{SimDuration, SimTime};
use crate::NodeId;
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Barrier, Mutex};

/// Bit position splitting an ordering key into `(sender + 1) | counter`.
pub(crate) const KEY_SHIFT: u32 = 40;

/// Node count bound of the key scheme: `sender + 1` must fit in the
/// high 24 bits.
pub(crate) const MAX_NODES: usize = (1 << (64 - KEY_SHIFT)) - 1;

thread_local! {
    /// Requested shard count for engines run on this thread; 0 and 1 both
    /// mean one shard.
    static SHARDS: Cell<usize> = const { Cell::new(0) };
}

/// Request that engines run on this thread use `n` intra-run shards
/// (0 and 1 both mean one shard). Returns the previous value, for
/// save/restore bracketing; harnesses that may panic should prefer
/// [`ShardGuard`]. An engine without [`crate::Engine::set_shard_hints`]
/// hints (or with a zero lookahead) ignores the request and runs on one
/// shard.
pub fn set_shards(n: usize) -> usize {
    SHARDS.with(|c| c.replace(n))
}

/// The shard count currently requested on this thread (0 = none, which
/// runs one shard).
pub fn shards() -> usize {
    SHARDS.with(|c| c.get())
}

/// RAII bracket around [`set_shards`]: restores the previous request on
/// drop, including during unwinding.
pub struct ShardGuard {
    prev: usize,
}

impl ShardGuard {
    /// Request `n` shards until the guard drops.
    pub fn new(n: usize) -> Self {
        ShardGuard {
            prev: set_shards(n),
        }
    }
}

impl Drop for ShardGuard {
    fn drop(&mut self) {
        set_shards(self.prev);
    }
}

/// Partitioning hints a topology builder attaches to the engine.
#[derive(Clone, Debug, Default)]
pub struct ShardHints {
    /// Conservative lookahead: the minimum declared link propagation
    /// delay across the whole topology (trunks *and* access links).
    /// Every inter-node message is delayed by at least this much, so it
    /// bounds the epoch width. Zero disables sharding.
    pub lookahead: SimDuration,
    /// Affinity edges `(node, anchor)`: keep `node` on `anchor`'s shard.
    /// Builders anchor each session endpoint to its first switch/router
    /// so the busiest links stay shard-local. Purely a balance/locality
    /// heuristic — any partition is causally sound.
    pub affinity: Vec<(NodeId, NodeId)>,
}

/// Assign each of `n` nodes to one of `k` shards, honouring the affinity
/// clusters in `hints`. Deterministic: depends only on `(n, hints, k)`.
///
/// Clusters (connected components of the affinity edges) are placed
/// whole, largest first (ties by lowest member id), each onto the
/// currently lightest shard (ties by lowest shard index). Shards may end
/// up empty when `k` exceeds the cluster count; empty shards idle at the
/// barriers and cost nothing else.
pub(crate) fn partition(n: usize, hints: &ShardHints, k: usize) -> Vec<u32> {
    assert!(k >= 1, "shard count must be at least 1");
    assert!(
        n < MAX_NODES,
        "sharded runs support at most {MAX_NODES} nodes ({n} registered)"
    );
    // Union-find over affinity edges.
    let mut parent: Vec<u32> = (0..n as u32).collect();
    fn find(parent: &mut [u32], mut x: u32) -> u32 {
        while parent[x as usize] != x {
            let g = parent[parent[x as usize] as usize];
            parent[x as usize] = g;
            x = g;
        }
        x
    }
    for &(a, b) in &hints.affinity {
        if a.0 >= n || b.0 >= n {
            continue;
        }
        let (ra, rb) = (find(&mut parent, a.0 as u32), find(&mut parent, b.0 as u32));
        if ra != rb {
            // Anchor to the lower root so cluster ids are stable.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            parent[hi as usize] = lo;
        }
    }
    // Gather clusters: root → (size, min member). Roots are the minimum
    // member of their cluster by construction above.
    let mut size = vec![0u32; n];
    for i in 0..n as u32 {
        let r = find(&mut parent, i);
        size[r as usize] += 1;
    }
    let mut clusters: Vec<(u32, u32)> = (0..n as u32)
        .filter(|&i| parent[i as usize] == i)
        .map(|r| (size[r as usize], r))
        .collect();
    // Largest first; equal sizes by lowest root id.
    clusters.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut load = vec![0u64; k];
    let mut shard_of_root = vec![0u32; n];
    for (sz, root) in clusters {
        let s = (0..k).min_by_key(|&s| (load[s], s)).expect("k >= 1");
        load[s] += sz as u64;
        shard_of_root[root as usize] = s as u32;
    }
    (0..n as u32)
        .map(|i| shard_of_root[find(&mut parent, i) as usize])
        .collect()
}

/// A cross-shard send parked until the next epoch barrier.
pub(crate) struct Staged<M> {
    pub time: SimTime,
    pub key: u64,
    pub dst: NodeId,
    pub msg: M,
}

/// One probe emission recorded by a shard worker, tagged with the
/// `(time, key, idx)` of the dispatch that produced it so the epoch
/// merge can replay emissions to the real probe in the deterministic
/// global dispatch order.
pub(crate) struct ProbeRec {
    /// Delivery time of the dispatched event.
    pub at: SimTime,
    /// Ordering key of the dispatched event.
    pub key: u64,
    /// Emission index within that dispatch.
    pub idx: u32,
    /// Timestamp the emitter passed to the probe tap.
    pub t: SimTime,
    /// Emitting node.
    pub node: NodeId,
    /// The semantic event.
    pub ev: ProbeEvent,
}

/// Thread-probe shim installed on each shard worker: buffers emissions as
/// [`ProbeRec`]s tagged with the `(time, key)` of the in-flight dispatch
/// (published by the worker through the shared `cur` cell) plus a
/// per-dispatch emission index, instead of writing to a real sink. The
/// coordinator replays merged buffers into the real probe on the driving
/// thread, sorted by `(at, key, idx)`.
pub(crate) struct BufferProbe {
    cur: Rc<Cell<(u64, u64)>>,
    out: Rc<RefCell<Vec<ProbeRec>>>,
    /// Key of the dispatch the last emission belonged to. Initialised to
    /// `u64::MAX` (not a valid key: build seqs start at 0 and minted keys
    /// have a non-zero high part) so the first dispatch resets `idx`.
    last: u64,
    idx: u32,
}

impl BufferProbe {
    pub(crate) fn new(cur: Rc<Cell<(u64, u64)>>, out: Rc<RefCell<Vec<ProbeRec>>>) -> Self {
        BufferProbe {
            cur,
            out,
            last: u64::MAX,
            idx: 0,
        }
    }
}

impl Probe for BufferProbe {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        let (at, key) = self.cur.get();
        if key != self.last {
            self.last = key;
            self.idx = 0;
        }
        self.out.borrow_mut().push(ProbeRec {
            at: SimTime(at),
            key,
            idx: self.idx,
            t,
            node,
            ev: *ev,
        });
        self.idx += 1;
    }
}

/// Epoch-synchronisation state shared by the shard workers of one run.
///
/// Three barrier waves per epoch:
///  A — every worker has finished its window and published its staged
///      cross-shard sends and probe buffer;
///  B — every worker has drained its inbox and published its minimum
///      pending time;
///  C — the coordinator (worker 0, on the run's driving thread) has
///      merged probe buffers into the real probe, checked the cancel
///      token and the event budget, and published the next window (or
///      `done`).
///
/// Each atomic is written before one wave and read after it; the
/// barrier orders the two, so the atomics themselves are `Relaxed`.
pub(crate) struct EpochShared<M> {
    /// Next window end (exclusive), ns.
    pub end: AtomicU64,
    /// Set by the coordinator when no pending event remains at or
    /// before the horizon.
    pub done: AtomicBool,
    /// Per-shard minimum pending time after the inbox drain
    /// (`u64::MAX` when idle).
    pub mins: Vec<AtomicU64>,
    /// Per-shard pending event count after the inbox drain.
    pub lens: Vec<AtomicU64>,
    /// Events dispatched by all shards so far in this run.
    pub events: AtomicU64,
    /// `inbox[to][from]`: staged sends published at barrier A, drained
    /// by shard `to` before barrier B. Insertion order is irrelevant —
    /// the ordering keys define delivery order.
    pub inbox: Vec<Vec<Mutex<Vec<Staged<M>>>>>,
    /// Per-shard probe emissions for the current epoch.
    pub probes: Vec<Mutex<Vec<ProbeRec>>>,
    /// The epoch barrier (all workers, coordinator included).
    pub barrier: Barrier,
}

impl<M> EpochShared<M> {
    pub(crate) fn new(k: usize, end: SimTime) -> Self {
        EpochShared {
            end: AtomicU64::new(end.0),
            done: AtomicBool::new(false),
            mins: (0..k).map(|_| AtomicU64::new(u64::MAX)).collect(),
            lens: (0..k).map(|_| AtomicU64::new(0)).collect(),
            events: AtomicU64::new(0),
            inbox: (0..k)
                .map(|_| (0..k).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            probes: (0..k).map(|_| Mutex::new(Vec::new())).collect(),
            barrier: Barrier::new(k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_shards_is_thread_local_and_restores() {
        assert_eq!(shards(), 0);
        let prev = set_shards(4);
        assert_eq!(prev, 0);
        assert_eq!(shards(), 4);
        {
            let _g = ShardGuard::new(2);
            assert_eq!(shards(), 2);
        }
        assert_eq!(shards(), 4);
        set_shards(prev);
        assert_eq!(shards(), 0);
        let other = std::thread::spawn(shards).join().unwrap();
        assert_eq!(other, 0, "requests do not leak across threads");
    }

    #[test]
    fn partition_is_deterministic_and_balanced() {
        // 3 anchors, each with 3 attached endpoints → 3 clusters of 4.
        let mut hints = ShardHints {
            lookahead: SimDuration::from_micros(10),
            affinity: Vec::new(),
        };
        for anchor in 0..3usize {
            for ep in 0..3usize {
                hints
                    .affinity
                    .push((NodeId(3 + anchor * 3 + ep), NodeId(anchor)));
            }
        }
        let p2 = partition(12, &hints, 2);
        assert_eq!(p2, partition(12, &hints, 2), "deterministic");
        // Clusters stay whole.
        for anchor in 0..3usize {
            for ep in 0..3usize {
                assert_eq!(p2[3 + anchor * 3 + ep], p2[anchor]);
            }
        }
        // Largest-first onto lightest shard: loads 8 / 4.
        let load0 = p2.iter().filter(|&&s| s == 0).count();
        let load1 = p2.iter().filter(|&&s| s == 1).count();
        assert_eq!((load0, load1), (8, 4));
        // More shards than clusters: some shards stay empty, all ids valid.
        let p8 = partition(12, &hints, 8);
        assert!(p8.iter().all(|&s| (s as usize) < 8));
        // Singleton nodes (no affinity) are their own clusters.
        let lone = partition(3, &ShardHints::default(), 2);
        assert_eq!(lone.len(), 3);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn partition_rejects_key_space_overflow() {
        partition(MAX_NODES, &ShardHints::default(), 2);
    }
}
