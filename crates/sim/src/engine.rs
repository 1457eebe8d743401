//! The event loop: nodes, contexts and the engine itself.
//!
//! A simulation is a set of [`Node`]s exchanging messages of a single
//! domain-specific type `M` (e.g. an ATM message enum). The [`Engine`] owns
//! the nodes and the pending-event queue; when an event fires, the
//! destination node's [`Node::on_event`] runs with a [`Ctx`] through which
//! it can schedule further messages (to itself or to other nodes) and draw
//! deterministic random numbers.
//!
//! Determinism: events are delivered in `(time, key)` order. An event sent
//! by a node carries the key `(sender + 1) << 40 | sends so far by that
//! sender` (see [`crate::shard`]); events scheduled from outside any node
//! carry their small insertion number, so they come first at an equal
//! time. Each node has its own RNG stream derived from the engine seed and
//! its node index, and simulated time is integer nanoseconds. Two runs with
//! the same seed and topology produce identical traces, at any shard count.
//!
//! One function, `dispatch_loop`, pops and dispatches events. It is
//! generic over an `Observer`: `()` observes nothing and compiles to the
//! bare pop-and-dispatch cycle; `Watch` adds profiler timing, the flight
//! recorder's cursors and the probe cursor of a shard worker. A `const`
//! flag, picked once per run from the size of the node tables, adds
//! prefetching of the next events' node state (`Lane::prefetch_next`),
//! which hides memory latency on metro-scale networks and changes no
//! dispatch. The run functions around it decide only where a window
//! ends: one window to the horizon on a single shard (one per calendar
//! slice while a cancel token is armed, so the token is checked between
//! them), and lookahead-bounded epochs on each worker of a sharded run.
//!
//! The dispatch path is deliberately allocation-free and cache-friendly:
//! nodes live in *typed arenas* — one contiguous `Vec<N>` per concrete node
//! type — and a struct-of-arrays hot index maps each [`NodeId`] to its
//! `(arena, slot)` location and its next send key. Registering a node never
//! moves another node's id, and same-type nodes (the hundreds of thousands
//! of sources and destinations of a metro-scale scene) sit back to back in
//! memory instead of behind one heap allocation each. A [`Ctx`] only
//! touches the calendar and the per-node RNG, which are disjoint engine
//! fields, so sends go straight into the calendar with no runtime borrow
//! checks and no intermediate buffer.

use crate::event::EventQueue;
use crate::profile::LoopProf;
use crate::rng::derive_seed;
use crate::shard::{partition, EpochShared, ProbeRec, ShardHints, Staged, KEY_SHIFT, MAX_NODES};
use crate::snapshot::{
    EngineSnapshot, EventSnapshot, KvReader, KvWriter, NodeSnapshot, SnapshotMessage,
};
use crate::time::{SimDuration, SimTime};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::any::{Any, TypeId};
use std::cell::{Cell, RefCell, UnsafeCell};
use std::collections::HashMap;
use std::mem::size_of;
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Identifier of a node within one [`Engine`]; dense indices starting at 0.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// A simulation actor. Implementors hold all of their own state; the only
/// way state changes is through [`Node::on_event`].
///
/// `Send` is required so a node can be dispatched by an intra-run shard
/// worker thread (see [`crate::shard`]); a node is never accessed by two
/// threads at once — each shard owns its nodes exclusively for the whole
/// run.
pub trait Node<M>: Any + Send {
    /// Handle a message delivered at `ctx.now()`.
    fn on_event(&mut self, ctx: &mut Ctx<'_, M>, msg: M);

    /// Serialize every *dynamic* field into `w` for a checkpoint.
    ///
    /// Configuration that the scenario rebuilds identically from its
    /// source (topology, rates, ids) must not be written — only state
    /// that evolves as events fire. Only node types that some command
    /// checkpoints (the ATM nodes) override this; the default refuses,
    /// so any other node type fails loudly instead of silently dropping
    /// state.
    fn save_state(&self, _w: &mut KvWriter) -> Result<(), String> {
        Err(format!(
            "{} does not support checkpointing",
            std::any::type_name::<Self>()
        ))
    }

    /// Overwrite this node's dynamic fields from a checkpoint written by
    /// [`Node::save_state`]. The node was just rebuilt by the scenario,
    /// so static configuration is already in place.
    fn restore_state(&mut self, _r: &mut KvReader) -> Result<(), String> {
        Err(format!(
            "{} does not support checkpointing",
            std::any::type_name::<Self>()
        ))
    }

    /// Heap bytes this node owns beyond its arena slot: queue buffers,
    /// recorded series, boxed state. Counted by capacity, for
    /// [`ArenaStats::heap_bytes`]. The default is right for node types
    /// that own no heap.
    fn heap_bytes(&self) -> usize {
        0
    }
}

thread_local! {
    static THREAD_EVENTS: Cell<u64> = const { Cell::new(0) };
}

/// Total events dispatched by all engines on the current thread.
///
/// This is a monotonic counter; callers measure a run by taking the
/// difference before and after. It exists so harnesses (e.g. the `repro`
/// benchmark runner) can report events/second for a scenario without the
/// scenario having to thread its engine's [`Engine::events_processed`]
/// value out through its result type.
pub fn thread_events_dispatched() -> u64 {
    THREAD_EVENTS.with(|c| c.get())
}

fn note_dispatched(n: u64) {
    THREAD_EVENTS.with(|c| c.set(c.get().wrapping_add(n)));
}

/// The low key bits: a sender's count of sends so far.
const KEY_COUNTER: u64 = (1 << KEY_SHIFT) - 1;

/// Handle given to a node while it processes an event.
///
/// Sends go straight into the engine's calendar (borrowed exclusively for
/// the duration of the dispatch — the calendar, the node being run and its
/// RNG are disjoint engine fields): there is no intermediate outbox, so a
/// 48-byte ATM message is moved once instead of twice per send. Each send
/// takes the next key of the executing node, so among same-timestamp
/// events one sender's sends keep the order of its `send*` calls.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: NodeId,
    queue: &'a mut EventQueue<M>,
    rng: &'a mut SmallRng,
    /// The key the next send takes (`(self_id + 1) << KEY_SHIFT | count`).
    next_key: u64,
    coalesced: u64,
    /// Cross-shard routing; `None` on a single-shard run.
    route: Option<Route<'a, M>>,
}

/// A shard worker's cross-shard send routing: the partition map and the
/// staging queues (see [`crate::shard`]), reborrowed into the [`Ctx`] of
/// each dispatch.
struct Route<'a, M> {
    /// Node id → shard.
    node_shard: &'a [u32],
    my_shard: u32,
    /// Staging queues, indexed by destination shard.
    staged: &'a mut [Vec<Staged<M>>],
    /// End (exclusive) of the current epoch window. Cross-shard sends
    /// must land at or after it — guaranteed by the lookahead.
    epoch_end: SimTime,
}

impl<'a, M> Ctx<'a, M> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the node currently executing.
    pub fn self_id(&self) -> NodeId {
        self.self_id
    }

    /// Route one outgoing event under the executing node's next key:
    /// into this calendar, or staged for the destination's shard.
    #[inline]
    fn push_event(&mut self, at: SimTime, dst: NodeId, msg: M) {
        let key = self.next_key;
        self.next_key += 1;
        debug_assert!(
            self.next_key & KEY_COUNTER != 0,
            "per-sender key space exhausted"
        );
        let Some(r) = &mut self.route else {
            self.queue.push_keyed(at, key, dst, msg);
            return;
        };
        let to = r.node_shard[dst.0];
        if to == r.my_shard {
            self.queue.push_keyed(at, key, dst, msg);
            return;
        }
        assert!(
            at >= r.epoch_end,
            "cross-shard send from node {} to node {} arrives at {:?}, \
             inside the current epoch (ends {:?}): the topology's declared \
             lookahead is violated — an inter-node message was sent with \
             less than the minimum link propagation delay",
            self.self_id.0,
            dst.0,
            at,
            r.epoch_end
        );
        r.staged[to as usize].push(Staged {
            time: at,
            key,
            dst,
            msg,
        });
    }

    /// Deliver `msg` to `dst` after `delay`.
    pub fn send(&mut self, dst: NodeId, delay: SimDuration, msg: M) {
        let at = self.now + delay;
        self.push_event(at, dst, msg);
    }

    /// Deliver `msg` to `dst` at absolute time `at` (must not be in the
    /// past). Debug builds assert on a past-time `at`; release builds
    /// clamp it to `now` and count the incident in the `schedule_past`
    /// telemetry counter — a silently-accepted past timestamp would
    /// corrupt calendar ordering, and a hard panic in release would turn
    /// a recoverable scenario bug into a crashed sweep.
    pub fn send_at(&mut self, dst: NodeId, at: SimTime, msg: M) {
        debug_assert!(at >= self.now, "scheduling into the past");
        let at = if at < self.now {
            crate::telemetry::note_schedule_past();
            self.now
        } else {
            at
        };
        self.push_event(at, dst, msg);
    }

    /// Deliver `msg` back to the executing node after `delay`.
    pub fn send_self(&mut self, delay: SimDuration, msg: M) {
        let id = self.self_id;
        self.send(id, delay, msg);
    }

    /// This node's deterministic random number generator.
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }

    /// An instant before which no other node can run, or
    /// [`SimTime::MAX`] when nothing is pending.
    ///
    /// On a single shard this is the earliest *pending* calendar event:
    /// events only come from dispatches, and the next dispatch is the
    /// calendar's minimum (which includes anything this node already sent
    /// during the current event). A node can therefore act for every
    /// instant strictly before `quiet_until()` in one dispatch — the
    /// busy-port cell batch in `phantom-atm` — with byte-identical
    /// results.
    ///
    /// On a sharded run (k ≥ 2) this is `now()`: the local calendar's
    /// minimum says nothing about the other shards, whose dispatches in
    /// the same epoch interleave with this node's in the merged trace.
    /// Batching nodes then fall back to one unit of work per timer, which
    /// gives the same trace and the same event count.
    pub fn quiet_until(&self) -> SimTime {
        match self.route {
            None => self.queue.peek_time().unwrap_or(SimTime::MAX),
            Some(_) => self.now,
        }
    }

    /// Report `n` logical events handled inside this dispatch beyond the
    /// delivered one (e.g. cell transmissions coalesced into one timer).
    /// Keeps [`Engine::events_processed`] and the thread dispatch counter
    /// comparable whether or not batching is enabled.
    pub fn note_coalesced(&mut self, n: u64) {
        self.coalesced += n;
    }

    /// Emit a semantic [`crate::probe::ProbeEvent`] to the thread's
    /// installed probe, if any. The closure runs only when a probe is
    /// installed, so an untraced run pays a single predictable branch.
    #[inline]
    pub fn emit(&self, make: impl FnOnce() -> crate::probe::ProbeEvent) {
        crate::probe::emit(self.now, self.self_id, make);
    }
}

/// Where a node lives — which typed arena and which slot inside it — and
/// the key its next send takes.
///
/// This is the struct-of-arrays hot field of the dispatch path: the
/// per-event lookup reads 16 contiguous bytes from `locs[dst]` instead of
/// chasing a boxed fat pointer per node, and the key write-back after the
/// dispatch lands in the same cache line.
#[derive(Clone, Copy)]
struct Loc {
    arena: u32,
    slot: u32,
    next_key: u64,
}

/// Bytes per cache line on the targets this engine is tuned on.
const CACHE_LINE: usize = 64;

/// At most this many leading bytes of a node's slot are prefetched:
/// every cache line an `AbrSource` (264 B, five lines at any 8-byte
/// alignment) or an `AbrDest` touches. With only the first four lines,
/// metro-100k's median `wall_s` was 23.2 s against 19.2 s (six pairs).
const PREFETCH_SPAN: usize = 8 * CACHE_LINE;

/// Node tables (arenas, `Loc` index and RNG streams, as
/// [`Engine::nodes_footprint_bytes`] counts them) at least this large make
/// a run prefetch (see [`Lane::prefetch_next`]): the per-core L2 of the
/// measuring host.
///
/// From `engine/dispatch_cold_nodes/{N}` (264-byte nodes, 312 B of
/// tables each; 2-core Xeon, 2 MiB L2 per core; medians of 10 runs in
/// EXPERIMENTS.md), plain loop → prefetch forced on, in ns/dispatch:
/// N = 10 (5 KiB of tables) 41.5 → 53.2, a loss; N = 10³ (0.30 MiB)
/// 59.2 → 55.9, inside the spread; N = 10⁴ (4.9 MiB) 86.2 → 63.7 and
/// N = 10⁵ (39 MiB) 192.9 → 115.9, gains. The threshold sits between
/// the break-even and the first clear gain, so every table that fits in
/// L2 keeps the plain loop.
const PREFETCH_MIN_BYTES: usize = 2 << 20;

/// Where one typed arena's slots sit in memory: the first slot's address,
/// the slot size, and how many of each slot's leading bytes to prefetch.
/// An arena cannot grow during a run (nodes are added only between
/// runs), so a table of these taken when a run starts stays valid until
/// it ends. The address is only ever handed to a prefetch hint, never
/// dereferenced.
#[derive(Clone, Copy)]
struct SlotLayout {
    base: usize,
    stride: usize,
    span: usize,
}

/// Ask the CPU to start loading the cache line at `addr`. A hint: it
/// never faults, whatever the address, and changes no memory.
#[inline(always)]
fn prefetch_line(addr: usize) {
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    // SAFETY: `prefetcht0` has no memory effect and cannot fault; SSE,
    // which it needs, is part of the x86_64 baseline.
    unsafe {
        std::arch::x86_64::_mm_prefetch::<{ std::arch::x86_64::_MM_HINT_T0 }>(addr as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}

/// One contiguous storage block for every node of a single concrete type.
///
/// Nodes sit in `UnsafeCell` so the dispatch loop can hand out `&mut N`
/// from a *shared* arena reference — one shard worker per node, enforced
/// by the partition map. `UnsafeCell<N>` has the same layout as `N`.
struct TypedArena<N> {
    nodes: Vec<UnsafeCell<N>>,
}

// SAFETY: the arena is a fixed-size slot table. Shared access only ever
// happens inside a run, where each slot is dispatched (or read) by
// exactly one thread at a time — the engine partitions node ids
// disjointly across shard workers and joins them before any other access.
// Handing `&mut N` across threads under that exclusivity protocol is the
// `Mutex` pattern, which requires `N: Send` (guaranteed by `Node: Send`).
#[allow(unsafe_code)]
unsafe impl<N: Send> Sync for TypedArena<N> {}

/// Object-safe facade over a [`TypedArena<N>`]. The engine owns arenas
/// through this trait; the single virtual call per dispatch lands in a
/// monomorphized body whose `on_event` call is static and inlinable, with
/// same-type nodes stored back to back. `Sync` so shard workers can
/// dispatch through a shared arena slice (see [`TypedArena`]).
trait NodeArena<M>: Sync {
    /// Dispatch through a shared reference.
    ///
    /// # Safety
    /// The caller must guarantee that no other thread accesses `slot`
    /// concurrently — the engine's shard partition assigns each slot to
    /// exactly one worker for the duration of the run.
    #[allow(unsafe_code)]
    unsafe fn dispatch(&self, slot: u32, ctx: &mut Ctx<'_, M>, msg: M);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn len(&self) -> usize;
    fn type_name(&self) -> &'static str;
    /// Where the slots sit in memory, for prefetching.
    fn layout(&self) -> SlotLayout;
    /// Bytes of arena-owned storage (capacity × node size).
    fn bytes(&self) -> usize;
    /// Sum of the nodes' own heap ([`Node::heap_bytes`]).
    fn heap_bytes(&self) -> usize;
    fn save_node(&self, slot: u32, w: &mut KvWriter) -> Result<(), String>;
    fn restore_node(&mut self, slot: u32, r: &mut KvReader) -> Result<(), String>;
}

impl<M: 'static, N: Node<M>> NodeArena<M> for TypedArena<N> {
    #[inline]
    #[allow(unsafe_code)]
    unsafe fn dispatch(&self, slot: u32, ctx: &mut Ctx<'_, M>, msg: M) {
        // SAFETY: per the trait contract the caller holds exclusive
        // logical ownership of `slot`; no other reference to this node
        // exists while `on_event` runs.
        let node = unsafe { &mut *self.nodes[slot as usize].get() };
        node.on_event(ctx, msg);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }

    fn type_name(&self) -> &'static str {
        std::any::type_name::<N>()
    }

    fn layout(&self) -> SlotLayout {
        let stride = size_of::<UnsafeCell<N>>();
        SlotLayout {
            base: self.nodes.as_ptr() as usize,
            stride,
            span: stride.min(PREFETCH_SPAN),
        }
    }

    fn bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<UnsafeCell<N>>()
    }

    fn heap_bytes(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| {
                #[allow(unsafe_code)]
                // SAFETY: like `save_node`, this takes `&self` on the
                // engine's driving thread while no shard workers are alive
                // (they are joined before any run call returns), so the
                // shared reads cannot race a dispatch.
                let node = unsafe { &*n.get() };
                node.heap_bytes()
            })
            .sum()
    }

    fn save_node(&self, slot: u32, w: &mut KvWriter) -> Result<(), String> {
        #[allow(unsafe_code)]
        // SAFETY: `save_node` takes `&self` on the engine's single
        // driving thread while no shard workers are alive (they are
        // scoped to one run call and joined before it returns), so the
        // shared read cannot race a dispatch.
        let node = unsafe { &*self.nodes[slot as usize].get() };
        node.save_state(w)
    }

    fn restore_node(&mut self, slot: u32, r: &mut KvReader) -> Result<(), String> {
        self.nodes[slot as usize].get_mut().restore_state(r)
    }
}

/// Per-arena accounting snapshot (see [`Engine::arena_stats`]).
#[derive(Clone, Debug)]
pub struct ArenaStats {
    /// `std::any::type_name` of the concrete node type.
    pub type_name: &'static str,
    /// Number of nodes stored in this arena.
    pub nodes: usize,
    /// Bytes of arena-owned storage (capacity × node size).
    pub bytes: usize,
    /// Heap the nodes own beyond their slots (sum of
    /// [`Node::heap_bytes`]).
    pub heap_bytes: usize,
}

/// The simulation engine: owns nodes, the event calendar and the clock.
pub struct Engine<M> {
    now: SimTime,
    /// The calendar. During a dispatch it is lent to the node's [`Ctx`]
    /// via a split field borrow (the node arenas and the RNGs are the
    /// other two), so sends push directly with no runtime borrow checks.
    queue: EventQueue<M>,
    /// Typed arenas in first-registration order of their node types.
    arenas: Vec<Box<dyn NodeArena<M>>>,
    /// Concrete node type → index into `arenas`.
    arena_ids: HashMap<TypeId, u32>,
    /// `NodeId → (arena, slot, next key)`; the hot dispatch array,
    /// indexed densely. The keys persist across run calls, so a sliced
    /// run mints the same keys as a single-call run.
    locs: Vec<Loc>,
    rngs: Vec<SmallRng>,
    seed: u64,
    events_processed: u64,
    /// Optional message classifier for the profiler's per-event-kind
    /// view; unclassified dispatches land in the `"event"` bucket.
    classify: Option<fn(&M) -> &'static str>,
    /// Partitioning hints attached by the topology builder; absent hints
    /// (or a zero lookahead) keep every run on one shard.
    shard_hints: Option<ShardHints>,
    /// Cached partition for the current `(shard count, node count)`.
    shard_plan: Option<ShardPlan>,
    /// Sticky flag: a [`crate::cancel::CancelToken`] stopped a run call
    /// early. Once set it never clears — a cancelled engine is for
    /// post-mortem inspection, not further simulation.
    cancelled: bool,
}

/// A computed node-to-shard assignment, cached across `run_until` slices.
struct ShardPlan {
    k: usize,
    nodes: usize,
    node_shard: Vec<u32>,
}

impl<M: 'static> Engine<M> {
    /// A fresh engine whose RNG streams derive from `seed`.
    pub fn new(seed: u64) -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            arenas: Vec::new(),
            arena_ids: HashMap::new(),
            locs: Vec::new(),
            rngs: Vec::new(),
            seed,
            events_processed: 0,
            classify: None,
            shard_hints: None,
            shard_plan: None,
            cancelled: false,
        }
    }

    /// Attach topology partitioning hints (see [`ShardHints`]); builders
    /// call this at the end of construction. Without hints — or with a
    /// zero lookahead — a [`crate::shard::set_shards`] request is ignored
    /// and the engine runs on one shard.
    pub fn set_shard_hints(&mut self, hints: ShardHints) {
        self.shard_hints = Some(hints);
        self.shard_plan = None;
    }

    /// The attached partitioning hints, if any.
    pub fn shard_hints(&self) -> Option<&ShardHints> {
        self.shard_hints.as_ref()
    }

    /// Install a classifier mapping each message to a stable event-kind
    /// name for the profiler's per-kind view (e.g. `"cell"` vs
    /// `"timer.tx_done"`). Only called while profiling is enabled.
    pub fn set_event_classifier(&mut self, f: fn(&M) -> &'static str) {
        self.classify = Some(f);
    }

    /// Register a node; its id is returned and is stable for the whole run.
    ///
    /// Ids are handed out densely in registration order regardless of
    /// concrete type, and each id's RNG stream derives from `(seed, id)` —
    /// so the arena layout underneath is invisible to the simulation:
    /// traces are byte-identical to a flat boxed-node store.
    ///
    /// # Panics
    /// Panics past [`crate::shard`]'s key space of `2^24 - 2` nodes.
    pub fn add_node<N: Node<M>>(&mut self, node: N) -> NodeId {
        let id = NodeId(self.locs.len());
        assert!(
            id.0 < MAX_NODES,
            "an engine holds at most {MAX_NODES} nodes"
        );
        let arena = match self.arena_ids.get(&TypeId::of::<N>()) {
            Some(&a) => a,
            None => {
                let a = u32::try_from(self.arenas.len()).expect("arena count overflow");
                self.arenas
                    .push(Box::new(TypedArena::<N> { nodes: Vec::new() }));
                self.arena_ids.insert(TypeId::of::<N>(), a);
                a
            }
        };
        let typed = self.arenas[arena as usize]
            .as_any_mut()
            .downcast_mut::<TypedArena<N>>()
            .expect("arena registry out of sync");
        let slot = u32::try_from(typed.nodes.len()).expect("arena slot overflow");
        typed.nodes.push(UnsafeCell::new(node));
        self.locs.push(Loc {
            arena,
            slot,
            next_key: (id.0 as u64 + 1) << KEY_SHIFT,
        });
        self.rngs
            .push(SmallRng::seed_from_u64(derive_seed(self.seed, id.0 as u64)));
        id
    }

    /// Number of registered nodes.
    pub fn node_count(&self) -> usize {
        self.locs.len()
    }

    /// Accounting snapshot of every typed arena, in first-registration
    /// order. Scale harnesses use this to attribute memory per node type.
    pub fn arena_stats(&self) -> Vec<ArenaStats> {
        self.arenas
            .iter()
            .map(|a| ArenaStats {
                type_name: a.type_name(),
                nodes: a.len(),
                bytes: a.bytes(),
                heap_bytes: a.heap_bytes(),
            })
            .collect()
    }

    /// Bytes of engine-owned per-node storage: the typed arenas plus the
    /// id index and RNG streams. Node-internal heap blocks (queues,
    /// recorded series) are owned by the nodes: see
    /// [`ArenaStats::heap_bytes`].
    pub fn nodes_footprint_bytes(&self) -> usize {
        self.arenas.iter().map(|a| a.bytes()).sum::<usize>()
            + self.locs.capacity() * size_of::<Loc>()
            + self.rngs.capacity() * size_of::<SmallRng>()
    }

    /// Heap bytes held by the event calendar
    /// ([`EventQueue::heap_bytes`]): chunk pool, active run, far slab and
    /// overflow heap.
    pub fn calendar_bytes(&self) -> usize {
        self.queue.heap_bytes()
    }

    /// Schedule an initial message from outside any node. It takes the
    /// calendar's next insertion number as its key, below every key a
    /// node mints, so it precedes in-run sends at an equal time.
    pub fn schedule(&mut self, time: SimTime, dst: NodeId, msg: M) {
        debug_assert!(time >= self.now, "scheduling into the past");
        self.queue.push(time, dst, msg);
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of events still pending.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Did a [`crate::cancel::CancelToken`] stop a run call early? Sticky
    /// once set. A cancelled engine's clock sits at the last dispatched
    /// event, not the requested horizon.
    pub fn cancelled(&self) -> bool {
        self.cancelled
    }

    /// The names of the typed arenas, for profile attribution.
    fn arena_names(&self) -> Vec<&'static str> {
        self.arenas.iter().map(|a| a.type_name()).collect()
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics if the node is of a different type — an id mix-up is a bug in
    /// the scenario, not a recoverable condition.
    pub fn node<N: Node<M>>(&self, id: NodeId) -> &N {
        let loc = self.locs[id.0];
        let typed = self.arenas[loc.arena as usize]
            .as_any()
            .downcast_ref::<TypedArena<N>>()
            .expect("node type mismatch");
        #[allow(unsafe_code)]
        // SAFETY: `&self` on the driving thread; shard workers are scoped
        // to one run call and joined before it returns, so no concurrent
        // mutation of the slot can exist.
        unsafe {
            &*typed.nodes[loc.slot as usize].get()
        }
    }

    /// Mutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    /// Panics on a type mismatch, as with [`Engine::node`].
    pub fn node_mut<N: Node<M>>(&mut self, id: NodeId) -> &mut N {
        let loc = self.locs[id.0];
        let typed = self.arenas[loc.arena as usize]
            .as_any_mut()
            .downcast_mut::<TypedArena<N>>()
            .expect("node type mismatch");
        typed.nodes[loc.slot as usize].get_mut()
    }
}

/// Raw-pointer wrapper asserting cross-thread shareability of a table
/// whose entries shard workers access *disjointly* (each worker touches
/// only its own nodes' indices).
struct SyncPtr<T>(*mut T);

impl<T> Clone for SyncPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SyncPtr<T> {}

// SAFETY: the pointer targets a table that outlives every worker (the
// engine's `locs`/`rngs` vectors, alive across the scoped threads), and
// the shard partition guarantees index-disjoint access — the same
// exclusivity protocol as the node arenas.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SyncPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// The per-node tables a dispatch loop reads and writes: the arenas, and
/// raw views of the engine's `locs` and `rngs`. Within one run each entry
/// is touched by the one loop that owns its node.
struct Nodes<'a, M> {
    arenas: &'a [Box<dyn NodeArena<M>>],
    locs: SyncPtr<Loc>,
    rngs: SyncPtr<SmallRng>,
    /// Length of both tables.
    len: usize,
    /// Each arena's [`SlotLayout`] when the run prefetches; empty when
    /// it does not (see [`Lane::dispatch`]).
    layouts: &'a [SlotLayout],
}

impl<M> Clone for Nodes<'_, M> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<M> Copy for Nodes<'_, M> {}

impl<M> Route<'_, M> {
    /// The same routing, lent to one dispatch.
    fn reborrow(&mut self) -> Route<'_, M> {
        Route {
            node_shard: self.node_shard,
            my_shard: self.my_shard,
            staged: &mut *self.staged,
            epoch_end: self.epoch_end,
        }
    }
}

/// What a dispatch loop reports besides the dispatches themselves.
/// Observers read, never steer: the dispatch order is the same for every
/// observer.
trait Observer<M> {
    /// `msg`, keyed `(time, key)`, was popped and is about to be
    /// dispatched.
    fn popped(&mut self, time: SimTime, key: u64, msg: &M);
    /// The dispatch to a node of `arena` finished, counting `events`
    /// events, at `now`, with `pending` events left in the calendar.
    fn dispatched(&mut self, arena: usize, events: u64, now: SimTime, pending: usize);
}

/// The unobserved loop: both hooks compile away.
impl<M> Observer<M> for () {
    #[inline(always)]
    fn popped(&mut self, _: SimTime, _: u64, _: &M) {}
    #[inline(always)]
    fn dispatched(&mut self, _: usize, _: u64, _: SimTime, _: usize) {}
}

/// The observed loop: profiler timing, flight-recorder cursors and a
/// shard worker's probe cursor, each present only when wanted.
struct Watch<M> {
    timing: Option<Timing>,
    classify: Option<fn(&M) -> &'static str>,
    /// Dispatches so far, when the flight recorder's cursors follow
    /// every dispatch.
    flight: Option<u64>,
    /// `(time, key)` of the in-flight dispatch, shared with a shard
    /// worker's buffering probe so emissions carry their merge order.
    cursor: Option<Rc<Cell<(u64, u64)>>>,
}

/// Chained profiler timestamps: the interval from the previous dispatch's
/// end to the pop's return is calendar time, the interval across the
/// dispatch is the node's self time, so every nanosecond of a window
/// lands in exactly one bucket.
struct Timing {
    prof: LoopProf,
    start: Instant,
    mark: Instant,
    popped: Instant,
    kind: &'static str,
}

impl<M> Watch<M> {
    fn new(n_arenas: usize, classify: Option<fn(&M) -> &'static str>, profiling: bool) -> Self {
        let now = Instant::now();
        Watch {
            timing: profiling.then(|| Timing {
                prof: LoopProf::new(n_arenas),
                start: now,
                mark: now,
                popped: now,
                kind: "event",
            }),
            classify,
            flight: None,
            cursor: None,
        }
    }

    /// Start timing a window.
    fn begin(&mut self) {
        if let Some(t) = &mut self.timing {
            t.start = Instant::now();
            t.mark = t.start;
        }
    }

    /// Stop timing a window: the tail since the last dispatch (the final
    /// failed pop) is calendar time. Windows' wall times add up, so a
    /// sharded run's profile reports CPU time, not wall time.
    fn end(&mut self) {
        if let Some(t) = &mut self.timing {
            let end = Instant::now();
            t.prof.pop_ns += end.duration_since(t.mark).as_nanos() as u64;
            t.prof.wall_ns += end.duration_since(t.start).as_nanos() as u64;
        }
    }
}

/// Merge one loop's profiler totals into the thread's profile, with the
/// calendar's phase counters, and stop the calendar's profiling.
fn merge_prof<M>(prof: Option<LoopProf>, queue: &mut EventQueue<M>, names: &[&'static str]) {
    if let Some(p) = prof {
        crate::profile::merge_run(p, &queue.take_profile(), names);
        queue.set_profiling(false);
    }
}

impl<M> Observer<M> for Watch<M> {
    #[inline]
    fn popped(&mut self, time: SimTime, key: u64, msg: &M) {
        if let Some(t) = &mut self.timing {
            t.popped = Instant::now();
            t.prof.pop_ns += t.popped.duration_since(t.mark).as_nanos() as u64;
            t.kind = self.classify.map_or("event", |f| f(msg));
        }
        if let Some(c) = &self.cursor {
            c.set((time.0, key));
        }
    }

    #[inline]
    fn dispatched(&mut self, arena: usize, events: u64, now: SimTime, pending: usize) {
        if let Some(t) = &mut self.timing {
            let done = Instant::now();
            let ns = done.duration_since(t.popped).as_nanos() as u64;
            t.prof.note(arena, t.kind, ns, events);
            t.mark = done;
        }
        if let Some(n) = &mut self.flight {
            *n += events;
            crate::flight::note_dispatch(now, *n, pending);
        }
    }
}

/// One shard's dispatch state: its calendar, the node tables, and on a
/// sharded run its cross-shard routing (`None` on a single shard).
struct Lane<'a, M> {
    queue: &'a mut EventQueue<M>,
    nodes: Nodes<'a, M>,
    route: Option<Route<'a, M>>,
}

impl<M: 'static> Lane<'_, M> {
    /// [`Lane::dispatch_loop`], prefetching when the run took slot
    /// layouts. The variant is fixed for the whole run; this picks the
    /// matching instance once per window.
    fn dispatch<O: Observer<M>>(
        &mut self,
        cap: SimTime,
        budget: u64,
        obs: &mut O,
    ) -> (u64, Option<SimTime>) {
        if self.nodes.layouts.is_empty() {
            self.dispatch_loop::<false, O>(cap, budget, obs)
        } else {
            self.dispatch_loop::<true, O>(cap, budget, obs)
        }
    }

    /// The engine's one dispatch loop: pop every event at or before
    /// `cap`, until `budget` events have run, and deliver each to its
    /// node. Returns the events handled (coalesced work included) and the
    /// time of the last dispatch.
    ///
    /// The shape is chosen for its machine code: a free function over
    /// separate arguments, or a destructuring `let-else`, spilled the
    /// tables around the node call and copied each message once more,
    /// costing one-shard ATM runs 5–10% (2-core Xeon host).
    ///
    /// With `PREFETCH` the loop also starts loading the next two events'
    /// node state before each dispatch ([`Lane::prefetch_next`]). The
    /// engine picks it once per run from the node tables' size, so runs
    /// whose nodes stay in cache keep the plain loop.
    fn dispatch_loop<const PREFETCH: bool, O: Observer<M>>(
        &mut self,
        cap: SimTime,
        budget: u64,
        obs: &mut O,
    ) -> (u64, Option<SimTime>) {
        let mut events = 0u64;
        let mut last = None;
        if budget == 0 {
            return (0, None);
        }
        while let Some(ev) = self.queue.pop_at_or_before(cap) {
            let (time, dst) = (ev.time, ev.dst); // so the assert borrows no `ev`
            debug_assert!(
                self.route
                    .as_ref()
                    .is_none_or(|r| r.node_shard[dst.0] == r.my_shard),
                "event routed to the wrong shard"
            );
            // A node may send to any `NodeId`; one past the tables is a
            // bug in the scenario, not a reason to read out of bounds.
            assert!(dst.0 < self.nodes.len, "event for unknown node {}", dst.0);
            if PREFETCH {
                self.prefetch_next();
            }
            obs.popped(time, ev.seq, &ev.msg);
            #[allow(unsafe_code)]
            // SAFETY: `dst` is in bounds (asserted above) and belongs to
            // the shard this loop runs (asserted above; a single shard
            // owns every node), so this loop is the only one touching its
            // location entry, its RNG stream and its arena slot while the
            // run lasts.
            let (loc, rng) = unsafe {
                (
                    &mut *self.nodes.locs.0.add(dst.0),
                    &mut *self.nodes.rngs.0.add(dst.0),
                )
            };
            let mut ctx = Ctx {
                now: time,
                self_id: dst,
                queue: &mut *self.queue,
                rng,
                next_key: loc.next_key,
                coalesced: 0,
                route: self.route.as_mut().map(Route::reborrow),
            };
            #[allow(unsafe_code)]
            // SAFETY: same slot-exclusivity argument as above.
            unsafe {
                self.nodes.arenas[loc.arena as usize].dispatch(loc.slot, &mut ctx, ev.msg)
            };
            loc.next_key = ctx.next_key;
            let n = 1 + ctx.coalesced;
            events += n;
            last = Some(time);
            obs.dispatched(loc.arena as usize, n, time, self.queue.len());
            if events >= budget {
                break;
            }
        }
        (events, last)
    }

    /// Software-pipeline the next two dispatches: start loading the `Loc`
    /// entry of the event after next, and every cache line of the next
    /// event's arena slot (up to [`PREFETCH_SPAN`] bytes), whose `Loc`
    /// entry the previous call began loading. Called between a pop and
    /// its dispatch. Only hints are issued, so the dispatch order, keys
    /// and node state cannot change: a peeked event that a later push
    /// overtakes just wasted a prefetch. On a sharded run a lane's
    /// calendar holds only its own nodes' events, so every entry read
    /// here belongs to this lane.
    #[inline(always)]
    fn prefetch_next(&self) {
        let nodes = self.nodes;
        if let Some(d) = self.queue.peek_active_dst(1) {
            if d.0 < nodes.len {
                prefetch_line(nodes.locs.0.wrapping_add(d.0) as usize);
            }
        }
        if let Some(d) = self.queue.peek_active_dst(0) {
            if d.0 < nodes.len {
                #[allow(unsafe_code)]
                // SAFETY: `d` is in bounds (checked above) and one of this
                // lane's nodes (see above). The entry is copied out before
                // the pending dispatch takes its `&mut Loc`, which may be
                // the same entry, so no reference outlives this read.
                let loc = unsafe { *nodes.locs.0.add(d.0) };
                let lay = nodes.layouts[loc.arena as usize];
                let slot = lay.base + loc.slot as usize * lay.stride;
                let mut line = slot & !(CACHE_LINE - 1);
                while line < slot + lay.span {
                    prefetch_line(line);
                    line += CACHE_LINE;
                }
            }
        }
    }
}

/// What one shard worker hands back when its run ends.
struct WorkerOut<M> {
    queue: EventQueue<M>,
    events: u64,
    last: Option<SimTime>,
    prof: Option<LoopProf>,
    counters: Option<crate::telemetry::RunCounters>,
}

/// One shard's run state: its calendar, its staging queues, and shared
/// views of the engine tables it may touch (disjointly from its peers).
struct ShardWorker<'a, M> {
    w: usize,
    queue: EventQueue<M>,
    /// Cross-shard sends staged this epoch, by destination shard.
    staged: Vec<Vec<Staged<M>>>,
    nodes: Nodes<'a, M>,
    node_shard: &'a [u32],
    events: u64,
    last: Option<SimTime>,
    /// Profiler timing, flight-recorder cursors and the probe cursor.
    watch: Watch<M>,
    /// With the flight recorder armed: the engine's dispatch count when
    /// the run started. Each epoch's cursors count on from it.
    flight_base: Option<u64>,
    /// The buffering probe's output, drained at each epoch barrier.
    out: Option<Rc<RefCell<Vec<ProbeRec>>>>,
}

impl<'a, M: 'static> ShardWorker<'a, M> {
    /// One epoch up to barrier B: dispatch every local event in the
    /// window (sends beyond the shard are staged), publish them, drain
    /// this shard's inbox.
    fn epoch(&mut self, shared: &EpochShared<M>, until: SimTime) {
        if let Some(base) = self.flight_base {
            // Every shard's dispatches up to the last barrier; this
            // shard's own are added as they run.
            self.watch.flight = Some(base + shared.events.load(Ordering::Relaxed));
        }
        let end = SimTime(shared.end.load(Ordering::Relaxed));
        let mut lane = Lane {
            queue: &mut self.queue,
            nodes: self.nodes,
            route: Some(Route {
                node_shard: self.node_shard,
                my_shard: self.w as u32,
                staged: &mut self.staged,
                epoch_end: end,
            }),
        };
        self.watch.begin();
        let cap = SimTime((end.0 - 1).min(until.0));
        let (n, last) = lane.dispatch(cap, u64::MAX, &mut self.watch);
        self.watch.end();
        self.events += n;
        self.last = last.or(self.last);
        // Publish staged sends, buffered probe emissions and the count.
        shared.events.fetch_add(n, Ordering::Relaxed);
        for to in 0..self.staged.len() {
            if to != self.w && !self.staged[to].is_empty() {
                let mut slot = shared.inbox[to][self.w].lock().expect("inbox poisoned");
                slot.append(&mut self.staged[to]);
            }
        }
        if let Some(out) = &self.out {
            let mut buf = out.borrow_mut();
            if !buf.is_empty() {
                let mut slot = shared.probes[self.w].lock().expect("probe slot poisoned");
                slot.append(&mut buf);
            }
        }
        shared.barrier.wait(); // A: all sends and probes published
                               // Drain the inbox; publish the new minimum and pending count.
        for from in &shared.inbox[self.w] {
            for s in from.lock().expect("inbox poisoned").drain(..) {
                self.queue.push_keyed(s.time, s.key, s.dst, s.msg);
            }
        }
        let min = self.queue.peek_time().map_or(u64::MAX, |t| t.0);
        shared.mins[self.w].store(min, Ordering::Relaxed);
        shared.lens[self.w].store(self.queue.len() as u64, Ordering::Relaxed);
        shared.barrier.wait(); // B: all calendars updated, mins out
    }

    fn finish(self, counters: Option<crate::telemetry::RunCounters>) -> WorkerOut<M> {
        if self.out.is_some() {
            drop(crate::probe::take_thread_probe());
        }
        WorkerOut {
            queue: self.queue,
            events: self.events,
            last: self.last,
            prof: self.watch.timing.map(|t| t.prof),
            counters,
        }
    }
}

/// Replay buffered probe emissions into the real probe in deterministic
/// global dispatch order: `(dispatch time, dispatch key, emission idx)`.
fn deliver_probe_recs(real: &mut dyn crate::probe::Probe, recs: &mut Vec<ProbeRec>) {
    recs.sort_unstable_by_key(|r| (r.at, r.key, r.idx));
    for r in recs.drain(..) {
        real.on_event(r.t, r.node, &r.ev);
    }
}

/// Install a fresh buffering probe on the current thread, returning the
/// shared cursor and output buffer handles the worker drives.
#[allow(clippy::type_complexity)]
fn install_buffer_probe() -> (Rc<Cell<(u64, u64)>>, Rc<RefCell<Vec<ProbeRec>>>) {
    let cur = Rc::new(Cell::new((0u64, u64::MAX)));
    let out: Rc<RefCell<Vec<ProbeRec>>> = Rc::default();
    let prev = crate::probe::install_thread_probe(Box::new(crate::shard::BufferProbe::new(
        Rc::clone(&cur),
        Rc::clone(&out),
    )));
    debug_assert!(prev.is_none(), "buffer probe replaced a live probe");
    drop(prev);
    (cur, out)
}

/// With a cancel token armed, a single-shard window ends after at most
/// this many events even inside one calendar slice, so a degenerate run
/// that never leaves its slice still sees the token.
const CANCEL_CHECK_EVENTS: u64 = 1 << 16;

impl<M: 'static + Send> Engine<M> {
    /// Run until the clock reaches `t` (inclusive of events at exactly `t`).
    /// The clock is left at `t` even if the calendar empties earlier —
    /// unless a cancel token stopped the run, which leaves it at the last
    /// dispatched event.
    ///
    /// The run uses the shard count the thread requested
    /// ([`crate::shard::set_shards`]) when the engine carries
    /// [`ShardHints`] with a non-zero lookahead, and one shard otherwise.
    /// Every shard count dispatches the same events in the same order.
    pub fn run_until(&mut self, t: SimTime) {
        self.run(t, u64::MAX);
        if self.now < t && !self.cancelled {
            self.now = t;
        }
    }

    /// Run until the calendar is empty or `max_events` have been dispatched.
    /// Returns the number of events dispatched by this call.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        self.run(SimTime::MAX, max_events)
    }

    /// Run until the clock reaches `t` or `max_events` have been
    /// dispatched, whichever comes first. Returns the number of events
    /// dispatched by this call. The clock advances to `t` only when the
    /// calendar ran dry of events at or before `t` (i.e. the time bound,
    /// not the event cap, ended the call) — a capped stop leaves `now` at
    /// the last dispatched event so a checkpoint taken here resumes
    /// mid-flight.
    ///
    /// On one shard the call stops right after the dispatch that reaches
    /// the cap. A sharded run stops at the first epoch barrier at which
    /// the cap is reached — the same barrier at every shard count ≥ 2.
    ///
    /// The combined bound exists for checkpointing: `--checkpoint-every
    /// Nev` slices a run by event count while the scenario still drives
    /// the overall horizon by time.
    pub fn run_until_capped(&mut self, t: SimTime, max_events: u64) -> u64 {
        let done = self.run(t, max_events);
        // `done` can overshoot `max_events` via coalescing or an epoch;
        // either way a cap-limited stop must not advance the clock past
        // real events — and neither must a cancelled one.
        if done < max_events && self.now < t && !self.cancelled {
            self.now = t;
        }
        done
    }

    /// Should this run prefetch? Yes once the node tables outgrow
    /// [`PREFETCH_MIN_BYTES`]: below it they stay in cache and the hints
    /// would cost more than they hide.
    fn prefetch_pays(&self) -> bool {
        #[cfg(test)]
        if let Some(on) = tests::FORCE_PREFETCH.with(Cell::get) {
            return on;
        }
        self.nodes_footprint_bytes() >= PREFETCH_MIN_BYTES
    }

    /// The arena layouts a run's lanes prefetch with: every arena's
    /// [`SlotLayout`] when [`Engine::prefetch_pays`], else none (and no
    /// allocation), which keeps the lanes on the plain loop.
    fn slot_layouts(&self) -> Vec<SlotLayout> {
        if !self.prefetch_pays() {
            return Vec::new();
        }
        self.arenas.iter().map(|a| a.layout()).collect()
    }

    /// Dispatch events at or before `until` until `budget` have run, on
    /// one shard or on the requested shard count. Returns the events
    /// dispatched.
    fn run(&mut self, until: SimTime, budget: u64) -> u64 {
        let before = self.events_processed;
        let k = match &self.shard_hints {
            Some(h) if !h.lookahead.is_zero() => crate::shard::shards().max(1),
            _ => 1,
        };
        let profiling = crate::profile::enabled();
        if k > 1 {
            self.run_sharded(until, budget, k, profiling);
        } else if profiling || crate::flight::armed() {
            let mut watch = Watch::new(self.arenas.len(), self.classify, profiling);
            if crate::flight::armed() {
                crate::flight::note_run_start(&self.arena_stats());
                watch.flight = Some(self.events_processed);
            }
            self.queue.set_profiling(profiling);
            watch.begin();
            self.run_single(until, budget, &mut watch);
            watch.end();
            let names = self.arena_names();
            merge_prof(watch.timing.map(|t| t.prof), &mut self.queue, &names);
        } else {
            self.run_single(until, budget, &mut ());
        }
        let done = self.events_processed - before;
        note_dispatched(done);
        done
    }

    /// The single-shard run: one window to `until` — or, with a cancel
    /// token armed, one window per calendar slice, checking the token
    /// before each. The check comes before the pop, so a cancelled run
    /// stops clean: the event the check rejects stays in the calendar and
    /// every probe has seen complete events only.
    fn run_single<O: Observer<M>>(&mut self, until: SimTime, budget: u64, obs: &mut O) {
        let layouts = self.slot_layouts();
        let mut lane = Lane {
            queue: &mut self.queue,
            nodes: Nodes {
                arenas: &self.arenas,
                locs: SyncPtr(self.locs.as_mut_ptr()),
                rngs: SyncPtr(self.rngs.as_mut_ptr()),
                len: self.locs.len(),
                layouts: &layouts,
            },
            route: None,
        };
        let (events, last) = match crate::cancel::token() {
            None => lane.dispatch(until, budget, obs),
            Some(tok) => {
                let (mut events, mut last) = (0, None);
                while events < budget {
                    if tok.is_cancelled() {
                        self.cancelled = true;
                        break;
                    }
                    // A window that finds no active event only advances the wheel.
                    let cap = lane.queue.slice_end().min(until);
                    let quota = (budget - events).min(CANCEL_CHECK_EVENTS);
                    let (n, l) = lane.dispatch(cap, quota, obs);
                    events += n;
                    last = l.or(last);
                    if n == 0 && lane.queue.peek_time().is_none_or(|t| t > until) {
                        break;
                    }
                }
                (events, last)
            }
        };
        self.events_processed += events;
        if let Some(t) = last {
            self.now = t;
        }
    }

    /// The sharded run (k ≥ 2): partition the calendar, advance all
    /// shards in lookahead-bounded epochs (worker 0 rides the calling
    /// thread and doubles as coordinator), then merge the calendars back.
    /// The coordinator checks the cancel token, the event budget and the
    /// flight recorder's cursors at every epoch barrier.
    #[cold]
    fn run_sharded(&mut self, until: SimTime, budget: u64, k: usize, profiling: bool) {
        let cancel = crate::cancel::token();
        if cancel.as_ref().is_some_and(|t| t.is_cancelled()) {
            self.cancelled = true;
            return;
        }
        let first = match self.queue.peek_time() {
            Some(t) if t <= until => t,
            _ => return, // nothing pending at or before the horizon
        };
        let n = self.locs.len();
        let fresh_plan = !matches!(
            &self.shard_plan,
            Some(p) if p.k == k && p.nodes == n
        );
        if fresh_plan {
            let hints = self
                .shard_hints
                .as_ref()
                .expect("sharded run without hints");
            self.shard_plan = Some(ShardPlan {
                k,
                nodes: n,
                node_shard: partition(n, hints, k),
            });
        }
        let plan = self.shard_plan.take().expect("plan just ensured");
        let lookahead = self.shard_hints.as_ref().expect("hints present").lookahead;
        let flight = crate::flight::armed();
        if flight {
            crate::flight::note_run_start(&self.arena_stats());
        }
        let flight_share = crate::flight::share();

        // Split the calendar into per-shard calendars, preserving every
        // event's ordering key.
        let saved_next_seq = self.queue.next_seq();
        let mut old = std::mem::take(&mut self.queue);
        let mut queues: Vec<EventQueue<M>> = (0..k).map(|_| EventQueue::new()).collect();
        while let Some(ev) = old.pop() {
            let s = plan.node_shard[ev.dst.0] as usize;
            queues[s].push_keyed(ev.time, ev.seq, ev.dst, ev.msg);
        }
        for q in &mut queues {
            q.set_profiling(profiling);
        }

        // Take over the thread probe: workers buffer emissions, the
        // coordinator replays them merged in global dispatch order.
        let mut real = crate::probe::take_thread_probe();
        let trace_active = real.is_some();

        let names = self.arena_names();
        let base = self.events_processed;
        let mut cancelled = false;

        let layouts = self.slot_layouts();
        let outs: Vec<WorkerOut<M>> = {
            let nodes = Nodes {
                arenas: &self.arenas,
                locs: SyncPtr(self.locs.as_mut_ptr()),
                rngs: SyncPtr(self.rngs.as_mut_ptr()),
                len: self.locs.len(),
                layouts: &layouts,
            };
            let node_shard: &[u32] = &plan.node_shard;
            let classify = self.classify;
            let n_arenas = self.arenas.len();
            let make_worker = |w: usize, queue: EventQueue<M>| {
                let mut watch = Watch::new(n_arenas, classify, profiling);
                let out = trace_active.then(|| {
                    let (cur, out) = install_buffer_probe();
                    watch.cursor = Some(cur);
                    out
                });
                ShardWorker {
                    w,
                    queue,
                    staged: (0..k).map(|_| Vec::new()).collect(),
                    nodes,
                    node_shard,
                    events: 0,
                    last: None,
                    watch,
                    flight_base: flight.then_some(base),
                    out,
                }
            };
            let shared = EpochShared::<M>::new(k, SimTime(first.0.saturating_add(lookahead.0)));
            let mut rest: Vec<EventQueue<M>> = queues.split_off(1);
            let q0 = queues.pop().expect("shard 0 queue");
            let shared_ref = &shared;
            std::thread::scope(|scope| {
                let handles: Vec<_> = rest
                    .drain(..)
                    .enumerate()
                    .map(|(i, q)| {
                        let share = flight_share.clone();
                        scope.spawn(move || {
                            // A panic on this shard writes the dump too.
                            let _flight = share.map(crate::flight::adopt);
                            let marker = crate::telemetry::begin_run();
                            let mut wk = make_worker(i + 1, q);
                            loop {
                                wk.epoch(shared_ref, until);
                                shared_ref.barrier.wait(); // C: next window picked
                                if shared_ref.done.load(Ordering::Relaxed) {
                                    break;
                                }
                            }
                            wk.finish(Some(marker.finish()))
                        })
                    })
                    .collect();

                // Worker 0 + coordinator, on the calling thread.
                let mut wk = make_worker(0, q0);
                loop {
                    let cap = SimTime((shared.end.load(Ordering::Relaxed) - 1).min(until.0));
                    wk.epoch(&shared, until);
                    // Coordinator: merge this epoch's probe buffers in
                    // global order, update the flight cursors, then
                    // pick the next window (the global minimum pending
                    // time) or stop.
                    if trace_active {
                        let mut merged: Vec<ProbeRec> = Vec::new();
                        for slot in &shared.probes {
                            merged.append(&mut slot.lock().expect("probe slot"));
                        }
                        if let Some(p) = real.as_deref_mut() {
                            deliver_probe_recs(p, &mut merged);
                        }
                    }
                    let events = shared.events.load(Ordering::Relaxed);
                    if flight {
                        let pending = shared.lens.iter().map(|l| l.load(Ordering::Relaxed));
                        crate::flight::note_dispatch(
                            cap,
                            base + events,
                            pending.sum::<u64>() as usize,
                        );
                    }
                    cancelled = cancel.as_ref().is_some_and(|t| t.is_cancelled());
                    let min = shared
                        .mins
                        .iter()
                        .map(|m| m.load(Ordering::Relaxed))
                        .min()
                        .expect("k >= 2");
                    if min > until.0 || events >= budget || cancelled {
                        shared.done.store(true, Ordering::Relaxed);
                    } else {
                        shared
                            .end
                            .store(min.saturating_add(lookahead.0), Ordering::Relaxed);
                    }
                    shared.barrier.wait(); // C
                    if shared.done.load(Ordering::Relaxed) {
                        break;
                    }
                }
                let mut outs = vec![wk.finish(None)];
                outs.extend(
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("shard worker panicked")),
                );
                outs
            })
        };

        // Merge the shard calendars back into one (a fresh queue, as in
        // `restore`: the drained original's cursor has advanced past the
        // remaining events' slices). Harvest per-worker accounting.
        let mut fresh = EventQueue::new();
        for o in outs {
            self.events_processed += o.events;
            self.now = self.now.max(o.last.unwrap_or(self.now));
            if let Some(c) = &o.counters {
                crate::telemetry::preload(c);
            }
            let mut q = o.queue;
            merge_prof(o.prof, &mut q, &names);
            while let Some(ev) = q.pop() {
                fresh.push_keyed(ev.time, ev.seq, ev.dst, ev.msg);
            }
        }
        fresh.set_next_seq(saved_next_seq);
        self.queue = fresh;
        self.shard_plan = Some(plan);
        self.cancelled |= cancelled;
        if let Some(p) = real {
            drop(crate::probe::install_thread_probe(p));
        }
    }
}

impl<M: 'static + SnapshotMessage> Engine<M> {
    /// Capture the engine's complete dynamic state: every node's fields,
    /// RNG stream and send count, every pending calendar event with its
    /// `(time, key)` ordering pair, and the clock/dispatch counters.
    ///
    /// The snapshot deliberately excludes static topology: restoring
    /// happens into an engine freshly rebuilt by the same scenario code
    /// (same node types registered in the same order), which
    /// [`Engine::restore`] then overwrites with the captured dynamics.
    /// Fails if any registered node type does not implement
    /// [`Node::save_state`].
    pub fn snapshot(&self) -> Result<EngineSnapshot, String> {
        let mut nodes = Vec::with_capacity(self.locs.len());
        for (id, loc) in self.locs.iter().enumerate() {
            let arena = &self.arenas[loc.arena as usize];
            let mut w = KvWriter::new();
            arena
                .save_node(loc.slot, &mut w)
                .map_err(|e| format!("node {id}: {e}"))?;
            nodes.push(NodeSnapshot {
                id,
                type_name: arena.type_name().to_string(),
                rng: self.rngs[id].state(),
                send_seq: loc.next_key & KEY_COUNTER,
                state: w.finish(),
            });
        }
        let mut events = Vec::with_capacity(self.queue.len());
        self.queue.for_each_pending(|time, seq, dst, msg| {
            events.push(EventSnapshot {
                time,
                seq,
                dst: dst.0,
                msg: msg.encode(),
            });
        });
        // `for_each_pending` walks storage tiers, not delivery order;
        // canonicalize so the artifact (and diffs over it) are stable.
        events.sort_by_key(|e| (e.time, e.seq));
        Ok(EngineSnapshot {
            now: self.now,
            events_processed: self.events_processed,
            next_seq: self.queue.next_seq(),
            nodes,
            events,
        })
    }

    /// Overwrite this engine's dynamic state from `snap`.
    ///
    /// The engine must already hold the same topology the snapshot was
    /// taken from — same node count, same concrete type per id, in the
    /// same registration order — which the caller guarantees by re-running
    /// the scenario construction that produced the original engine.
    /// After restore, the engine's future event sequence is exactly the
    /// sequence the snapshotted engine would have produced, at any shard
    /// count.
    pub fn restore(&mut self, snap: &EngineSnapshot) -> Result<(), String> {
        if snap.nodes.len() != self.locs.len() {
            return Err(format!(
                "checkpoint has {} nodes but the rebuilt engine has {} — \
                 scenario/config mismatch",
                snap.nodes.len(),
                self.locs.len()
            ));
        }
        for (id, ns) in snap.nodes.iter().enumerate() {
            if ns.id != id {
                return Err(format!("checkpoint node records out of order at {id}"));
            }
            if ns.send_seq > KEY_COUNTER {
                return Err(format!("node {id}: send_seq {} out of range", ns.send_seq));
            }
            let loc = &mut self.locs[id];
            let arena = &mut self.arenas[loc.arena as usize];
            if arena.type_name() != ns.type_name {
                return Err(format!(
                    "node {id}: checkpoint type {} but engine has {}",
                    ns.type_name,
                    arena.type_name()
                ));
            }
            let mut r = KvReader::parse(&ns.state).map_err(|e| format!("node {id}: {e}"))?;
            arena
                .restore_node(loc.slot, &mut r)
                .map_err(|e| format!("node {id}: {e}"))?;
            loc.next_key = (id as u64 + 1) << KEY_SHIFT | ns.send_seq;
            self.rngs[id] = SmallRng::from_state(ns.rng);
        }
        let mut queue = EventQueue::new();
        for ev in &snap.events {
            if ev.dst >= self.locs.len() {
                return Err(format!(
                    "pending event targets node {} beyond the rebuilt topology",
                    ev.dst
                ));
            }
            let msg = M::decode(&ev.msg)
                .map_err(|e| format!("pending event at {:?} seq {}: {e}", ev.time, ev.seq))?;
            queue.push_keyed(ev.time, ev.seq, NodeId(ev.dst), msg);
        }
        queue.set_next_seq(snap.next_seq);
        self.queue = queue;
        self.now = snap.now;
        self.events_processed = snap.events_processed;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::{Arc, Mutex};

    thread_local! {
        /// Overrides [`Engine::prefetch_pays`] for runs started on this
        /// thread; `None` decides by size.
        pub(super) static FORCE_PREFETCH: Cell<Option<bool>> = const { Cell::new(None) };
    }

    #[derive(Default)]
    struct Collector {
        got: Vec<(SimTime, u32)>,
    }

    impl Node<u32> for Collector {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
            self.got.push((ctx.now(), msg));
        }
    }

    struct Relay {
        dst: NodeId,
    }

    impl Node<u32> for Relay {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
            ctx.send(self.dst, SimDuration::from_micros(10), msg + 1);
        }
    }

    #[test]
    fn delivers_in_time_order_with_delays() {
        let mut e = Engine::<u32>::new(1);
        let c = e.add_node(Collector::default());
        let r = e.add_node(Relay { dst: c });
        e.schedule(SimTime::from_micros(5), r, 100);
        e.schedule(SimTime::from_micros(1), c, 0);
        e.run_until(SimTime::from_millis(1));
        let got = &e.node::<Collector>(c).got;
        assert_eq!(
            got,
            &vec![
                (SimTime::from_micros(1), 0),
                (SimTime::from_micros(15), 101)
            ]
        );
    }

    #[test]
    fn run_until_advances_clock_even_when_idle() {
        let mut e = Engine::<u32>::new(1);
        e.run_until(SimTime::from_secs(2));
        assert_eq!(e.now(), SimTime::from_secs(2));
    }

    #[test]
    fn run_until_is_inclusive_of_boundary_events() {
        let mut e = Engine::<u32>::new(1);
        let c = e.add_node(Collector::default());
        e.schedule(SimTime::from_millis(10), c, 7);
        e.run_until(SimTime::from_millis(10));
        assert_eq!(e.node::<Collector>(c).got.len(), 1);
    }

    #[test]
    fn self_messages_loop() {
        struct Ticker {
            ticks: u32,
        }
        impl Node<u32> for Ticker {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
                self.ticks += 1;
                if self.ticks < 5 {
                    ctx.send_self(SimDuration::from_millis(1), 0);
                }
            }
        }
        let mut e = Engine::<u32>::new(1);
        let t = e.add_node(Ticker { ticks: 0 });
        e.schedule(SimTime::ZERO, t, 0);
        e.run_until(SimTime::from_secs(1));
        assert_eq!(e.node::<Ticker>(t).ticks, 5);
        assert_eq!(e.events_processed(), 5);
    }

    #[test]
    fn rng_streams_are_deterministic_and_independent() {
        struct R {
            draws: Vec<u64>,
        }
        impl Node<u32> for R {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
                let v = ctx.rng().gen::<u64>();
                self.draws.push(v);
            }
        }
        let run = |seed| {
            let mut e = Engine::<u32>::new(seed);
            let a = e.add_node(R { draws: vec![] });
            let b = e.add_node(R { draws: vec![] });
            e.schedule(SimTime::ZERO, a, 0);
            e.schedule(SimTime::ZERO, b, 0);
            e.run_until(SimTime::from_secs(1));
            (e.node::<R>(a).draws.clone(), e.node::<R>(b).draws.clone())
        };
        let (a1, b1) = run(99);
        let (a2, b2) = run(99);
        let (a3, _) = run(100);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
        assert_ne!(a1, b1, "streams must differ between nodes");
        assert_ne!(a1, a3, "streams must differ between seeds");
    }

    #[test]
    #[should_panic(expected = "node type mismatch")]
    fn downcast_mismatch_panics() {
        let mut e = Engine::<u32>::new(1);
        let c = e.add_node(Collector::default());
        let _ = e.node::<Relay>(c);
    }

    #[test]
    fn run_to_completion_respects_event_cap() {
        struct Forever;
        impl Node<u32> for Forever {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
                ctx.send_self(SimDuration::from_micros(1), 0);
            }
        }
        let mut e = Engine::<u32>::new(1);
        let f = e.add_node(Forever);
        e.schedule(SimTime::ZERO, f, 0);
        assert_eq!(e.run_to_completion(1000), 1000);
    }

    #[test]
    fn quiet_until_sees_the_next_pending_event() {
        struct Probe {
            seen: Vec<SimTime>,
        }
        impl Node<u32> for Probe {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
                self.seen.push(ctx.quiet_until());
            }
        }
        let mut e = Engine::<u32>::new(1);
        let p = e.add_node(Probe { seen: vec![] });
        e.schedule(SimTime::from_micros(1), p, 0);
        e.schedule(SimTime::from_micros(9), p, 1);
        e.run_until(SimTime::from_millis(1));
        assert_eq!(
            e.node::<Probe>(p).seen,
            vec![SimTime::from_micros(9), SimTime::MAX],
            "first dispatch sees the 9µs event pending; last sees an empty calendar"
        );
    }

    #[test]
    fn coalesced_work_counts_as_events() {
        struct Batcher;
        impl Node<u32> for Batcher {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
                ctx.note_coalesced(4);
            }
        }
        let before = thread_events_dispatched();
        let mut e = Engine::<u32>::new(1);
        let b = e.add_node(Batcher);
        e.schedule(SimTime::from_micros(1), b, 0);
        e.schedule(SimTime::from_micros(2), b, 0);
        e.run_until(SimTime::from_micros(1));
        assert_eq!(e.events_processed(), 5, "1 dispatch + 4 coalesced");
        e.run_until(SimTime::from_millis(1));
        assert_eq!(e.events_processed(), 10, "2 dispatches + 2×4 coalesced");
        assert_eq!(thread_events_dispatched() - before, 10);
    }

    struct PastScheduler;
    impl Node<u32> for PastScheduler {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
            if msg == 0 {
                let id = ctx.self_id();
                ctx.send_at(id, SimTime::ZERO, 1); // 1µs in the past
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn send_at_past_asserts_in_debug() {
        let mut e = Engine::<u32>::new(1);
        let p = e.add_node(PastScheduler);
        e.schedule(SimTime::from_micros(1), p, 0);
        e.run_until(SimTime::from_millis(1));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn send_at_past_clamps_and_counts_in_release() {
        let m = crate::telemetry::begin_run();
        let mut e = Engine::<u32>::new(1);
        let p = e.add_node(PastScheduler);
        e.schedule(SimTime::from_micros(1), p, 0);
        e.run_until(SimTime::from_millis(1));
        assert_eq!(
            e.events_processed(),
            2,
            "the clamped message is delivered (at `now`), not lost"
        );
        assert_eq!(e.now(), SimTime::from_millis(1));
        assert_eq!(m.finish().schedule_past, 1);
    }

    /// Ticks itself every `period` and cancels the shared token at tick
    /// `cancel_at` — cancellation requested *from inside* the run, the
    /// way a server's DELETE handler flips the flag mid-job.
    struct CancellingTicker {
        ticks: u64,
        cancel_at: u64,
        period: SimDuration,
        token: crate::cancel::CancelToken,
    }
    impl Node<u32> for CancellingTicker {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
            self.ticks += 1;
            if self.ticks == self.cancel_at {
                self.token.cancel();
            }
            ctx.send_self(self.period, 0);
        }
    }

    #[test]
    fn cancel_token_stops_the_run_within_one_calendar_slice() {
        // One event per µs: a calendar slice (8192 ns) holds at most 9
        // of them, so a cancel must bite within 9 further dispatches.
        let token = crate::cancel::CancelToken::new();
        let _g = crate::cancel::CancelGuard::new(token.clone());
        let mut e = Engine::<u32>::new(1);
        let t = e.add_node(CancellingTicker {
            ticks: 0,
            cancel_at: 1000,
            period: SimDuration::from_micros(1),
            token,
        });
        e.schedule(SimTime::ZERO, t, 0);
        let horizon = SimTime::from_secs(1);
        e.run_until(horizon);
        assert!(e.cancelled(), "token must mark the engine cancelled");
        let ticks = e.node::<CancellingTicker>(t).ticks;
        let per_slice = crate::event::SLICE_NS / 1_000 + 1;
        assert!(
            (1000..=1000 + per_slice).contains(&ticks),
            "cancel latency bounded by one slice: {ticks} ticks"
        );
        assert!(
            e.now() < horizon,
            "a cancelled run's clock stays at the last event, got {:?}",
            e.now()
        );
    }

    #[test]
    fn cancelled_instrumented_run_stops_and_keeps_the_trace_consistent() {
        // The same cancel, with the dispatch loop observed: the profiler
        // times every dispatch while the token is checked per slice.
        let token = crate::cancel::CancelToken::new();
        let _g = crate::cancel::CancelGuard::new(token.clone());
        let marker = crate::profile::begin_profile();
        let mut e = Engine::<u32>::new(1);
        let t = e.add_node(CancellingTicker {
            ticks: 0,
            cancel_at: 100,
            period: SimDuration::from_micros(1),
            token,
        });
        e.schedule(SimTime::ZERO, t, 0);
        let horizon = SimTime::from_secs(1);
        e.run_until(horizon);
        let report = marker.finish();
        assert!(e.cancelled(), "token must mark the engine cancelled");
        let ticks = e.node::<CancellingTicker>(t).ticks;
        let per_slice = crate::event::SLICE_NS / 1_000 + 1;
        assert!(
            (100..=100 + per_slice.min(CANCEL_CHECK_EVENTS)).contains(&ticks),
            "cancel latency bounded by one slice: {ticks} ticks"
        );
        assert!(e.now() < horizon);
        // The profile saw exactly the dispatches that ran, no more.
        assert_eq!(report.dispatches, e.events_processed());
        assert_eq!(e.events_processed(), ticks);
    }

    #[test]
    fn already_cancelled_token_stops_before_the_first_pop() {
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let _g = crate::cancel::CancelGuard::new(token);
        let mut e = Engine::<u32>::new(1);
        let c = e.add_node(Collector::default());
        e.schedule(SimTime::from_micros(1), c, 7);
        e.run_until(SimTime::from_millis(1));
        assert!(e.cancelled());
        assert_eq!(e.events_processed(), 0, "no event may run after cancel");
        assert_eq!(e.pending_events(), 1, "the rejected event stays queued");
        assert_eq!(e.now(), SimTime::ZERO);
    }

    #[test]
    fn armed_but_uncancelled_token_changes_nothing() {
        let run = |armed: bool| {
            let _g =
                armed.then(|| crate::cancel::CancelGuard::new(crate::cancel::CancelToken::new()));
            let mut e = Engine::<u32>::new(5);
            let c = e.add_node(Collector::default());
            let r = e.add_node(Relay { dst: c });
            for i in 0..50u64 {
                e.schedule(SimTime::from_micros(i * 7), r, i as u32);
            }
            e.run_until(SimTime::from_millis(1));
            assert!(!e.cancelled());
            (e.node::<Collector>(c).got.clone(), e.events_processed())
        };
        assert_eq!(run(false), run(true), "armed token must not perturb runs");
    }

    #[test]
    fn cancel_at_two_shards_stops_at_an_epoch_barrier_and_sticks() {
        let token = crate::cancel::CancelToken::new();
        let _g = crate::cancel::CancelGuard::new(token.clone());
        let _s = crate::shard::ShardGuard::new(2);
        let mut e = Engine::<u32>::new(1);
        let t = e.add_node(CancellingTicker {
            ticks: 0,
            cancel_at: 100,
            period: SimDuration::from_micros(1),
            token,
        });
        let other = e.add_node(CancellingTicker {
            ticks: 0,
            cancel_at: u64::MAX,
            period: SimDuration::from_micros(1),
            token: crate::cancel::CancelToken::new(),
        });
        // A 5 µs lookahead: five ticks per epoch on each shard.
        e.set_shard_hints(ShardHints {
            lookahead: SimDuration::from_micros(5),
            affinity: Vec::new(),
        });
        e.schedule(SimTime::ZERO, t, 0);
        e.schedule(SimTime::ZERO, other, 0);
        let horizon = SimTime::from_secs(1);
        e.run_until(horizon);
        assert!(e.cancelled());
        let ticks = e.node::<CancellingTicker>(t).ticks;
        assert!(
            (100..=105).contains(&ticks),
            "both shards stop at the barrier after the cancel: {ticks} ticks"
        );
        assert_eq!(
            e.node::<CancellingTicker>(other).ticks,
            ticks,
            "the other shard ran exactly the same epochs"
        );
        assert!(e.now() < horizon);
        let (done, pending) = (e.events_processed(), e.pending_events());
        e.run_until(horizon);
        assert!(e.cancelled(), "cancelled() is sticky");
        assert_eq!(
            e.events_processed(),
            done,
            "a cancelled token stops every later run"
        );
        assert_eq!(e.pending_events(), pending);
    }

    #[test]
    fn flight_recorder_is_armed_on_every_shard() {
        // A panic writes the dump from the panicking thread, so every
        // shard worker must carry the armed recorder.
        struct ArmedCheck {
            ticks: u64,
            unarmed: u64,
        }
        impl Node<u32> for ArmedCheck {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
                self.ticks += 1;
                if !crate::flight::armed() {
                    self.unarmed += 1;
                }
                if self.ticks < 50 {
                    ctx.send_self(SimDuration::from_micros(1), 0);
                }
            }
        }
        let path =
            std::env::temp_dir().join(format!("phantom-shard-flight-{}", std::process::id()));
        let _f = crate::flight::arm(&path, None, 4);
        let _s = crate::shard::ShardGuard::new(2);
        let mut e = Engine::<u32>::new(1);
        let ids = [0, 1].map(|_| {
            e.add_node(ArmedCheck {
                ticks: 0,
                unarmed: 0,
            })
        });
        e.set_shard_hints(ShardHints {
            lookahead: SimDuration::from_micros(5),
            affinity: Vec::new(),
        });
        for id in ids {
            e.schedule(SimTime::ZERO, id, 0);
        }
        e.run_until(SimTime::from_millis(1));
        for id in ids {
            let n = e.node::<ArmedCheck>(id);
            assert_eq!((n.ticks, n.unarmed), (50, 0), "node {} ran armed", id.0);
        }
        let dump = crate::flight::dump_now("after").expect("still armed");
        assert!(dump.contains("\"dispatches\":100"), "{dump}");
        assert!(!path.exists(), "a run that does not panic writes nothing");
    }

    #[test]
    #[should_panic(expected = "event for unknown node 7")]
    fn a_send_to_an_unknown_node_panics() {
        let mut e = Engine::<u32>::new(1);
        let r = e.add_node(Relay { dst: NodeId(7) });
        e.schedule(SimTime::ZERO, r, 0);
        e.run_until(SimTime::from_millis(1));
    }

    #[test]
    fn equal_times_order_by_sender_not_by_insertion() {
        struct At {
            dst: NodeId,
            at: SimTime,
        }
        impl Node<u32> for At {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
                ctx.send_at(self.dst, self.at, msg);
                ctx.send_at(self.dst, self.at, msg + 1);
            }
        }
        let mut e = Engine::<u32>::new(1);
        let c = e.add_node(Collector::default());
        let at = SimTime::from_micros(9);
        let low = e.add_node(At { dst: c, at });
        let high = e.add_node(At { dst: c, at });
        // The higher-numbered sender runs first, yet its sends follow the
        // lower sender's at the shared instant; a sender's own sends keep
        // their order; an outside schedule at that instant precedes both.
        e.schedule(SimTime::from_micros(1), high, 20);
        e.schedule(SimTime::from_micros(2), low, 10);
        e.schedule(at, c, 0);
        e.run_until(SimTime::from_millis(1));
        let got: Vec<u32> = e.node::<Collector>(c).got.iter().map(|g| g.1).collect();
        assert_eq!(got, vec![0, 10, 11, 20, 21]);
    }

    #[test]
    fn interleaved_types_get_dense_ids_and_grouped_arenas() {
        let mut e = Engine::<u32>::new(1);
        let c0 = e.add_node(Collector::default());
        let r0 = e.add_node(Relay { dst: c0 });
        let c1 = e.add_node(Collector::default());
        let r1 = e.add_node(Relay { dst: c1 });
        let c2 = e.add_node(Collector::default());
        assert_eq!(
            (c0, r0, c1, r1, c2),
            (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)),
            "ids stay dense and in registration order across type interleaving"
        );
        let stats = e.arena_stats();
        assert_eq!(stats.len(), 2, "one arena per concrete type");
        assert_eq!(stats[0].nodes, 3, "collectors grouped, registration order");
        assert_eq!(stats[1].nodes, 2);
        assert_eq!(e.node_count(), 5);
        // Every id still resolves to its own node through the typed lookup.
        e.schedule(SimTime::from_micros(1), c2, 42);
        e.run_until(SimTime::from_millis(1));
        assert_eq!(e.node::<Collector>(c2).got.len(), 1);
        assert_eq!(e.node::<Collector>(c0).got.len(), 0);
        assert_eq!(e.node::<Collector>(c1).got.len(), 0);
    }

    #[test]
    fn nodes_footprint_counts_arena_storage() {
        let mut e = Engine::<u32>::new(1);
        for _ in 0..100 {
            e.add_node(Collector::default());
        }
        let fp = e.nodes_footprint_bytes();
        assert!(
            fp >= 100 * std::mem::size_of::<Collector>(),
            "footprint covers at least the stored nodes ({fp} bytes)"
        );
        let stats = e.arena_stats();
        assert_eq!(stats.iter().map(|s| s.nodes).sum::<usize>(), 100);
        assert!(stats[0].type_name.contains("Collector"));
    }

    #[test]
    fn arena_stats_sum_each_nodes_heap() {
        struct Owns(Vec<u64>);
        impl Node<u32> for Owns {
            fn on_event(&mut self, _: &mut Ctx<'_, u32>, _: u32) {}
            fn heap_bytes(&self) -> usize {
                self.0.capacity() * std::mem::size_of::<u64>()
            }
        }
        let mut e = Engine::<u32>::new(1);
        let a = e.add_node(Owns(Vec::with_capacity(10)));
        let b = e.add_node(Owns(Vec::with_capacity(30)));
        e.add_node(Collector::default());
        let want = e.node::<Owns>(a).heap_bytes() + e.node::<Owns>(b).heap_bytes();
        assert!(want >= 40 * 8);
        let stats = e.arena_stats();
        assert_eq!(stats[0].heap_bytes, want);
        assert_eq!(stats[1].heap_bytes, 0, "the default counts no heap");
    }

    #[test]
    fn profiled_run_is_identical_and_attributes_all_wall_time() {
        let run = |profiled: bool| {
            let marker = profiled.then(crate::profile::begin_profile);
            let mut e = Engine::<u32>::new(7);
            let c = e.add_node(Collector::default());
            let r = e.add_node(Relay { dst: c });
            e.set_event_classifier(|m| if *m % 2 == 0 { "even" } else { "odd" });
            for i in 0..50 {
                e.schedule(SimTime::from_micros(i), r, i as u32);
            }
            // A far-future event exercises the overflow/promote phases.
            e.schedule(SimTime::from_millis(200), c, 999);
            e.run_until(SimTime::from_secs(1));
            (
                e.node::<Collector>(c).got.clone(),
                e.events_processed(),
                marker.map(ProfileMarker::finish),
            )
        };
        let (got_plain, n_plain, _) = run(false);
        let (got_prof, n_prof, report) = run(true);
        assert_eq!(got_plain, got_prof, "profiling must not perturb the run");
        assert_eq!(n_plain, n_prof);
        let r = report.unwrap();
        assert_eq!(r.dispatches, 101, "50 relays + 50 deliveries + 1 far");
        assert_eq!(r.nodes.len(), 2, "one bucket per concrete node type");
        assert!(r.nodes.iter().any(|e| e.name.contains("Collector")));
        assert_eq!(r.nodes.iter().map(|e| e.events).sum::<u64>(), 101);
        let kinds: Vec<&str> = r.kinds.iter().map(|e| e.name.as_str()).collect();
        assert!(kinds.contains(&"even") && kinds.contains(&"odd"));
        // Push counters only see in-run sends (pre-run `schedule` calls
        // happen before the loop enables queue profiling): the 50 relay
        // forwards land in the current slice or a wheel bucket.
        assert_eq!(r.calendar.active_inserts + r.calendar.wheel_pushes, 50);
        assert!(r.calendar.promoted >= 1, "the 200ms event promotes in-run");
        assert!(r.calendar.advances > 0);
        assert!(r.wall_ns > 0);
        // The attribution partition: nodes + calendar phases cover the
        // loop wall time (only un-sub-attributed slack inside `advance`
        // is lost, far below 5%).
        let attributed = r.attributed_ns();
        assert!(
            attributed <= r.wall_ns && attributed as f64 >= r.wall_ns as f64 * 0.90,
            "attributed {attributed} ns vs wall {} ns",
            r.wall_ns
        );
    }

    use crate::profile::ProfileMarker;

    /// A node with RNG use, accumulated state and self-scheduling across
    /// wildly different timer horizons — the shape checkpointing must
    /// capture exactly.
    struct Mixer {
        count: u32,
        draws: Vec<u64>,
        horizon_ns: u64,
    }

    impl Node<u32> for Mixer {
        fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
            self.count += 1;
            let v = ctx.rng().gen::<u64>();
            self.draws.push(v);
            if self.count < 40 {
                // Alternate near rescheduling with a far-future horizon so
                // pending events live in the active run, the wheel and the
                // far slab at any given instant.
                let delay = if self.count.is_multiple_of(3) {
                    SimDuration::from_nanos(self.horizon_ns)
                } else {
                    SimDuration::from_micros(1 + (v % 50))
                };
                ctx.send_self(delay, msg + 1);
            }
        }

        fn save_state(&self, w: &mut KvWriter) -> Result<(), String> {
            w.u64("count", self.count as u64);
            w.u64_list("draws", &self.draws);
            Ok(())
        }

        fn restore_state(&mut self, r: &mut KvReader) -> Result<(), String> {
            self.count = r.u64("count")? as u32;
            self.draws = r.u64_list("draws")?;
            Ok(())
        }
    }

    #[test]
    fn run_until_capped_stops_at_the_cap_without_advancing_the_clock() {
        struct Forever;
        impl Node<u32> for Forever {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, _msg: u32) {
                ctx.send_self(SimDuration::from_micros(1), 0);
            }
        }
        let mut e = Engine::<u32>::new(1);
        let f = e.add_node(Forever);
        e.schedule(SimTime::ZERO, f, 0);
        assert_eq!(e.run_until_capped(SimTime::from_secs(1), 10), 10);
        assert_eq!(
            e.now(),
            SimTime::from_micros(9),
            "cap-limited stop leaves the clock at the last dispatched event"
        );
        // Same bound again: the time limit now ends the call and the
        // clock advances to it.
        let done = e.run_until_capped(SimTime::from_micros(20), u64::MAX);
        assert_eq!(done, 11);
        assert_eq!(e.now(), SimTime::from_micros(20));
    }

    #[test]
    fn snapshot_restores_into_a_rebuilt_engine_byte_identically() {
        let build = |seed| {
            let mut e = Engine::<u32>::new(seed);
            let a = e.add_node(Mixer {
                count: 0,
                draws: vec![],
                horizon_ns: 100_000_013, // far beyond the wheel window → far slab
            });
            let b = e.add_node(Mixer {
                count: 0,
                draws: vec![],
                horizon_ns: 70_000,
            });
            e.schedule(SimTime::ZERO, a, 0);
            e.schedule(SimTime(1), b, 100);
            (e, a, b)
        };
        let finish = |e: &mut Engine<u32>, a: NodeId, b: NodeId| {
            e.run_to_completion(u64::MAX);
            (
                e.node::<Mixer>(a).draws.clone(),
                e.node::<Mixer>(b).draws.clone(),
                e.events_processed(),
                e.now(),
            )
        };

        // Uninterrupted reference run.
        let (mut reference, a, b) = build(42);
        let want = finish(&mut reference, a, b);

        // Interrupted run: stop mid-flight (by event count, so the stop
        // lands at an arbitrary instant), snapshot, restore into a fresh
        // engine, finish there.
        let (mut first, ..) = build(42);
        first.run_until_capped(SimTime::MAX, 25);
        let snap = first.snapshot().expect("snapshot");
        assert!(
            !snap.events.is_empty(),
            "mid-run snapshot must carry pending events"
        );
        let (mut resumed, ra, rb) = build(42);
        resumed.restore(&snap).expect("restore");
        assert_eq!(resumed.events_processed(), first.events_processed());
        let got = finish(&mut resumed, ra, rb);
        assert_eq!(got, want, "resumed run must match the uninterrupted run");
    }

    #[test]
    fn restore_rejects_topology_mismatches() {
        let mut e = Engine::<u32>::new(1);
        e.add_node(Mixer {
            count: 0,
            draws: vec![],
            horizon_ns: 1,
        });
        let snap = e.snapshot().unwrap();

        let mut fewer = Engine::<u32>::new(1);
        let err = fewer.restore(&snap).unwrap_err();
        assert!(err.contains("mismatch"), "{err}");

        let mut other = Engine::<u32>::new(1);
        other.add_node(Collector::default());
        let err = other.restore(&snap).unwrap_err();
        assert!(err.contains("checkpoint type"), "{err}");
    }

    #[test]
    fn snapshot_fails_loudly_for_uncheckpointable_nodes() {
        let mut e = Engine::<u32>::new(1);
        e.add_node(Collector::default());
        let err = e.snapshot().unwrap_err();
        assert!(err.contains("does not support checkpointing"), "{err}");
    }

    #[test]
    fn thread_counter_tracks_dispatches() {
        let before = thread_events_dispatched();
        let mut e = Engine::<u32>::new(1);
        let c = e.add_node(Collector::default());
        for i in 0..10 {
            e.schedule(SimTime::from_micros(i), c, i as u32);
        }
        e.run_until(SimTime::from_millis(1));
        e.schedule(SimTime::from_millis(2), c, 99);
        assert_eq!(e.run_to_completion(u64::MAX), 1);
        assert_eq!(thread_events_dispatched() - before, 11);
    }

    /// A node the size of an `AbrSource` that re-arms a timer and, every
    /// fourth tick, sends to a peer. Every message carries the key the
    /// engine gave its send, and every delivery lands in a shared log.
    struct ColdNode {
        state: [u64; 33],
        period: SimDuration,
        peer: NodeId,
        ticks: u64,
        log: Arc<Mutex<Vec<(u64, u64, usize)>>>,
    }

    /// `(key of the send, is a timer)`.
    type ColdMsg = (u64, bool);

    impl Node<ColdMsg> for ColdNode {
        fn on_event(&mut self, ctx: &mut Ctx<'_, ColdMsg>, (key, timer): ColdMsg) {
            let me = ctx.self_id().0;
            self.log.lock().unwrap().push((ctx.now().0, key, me));
            let i = (key % 33) as usize;
            self.state[i] = self.state[i].rotate_left(7) ^ ctx.rng().gen::<u64>();
            if !timer {
                return;
            }
            self.ticks += 1;
            let k = ctx.next_key;
            ctx.send_self(self.period, (k, true));
            if self.ticks.is_multiple_of(4) {
                let k = ctx.next_key;
                ctx.send(self.peer, SimDuration::from_micros(5), (k, false));
            }
        }
    }

    /// Run 8,192 cold nodes (2.7 MiB of node tables, above
    /// `PREFETCH_MIN_BYTES`) for 300 µs on `shards` shards with the
    /// prefetch decision forced to `prefetch`. Returns the dispatch log
    /// and every node's final state, RNG stream and next send key.
    #[allow(clippy::type_complexity)]
    fn cold_run(
        shards: usize,
        prefetch: bool,
    ) -> (Vec<(u64, u64, usize)>, Vec<([u64; 33], [u64; 4], u64)>) {
        const N: usize = 8_192;
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut e = Engine::<ColdMsg>::new(11);
        for i in 0..N {
            e.add_node(ColdNode {
                state: [i as u64; 33],
                period: SimDuration::from_nanos(10_000 + 37 * (i as u64 % 101)),
                peer: NodeId((i * 7 + 3) % N),
                ticks: 0,
                log: Arc::clone(&log),
            });
        }
        e.set_shard_hints(ShardHints {
            lookahead: SimDuration::from_micros(5),
            affinity: Vec::new(),
        });
        for i in 0..N {
            e.schedule(SimTime((i as u64 * 7_919) % 10_000), NodeId(i), (0, true));
        }
        assert!(
            e.nodes_footprint_bytes() >= PREFETCH_MIN_BYTES && e.prefetch_pays(),
            "the test engine must sit above the threshold"
        );
        let _s = crate::shard::ShardGuard::new(shards);
        FORCE_PREFETCH.with(|f| f.set(Some(prefetch)));
        e.run_until(SimTime::from_micros(300));
        FORCE_PREFETCH.with(|f| f.set(None));
        let mut log = std::mem::take(&mut *log.lock().unwrap());
        if shards > 1 {
            // Shards append concurrently; the dispatch order is the
            // `(time, key)` order.
            log.sort_unstable();
        }
        let end = (0..N)
            .map(|i| {
                let n = e.node::<ColdNode>(NodeId(i));
                (n.state, e.rngs[i].state(), e.locs[i].next_key)
            })
            .collect();
        (log, end)
    }

    #[test]
    fn prefetch_changes_no_dispatch_and_no_state() {
        let (plain_log, plain_end) = cold_run(1, false);
        assert!(plain_log.len() > 200_000, "{} dispatches", plain_log.len());
        assert!(
            plain_log
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "one shard dispatches in (time, key) order"
        );
        for shards in [1, 2] {
            let (log, end) = cold_run(shards, true);
            assert!(
                log == plain_log,
                "{shards} shard(s): dispatch sequence differs"
            );
            assert!(end == plain_end, "{shards} shard(s): node state differs");
        }
        let (log, end) = cold_run(2, false);
        assert!(log == plain_log && end == plain_end, "2 shards, plain loop");
    }
}
