//! The event loop: nodes, contexts and the engine itself.
//!
//! A simulation is a set of [`Node`]s exchanging messages of a single
//! domain-specific type `M` (e.g. an ATM message enum). The [`Engine`] owns
//! the nodes and the pending-event queue; when an event fires, the
//! destination node's [`Node::on_event`] runs with a [`Ctx`] through which
//! it can schedule further messages (to itself or to other nodes) and draw
//! deterministic random numbers.
//!
//! Determinism: events are delivered in `(time, insertion order)` order,
//! each node has its own RNG stream derived from the engine seed and its
//! node index, and simulated time is integer nanoseconds. Two runs with the
//! same seed and topology produce identical traces.
//!
//! The dispatch path is deliberately allocation-free and cache-friendly:
//! nodes live in *typed arenas* — one contiguous `Vec<N>` per concrete node
//! type — and a struct-of-arrays hot index maps each [`NodeId`] to its
//! `(arena, slot)` location. Registering a node never moves another node's
//! id, and same-type nodes (the hundreds of thousands of sources and
//! destinations of a metro-scale scene) sit back to back in memory instead
//! of behind one heap allocation each. A [`Ctx`] only touches the calendar
//! and the per-node RNG, which are disjoint engine fields, so sends go
//! straight into the calendar with no runtime borrow checks and no
//! intermediate buffer. Tracing is opt-in via [`Engine::set_trace_hook`];
//! when no hook is attached, [`Engine::run_until`] runs a tight loop with
//! no per-event branching on the hook.

use crate::event::EventQueue;
use crate::profile::LoopProf;
use crate::rng::derive_seed;
use crate::shard::{partition, EpochShared, ProbeRec, ShardHints, Staged, KEY_SHIFT};
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
    /// that evolves as events fire. The default refuses, so engines whose
    /// node types predate checkpointing fail loudly instead of silently
    /// dropping state.
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
}

/// Observer invoked for every delivered event: `(time, destination, &msg)`.
///
/// The hook runs before the destination node's [`Node::on_event`].
pub type TraceHook<M> = Box<dyn FnMut(SimTime, NodeId, &M)>;

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

/// Handle given to a node while it processes an event.
///
/// Sends go straight into the engine's calendar (borrowed exclusively for
/// the duration of the dispatch — the calendar, the node being run and its
/// RNG are disjoint engine fields): there is no intermediate outbox, so a
/// 48-byte ATM message is moved once instead of twice per send. Insertion
/// order — and therefore the FIFO tie-break among same-timestamp events —
/// is exactly the order of `send*` calls.
pub struct Ctx<'a, M> {
    now: SimTime,
    self_id: NodeId,
    queue: &'a mut EventQueue<M>,
    rng: &'a mut SmallRng,
    coalesced: u64,
    /// Upper bound on [`Ctx::quiet_until`]. `SimTime::MAX` on the serial
    /// path; `now` on the sharded path, where other shards may dispatch
    /// at any instant after `now` and the local calendar minimum is not
    /// a global quiescence bound.
    quiet_cap: SimTime,
    /// Sharded-run send routing; `None` on the serial path.
    shard: Option<ShardSend<'a, M>>,
}

/// Sharded send state lent to a [`Ctx`] for one dispatch: the executing
/// node's key-minting counter plus the partition map and the staging
/// queues for cross-shard sends (see [`crate::shard`]).
struct ShardSend<'a, M> {
    /// `(self_id + 1) << KEY_SHIFT`.
    key_base: u64,
    /// The executing node's per-sender counter (low key bits).
    counter: &'a mut u64,
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

    /// Route one outgoing event: straight into the calendar serially;
    /// under sharding, mint the deterministic ordering key and either
    /// insert locally or stage for the destination shard.
    #[inline]
    fn push_event(&mut self, at: SimTime, dst: NodeId, msg: M) {
        match &mut self.shard {
            None => self.queue.push(at, dst, msg),
            Some(s) => {
                let key = s.key_base | *s.counter;
                *s.counter += 1;
                debug_assert!(
                    *s.counter < 1 << KEY_SHIFT,
                    "per-sender key space exhausted"
                );
                let to = s.node_shard[dst.0];
                if to == s.my_shard {
                    self.queue.restore_push(at, key, dst, msg);
                } else {
                    assert!(
                        at >= s.epoch_end,
                        "cross-shard send from node {} to node {} arrives at {:?}, \
                         inside the current epoch (ends {:?}): the topology's declared \
                         lookahead is violated — an inter-node message was sent with \
                         less than the minimum link propagation delay",
                        self.self_id.0,
                        dst.0,
                        at,
                        s.epoch_end
                    );
                    s.staged[to as usize].push(Staged {
                        time: at,
                        key,
                        dst,
                        msg,
                    });
                }
            }
        }
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

    /// Time of the earliest *pending* calendar event, or [`SimTime::MAX`]
    /// when the calendar is empty.
    ///
    /// During one `on_event`, no other node can run before this instant:
    /// events only come from dispatches, and the next dispatch is the
    /// calendar's minimum (which includes anything this node already sent
    /// during the current event). A node can therefore act for every
    /// instant strictly before `quiet_until()` in one dispatch — the
    /// busy-port cell batch in `phantom-atm` — with byte-identical
    /// results.
    ///
    /// On the sharded path this degenerates to `now()`: a local shard's
    /// calendar minimum says nothing about other shards, so the only
    /// sound quiescence bound is the current instant. Batching nodes then
    /// fall back to one unit of work per timer, identically at every
    /// shard count.
    pub fn quiet_until(&self) -> SimTime {
        self.queue
            .peek_time()
            .unwrap_or(SimTime::MAX)
            .min(self.quiet_cap)
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

/// Where a node lives: which typed arena and which slot inside it.
///
/// This is the struct-of-arrays hot field of the dispatch path: the
/// per-event lookup reads 8 contiguous bytes from `locs[dst]` instead of
/// chasing a boxed fat pointer per node.
#[derive(Clone, Copy)]
struct Loc {
    arena: u32,
    slot: u32,
}

/// One contiguous storage block for every node of a single concrete type.
///
/// Nodes sit in `UnsafeCell` so the sharded run path can hand disjoint
/// `&mut N` out of a *shared* arena reference — one shard worker per
/// node, enforced by the partition map. `UnsafeCell<N>` has the same
/// layout as `N`, so the serial path's cache behaviour is unchanged.
struct TypedArena<N> {
    nodes: Vec<UnsafeCell<N>>,
}

// SAFETY: the arena is a fixed-size slot table. Shared access only ever
// happens on the sharded run path, where each slot is dispatched (or
// read) by exactly one thread at a time — the engine partitions node ids
// disjointly across shard workers and joins them before any other access.
// Handing `&mut N` across threads under that exclusivity protocol is the
// `Mutex` pattern, which requires `N: Send` (guaranteed by `Node: Send`).
#[allow(unsafe_code)]
unsafe impl<N: Send> Sync for TypedArena<N> {}

/// Object-safe facade over a [`TypedArena<N>`]. The engine owns arenas
/// through this trait; the single virtual call per dispatch lands in a
/// monomorphized body whose `on_event` call is static and inlinable —
/// the same indirect-call count as the old `Box<dyn Node>` layout, but
/// with same-type nodes stored back to back. `Sync` so shard workers can
/// dispatch through a shared arena slice (see [`TypedArena`]).
trait NodeArena<M>: Sync {
    fn dispatch(&mut self, slot: u32, ctx: &mut Ctx<'_, M>, msg: M);
    /// Dispatch through a shared reference, for shard workers.
    ///
    /// # Safety
    /// The caller must guarantee that no other thread accesses `slot`
    /// concurrently — the engine's shard partition assigns each slot to
    /// exactly one worker for the duration of the run.
    #[allow(unsafe_code)]
    unsafe fn dispatch_shared(&self, slot: u32, ctx: &mut Ctx<'_, M>, msg: M);
    fn as_any(&self) -> &dyn Any;
    fn as_any_mut(&mut self) -> &mut dyn Any;
    fn len(&self) -> usize;
    fn type_name(&self) -> &'static str;
    /// Bytes of arena-owned storage (capacity × node size). Heap blocks
    /// owned by the nodes themselves (queues, series) are not visible
    /// from here and are not counted.
    fn bytes(&self) -> usize;
    fn save_node(&self, slot: u32, w: &mut KvWriter) -> Result<(), String>;
    fn restore_node(&mut self, slot: u32, r: &mut KvReader) -> Result<(), String>;
}

impl<M: 'static, N: Node<M>> NodeArena<M> for TypedArena<N> {
    #[inline]
    fn dispatch(&mut self, slot: u32, ctx: &mut Ctx<'_, M>, msg: M) {
        self.nodes[slot as usize].get_mut().on_event(ctx, msg);
    }

    #[inline]
    #[allow(unsafe_code)]
    unsafe fn dispatch_shared(&self, slot: u32, ctx: &mut Ctx<'_, M>, msg: M) {
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

    fn bytes(&self) -> usize {
        self.nodes.capacity() * size_of::<UnsafeCell<N>>()
    }

    fn save_node(&self, slot: u32, w: &mut KvWriter) -> Result<(), String> {
        #[allow(unsafe_code)]
        // SAFETY: `save_node` takes `&self` on the engine's single
        // driving thread while no shard workers are alive (they are
        // scoped to `run_until` and joined before it returns), so the
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
    /// `NodeId → (arena, slot)`; the hot dispatch array, indexed densely.
    locs: Vec<Loc>,
    rngs: Vec<SmallRng>,
    seed: u64,
    events_processed: u64,
    trace: Option<TraceHook<M>>,
    /// Force the profiler on for this engine regardless of the
    /// thread-local bracket (see [`Engine::profile`]).
    profiling: bool,
    /// Optional message classifier for the profiler's per-event-kind
    /// view; unclassified dispatches land in the `"event"` bucket.
    classify: Option<fn(&M) -> &'static str>,
    /// Per-node send counters minting sharded ordering keys. Persisted
    /// across `run_until` calls so heartbeat-sliced runs mint the same
    /// keys as single-call runs. Empty until the first sharded run.
    send_seq: Vec<u64>,
    /// Partitioning hints attached by the topology builder; absent hints
    /// (or a zero lookahead) make any shard request fall back to the
    /// serial path.
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
            trace: None,
            profiling: false,
            classify: None,
            send_seq: Vec::new(),
            shard_hints: None,
            shard_plan: None,
            cancelled: false,
        }
    }

    /// Attach topology partitioning hints (see [`ShardHints`]); builders
    /// call this at the end of construction. Without hints — or with a
    /// zero lookahead — a [`crate::shard::set_shards`] request is ignored
    /// and the engine runs serially.
    pub fn set_shard_hints(&mut self, hints: ShardHints) {
        self.shard_hints = Some(hints);
        self.shard_plan = None;
    }

    /// The attached partitioning hints, if any.
    pub fn shard_hints(&self) -> Option<&ShardHints> {
        self.shard_hints.as_ref()
    }

    /// Force the in-run profiler on (or off) for this engine. The usual
    /// way to profile is the thread-local bracket
    /// ([`crate::profile::begin_profile`]), which also covers engines
    /// built inside scenario code; this switch exists for callers that
    /// own their engine directly. Either way the harvest is the
    /// thread-local collector, so bracket the run with
    /// `begin_profile`/`finish` to read the report. Profiling never
    /// changes simulation results — only wall-clock cost.
    pub fn profile(&mut self, on: bool) {
        self.profiling = on;
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
    pub fn add_node<N: Node<M>>(&mut self, node: N) -> NodeId {
        let id = NodeId(self.locs.len());
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
        self.locs.push(Loc { arena, slot });
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
            })
            .collect()
    }

    /// Bytes of engine-owned per-node storage: the typed arenas plus the
    /// id index and RNG streams. Node-internal heap blocks (queues,
    /// recorded series) are owned by the nodes and not visible here.
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

    /// Attach an observer called for every delivered event. Replaces any
    /// previously attached hook. Tracing does not change the simulation —
    /// only the wall-clock cost of running it.
    pub fn set_trace_hook(&mut self, hook: TraceHook<M>) {
        self.trace = Some(hook);
    }

    /// Detach the trace hook, restoring the untraced fast path.
    pub fn clear_trace_hook(&mut self) {
        self.trace = None;
    }

    /// Schedule an initial message from outside any node.
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

    /// Deliver one already-popped event: advance the clock, run the
    /// destination node, and move anything it sent into the calendar.
    #[inline]
    fn dispatch(&mut self, time: SimTime, dst: NodeId, msg: M) {
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        let loc = self.locs[dst.0];
        let mut ctx = Ctx {
            now: time,
            self_id: dst,
            queue: &mut self.queue,
            rng: &mut self.rngs[dst.0],
            coalesced: 0,
            quiet_cap: SimTime::MAX,
            shard: None,
        };
        self.arenas[loc.arena as usize].dispatch(loc.slot, &mut ctx, msg);
        self.events_processed += 1 + ctx.coalesced;
    }

    /// Dispatch the next event. Returns `false` when the calendar is empty.
    pub fn step(&mut self) -> bool {
        let start = self.events_processed;
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        if let Some(hook) = self.trace.as_mut() {
            hook(ev.time, ev.dst, &ev.msg);
        }
        self.dispatch(ev.time, ev.dst, ev.msg);
        note_dispatched(self.events_processed - start);
        true
    }

    /// True when any opt-in observer wants the per-event slow loop:
    /// a trace hook, the profiler (engine switch or thread bracket) or
    /// an armed flight recorder. Checked once per run call — the
    /// untraced, unprofiled fast path stays free of per-event branches.
    #[inline]
    fn instrumented(&self) -> bool {
        self.trace.is_some()
            || self.profiling
            || crate::profile::enabled()
            || crate::flight::armed()
    }

    /// Run until the calendar is empty or `max_events` have been dispatched.
    /// Returns the number of events dispatched by this call.
    pub fn run_to_completion(&mut self, max_events: u64) -> u64 {
        let start = self.events_processed;
        if !self.instrumented() {
            while self.events_processed - start < max_events {
                let Some(ev) = self.queue.pop() else { break };
                self.dispatch(ev.time, ev.dst, ev.msg);
            }
        } else {
            self.run_instrumented(None, max_events);
        }
        let done = self.events_processed - start;
        note_dispatched(done);
        done
    }

    /// Run until the clock reaches `t` or `max_events` have been
    /// dispatched, whichever comes first. Returns the number of events
    /// dispatched by this call. The clock advances to `t` only when the
    /// calendar ran dry of events at or before `t` (i.e. the time bound,
    /// not the event cap, ended the call) — a capped stop leaves `now` at
    /// the last dispatched event so a checkpoint taken here resumes
    /// mid-flight.
    ///
    /// The combined bound exists for checkpointing: `--checkpoint-every
    /// Nev` slices a run by event count while the scenario still drives
    /// the overall horizon by time.
    pub fn run_until_capped(&mut self, t: SimTime, max_events: u64) -> u64 {
        let start = self.events_processed;
        if !self.instrumented() {
            while self.events_processed - start < max_events {
                let Some(ev) = self.queue.pop_at_or_before(t) else {
                    break;
                };
                self.dispatch(ev.time, ev.dst, ev.msg);
            }
        } else {
            self.run_instrumented(Some(t), max_events);
        }
        let done = self.events_processed - start;
        note_dispatched(done);
        // `done` can overshoot `max_events` via coalescing; either way a
        // cap-limited stop must not advance the clock past real events —
        // and neither must a cancelled one.
        if done < max_events && self.now < t && !self.cancelled {
            self.now = t;
        }
        done
    }

    /// The observed run loop: trace hook, profiler timing and flight
    /// recorder cursors, each behind its own check. Dispatch order is
    /// identical to the fast loop — observers read, never steer.
    ///
    /// Profiler timing uses chained timestamps: the interval from the
    /// previous dispatch's end to the pop's return is calendar time, the
    /// interval across the dispatch (including any trace hook) is the
    /// destination node's self time. Every nanosecond of loop wall time
    /// lands in exactly one bucket, so bucket totals sum to the loop
    /// wall by construction.
    #[cold]
    #[inline(never)]
    fn run_instrumented(&mut self, until: Option<SimTime>, max_events: u64) {
        let profiling = self.profiling || crate::profile::enabled();
        let flight_on = crate::flight::armed();
        if flight_on {
            crate::flight::note_run_start(&self.arena_stats());
        }
        if profiling {
            self.queue.set_profiling(true);
        }
        let start = self.events_processed;
        // The instrumented loop already pays per-event timestamps, so the
        // cancel token is simply checked before every pop.
        let cancel = crate::cancel::token();
        let mut prof = profiling.then(|| LoopProf::new(self.arenas.len()));
        let loop_start = Instant::now();
        let mut mark = loop_start;
        while self.events_processed - start < max_events {
            if let Some(tok) = &cancel {
                if tok.is_cancelled() {
                    self.cancelled = true;
                    break;
                }
            }
            let ev = match until {
                Some(t) => self.queue.pop_at_or_before(t),
                None => self.queue.pop(),
            };
            let Some(ev) = ev else { break };
            let popped = prof.as_mut().map(|p| {
                let now = Instant::now();
                p.pop_ns += now.duration_since(mark).as_nanos() as u64;
                now
            });
            if let Some(hook) = self.trace.as_mut() {
                hook(ev.time, ev.dst, &ev.msg);
            }
            let dst = ev.dst;
            let arena = self.locs[dst.0].arena as usize;
            let kind = match (&prof, self.classify) {
                (Some(_), Some(f)) => f(&ev.msg),
                _ => "event",
            };
            let before = self.events_processed;
            self.dispatch(ev.time, dst, ev.msg);
            if let Some(p) = prof.as_mut() {
                let done = Instant::now();
                let ns = done
                    .duration_since(popped.expect("popped set while profiling"))
                    .as_nanos() as u64;
                p.note(arena, kind, ns, self.events_processed - before);
                mark = done;
            }
            if flight_on {
                crate::flight::note_dispatch(self.now, self.events_processed, self.queue.len());
            }
        }
        if let Some(mut p) = prof {
            let end = Instant::now();
            // The final failed pop (or cap check) since the last mark is
            // calendar time too.
            p.pop_ns += end.duration_since(mark).as_nanos() as u64;
            p.wall_ns = end.duration_since(loop_start).as_nanos() as u64;
            let cal = self.queue.take_profile();
            self.queue.set_profiling(false);
            let names: Vec<&'static str> = self.arenas.iter().map(|a| a.type_name()).collect();
            crate::profile::merge_run(p, &cal, &names);
        }
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
        // to `run_until` and joined before it returns, so no concurrent
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
// engine's `rngs`/`send_seq` vectors, alive across the scoped threads),
// and the shard partition guarantees index-disjoint access — the same
// exclusivity protocol as the node arenas.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for SyncPtr<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for SyncPtr<T> {}

/// What one shard worker hands back when its run ends.
struct WorkerOut<M> {
    queue: EventQueue<M>,
    events: u64,
    prof: Option<LoopProf>,
    cal: crate::profile::CalendarStats,
    counters: Option<crate::telemetry::RunCounters>,
}

/// One shard's run state: its calendar, its staging queues, and shared
/// views of the engine tables it may touch (disjointly from its peers).
struct ShardWorker<'a, M> {
    w: usize,
    queue: EventQueue<M>,
    /// Cross-shard sends staged this epoch, by destination shard.
    staged: Vec<Vec<Staged<M>>>,
    arenas: &'a [Box<dyn NodeArena<M>>],
    locs: &'a [Loc],
    node_shard: &'a [u32],
    rngs: SyncPtr<SmallRng>,
    seqs: SyncPtr<u64>,
    classify: Option<fn(&M) -> &'static str>,
    events: u64,
    /// `(time, key)` of the in-flight dispatch, shared with the thread's
    /// buffering probe so emissions carry their merge-order tag.
    cur: Option<Rc<Cell<(u64, u64)>>>,
    /// The buffering probe's output, drained at each epoch barrier.
    out: Option<Rc<RefCell<Vec<ProbeRec>>>>,
    prof: Option<LoopProf>,
}

impl<'a, M: 'static> ShardWorker<'a, M> {
    /// Dispatch every local event in `[window start, cap]`; sends beyond
    /// the shard stage until [`ShardWorker::publish`].
    fn run_window(&mut self, cap: SimTime, end: SimTime) {
        let t0 = self.prof.as_ref().map(|_| Instant::now());
        let mut mark = t0;
        loop {
            let Some(ev) = self.queue.pop_at_or_before(cap) else {
                break;
            };
            let popped = self.prof.as_mut().map(|p| {
                let now = Instant::now();
                p.pop_ns += now.duration_since(mark.expect("mark set")).as_nanos() as u64;
                now
            });
            debug_assert_eq!(
                self.node_shard[ev.dst.0], self.w as u32,
                "event routed to the wrong shard"
            );
            if let Some(cur) = &self.cur {
                cur.set((ev.time.0, ev.seq));
            }
            let loc = self.locs[ev.dst.0];
            let kind = match (&self.prof, self.classify) {
                (Some(_), Some(f)) => f(&ev.msg),
                _ => "event",
            };
            let before = self.events;
            #[allow(unsafe_code)]
            // SAFETY: `ev.dst` belongs to this shard (asserted above), so
            // this worker is the only thread touching its RNG stream, its
            // send counter and its arena slot for the whole run.
            let mut ctx = Ctx {
                now: ev.time,
                self_id: ev.dst,
                queue: &mut self.queue,
                rng: unsafe { &mut *self.rngs.0.add(ev.dst.0) },
                coalesced: 0,
                quiet_cap: ev.time,
                shard: Some(ShardSend {
                    key_base: (ev.dst.0 as u64 + 1) << KEY_SHIFT,
                    counter: unsafe { &mut *self.seqs.0.add(ev.dst.0) },
                    node_shard: self.node_shard,
                    my_shard: self.w as u32,
                    staged: &mut self.staged,
                    epoch_end: end,
                }),
            };
            #[allow(unsafe_code)]
            // SAFETY: same slot-exclusivity argument as above.
            unsafe {
                self.arenas[loc.arena as usize].dispatch_shared(loc.slot, &mut ctx, ev.msg)
            };
            self.events += 1 + ctx.coalesced;
            if let Some(p) = self.prof.as_mut() {
                let done = Instant::now();
                let ns = done
                    .duration_since(popped.expect("popped set while profiling"))
                    .as_nanos() as u64;
                p.note(loc.arena as usize, kind, ns, self.events - before);
                mark = Some(done);
            }
        }
        if let Some(p) = self.prof.as_mut() {
            let done = Instant::now();
            p.pop_ns += done.duration_since(mark.expect("mark set")).as_nanos() as u64;
            // Summed across windows and workers: under sharding the
            // profiler reports CPU time, not wall time.
            p.wall_ns += done.duration_since(t0.expect("t0 set")).as_nanos() as u64;
        }
    }

    /// Publish staged cross-shard sends and buffered probe emissions into
    /// the shared epoch state (before barrier A).
    fn publish(&mut self, shared: &EpochShared<M>) {
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
    }

    /// Drain this shard's inbox into its calendar and publish its new
    /// minimum pending time (between barriers A and B).
    fn drain_inbox(&mut self, shared: &EpochShared<M>) {
        for from in &shared.inbox[self.w] {
            let mut v = from.lock().expect("inbox poisoned");
            for s in v.drain(..) {
                self.queue.restore_push(s.time, s.key, s.dst, s.msg);
            }
        }
        let min = self.queue.peek_time().map_or(u64::MAX, |t| t.0);
        shared.mins[self.w].store(min, Ordering::Relaxed);
    }

    /// The non-coordinator epoch loop: window, publish, drain, then wait
    /// for the coordinator's next-window decision.
    fn epoch_loop(&mut self, shared: &EpochShared<M>, until: SimTime) {
        loop {
            let e = shared.end.load(Ordering::Relaxed);
            let cap = SimTime((e - 1).min(until.0));
            self.run_window(cap, SimTime(e));
            self.publish(shared);
            shared.barrier.wait(); // A: all sends and probes published
            self.drain_inbox(shared);
            shared.barrier.wait(); // B: all calendars updated, mins out
            shared.barrier.wait(); // C: coordinator picked the next window
            if shared.done.load(Ordering::Relaxed) {
                break;
            }
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

impl<M: 'static + Send> Engine<M> {
    /// Run until the clock reaches `t` (inclusive of events at exactly `t`).
    /// The clock is left at `t` even if the calendar empties earlier.
    ///
    /// When the current thread requested intra-run shards
    /// ([`crate::shard::set_shards`]) and the engine carries
    /// [`ShardHints`] with a non-zero lookahead, the run executes on the
    /// conservative sharded path: byte-identical results at any shard
    /// count, but a *different* (equally deterministic) equal-time
    /// tie-break than the serial engine. A trace hook or an armed flight
    /// recorder forces the serial loop — consistently at every shard
    /// count, so the invariance contract still holds.
    pub fn run_until(&mut self, t: SimTime) {
        let start = self.events_processed;
        let cancel = crate::cancel::token();
        let k = crate::shard::shards();
        // An armed cancel token forces the serial loop, like a trace
        // hook: a cancelled sharded epoch would have no deterministic
        // truncation point. Consistent at every shard count, so the
        // shard-invariance contract holds.
        let sharded = k > 0
            && cancel.is_none()
            && self.trace.is_none()
            && !crate::flight::armed()
            && self
                .shard_hints
                .as_ref()
                .is_some_and(|h| !h.lookahead.is_zero());
        if sharded {
            self.run_sharded(t, k);
        } else if !self.instrumented() {
            match &cancel {
                None => {
                    // Fast path: no per-event hook check, one heap
                    // access per event.
                    while let Some(ev) = self.queue.pop_at_or_before(t) {
                        self.dispatch(ev.time, ev.dst, ev.msg);
                    }
                }
                Some(tok) => self.run_cancellable(t, tok),
            }
        } else {
            self.run_instrumented(Some(t), u64::MAX);
        }
        note_dispatched(self.events_processed - start);
        if self.now < t && !self.cancelled {
            self.now = t;
        }
    }

    /// The cancellable serial loop: dispatch order is identical to the
    /// fast path, with the thread's [`crate::cancel::CancelToken`]
    /// consulted whenever the next event enters a new calendar slice
    /// ([`crate::event::SLICE_NS`] ns) — plus an every-64Ki-events
    /// fallback so a degenerate single-slice run still observes the
    /// token. The check runs *before* the pop, so a cancelled run stops
    /// clean: the event the check rejects stays in the calendar and
    /// every probe has seen complete events only.
    #[cold]
    fn run_cancellable(&mut self, t: SimTime, tok: &crate::cancel::CancelToken) {
        const EVENT_CHECK_PERIOD: u64 = 1 << 16;
        if tok.is_cancelled() {
            self.cancelled = true;
            return;
        }
        let mut slice = self.now.0 >> crate::event::SLICE_SHIFT;
        let mut unchecked: u64 = 0;
        loop {
            let Some(next) = self.queue.peek_time() else {
                return;
            };
            if next > t {
                return;
            }
            let s = next.0 >> crate::event::SLICE_SHIFT;
            if s != slice || unchecked >= EVENT_CHECK_PERIOD {
                slice = s;
                unchecked = 0;
                if tok.is_cancelled() {
                    self.cancelled = true;
                    return;
                }
            }
            unchecked += 1;
            let ev = self.queue.pop_at_or_before(t).expect("peeked non-empty");
            self.dispatch(ev.time, ev.dst, ev.msg);
        }
    }

    /// The conservative sharded run: partition the calendar, advance all
    /// shards in lookahead-bounded epochs (worker 0 rides the calling
    /// thread and doubles as coordinator), then merge the calendars back.
    #[cold]
    fn run_sharded(&mut self, until: SimTime, k: usize) {
        let n = self.locs.len();
        if self.send_seq.len() < n {
            self.send_seq.resize(n, 0);
        }
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

        // Split the calendar into per-shard calendars, preserving every
        // event's ordering key.
        let saved_next_seq = self.queue.next_seq();
        let mut old = std::mem::take(&mut self.queue);
        let mut queues: Vec<EventQueue<M>> = (0..k).map(|_| EventQueue::new()).collect();
        while let Some(ev) = old.pop() {
            let s = plan.node_shard[ev.dst.0] as usize;
            queues[s].restore_push(ev.time, ev.seq, ev.dst, ev.msg);
        }

        let profiling = self.profiling || crate::profile::enabled();
        if profiling {
            for q in &mut queues {
                q.set_profiling(true);
            }
        }

        // Take over the thread probe: workers buffer emissions, the
        // coordinator replays them merged in global dispatch order.
        let mut real = crate::probe::take_thread_probe();
        let trace_active = real.is_some();

        let first = queues.iter().filter_map(|q| q.peek_time()).min();
        let names: Vec<&'static str> = self.arenas.iter().map(|a| a.type_name()).collect();

        let outs: Vec<WorkerOut<M>> = match first {
            Some(first) if first <= until => {
                let rngs = SyncPtr(self.rngs.as_mut_ptr());
                let seqs = SyncPtr(self.send_seq.as_mut_ptr());
                let arenas: &[Box<dyn NodeArena<M>>] = &self.arenas;
                let locs: &[Loc] = &self.locs;
                let node_shard: &[u32] = &plan.node_shard;
                let classify = self.classify;
                let end0 = SimTime(first.0.saturating_add(lookahead.0));

                let make_worker = |w: usize, queue: EventQueue<M>| {
                    let (cur, out) = if trace_active {
                        let (c, o) = install_buffer_probe();
                        (Some(c), Some(o))
                    } else {
                        (None, None)
                    };
                    ShardWorker {
                        w,
                        queue,
                        staged: (0..k).map(|_| Vec::new()).collect(),
                        arenas,
                        locs,
                        node_shard,
                        rngs,
                        seqs,
                        classify,
                        events: 0,
                        cur,
                        out,
                        prof: profiling.then(|| LoopProf::new(arenas.len())),
                    }
                };
                let finish_worker = |mut wk: ShardWorker<'_, M>,
                                     counters: Option<crate::telemetry::RunCounters>|
                 -> WorkerOut<M> {
                    if wk.cur.is_some() {
                        drop(crate::probe::take_thread_probe());
                    }
                    let cal = wk.queue.take_profile();
                    WorkerOut {
                        queue: wk.queue,
                        events: wk.events,
                        prof: wk.prof.take(),
                        cal,
                        counters,
                    }
                };

                if k == 1 {
                    // Single shard: same windows, same ordering keys and
                    // the same merged probe order as k ≥ 2, with no
                    // threads or barriers.
                    let mut wk = make_worker(0, queues.pop().expect("one queue"));
                    let mut s = first.0;
                    loop {
                        let e = s.saturating_add(lookahead.0);
                        let cap = SimTime((e - 1).min(until.0));
                        wk.run_window(cap, SimTime(e));
                        if let (Some(p), Some(out)) = (real.as_deref_mut(), wk.out.as_ref()) {
                            deliver_probe_recs(p, &mut out.borrow_mut());
                        }
                        match wk.queue.peek_time() {
                            Some(t) if t <= until => s = t.0,
                            _ => break,
                        }
                    }
                    vec![finish_worker(wk, None)]
                } else {
                    let shared = EpochShared::<M>::new(k, first, end0);
                    let mut rest: Vec<EventQueue<M>> = queues.split_off(1);
                    let q0 = queues.pop().expect("shard 0 queue");
                    let shared_ref = &shared;
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = rest
                            .drain(..)
                            .enumerate()
                            .map(|(i, q)| {
                                let w = i + 1;
                                scope.spawn(move || {
                                    let marker = crate::telemetry::begin_run();
                                    let mut wk = make_worker(w, q);
                                    wk.epoch_loop(shared_ref, until);
                                    finish_worker(wk, Some(marker.finish()))
                                })
                            })
                            .collect();

                        // Worker 0 + coordinator, on the calling thread.
                        let mut wk = make_worker(0, q0);
                        loop {
                            let e = shared.end.load(Ordering::Relaxed);
                            let cap = SimTime((e - 1).min(until.0));
                            wk.run_window(cap, SimTime(e));
                            wk.publish(&shared);
                            shared.barrier.wait(); // A
                            wk.drain_inbox(&shared);
                            shared.barrier.wait(); // B
                                                   // Coordinator: merge this epoch's probe
                                                   // buffers in global order, pick the next
                                                   // window (the global minimum pending time).
                            if trace_active {
                                let mut merged: Vec<ProbeRec> = Vec::new();
                                for slot in &shared.probes {
                                    merged.append(&mut slot.lock().expect("probe slot"));
                                }
                                if let Some(p) = real.as_deref_mut() {
                                    deliver_probe_recs(p, &mut merged);
                                }
                            }
                            let min = shared
                                .mins
                                .iter()
                                .map(|m| m.load(Ordering::Relaxed))
                                .min()
                                .expect("k >= 1");
                            if min > until.0 {
                                shared.done.store(true, Ordering::Relaxed);
                            } else {
                                shared.start.store(min, Ordering::Relaxed);
                                shared
                                    .end
                                    .store(min.saturating_add(lookahead.0), Ordering::Relaxed);
                            }
                            shared.barrier.wait(); // C
                            if shared.done.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                        let mut outs = vec![finish_worker(wk, None)];
                        outs.extend(
                            handles
                                .into_iter()
                                .map(|h| h.join().expect("shard worker panicked")),
                        );
                        outs
                    })
                }
            }
            _ => {
                // Nothing pending at or before the horizon.
                queues
                    .into_iter()
                    .map(|queue| WorkerOut {
                        queue,
                        events: 0,
                        prof: None,
                        cal: crate::profile::CalendarStats::default(),
                        counters: None,
                    })
                    .collect()
            }
        };

        // Merge the shard calendars back into one (a fresh queue, as in
        // `restore`: the drained original's cursor has advanced past the
        // remaining events' slices). Harvest per-worker accounting.
        let mut fresh = EventQueue::new();
        let mut total = 0u64;
        for o in outs {
            total += o.events;
            if let Some(c) = &o.counters {
                crate::telemetry::preload(c);
            }
            if profiling {
                if let Some(p) = o.prof {
                    crate::profile::merge_run(p, &o.cal, &names);
                }
            }
            let mut q = o.queue;
            while let Some(ev) = q.pop() {
                fresh.restore_push(ev.time, ev.seq, ev.dst, ev.msg);
            }
        }
        fresh.set_next_seq(saved_next_seq);
        self.queue = fresh;
        self.events_processed += total;
        self.shard_plan = Some(plan);
        if let Some(p) = real {
            drop(crate::probe::install_thread_probe(p));
        }
    }
}

impl<M: 'static + SnapshotMessage> Engine<M> {
    /// Capture the engine's complete dynamic state: every node's fields,
    /// every per-node RNG stream, every pending calendar event with its
    /// `(time, seq)` ordering key, and the clock/dispatch counters.
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
    /// sequence the snapshotted engine would have produced.
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
            let loc = self.locs[id];
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
            queue.restore_push(ev.time, ev.seq, NodeId(ev.dst), msg);
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
    fn trace_hook_sees_every_event_without_changing_the_run() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let run = |traced: bool| {
            let mut e = Engine::<u32>::new(7);
            let c = e.add_node(Collector::default());
            let r = e.add_node(Relay { dst: c });
            let seen: Rc<RefCell<Vec<(SimTime, NodeId, u32)>>> = Rc::default();
            if traced {
                let sink = Rc::clone(&seen);
                e.set_trace_hook(Box::new(move |t, dst, msg| {
                    sink.borrow_mut().push((t, dst, *msg));
                }));
            }
            e.schedule(SimTime::from_micros(1), r, 10);
            e.schedule(SimTime::from_micros(2), r, 20);
            e.run_until(SimTime::from_millis(1));
            let trace = seen.borrow().clone();
            (
                e.node::<Collector>(c).got.clone(),
                trace,
                e.events_processed(),
            )
        };

        let (got_plain, _, n_plain) = run(false);
        let (got_traced, trace, n_traced) = run(true);
        assert_eq!(got_plain, got_traced, "tracing must not perturb the run");
        assert_eq!(n_plain, n_traced);
        assert_eq!(trace.len(), n_traced as usize, "hook sees every dispatch");
        assert_eq!(
            trace[0],
            (SimTime::from_micros(1), NodeId(1), 10),
            "hook runs before delivery, with the delivered payload"
        );
    }

    #[test]
    fn clear_trace_hook_restores_untraced_dispatch() {
        use std::cell::RefCell;
        use std::rc::Rc;

        let mut e = Engine::<u32>::new(3);
        let c = e.add_node(Collector::default());
        let seen: Rc<RefCell<u32>> = Rc::default();
        let sink = Rc::clone(&seen);
        e.set_trace_hook(Box::new(move |_, _, _| *sink.borrow_mut() += 1));
        e.schedule(SimTime::from_micros(1), c, 0);
        e.run_until(SimTime::from_micros(1));
        e.clear_trace_hook();
        e.schedule(SimTime::from_micros(2), c, 1);
        e.run_until(SimTime::from_micros(2));
        assert_eq!(*seen.borrow(), 1, "hook only observes while attached");
        assert_eq!(e.node::<Collector>(c).got.len(), 2);
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
        assert!(e.step());
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
    fn cancelled_instrumented_run_stops_and_keeps_the_trace_consistent() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let token = crate::cancel::CancelToken::new();
        let _g = crate::cancel::CancelGuard::new(token.clone());
        let mut e = Engine::<u32>::new(1);
        let t = e.add_node(CancellingTicker {
            ticks: 0,
            cancel_at: 100,
            period: SimDuration::from_micros(1),
            token,
        });
        let seen: Rc<RefCell<u64>> = Rc::default();
        let sink = Rc::clone(&seen);
        e.set_trace_hook(Box::new(move |_, _, _| *sink.borrow_mut() += 1));
        e.schedule(SimTime::ZERO, t, 0);
        e.run_until(SimTime::from_secs(1));
        assert!(e.cancelled());
        // Instrumented loop checks per event: exactly the cancelling
        // dispatch runs last, and the hook saw every dispatched event.
        assert_eq!(e.node::<CancellingTicker>(t).ticks, 100);
        assert_eq!(*seen.borrow(), e.events_processed());
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

    #[test]
    fn engine_profile_switch_collects_without_a_bracket() {
        let _ = crate::profile::take_report(); // reset the thread collector
        let mut e = Engine::<u32>::new(1);
        let c = e.add_node(Collector::default());
        e.profile(true);
        e.schedule(SimTime::from_micros(1), c, 0);
        e.run_until(SimTime::from_millis(1));
        let r = crate::profile::take_report();
        assert_eq!(r.dispatches, 1);
        assert_eq!(r.kinds[0].name, "event", "no classifier → fallback kind");
        assert!(!crate::profile::enabled());
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
        assert!(e.step());
        assert_eq!(thread_events_dispatched() - before, 11);
    }
}
