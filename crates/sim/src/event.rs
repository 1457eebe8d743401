//! The pending-event queue.
//!
//! A hierarchical timer wheel organised for the ATM hot path, where almost
//! every event is a cell-time or propagation-delay timer a few microseconds
//! to a few milliseconds out. Near-future events land in one of
//! [`WHEEL_SLOTS`] ring buckets of [`SLICE_NS`]-nanosecond slices (an
//! append to the bucket's tail chunk — no sift, no comparisons); an
//! occupancy bitmap makes finding the next non-empty slice a handful of
//! word scans. Far-future events (session starts hundreds of milliseconds
//! out, long RTT timers) wait in an overflow heap and are promoted lazily
//! as the cursor advances.
//!
//! Delivery order is *exactly* the `(time, seq)` total order of the
//! classic binary-heap calendar this replaces: each slice is drained into a
//! small sorted "active" run before anything is popped, so same-timestamp
//! events come out by `seq` — the engine's ordering key, or the insertion
//! number for a plain [`EventQueue::push`] — and every trace, analysis
//! baseline and CSV is byte-identical across calendars. The property test at the bottom pins
//! the wheel against a plain binary heap kept as the `#[cfg(test)]` oracle.
//!
//! Near-future payloads live *inline* in bucket storage: a push is one
//! contiguous append, a slice drain is a few contiguous moves plus a small
//! sort, and nothing is chased through a side table. With tens of
//! thousands of cells in flight on WAN topologies, the in-flight working
//! set is streamed bucket by bucket instead of hammering a random-access
//! slab — that cache behaviour, not asymptotics, is where the calendar
//! spends its time. Only far-future events pay for indirection: their
//! payloads wait in a small slab of message slots (with an intrusive free
//! list) while 24-byte `(time, seq, slot)` keys sit in the overflow heap.
//!
//! # Memory
//!
//! Bucket storage is a chain of fixed-capacity chunks of `CHUNK`
//! entries, all drawn from one shared pool with an intrusive free list.
//! Draining a slice returns its chunks to the pool, so the next slot to
//! fill reuses them. The invariant: the chunks in use never exceed
//! `wheel pending / CHUNK + occupied slots`, and the pool holds only the
//! peak of that sum — calendar memory follows the events pending *now*.
//! A growable buffer per slot would instead keep every slot's fullest-ever
//! slice: a dense window of traffic sweeping the ring once leaves each of
//! the 4,096 slots holding a slice-sized buffer, which on metro-100k comes
//! to 2.4 GB for 15 MB of pending events. [`EventQueue::heap_bytes`] reports
//! the total; the `calendar_heap_tracks_pending_events` test pins the bound.

use crate::engine::NodeId;
use crate::profile::CalendarStats;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::time::Instant;

/// Calendar identifier recorded in benchmark artifacts (the
/// `phantom-bench/3` `calendar` field), so a benchmark record says which
/// event-queue implementation produced it.
pub const CALENDAR: &str = "timer-wheel/4096x8192ns";

/// log2 of the slice width: each wheel slot covers `1 << SLICE_SHIFT` ns.
/// 8192 ns ≈ 2.9 OC-3 cell times — measured fastest across the repro
/// sweep (4096 ns pays more cursor advances, 16384 ns more same-slice
/// sorted inserts).
pub const SLICE_SHIFT: u32 = 13;

/// Nanoseconds per wheel slice.
pub const SLICE_NS: u64 = 1 << SLICE_SHIFT;

/// Number of ring buckets. With 8192-ns slices this gives a ~33.6 ms
/// near-future horizon — comfortably past every cell time, measurement
/// interval and propagation delay in the paper's topologies.
pub const WHEEL_SLOTS: usize = 4096;

const SLOT_MASK: u64 = (WHEEL_SLOTS as u64) - 1;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;

/// One scheduled delivery of a message `M` to a node.
pub struct Event<M> {
    /// When the message is delivered.
    pub time: SimTime,
    /// Ordering key among equal timestamps (see [`EventQueue::push_keyed`]).
    pub seq: u64,
    /// Destination node.
    pub dst: NodeId,
    /// The payload.
    pub msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest event on
        // top. Among equal times, the lowest sequence number wins (FIFO).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Key for the far-future overflow heap: the ordering pair plus the
/// index of the payload slot in the far slab.
///
/// `slot` takes no part in the ordering — `seq` is unique, so `(time, seq)`
/// is already a total order.
#[derive(Clone, Copy)]
struct HeapKey {
    time: SimTime,
    seq: u64,
    slot: u32,
}

impl PartialEq for HeapKey {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for HeapKey {}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed, same convention as `Event`.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A far-slab payload slot: either holds a pending far-future message or
/// links into the intrusive free list (so releasing a slot is one write,
/// with no separate free-index vector to maintain).
enum Slot<M> {
    Full(NodeId, M),
    Free(u32),
}

/// Terminator of the free lists and bucket chains.
const NIL: u32 = u32::MAX;

/// One pending near-future event, held inline: the ordering pair, the
/// destination and the payload itself. Buckets and the active run move
/// whole entries — a wider memcpy than a 24-byte key, but always a
/// contiguous one, never a pointer chase into a cold slab.
struct Entry<M> {
    time: SimTime,
    seq: u64,
    dst: NodeId,
    msg: M,
}

/// Entries per bucket chunk. Large enough that a busy slice is a few
/// contiguous runs, small enough that a one-event slot holds little.
const CHUNK: usize = 64;

/// A fixed-capacity run of one bucket's entries. `entries` is allocated
/// once with capacity [`CHUNK`] and never grows past it; `next` links the
/// chunk to the rest of its bucket's chain, or to the rest of the free
/// list while it is unused (and then `entries` is empty).
struct Chunk<M> {
    entries: Vec<Entry<M>>,
    next: u32,
}

/// Priority queue of pending events, earliest first.
///
/// Invariant: every entry with slice `<= cursor` lives in `active`, sorted
/// ascending by `(time, seq)`; entries with
/// `cursor < slice < cursor + WHEEL_SLOTS` live in the chunk chain of bucket
/// `slice % WHEEL_SLOTS` (with the matching `occupied` bit set and a
/// non-`NIL` head); everything further out lives in `overflow` +
/// `far_slots`. Because a slice's times are strictly below the
/// next slice's, the front of `active` — when non-empty — is the global
/// minimum.
pub struct EventQueue<M> {
    /// Events in the current or earlier slices, ascending by `(time, seq)`:
    /// the next event to pop is at the front. Small — it holds at most a
    /// couple of slices' worth of entries — so the occasional mid-slice
    /// insert shifts only a handful of elements, and the common same-slice
    /// send (later than everything active) is a plain `push_back`.
    active: VecDeque<Entry<M>>,
    /// Chunk pool backing every ring bucket: bucket chains and the free
    /// list both link through [`Chunk::next`].
    chunks: Vec<Chunk<M>>,
    /// First chunk of each ring bucket's chain (`NIL`: empty bucket).
    /// Entries are unsorted within a bucket, payloads inline.
    heads: Vec<u32>,
    /// Last chunk of each ring bucket's chain, where pushes append.
    tails: Vec<u32>,
    /// Head of the chunk free list.
    free_chunk: u32,
    /// One bit per wheel slot: does the bucket hold any entries?
    occupied: [u64; BITMAP_WORDS],
    /// Keys of far-future events, beyond the wheel horizon.
    overflow: BinaryHeap<HeapKey>,
    /// Payload slab for `overflow` keys only.
    far_slots: Vec<Slot<M>>,
    /// Head of the far-slab free list.
    far_free: u32,
    /// Absolute slice number (`time >> SLICE_SHIFT`) the wheel is parked at.
    cursor: u64,
    /// Total pending events across active + wheel + overflow.
    len: usize,
    next_seq: u64,
    /// Profiling counters/timers, boxed out of the hot struct; `None`
    /// (the default) costs one predictable branch per push and none on
    /// the pop fast path.
    prof: Option<Box<CalendarStats>>,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventQueue<M> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            active: VecDeque::new(),
            chunks: Vec::new(),
            heads: vec![NIL; WHEEL_SLOTS],
            tails: vec![NIL; WHEEL_SLOTS],
            free_chunk: NIL,
            occupied: [0; BITMAP_WORDS],
            overflow: BinaryHeap::new(),
            far_slots: Vec::new(),
            far_free: NIL,
            cursor: 0,
            len: 0,
            next_seq: 0,
            prof: None,
        }
    }

    /// Enable or disable profiling counters. While enabled, pushes are
    /// classified by destination (active run / wheel bucket / far slab +
    /// overflow heap) and the cold [`advance`](Self::advance) path times
    /// its scan, promote and sort phases.
    pub(crate) fn set_profiling(&mut self, on: bool) {
        if on {
            if self.prof.is_none() {
                self.prof = Some(Box::default());
            }
        } else {
            self.prof = None;
        }
    }

    /// Take (and reset) the accumulated profiling stats, leaving
    /// profiling enabled if it was.
    pub(crate) fn take_profile(&mut self) -> CalendarStats {
        match self.prof.as_deref_mut() {
            Some(p) => std::mem::take(p),
            None => CalendarStats::default(),
        }
    }

    /// Schedule delivery of `msg` to `dst` at absolute time `time`, under
    /// the next insertion number as its key: among equal times, pushes
    /// are delivered in the order they were made (and before any keyed
    /// event whose key is higher).
    #[inline]
    pub fn push(&mut self, time: SimTime, dst: NodeId, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.push_keyed(time, seq, dst, msg);
    }

    /// Schedule delivery of `msg` to `dst` at `time` under the ordering
    /// key `seq`, leaving `next_seq` alone. The engine's sends use this
    /// with the sender's minted key; a checkpoint restore re-inserts the
    /// pending set under its original keys (any order), then calls
    /// [`EventQueue::set_next_seq`]. Internal placement (bucket vs
    /// overflow) may differ from the original queue — delivery order is
    /// governed solely by `(time, seq)`, so pops are identical.
    #[inline]
    pub fn push_keyed(&mut self, time: SimTime, seq: u64, dst: NodeId, msg: M) {
        self.len += 1;
        let slice = time.0 >> SLICE_SHIFT;
        if let Some(p) = self.prof.as_deref_mut() {
            if slice <= self.cursor {
                p.active_inserts += 1;
            } else if slice - self.cursor < WHEEL_SLOTS as u64 {
                p.wheel_pushes += 1;
            } else {
                p.far_pushes += 1;
            }
        }
        let entry = Entry {
            time,
            seq,
            dst,
            msg,
        };
        if slice <= self.cursor {
            // Current slice (or a past-time push): keep the active run
            // sorted. Search by time alone — a tuple compare per probe
            // measurably slows the sweep — then step back over the few
            // equal-time entries with a higher key.
            let mut at = self.active.partition_point(|e| e.time <= time);
            while at > 0 && self.active[at - 1].time == time && self.active[at - 1].seq > seq {
                at -= 1;
            }
            if at == self.active.len() {
                self.active.push_back(entry);
            } else {
                self.active.insert(at, entry);
            }
        } else if slice - self.cursor < WHEEL_SLOTS as u64 {
            self.bucket_push((slice & SLOT_MASK) as usize, entry);
        } else {
            let slot = self.far_alloc(dst, entry.msg);
            self.overflow.push(HeapKey { time, seq, slot });
        }
    }

    /// Append `entry` to ring bucket `idx`: into the tail chunk while it
    /// has room, else into a chunk taken from the free list.
    #[inline]
    fn bucket_push(&mut self, idx: usize, entry: Entry<M>) {
        let tail = self.tails[idx];
        if tail != NIL {
            let chunk = &mut self.chunks[tail as usize];
            if chunk.entries.len() < CHUNK {
                chunk.entries.push(entry);
                return;
            }
        }
        let c = self.chunk_alloc();
        self.chunks[c as usize].entries.push(entry);
        if tail == NIL {
            self.heads[idx] = c;
            self.occupied[idx >> 6] |= 1u64 << (idx & 63);
        } else {
            self.chunks[tail as usize].next = c;
        }
        self.tails[idx] = c;
    }

    /// An empty chunk, unlinked: the free-list head, or a new one.
    fn chunk_alloc(&mut self) -> u32 {
        if self.free_chunk != NIL {
            let c = self.free_chunk;
            let chunk = &mut self.chunks[c as usize];
            self.free_chunk = std::mem::replace(&mut chunk.next, NIL);
            c
        } else {
            assert!(
                self.chunks.len() < NIL as usize,
                "event queue chunk index overflow"
            );
            self.chunks.push(Chunk {
                entries: Vec::with_capacity(CHUNK),
                next: NIL,
            });
            (self.chunks.len() - 1) as u32
        }
    }

    /// The chunks of ring bucket `idx`, head to tail.
    fn bucket(&self, idx: usize) -> impl Iterator<Item = &Chunk<M>> {
        let mut c = self.heads[idx];
        std::iter::from_fn(move || {
            if c == NIL {
                return None;
            }
            let chunk = &self.chunks[c as usize];
            c = chunk.next;
            Some(chunk)
        })
    }

    /// Heap bytes held by the calendar: the chunk pool, the bucket chain
    /// ends, the active run, the far slab and the overflow heap, by
    /// capacity (what the allocator handed out, not what is in use).
    pub fn heap_bytes(&self) -> usize {
        self.chunks.capacity() * size_of::<Chunk<M>>()
            + self.chunks.len() * CHUNK * size_of::<Entry<M>>()
            + (self.heads.capacity() + self.tails.capacity()) * size_of::<u32>()
            + self.active.capacity() * size_of::<Entry<M>>()
            + self.far_slots.capacity() * size_of::<Slot<M>>()
            + self.overflow.capacity() * size_of::<HeapKey>()
    }

    /// Park `(dst, msg)` in the far slab, returning its slot index.
    fn far_alloc(&mut self, dst: NodeId, msg: M) -> u32 {
        if self.far_free != NIL {
            let s = self.far_free;
            match std::mem::replace(&mut self.far_slots[s as usize], Slot::Full(dst, msg)) {
                Slot::Free(next) => self.far_free = next,
                Slot::Full(..) => unreachable!("free head points at a full slot"),
            }
            s
        } else {
            assert!(
                self.far_slots.len() < NIL as usize,
                "event queue slot index overflow"
            );
            self.far_slots.push(Slot::Full(dst, msg));
            (self.far_slots.len() - 1) as u32
        }
    }

    /// Release a far slot, returning its payload.
    fn far_claim(&mut self, slot: u32) -> (NodeId, M) {
        let released = Slot::Free(self.far_free);
        match std::mem::replace(&mut self.far_slots[slot as usize], released) {
            Slot::Full(dst, msg) => {
                self.far_free = slot;
                (dst, msg)
            }
            Slot::Free(..) => unreachable!("key points at an empty slot"),
        }
    }

    /// Advance the cursor to the next occupied slice and load it into the
    /// active run. Caller guarantees `active` is empty and `len > 0`.
    #[cold]
    fn advance(&mut self) {
        // Timestamps are taken only while profiling; `advance` runs once
        // per occupied slice, so even then the clock reads are far off
        // the per-event path.
        let prof_on = self.prof.is_some();
        let t0 = prof_on.then(Instant::now);
        let from_wheel = self.next_occupied_slice();
        let from_overflow = self.overflow.peek().map(|k| k.time.0 >> SLICE_SHIFT);
        let target = match (from_wheel, from_overflow) {
            (Some(w), Some(o)) => w.min(o),
            (Some(w), None) => w,
            (None, Some(o)) => o,
            (None, None) => unreachable!("advance called on an empty calendar"),
        };
        self.cursor = target;
        let t1 = prof_on.then(Instant::now);
        // Promote overflow entries that now fall inside the window (or on
        // the new cursor slice itself; the sort below restores their order
        // among the bucket's entries).
        let mut promoted = 0u64;
        while let Some(top) = self.overflow.peek() {
            let slice = top.time.0 >> SLICE_SHIFT;
            if slice - self.cursor >= WHEEL_SLOTS as u64 {
                break;
            }
            let key = self.overflow.pop().expect("peeked key vanished");
            let (dst, msg) = self.far_claim(key.slot);
            promoted += 1;
            let entry = Entry {
                time: key.time,
                seq: key.seq,
                dst,
                msg,
            };
            if slice == self.cursor {
                self.active.push_back(entry);
            } else {
                self.bucket_push((slice & SLOT_MASK) as usize, entry);
            }
        }
        let t2 = prof_on.then(Instant::now);
        // Drain the cursor's bucket, returning its chunks to the free
        // list, and restore exact (time, seq) order with one small sort —
        // the only per-slice ordering work.
        let idx = (self.cursor & SLOT_MASK) as usize;
        let mut c = std::mem::replace(&mut self.heads[idx], NIL);
        if c != NIL {
            self.tails[idx] = NIL;
            self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
            while c != NIL {
                let chunk = &mut self.chunks[c as usize];
                self.active.extend(chunk.entries.drain(..));
                let next = std::mem::replace(&mut chunk.next, self.free_chunk);
                self.free_chunk = c;
                c = next;
            }
        }
        self.active
            .make_contiguous()
            .sort_unstable_by_key(|e| (e.time, e.seq));
        debug_assert!(!self.active.is_empty(), "advance loaded nothing");
        if let Some(p) = self.prof.as_deref_mut() {
            let t3 = Instant::now();
            let ns = |a: Instant, b: Instant| b.duration_since(a).as_nanos() as u64;
            let (t0, t1, t2) = (t0.unwrap(), t1.unwrap(), t2.unwrap());
            p.advances += 1;
            p.promoted += promoted;
            p.sorted_entries += self.active.len() as u64;
            p.scan_ns += ns(t0, t1);
            p.promote_ns += ns(t1, t2);
            p.sort_ns += ns(t2, t3);
            p.advance_ns += ns(t0, t3);
            let occ: u64 = self
                .occupied
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum();
            p.occupied_slices_sum += occ;
            p.occupied_slices_max = p.occupied_slices_max.max(occ);
        }
    }

    /// Absolute slice number of the first occupied wheel bucket strictly
    /// after the cursor, if any.
    fn next_occupied_slice(&self) -> Option<u64> {
        let start = ((self.cursor + 1) & SLOT_MASK) as usize;
        // First (partial) word: only bits at or after `start`.
        let mut word = self.occupied[start >> 6] & (!0u64 << (start & 63));
        let mut widx = start >> 6;
        for _ in 0..=BITMAP_WORDS {
            if word != 0 {
                let idx = ((widx << 6) + word.trailing_zeros() as usize) as u64;
                // Map the ring index back to the unique absolute slice in
                // (cursor, cursor + WHEEL_SLOTS).
                let delta = (idx.wrapping_sub(self.cursor + 1)) & SLOT_MASK;
                return Some(self.cursor + 1 + delta);
            }
            widx = (widx + 1) % BITMAP_WORDS;
            word = self.occupied[widx];
        }
        None
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<Event<M>> {
        if self.active.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        let e = self.active.pop_front().expect("advance left active empty");
        self.len -= 1;
        Some(Event {
            time: e.time,
            seq: e.seq,
            dst: e.dst,
            msg: e.msg,
        })
    }

    /// Remove and return the earliest event if its timestamp is `<= t`.
    ///
    /// This is the engine's `run_until` hot path: one call decides both
    /// "is there work" and "is it due", instead of a peek followed by a
    /// pop. (A failed call may still advance the wheel cursor to the next
    /// occupied slice — harmless, since routing is relative to the cursor.)
    #[inline]
    pub fn pop_at_or_before(&mut self, t: SimTime) -> Option<Event<M>> {
        if self.active.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        if self.active.front().expect("advance left active empty").time > t {
            return None;
        }
        let e = self.active.pop_front().expect("peeked entry vanished");
        self.len -= 1;
        Some(Event {
            time: e.time,
            seq: e.seq,
            dst: e.dst,
            msg: e.msg,
        })
    }

    /// Destination of the `i`-th event of the sorted active run (0 is the
    /// next to pop), if the run holds that many. A hint for prefetching
    /// only: a push made before that event pops may land ahead of it, and
    /// a run that ends short of `i` says nothing about the next slice.
    #[inline]
    pub(crate) fn peek_active_dst(&self, i: usize) -> Option<NodeId> {
        self.active.get(i).map(|e| e.dst)
    }

    /// Timestamp of the earliest pending event.
    ///
    /// Cheap when the active run is warm; otherwise scans the occupancy
    /// bitmap and the first non-empty bucket (buckets are unsorted, but
    /// every time in the earliest occupied slice precedes every time in any
    /// later slice, so one bucket scan suffices).
    pub fn peek_time(&self) -> Option<SimTime> {
        if let Some(e) = self.active.front() {
            return Some(e.time);
        }
        if let Some(slice) = self.next_occupied_slice() {
            let min = self
                .bucket((slice & SLOT_MASK) as usize)
                .flat_map(|c| &c.entries)
                .map(|e| e.time)
                .min();
            debug_assert!(min.is_some(), "occupied bit set on an empty bucket");
            return min;
        }
        self.overflow.peek().map(|k| k.time)
    }

    /// The last instant of the wheel's current slice (bounds the active run).
    pub fn slice_end(&self) -> SimTime {
        SimTime((self.cursor << SLICE_SHIFT) | (SLICE_NS - 1))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The next insertion sequence number — part of the `(time, seq)`
    /// ordering state a checkpoint must capture: a restored calendar
    /// that re-used lower sequence numbers would tie-break future
    /// same-timestamp sends differently from the uninterrupted run.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Overwrite the insertion sequence counter (checkpoint restore
    /// only, after re-inserting the pending set via
    /// [`EventQueue::push_keyed`]).
    pub fn set_next_seq(&mut self, seq: u64) {
        self.next_seq = seq;
    }

    /// Visit every pending event — active run, wheel buckets, and
    /// far-future slab occupants keyed by the overflow heap — in
    /// arbitrary order, without disturbing the queue. Callers that need
    /// delivery order sort by `(time, seq)`, which is the exact total
    /// order [`EventQueue::pop`] delivers.
    pub fn for_each_pending(&self, mut f: impl FnMut(SimTime, u64, NodeId, &M)) {
        for e in &self.active {
            f(e.time, e.seq, e.dst, &e.msg);
        }
        for idx in 0..WHEEL_SLOTS {
            for e in self.bucket(idx).flat_map(|c| &c.entries) {
                f(e.time, e.seq, e.dst, &e.msg);
            }
        }
        for key in self.overflow.iter() {
            match &self.far_slots[key.slot as usize] {
                Slot::Full(dst, msg) => f(key.time, key.seq, *dst, msg),
                Slot::Free(..) => unreachable!("overflow key points at an empty slot"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), NodeId(0), "c");
        q.push(SimTime::from_micros(10), NodeId(0), "a");
        q.push(SimTime::from_micros(20), NodeId(0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..100 {
            q.push(t, NodeId(0), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), NodeId(0), 1);
        q.push(SimTime::from_micros(30), NodeId(0), 3);
        assert_eq!(q.pop().unwrap().msg, 1);
        q.push(SimTime::from_micros(20), NodeId(0), 2);
        assert_eq!(q.pop().unwrap().msg, 2);
        assert_eq!(q.pop().unwrap().msg, 3);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_reports_earliest() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_micros(42), NodeId(1), ());
        q.push(SimTime::from_micros(7), NodeId(2), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn peek_time_sees_past_the_wheel_horizon() {
        let mut q = EventQueue::new();
        let far = SimTime(SLICE_NS * (WHEEL_SLOTS as u64) * 3);
        q.push(far, NodeId(0), "overflow");
        assert_eq!(q.peek_time(), Some(far));
        assert_eq!(q.pop().unwrap().msg, "overflow");
    }

    #[test]
    fn pop_at_or_before_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(10), NodeId(0), 1);
        q.push(SimTime::from_micros(20), NodeId(0), 2);
        assert!(q.pop_at_or_before(SimTime::from_micros(5)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(10)).unwrap().msg, 1);
        assert!(q.pop_at_or_before(SimTime::from_micros(19)).is_none());
        assert_eq!(q.pop_at_or_before(SimTime::from_micros(25)).unwrap().msg, 2);
        assert!(q.pop_at_or_before(SimTime::MAX).is_none());
    }

    #[test]
    fn same_slice_inserts_keep_sorted_order() {
        let mut q = EventQueue::new();
        // All inside slice 0, pushed out of time order: the active run's
        // binary-search insert must keep them sorted.
        q.push(SimTime(900), NodeId(0), 9);
        q.push(SimTime(100), NodeId(0), 1);
        q.push(SimTime(500), NodeId(0), 5);
        assert_eq!(q.pop().unwrap().msg, 1);
        // Mid-drain insert between the remaining entries.
        q.push(SimTime(300), NodeId(0), 3);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, vec![3, 5, 9]);
    }

    #[test]
    fn far_slots_are_recycled() {
        let mut q = EventQueue::new();
        let horizon = SLICE_NS * WHEEL_SLOTS as u64;
        for round in 0..4u64 {
            // Each round parks 8 events past the horizon, then drains.
            for i in 0..8u64 {
                q.push(SimTime((round + 2) * horizon + i), NodeId(0), i);
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        // Every round drains fully, so the far slab never needs more than
        // one round's worth of slots (near events never touch it at all).
        assert!(
            q.far_slots.len() <= 8,
            "far slab grew to {}",
            q.far_slots.len()
        );
        assert!(q.is_empty());
    }

    #[test]
    fn far_slab_capacity_stays_bounded_under_sliding_window() {
        // Steady-state far-future traffic: a fixed-size window of
        // pending beyond-horizon events slides forward for hundreds of
        // horizons. The slab must reuse freed slots (via the intrusive
        // free list and promotion-time `far_claim`) rather than growing
        // with the *total* number of far events ever parked — the
        // regression this guards against is an alloc-per-push slab,
        // which at metro scale (10^5 pacing timers crossing the horizon
        // continuously) would leak the slab without bound.
        let mut q = EventQueue::new();
        let horizon = SLICE_NS * WHEEL_SLOTS as u64;
        const WINDOW: u64 = 16;
        let gap = horizon / 8; // window spans 2 horizons: always far
        let t = |i: u64| SimTime(2 * horizon + i * gap);
        for i in 0..WINDOW {
            q.push(t(i), NodeId(0), i);
        }
        for i in WINDOW..1000 {
            q.push(t(i), NodeId(0), i);
            assert_eq!(q.pop().unwrap().msg, i - WINDOW);
        }
        assert!(
            q.far_slots.len() <= 2 * WINDOW as usize,
            "far slab grew to {} slots for a {}-event window",
            q.far_slots.len(),
            WINDOW
        );
        let tail: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(tail, (1000 - WINDOW..1000).collect::<Vec<_>>());
    }

    #[test]
    fn overflow_events_promote_in_order() {
        let mut q = EventQueue::new();
        let horizon = SLICE_NS * WHEEL_SLOTS as u64;
        // Far-future burst at the same timestamp: FIFO must survive the
        // overflow → wheel → active promotions.
        let t = SimTime(horizon * 2 + 5);
        for i in 0..10 {
            q.push(t, NodeId(0), i);
        }
        // Plus near-future and mid-future company.
        q.push(SimTime(100), NodeId(0), 100);
        q.push(SimTime(horizon - 1), NodeId(0), 101);
        assert_eq!(q.pop().unwrap().msg, 100);
        assert_eq!(q.pop().unwrap().msg, 101);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_wraps_across_many_horizons() {
        let mut q = EventQueue::new();
        let horizon = SLICE_NS * WHEEL_SLOTS as u64;
        let mut expect = Vec::new();
        for i in 0..64u64 {
            // Spread pushes over ~8 horizons, descending insert order.
            let t = SimTime((63 - i) * horizon / 8 + (63 - i) * 17);
            q.push(t, NodeId(0), 63 - i);
            expect.push(63 - i);
        }
        expect.sort_unstable();
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn pending_snapshot_restores_to_the_identical_pop_sequence() {
        // Populate every storage tier: active run (pop once to warm it),
        // wheel buckets, and far slab + overflow heap; include
        // same-timestamp runs whose FIFO order rides on `seq`.
        let horizon = SLICE_NS * WHEEL_SLOTS as u64;
        let mut q = EventQueue::new();
        q.push(SimTime(100), NodeId(0), 0u32);
        q.push(SimTime(150), NodeId(1), 1);
        for i in 0..5 {
            q.push(SimTime(40_000), NodeId(2), 10 + i); // same-time burst
        }
        q.push(SimTime(horizon * 3 + 7), NodeId(3), 30); // far slab
        q.push(SimTime(horizon * 2 + 7), NodeId(3), 31); // far slab
        q.push(SimTime(9_000), NodeId(4), 40);
        assert_eq!(q.pop().unwrap().msg, 0, "warm the active run");

        let mut pending: Vec<(SimTime, u64, NodeId, u32)> = Vec::new();
        q.for_each_pending(|t, s, d, m| pending.push((t, s, d, *m)));
        assert_eq!(pending.len(), q.len());
        pending.sort_by_key(|(t, s, ..)| (*t, *s));

        let mut restored = EventQueue::new();
        for (t, s, d, m) in &pending {
            restored.push_keyed(*t, *s, *d, *m);
        }
        restored.set_next_seq(q.next_seq());
        assert_eq!(restored.len(), q.len());
        assert_eq!(restored.next_seq(), q.next_seq());

        // Interleave fresh pushes mid-drain: the restored queue must
        // assign them the same seqs and deliver identically.
        let drain = |q: &mut EventQueue<u32>| {
            let mut out = Vec::new();
            let mut pushed = false;
            while let Some(e) = q.pop() {
                out.push((e.time, e.seq, e.dst, e.msg));
                if !pushed && e.msg == 12 {
                    q.push(SimTime(40_000), NodeId(9), 99); // same-time late arrival
                    pushed = true;
                }
            }
            out
        };
        assert_eq!(drain(&mut restored), drain(&mut q));
    }

    #[test]
    fn calendar_heap_tracks_pending_events() {
        // A dense window of traffic — 2,048 pending events, 512 per slice,
        // each re-sent four slices ahead as it is delivered — sweeps the
        // ring three times. Calendar memory must follow that window: a
        // small multiple of the pending bytes plus one chunk per slot it
        // occupies, never one slice-sized buffer per slot it has visited
        // (4,096 slots × 512 entries).
        const PER_SLICE: u64 = 512;
        const AHEAD: u64 = 4;
        let gap = SLICE_NS / PER_SLICE;
        let entry = size_of::<Entry<u64>>();
        let mut q = EventQueue::new();
        for i in 0..PER_SLICE * AHEAD {
            q.push(SimTime(SLICE_NS + i * gap), NodeId(0), i);
        }
        let pending = q.len();
        let bound = 4 * pending * entry + (AHEAD as usize + 1) * CHUNK * entry;
        let mut peak = 0;
        let last_slice = 3 * WHEEL_SLOTS as u64;
        let mut last = SimTime::ZERO;
        while let Some(e) = q.pop() {
            assert!(e.time >= last, "delivered out of order");
            last = e.time;
            if e.time.0 >> SLICE_SHIFT <= last_slice {
                q.push(SimTime(e.time.0 + AHEAD * SLICE_NS), e.dst, e.msg);
            }
            assert!(q.len() <= pending);
            peak = peak.max(q.heap_bytes());
        }
        assert!(
            peak <= bound,
            "calendar held {peak} bytes for {pending} pending events (bound {bound})"
        );
    }

    /// The binary-heap calendar the wheel replaced, kept as the ordering
    /// oracle for the property test below.
    struct OracleQueue<M> {
        heap: BinaryHeap<HeapKey>,
        slots: Vec<Slot<M>>,
        free_head: u32,
        next_seq: u64,
    }

    impl<M> OracleQueue<M> {
        fn new() -> Self {
            OracleQueue {
                heap: BinaryHeap::new(),
                slots: Vec::new(),
                free_head: NIL,
                next_seq: 0,
            }
        }

        fn push(&mut self, time: SimTime, dst: NodeId, msg: M) {
            let seq = self.next_seq;
            self.next_seq += 1;
            let slot = if self.free_head != NIL {
                let s = self.free_head;
                match std::mem::replace(&mut self.slots[s as usize], Slot::Full(dst, msg)) {
                    Slot::Free(next) => self.free_head = next,
                    Slot::Full(..) => unreachable!(),
                }
                s
            } else {
                self.slots.push(Slot::Full(dst, msg));
                (self.slots.len() - 1) as u32
            };
            self.heap.push(HeapKey { time, seq, slot });
        }

        fn pop(&mut self) -> Option<Event<M>> {
            let key = self.heap.pop()?;
            let released = Slot::Free(self.free_head);
            match std::mem::replace(&mut self.slots[key.slot as usize], released) {
                Slot::Full(dst, msg) => {
                    self.free_head = key.slot;
                    Some(Event {
                        time: key.time,
                        seq: key.seq,
                        dst,
                        msg,
                    })
                }
                Slot::Free(..) => unreachable!(),
            }
        }

        fn pop_at_or_before(&mut self, t: SimTime) -> Option<Event<M>> {
            if self.heap.peek()?.time > t {
                return None;
            }
            self.pop()
        }

        fn peek_time(&self) -> Option<SimTime> {
            self.heap.peek().map(|k| k.time)
        }
    }

    mod oracle_props {
        use super::*;
        use proptest::prelude::*;
        use proptest::TestCaseError;

        /// One step of the interleaved push/pop script driven by proptest.
        #[derive(Clone, Debug)]
        enum Op {
            /// Push at `base + offset` where `base` is the time of the last
            /// popped event (keeps pushes roaming forward, like a run).
            Push { offset: u64 },
            /// Push a burst of `n` events all at the same timestamp.
            Burst { offset: u64, n: u8 },
            /// Push `n > CHUNK` events into one slice — a multi-chunk
            /// bucket — at `stride`-ns steps in *descending* time, so the
            /// earliest lands in the tail chunk (`stride` 0: one
            /// timestamp, FIFO across chunk boundaries).
            ChunkBurst { offset: u64, n: u16, stride: u64 },
            /// Check the pending multiset against the oracle, then rebuild
            /// the wheel from it through `push_keyed` (the checkpoint
            /// and shard-split path).
            Restore,
            /// Pop one event.
            Pop,
            /// Pop with a deadline `deadline_off` past the last popped time.
            PopBefore { deadline_off: u64 },
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                // Offsets cover: same-slice, adjacent-slice, deep in the
                // wheel window, and past the horizon (overflow + promotion;
                // the horizon is ~33.6 ms = 33_554_432 ns).
                (0u64..200_000_000u64).prop_map(|offset| Op::Push { offset }),
                ((0u64..50_000u64), (2u8..20u8)).prop_map(|(offset, n)| Op::Burst { offset, n }),
                chunk_burst(0u64..2_000_000u64),
                Just(Op::Pop),
                (0u64..100_000u64).prop_map(|deadline_off| Op::PopBefore { deadline_off }),
                Just(Op::Restore),
            ]
        }

        fn chunk_burst(offset: impl Strategy<Value = u64>) -> impl Strategy<Value = Op> {
            const MORE: u16 = CHUNK as u16 + 1;
            (offset, MORE..3 * MORE, 0u64..3).prop_map(|(offset, n, stride)| Op::ChunkBurst {
                offset,
                n,
                stride,
            })
        }

        /// The wheel/overflow boundary in nanoseconds: an event pushed at
        /// `cursor_time + HORIZON_NS` is the first to miss the ring.
        const HORIZON_NS: u64 = SLICE_NS * WHEEL_SLOTS as u64;

        /// Offsets biased hard onto that boundary: the exact edge ±1 ns,
        /// the last wheel slot, the first overflow slice, and within-slice
        /// jitter on either side.
        fn boundary_offset() -> impl Strategy<Value = u64> {
            prop_oneof![
                Just(HORIZON_NS - 1),
                Just(HORIZON_NS),
                Just(HORIZON_NS + 1),
                Just(HORIZON_NS - SLICE_NS),
                Just(HORIZON_NS + SLICE_NS),
                (HORIZON_NS - 2 * SLICE_NS)..(HORIZON_NS + 2 * SLICE_NS),
                (0u64..SLICE_NS).prop_map(|j| HORIZON_NS - SLICE_NS + j),
                (0u64..SLICE_NS).prop_map(|j| HORIZON_NS + j),
            ]
        }

        fn boundary_op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                boundary_offset().prop_map(|offset| Op::Push { offset }),
                (boundary_offset(), 2u8..8u8).prop_map(|(offset, n)| Op::Burst { offset, n }),
                chunk_burst(boundary_offset()),
                Just(Op::Pop),
                Just(Op::Restore),
                // Near deadlines advance the cursor up to (and just past)
                // earlier boundary pushes, forcing overflow promotion.
                (0u64..100_000u64).prop_map(|deadline_off| Op::PopBefore { deadline_off }),
                boundary_offset().prop_map(|deadline_off| Op::PopBefore { deadline_off }),
            ]
        }

        /// Every pending `(time, seq, payload)` of `q`, via
        /// `for_each_pending`, in `(time, seq)` order.
        fn pending_of(q: &EventQueue<u32>) -> Vec<(SimTime, u64, u32)> {
            let mut out = Vec::new();
            q.for_each_pending(|t, s, _, m| out.push((t, s, *m)));
            out.sort_unstable();
            out
        }

        /// The oracle's pending set, in the same form as [`pending_of`].
        fn oracle_pending(o: &OracleQueue<u32>) -> Vec<(SimTime, u64, u32)> {
            let mut out: Vec<_> = o
                .heap
                .iter()
                .map(|k| match &o.slots[k.slot as usize] {
                    Slot::Full(_, m) => (k.time, k.seq, *m),
                    Slot::Free(..) => unreachable!("oracle key points at an empty slot"),
                })
                .collect();
            out.sort_unstable();
            out
        }

        /// A calendar parked at `base`, as a long-running shard's is, with
        /// `pending` re-inserted through `push_keyed` in reverse
        /// delivery order.
        fn restored(pending: &[(SimTime, u64, u32)], base: u64, next_seq: u64) -> EventQueue<u32> {
            let mut q = EventQueue::new();
            q.push(SimTime(base), NodeId(0), 0);
            q.pop();
            for &(t, s, m) in pending.iter().rev() {
                q.push_keyed(t, s, NodeId(0), m);
            }
            q.set_next_seq(next_seq);
            q
        }

        /// Replay `ops` against both queues, checking every pop, peek and
        /// length along the way, then drain and compare the remainder.
        fn check_against_oracle(ops: &[Op]) -> Result<(), TestCaseError> {
            let mut wheel = EventQueue::new();
            let mut oracle = OracleQueue::new();
            let mut base = 0u64;
            let mut payload = 0u32;
            for op in ops {
                match *op {
                    Op::Push { offset } => {
                        let t = SimTime(base + offset);
                        wheel.push(t, NodeId(0), payload);
                        oracle.push(t, NodeId(0), payload);
                        payload += 1;
                    }
                    Op::Burst { offset, n } => {
                        let t = SimTime(base + offset);
                        for _ in 0..n {
                            wheel.push(t, NodeId(0), payload);
                            oracle.push(t, NodeId(0), payload);
                            payload += 1;
                        }
                    }
                    Op::ChunkBurst { offset, n, stride } => {
                        for i in 0..u64::from(n) {
                            let t = SimTime(base + offset + (u64::from(n) - 1 - i) * stride);
                            wheel.push(t, NodeId(0), payload);
                            oracle.push(t, NodeId(0), payload);
                            payload += 1;
                        }
                    }
                    Op::Restore => {
                        let pending = pending_of(&wheel);
                        prop_assert_eq!(&pending, &oracle_pending(&oracle));
                        wheel = restored(&pending, base, wheel.next_seq());
                    }
                    Op::Pop => {
                        let a = wheel.pop();
                        let b = oracle.pop();
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(x), Some(y)) = (a, b) {
                            prop_assert_eq!(x.time, y.time);
                            prop_assert_eq!(x.seq, y.seq);
                            prop_assert_eq!(x.msg, y.msg);
                            base = x.time.0;
                        }
                    }
                    Op::PopBefore { deadline_off } => {
                        let t = SimTime(base + deadline_off);
                        let a = wheel.pop_at_or_before(t);
                        let b = oracle.pop_at_or_before(t);
                        prop_assert_eq!(a.is_some(), b.is_some());
                        if let (Some(x), Some(y)) = (a, b) {
                            prop_assert_eq!(x.time, y.time);
                            prop_assert_eq!(x.seq, y.seq);
                            prop_assert_eq!(x.msg, y.msg);
                            base = x.time.0;
                        }
                    }
                }
                prop_assert_eq!(wheel.peek_time(), oracle.peek_time());
                prop_assert_eq!(wheel.len(), oracle.heap.len());
            }
            // Drain: the full remaining sequence must match too.
            loop {
                let a = wheel.pop();
                let b = oracle.pop();
                match (a, b) {
                    (None, None) => break,
                    (Some(x), Some(y)) => {
                        prop_assert_eq!(x.time, y.time);
                        prop_assert_eq!(x.seq, y.seq);
                        prop_assert_eq!(x.msg, y.msg);
                    }
                    (a, b) => prop_assert!(
                        false,
                        "wheel {:?} vs oracle {:?}",
                        a.map(|e| e.time),
                        b.map(|e| e.time)
                    ),
                }
            }
            Ok(())
        }

        proptest! {
            /// The wheel delivers the exact sequence the binary heap
            /// delivers: same times, same seqs, same payloads, same
            /// `None`s — under arbitrary interleavings of pushes (near,
            /// far, same-timestamp bursts and bursts spanning several
            /// bucket chunks), both pop flavours, and rebuilds through
            /// `push_keyed`.
            #[test]
            fn wheel_matches_heap_oracle(
                ops in proptest::collection::vec(op_strategy(), 1..120)
            ) {
                check_against_oracle(&ops)?;
            }

            /// The same oracle equivalence with every push and deadline
            /// pinned to the wheel/overflow horizon: events landing on the
            /// last ring slot vs the first overflow slice, exact-edge ±1 ns
            /// timestamps, and cursor advances that promote overflow events
            /// back into the ring.
            #[test]
            fn wheel_matches_heap_oracle_at_the_horizon(
                ops in proptest::collection::vec(boundary_op_strategy(), 1..120)
            ) {
                check_against_oracle(&ops)?;
            }
        }
    }
}
