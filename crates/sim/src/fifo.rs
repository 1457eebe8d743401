//! A bounded FIFO queue with drop and throughput accounting.
//!
//! Every switch output port and every router in the reproduction queues
//! through a [`BoundedFifo`]. Besides the queue itself it tracks the
//! counters each experiment reports: arrivals, departures, drops, and the
//! high-water mark.

use std::collections::VecDeque;

/// Outcome of an enqueue attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueResult {
    /// The item was accepted.
    Accepted,
    /// The queue was full; the item was dropped (tail drop).
    Dropped,
}

/// A bounded FIFO with accounting. `cap` is in items (cells or packets).
#[derive(Clone, Debug)]
pub struct BoundedFifo<T> {
    items: VecDeque<T>,
    cap: usize,
    arrivals: u64,
    departures: u64,
    drops: u64,
    high_water: usize,
}

impl<T> BoundedFifo<T> {
    /// A queue holding at most `cap` items.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "queue capacity must be positive");
        BoundedFifo {
            items: VecDeque::new(),
            cap,
            arrivals: 0,
            departures: 0,
            drops: 0,
            high_water: 0,
        }
    }

    /// Attempt to enqueue; tail-drops when full.
    pub fn push(&mut self, item: T) -> EnqueueResult {
        self.arrivals += 1;
        if self.items.len() >= self.cap {
            self.drops += 1;
            crate::telemetry::note_drop();
            return EnqueueResult::Dropped;
        }
        self.items.push_back(item);
        if self.items.len() > self.high_water {
            self.high_water = self.items.len();
            // Only on a new high-water mark, so the common enqueue pays
            // nothing for run-wide peak tracking.
            crate::telemetry::note_queue_depth(self.high_water);
        }
        EnqueueResult::Accepted
    }

    /// Record an arrival that the owner decided to drop *before* queueing
    /// (e.g. Selective Discard). Keeps arrival/drop accounting consistent.
    pub fn note_policy_drop(&mut self) {
        self.arrivals += 1;
        self.drops += 1;
        crate::telemetry::note_drop();
    }

    /// Dequeue the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        let item = self.items.pop_front();
        if item.is_some() {
            self.departures += 1;
        }
        item
    }

    /// Current queue length in items.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Capacity in items.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total arrivals (including dropped ones).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Total items dequeued.
    pub fn departures(&self) -> u64 {
        self.departures
    }

    /// Total drops (tail drops plus policy drops).
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// Largest queue length observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Heap bytes held by the item buffer (by capacity: a queue keeps
    /// the buffer of its deepest backlog).
    pub fn heap_bytes(&self) -> usize {
        self.items.capacity() * std::mem::size_of::<T>()
    }

    /// Iterate over queued items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.items.iter()
    }

    /// Serialize the queue contents and counters for a checkpoint.
    /// `enc` renders one item as a single-line string (typically a
    /// [`crate::snapshot::SnapshotMessage`] encoding). Capacity is
    /// static configuration and not written.
    pub fn save(&self, w: &mut crate::snapshot::KvWriter, mut enc: impl FnMut(&T) -> String) {
        w.u64("arrivals", self.arrivals);
        w.u64("departures", self.departures);
        w.u64("drops", self.drops);
        w.u64("high_water", self.high_water as u64);
        w.u64("len", self.items.len() as u64);
        for (i, item) in self.items.iter().enumerate() {
            w.str(&format!("q{i}"), &enc(item));
        }
    }

    /// Overwrite this queue from a [`BoundedFifo::save`] record. Items
    /// re-enter directly — the restore path deliberately bypasses
    /// [`BoundedFifo::push`] so no drop/telemetry accounting fires.
    pub fn restore(
        &mut self,
        r: &mut crate::snapshot::KvReader,
        mut dec: impl FnMut(&str) -> Result<T, String>,
    ) -> Result<(), String> {
        self.arrivals = r.u64("arrivals")?;
        self.departures = r.u64("departures")?;
        self.drops = r.u64("drops")?;
        self.high_water = r.u64("high_water")? as usize;
        let len = r.u64("len")? as usize;
        if len > self.cap {
            return Err(format!("{len} queued items exceed capacity {}", self.cap));
        }
        self.items.clear();
        for i in 0..len {
            self.items.push_back(dec(&r.str(&format!("q{i}"))?)?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order() {
        let mut q = BoundedFifo::new(10);
        for i in 0..5 {
            assert_eq!(q.push(i), EnqueueResult::Accepted);
        }
        let out: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn tail_drop_when_full() {
        let mut q = BoundedFifo::new(2);
        assert_eq!(q.push('a'), EnqueueResult::Accepted);
        assert_eq!(q.push('b'), EnqueueResult::Accepted);
        assert_eq!(q.push('c'), EnqueueResult::Dropped);
        assert_eq!(q.len(), 2);
        assert_eq!(q.drops(), 1);
        assert_eq!(q.arrivals(), 3);
    }

    #[test]
    fn accounting_is_consistent() {
        let mut q = BoundedFifo::new(3);
        for i in 0..10 {
            q.push(i);
        }
        while q.pop().is_some() {}
        assert_eq!(q.arrivals(), 10);
        assert_eq!(q.departures() + q.drops(), 10);
        assert_eq!(q.high_water(), 3);
    }

    #[test]
    fn policy_drop_counts_as_arrival_and_drop() {
        let mut q: BoundedFifo<u8> = BoundedFifo::new(4);
        q.note_policy_drop();
        assert_eq!(q.arrivals(), 1);
        assert_eq!(q.drops(), 1);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _q: BoundedFifo<u8> = BoundedFifo::new(0);
    }
}
