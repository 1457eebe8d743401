//! Property-based tests of the simulation kernel's invariants.

use phantom_sim::event::EventQueue;
use phantom_sim::fifo::{BoundedFifo, EnqueueResult};
use phantom_sim::rng::derive_seed;
use phantom_sim::stats::{Histogram, TimeSeries};
use phantom_sim::{Ctx, Engine, Node, NodeId, SimTime};
use proptest::prelude::*;

/// Minimal arena occupants for the id-stability property: three
/// distinct concrete types so adds interleave across three arenas.
struct TallyA {
    tag: u64,
    seen: u64,
}
struct TallyB {
    tag: u64,
    seen: u64,
}
struct TallyC {
    tag: u64,
    seen: u64,
}

macro_rules! tally_node {
    ($t:ty) => {
        impl Node<u64> for $t {
            fn on_event(&mut self, _ctx: &mut Ctx<'_, u64>, msg: u64) {
                self.seen += msg;
            }
        }
    };
}
tally_node!(TallyA);
tally_node!(TallyB);
tally_node!(TallyC);

proptest! {
    /// Events always pop in non-decreasing time order, FIFO among ties.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime(t), NodeId(0), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(ev) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(ev.time >= lt);
                if ev.time == lt {
                    prop_assert!(ev.msg > li, "FIFO violated among equal timestamps");
                }
            }
            last = Some((ev.time, ev.msg));
        }
    }

    /// FIFO conservation: arrivals = departures + drops + still queued,
    /// and order is preserved.
    #[test]
    fn fifo_conservation(
        cap in 1usize..50,
        ops in proptest::collection::vec(any::<bool>(), 1..500),
    ) {
        let mut q = BoundedFifo::new(cap);
        let mut model: std::collections::VecDeque<u32> = Default::default();
        let mut next = 0u32;
        for push in ops {
            if push {
                let r = q.push(next);
                if r == EnqueueResult::Accepted {
                    model.push_back(next);
                }
                next += 1;
            } else {
                prop_assert_eq!(q.pop(), model.pop_front());
            }
        }
        prop_assert_eq!(q.len(), model.len());
        prop_assert!(q.len() <= cap);
        prop_assert_eq!(q.arrivals(), q.departures() + q.drops() + q.len() as u64);
    }

    /// Histogram quantiles are monotone in q and bounded by the max.
    #[test]
    fn histogram_quantiles_monotone(
        vals in proptest::collection::vec(0.0f64..100.0, 1..200),
    ) {
        let mut h = Histogram::new(1.0, 64);
        for &v in &vals {
            h.record(v);
        }
        let qs = [0.1, 0.5, 0.9, 0.99, 1.0];
        let mut last = 0.0;
        for &q in &qs {
            let v = h.quantile(q);
            prop_assert!(v >= last - 1e-12, "quantiles must be monotone");
            last = v;
        }
        prop_assert!(h.quantile(1.0) <= h.max() + 1.0);
    }

    /// Derived seeds never collide for distinct stream indices under the
    /// same master (within a practical range).
    #[test]
    fn derived_seeds_distinct(master in any::<u64>(), a in 0u64..4096, b in 0u64..4096) {
        prop_assume!(a != b);
        prop_assert_ne!(derive_seed(master, a), derive_seed(master, b));
    }

    /// Arena-backed node ids stay stable under churn: interleaved
    /// registration across multiple concrete types grows each typed
    /// arena independently (reallocating its Vec underneath), yet the
    /// `id → node` mapping never moves — messages scheduled against an
    /// id *before* later growth land on the same node *after* it.
    #[test]
    fn arena_ids_stable_under_interleaved_growth(
        kinds in proptest::collection::vec(0u8..3, 1..150),
    ) {
        let mut e = Engine::<u64>::new(7);
        let mut expect: Vec<(u8, u64)> = Vec::new();
        for (i, &k) in kinds.iter().enumerate() {
            let tag = i as u64;
            let id = match k {
                0 => e.add_node(TallyA { tag, seen: 0 }),
                1 => e.add_node(TallyB { tag, seen: 0 }),
                _ => e.add_node(TallyC { tag, seen: 0 }),
            };
            // Ids are dense in registration order, independent of type.
            prop_assert_eq!(id, NodeId(i));
            expect.push((k, tag));
            // Scheduled now, delivered only after every later add: the
            // id must survive all intervening arena reallocations.
            e.schedule(SimTime(i as u64 + 1), id, tag + 1);
        }
        e.run_until(SimTime(kinds.len() as u64 + 1));
        for (i, &(k, tag)) in expect.iter().enumerate() {
            let id = NodeId(i);
            let (got_tag, seen) = match k {
                0 => { let n = e.node::<TallyA>(id); (n.tag, n.seen) }
                1 => { let n = e.node::<TallyB>(id); (n.tag, n.seen) }
                _ => { let n = e.node::<TallyC>(id); (n.tag, n.seen) }
            };
            prop_assert_eq!(got_tag, tag, "id {} resolved to a different node", i);
            prop_assert_eq!(seen, tag + 1, "message to id {} was misdelivered", i);
        }
        let stats = e.arena_stats();
        prop_assert!(stats.len() <= 3);
        prop_assert_eq!(stats.iter().map(|s| s.nodes).sum::<usize>(), kinds.len());
        prop_assert_eq!(e.node_count(), kinds.len());
    }

    /// Sample-and-hold lookup returns exactly the last sample at or
    /// before the query time.
    #[test]
    fn time_series_value_at_consistent(
        pts in proptest::collection::vec(0u64..10_000, 1..100),
    ) {
        let mut times = pts.clone();
        times.sort_unstable();
        let mut ts = TimeSeries::new();
        for (i, &t) in times.iter().enumerate() {
            ts.push(SimTime(t * 1000), i as f64);
        }
        // query at each sample time must return that sample's value (the
        // last one pushed at that timestamp)
        for (i, &t) in times.iter().enumerate() {
            let got = ts.value_at(t as f64 * 1000.0 / 1e9).unwrap();
            // duplicates: value_at returns the last of the equal group
            let expect = times.iter().rposition(|&x| x == t).unwrap() as f64;
            prop_assert!(got == expect || got >= i as f64);
        }
        prop_assert!(ts.value_at(-1.0).is_none());
    }
}

// ---------------------------------------------------------------------------
// Checkpoint/restore equivalence (PR 8)
// ---------------------------------------------------------------------------

use phantom_sim::{KvReader, KvWriter, SimDuration};
use rand::Rng;

/// ~33.6 ms: the timer wheel's near-future window. Delays beyond it land
/// in the far slab + overflow heap, which the snapshot must also carry.
const WHEEL_HORIZON_NS: u64 = 8192 * 4096;

/// A self-scheduling node that logs every delivery `(now_ns, msg)`,
/// consumes RNG words, and reschedules with a configured delay — so a
/// population of these exercises arbitrary interleavings of arenas,
/// wheel buckets and the far-future structures.
struct Pinger {
    /// Static config, rebuilt from scratch on restore: reschedule delay.
    delay_ns: u64,
    /// Static config: how many deliveries before this node goes quiet.
    limit: u32,
    // Dynamic state below — exactly what save/restore must carry.
    count: u32,
    log_t: Vec<u64>,
    log_m: Vec<u64>,
}

impl Pinger {
    fn new(delay_ns: u64, limit: u32) -> Self {
        Pinger {
            delay_ns,
            limit,
            count: 0,
            log_t: Vec::new(),
            log_m: Vec::new(),
        }
    }
}

/// A second concrete type with different dynamics (jittered delays), so
/// the engine holds at least two typed arenas and restore has to route
/// state back to the right one.
struct Jitterer {
    delay_ns: u64,
    limit: u32,
    count: u32,
    log_t: Vec<u64>,
    log_m: Vec<u64>,
}

macro_rules! checkpointed_pinger {
    ($t:ty, $jitter:expr) => {
        impl Node<u32> for $t {
            fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
                self.count += 1;
                self.log_t.push(ctx.now().0);
                self.log_m.push(msg as u64);
                let draw = ctx.rng().gen::<u64>();
                if self.count < self.limit {
                    let jitter = if $jitter { draw % 10_000 } else { 0 };
                    ctx.send_self(SimDuration::from_nanos(self.delay_ns + jitter), msg + 1);
                }
            }

            fn save_state(&self, w: &mut KvWriter) -> Result<(), String> {
                w.u64("count", self.count as u64);
                w.u64_list("log_t", &self.log_t);
                w.u64_list("log_m", &self.log_m);
                Ok(())
            }

            fn restore_state(&mut self, r: &mut KvReader) -> Result<(), String> {
                self.count = r.u64("count")? as u32;
                self.log_t = r.u64_list("log_t")?;
                self.log_m = r.u64_list("log_m")?;
                Ok(())
            }
        }
    };
}
checkpointed_pinger!(Pinger, false);
checkpointed_pinger!(Jitterer, true);

/// Build an engine from a delay spec: `(is_jitterer, delay_ns)` per
/// node. Rebuilding from the same spec models the CLI's
/// rebuild-then-restore flow: static config comes from the source,
/// dynamics from the checkpoint.
fn build(seed: u64, spec: &[(bool, u64)], limit: u32) -> Engine<u32> {
    let mut e = Engine::new(seed);
    for &(jitter, delay_ns) in spec {
        let id = if jitter {
            e.add_node(Jitterer {
                delay_ns,
                limit,
                count: 0,
                log_t: Vec::new(),
                log_m: Vec::new(),
            })
        } else {
            e.add_node(Pinger::new(delay_ns, limit))
        };
        e.schedule(SimTime(delay_ns % 7), id, 0);
    }
    e
}

/// Every node's delivery log, in node order — the "trace" the contract
/// compares.
fn logs(e: &Engine<u32>, spec: &[(bool, u64)]) -> Vec<(u32, Vec<u64>, Vec<u64>)> {
    spec.iter()
        .enumerate()
        .map(|(i, &(jitter, _))| {
            let id = NodeId(i);
            if jitter {
                let n = e.node::<Jitterer>(id);
                (n.count, n.log_t.clone(), n.log_m.clone())
            } else {
                let n = e.node::<Pinger>(id);
                (n.count, n.log_t.clone(), n.log_m.clone())
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The resume contract at the kernel level: for an arbitrary mix of
    /// node types and timer horizons (microseconds up to multi-second
    /// far-future delays), snapshotting after an arbitrary number of
    /// events and restoring into a freshly built engine reproduces the
    /// uninterrupted run exactly — same per-node delivery logs, same
    /// final clock, same event count, and a byte-identical final
    /// snapshot.
    #[test]
    fn snapshot_restore_matches_uninterrupted_run(
        seed in 0u64..1_000_000,
        spec in proptest::collection::vec(
            (any::<bool>(), prop_oneof![
                1_000u64..50_000,                       // near: active run / wheel
                1_000_000u64..10_000_000,               // mid-wheel
                40_000_000u64..2_000_000_000,           // far slab + overflow heap
            ]),
            2..5,
        ),
        cut in 1u64..39,
    ) {
        // At least spec.len()*limit >= 40 events run in total, and
        // cut < 40, so the snapshot always lands strictly mid-run (a
        // cap that outlives the run would advance the clock to the
        // `run_until_capped` bound instead of the last event).
        let limit = 20;

        let mut reference = build(seed, &spec, limit);
        reference.run_to_completion(u64::MAX);
        let want_logs = logs(&reference, &spec);
        let want_final = reference.snapshot().expect("reference snapshot");

        let mut first = build(seed, &spec, limit);
        first.run_until_capped(SimTime::MAX, cut);
        let snap = first.snapshot().expect("mid-run snapshot");

        let mut resumed = build(seed, &spec, limit);
        resumed.restore(&snap).expect("restore");
        prop_assert_eq!(resumed.events_processed(), first.events_processed());
        resumed.run_to_completion(u64::MAX);

        prop_assert_eq!(logs(&resumed, &spec), want_logs,
            "per-node delivery logs must match the uninterrupted run");
        let got_final = resumed.snapshot().expect("resumed snapshot");
        prop_assert_eq!(got_final, want_final,
            "final engine state must be byte-identical");
    }
}

/// Pin the far-future coverage the property relies on: with multi-second
/// reschedules in play, a mid-run snapshot must actually carry events
/// beyond the wheel window (far slab + overflow heap occupants), and
/// restoring must land them at the right instants.
#[test]
fn snapshot_carries_far_slab_and_overflow_occupants() {
    let spec = [
        (false, 6_000u64),
        (true, 500_000_000),
        (false, 1_999_999_937),
    ];
    let limit = 12;
    let mut e = build(7, &spec, limit);
    e.run_until_capped(SimTime::MAX, 8);
    let snap = e.snapshot().expect("snapshot");
    let far = snap
        .events
        .iter()
        .filter(|ev| ev.time.0 > snap.now.0 + WHEEL_HORIZON_NS)
        .count();
    assert!(
        far >= 2,
        "snapshot must include far-future occupants (got {far} beyond the wheel window)"
    );

    let mut reference = build(7, &spec, limit);
    reference.run_to_completion(u64::MAX);

    let mut resumed = build(7, &spec, limit);
    resumed.restore(&snap).expect("restore");
    resumed.run_to_completion(u64::MAX);
    assert_eq!(logs(&resumed, &spec), logs(&reference, &spec));
    assert_eq!(resumed.now(), reference.now());
    assert_eq!(
        resumed.snapshot().unwrap(),
        reference.snapshot().unwrap(),
        "restored far-future events must replay byte-identically"
    );
}
