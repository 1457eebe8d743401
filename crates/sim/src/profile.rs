//! In-run engine profiler: where does the wall time go?
//!
//! The probes in [`crate::probe`] make the *simulated protocol*
//! observable; this module makes the *engine itself* observable. When
//! profiling is enabled, the engine's run loops attribute wall time and
//! event counts to three orthogonal views:
//!
//! * **per concrete node type** — one bucket per typed arena (the PR 6
//!   arena split), so a metro run can say "61% of the time is spent
//!   inside `AtmSwitch` dispatches";
//! * **per event kind** — via an optional message classifier installed
//!   with [`crate::Engine::set_event_classifier`] ("cell" vs the timer
//!   flavours vs admin commands);
//! * **per calendar phase** — time popping the wheel, and inside the
//!   cold `advance` path split into bitmap scan, overflow/far-slab
//!   promotion and the current-slice sort, plus wheel-occupancy and
//!   batching-efficiency counters.
//!
//! ## Cost model
//!
//! Profiling is off by default and *always compiled* — no feature flag,
//! no rebuild to turn it on. Disabled, the only cost is one predictable
//! thread-local load-and-branch per `run_until`/`run_to_completion`
//! call (not per event) plus one `Option` check per calendar push; the
//! engine micro-bench guards this. Enabled, the run loop takes two
//! monotonic-clock readings per event, chained so every nanosecond of
//! loop wall time is attributed to exactly one bucket: the interval
//! from the previous dispatch's end to the pop's return is calendar
//! time, the interval across the dispatch is the node's (and kind's)
//! self time. Totals therefore sum to the measured loop wall time by
//! construction.
//!
//! ## Determinism
//!
//! The profiler only reads clocks and bumps counters — the dispatch
//! order, RNG streams and every simulation-visible value are untouched.
//! A profiled run produces byte-identical traces and metrics to an
//! unprofiled one.
//!
//! ## Usage
//!
//! Harnesses bracket a run like [`crate::telemetry::begin_run`]:
//!
//! ```
//! use phantom_sim::{profile, Engine, SimTime};
//!
//! let marker = profile::begin_profile();
//! let mut e = Engine::<u32>::new(1);
//! e.run_until(SimTime::from_millis(1));
//! let report = marker.finish();
//! assert_eq!(report.dispatches, 0);
//! ```
//!
//! The thread-local request means scenario code that builds its engine
//! internally (the `repro` sweep) is profiled without plumbing; the
//! bracket is the one profiler switch.

use std::cell::{Cell, RefCell};

/// Counters and (while profiling) phase timings of the timer-wheel
/// calendar. Counter fields accumulate only while profiling is enabled;
/// `*_ns` fields are measured inside the cold `advance` path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalendarStats {
    /// Pushes that landed in the sorted active run (current slice).
    pub active_inserts: u64,
    /// Pushes that landed in a near-future wheel bucket.
    pub wheel_pushes: u64,
    /// Pushes past the wheel horizon: far-slab payload + overflow-heap key.
    pub far_pushes: u64,
    /// Cursor advances to a new occupied slice.
    pub advances: u64,
    /// Events promoted back from the overflow heap into the window.
    pub promoted: u64,
    /// Entries ordered by current-slice sorts, summed over advances.
    pub sorted_entries: u64,
    /// Sum over advances of the occupied-slot count (wheel occupancy).
    pub occupied_slices_sum: u64,
    /// Largest occupied-slot count seen at any advance.
    pub occupied_slices_max: u64,
    /// Total wall time inside `advance`.
    pub advance_ns: u64,
    /// `advance` phase: scanning the occupancy bitmap for the target slice.
    pub scan_ns: u64,
    /// `advance` phase: overflow-heap pops + far-slab claims.
    pub promote_ns: u64,
    /// `advance` phase: draining the cursor bucket and sorting the run.
    pub sort_ns: u64,
}

impl CalendarStats {
    fn merge(&mut self, o: &CalendarStats) {
        self.active_inserts += o.active_inserts;
        self.wheel_pushes += o.wheel_pushes;
        self.far_pushes += o.far_pushes;
        self.advances += o.advances;
        self.promoted += o.promoted;
        self.sorted_entries += o.sorted_entries;
        self.occupied_slices_sum += o.occupied_slices_sum;
        self.occupied_slices_max = self.occupied_slices_max.max(o.occupied_slices_max);
        self.advance_ns += o.advance_ns;
        self.scan_ns += o.scan_ns;
        self.promote_ns += o.promote_ns;
        self.sort_ns += o.sort_ns;
    }
}

/// Per-run-loop accumulator used by the engine's observed dispatch loop.
/// Arena buckets are indexed by arena id (a plain array access per
/// event); kind buckets are a tiny linear-probed list keyed by the
/// classifier's `&'static str` (pointer equality first, so the common
/// case is one comparison).
pub(crate) struct LoopProf {
    pub(crate) pop_ns: u64,
    pub(crate) wall_ns: u64,
    pub(crate) dispatches: u64,
    pub(crate) events: u64,
    arenas: Vec<(u64, u64)>,
    kinds: Vec<(&'static str, u64, u64)>,
}

impl LoopProf {
    pub(crate) fn new(n_arenas: usize) -> Self {
        LoopProf {
            pop_ns: 0,
            wall_ns: 0,
            dispatches: 0,
            events: 0,
            arenas: vec![(0, 0); n_arenas],
            kinds: Vec::new(),
        }
    }

    #[inline]
    pub(crate) fn note(&mut self, arena: usize, kind: &'static str, ns: u64, events: u64) {
        self.dispatches += 1;
        self.events += events;
        let a = &mut self.arenas[arena];
        a.0 += events;
        a.1 += ns;
        for k in &mut self.kinds {
            if std::ptr::eq(k.0, kind) || k.0 == kind {
                k.1 += events;
                k.2 += ns;
                return;
            }
        }
        self.kinds.push((kind, events, ns));
    }
}

thread_local! {
    static PROF_ON: Cell<bool> = const { Cell::new(false) };
    static COLLECT: RefCell<Collect> = RefCell::new(Collect::default());
}

#[derive(Default)]
struct Collect {
    wall_ns: u64,
    pop_ns: u64,
    dispatches: u64,
    events: u64,
    nodes: Vec<(&'static str, u64, u64)>,
    kinds: Vec<(&'static str, u64, u64)>,
    cal: CalendarStats,
}

fn merge_named(into: &mut Vec<(&'static str, u64, u64)>, name: &'static str, events: u64, ns: u64) {
    for e in into.iter_mut() {
        if std::ptr::eq(e.0, name) || e.0 == name {
            e.1 += events;
            e.2 += ns;
            return;
        }
    }
    into.push((name, events, ns));
}

/// True when a profile bracket is open on this thread. The engine
/// checks this once per run call, not per event.
#[inline]
pub fn enabled() -> bool {
    PROF_ON.with(|f| f.get())
}

/// Merge one engine run loop's accumulation into the thread collector.
pub(crate) fn merge_run(prof: LoopProf, cal: &CalendarStats, arena_names: &[&'static str]) {
    COLLECT.with(|c| {
        let mut c = c.borrow_mut();
        c.wall_ns += prof.wall_ns;
        c.pop_ns += prof.pop_ns;
        c.dispatches += prof.dispatches;
        c.events += prof.events;
        for (i, &(events, ns)) in prof.arenas.iter().enumerate() {
            if events > 0 || ns > 0 {
                merge_named(&mut c.nodes, arena_names[i], events, ns);
            }
        }
        for &(name, events, ns) in &prof.kinds {
            merge_named(&mut c.kinds, name, events, ns);
        }
        c.cal.merge(cal);
    });
}

/// One attribution bucket of a [`ProfileReport`]: a name, the events it
/// accounts for, and its self time in nanoseconds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileEntry {
    /// Bucket name: a concrete node type, an event kind, or a calendar
    /// phase.
    pub name: String,
    /// Events attributed to this bucket (coalesced work included; for
    /// calendar phases, the phase's own unit — pops, advances, promoted
    /// entries, sorted entries).
    pub events: u64,
    /// Wall time attributed to this bucket, nanoseconds.
    pub self_ns: u64,
}

/// The harvest of one profile bracket. Self-times are a partition of
/// the profiled loop wall time: `nodes` (equivalently `kinds`) plus
/// `phases` sum to `wall_ns` up to clock-reading granularity.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// Total wall time spent inside profiled run loops, nanoseconds.
    pub wall_ns: u64,
    /// Dispatches (calendar pops that delivered an event).
    pub dispatches: u64,
    /// Logical events processed, coalesced work included.
    pub events: u64,
    /// Self time per concrete node type, largest first.
    pub nodes: Vec<ProfileEntry>,
    /// Self time per event kind, largest first. Without a classifier
    /// every dispatch lands in the `"event"` bucket.
    pub kinds: Vec<ProfileEntry>,
    /// Self time per calendar phase: `calendar.pop` (wheel pops outside
    /// `advance`), `calendar.advance.scan`, `calendar.advance.promote`
    /// (overflow heap + far slab) and `calendar.advance.sort`.
    pub phases: Vec<ProfileEntry>,
    /// Raw calendar counters (push routing, occupancy, promotions).
    pub calendar: CalendarStats,
}

impl ProfileReport {
    /// Sum of all attributed self time (nodes + calendar phases),
    /// nanoseconds. Should be within clock granularity of `wall_ns`.
    pub fn attributed_ns(&self) -> u64 {
        self.nodes.iter().map(|e| e.self_ns).sum::<u64>()
            + self.phases.iter().map(|e| e.self_ns).sum::<u64>()
    }

    /// Batching efficiency: logical events per dispatched calendar
    /// event (1.0 when no coalescing happened).
    pub fn batching(&self) -> f64 {
        if self.dispatches == 0 {
            1.0
        } else {
            self.events as f64 / self.dispatches as f64
        }
    }

    /// Mean occupied wheel slots at cursor advances.
    pub fn occupied_mean(&self) -> f64 {
        if self.calendar.advances == 0 {
            0.0
        } else {
            self.calendar.occupied_slices_sum as f64 / self.calendar.advances as f64
        }
    }
}

/// Open profile bracket; see [`begin_profile`].
#[derive(Debug)]
pub struct ProfileMarker {
    prev: bool,
}

/// Start profiling every engine run on this thread and reset the
/// collector. Close the bracket with [`ProfileMarker::finish`] to stop
/// and harvest the [`ProfileReport`].
pub fn begin_profile() -> ProfileMarker {
    let prev = PROF_ON.with(|f| f.replace(true));
    COLLECT.with(|c| *c.borrow_mut() = Collect::default());
    ProfileMarker { prev }
}

impl ProfileMarker {
    /// Close the bracket: restore the previous profiling state and
    /// return everything collected since [`begin_profile`].
    pub fn finish(self) -> ProfileReport {
        PROF_ON.with(|f| f.set(self.prev));
        take_report()
    }
}

/// Take (and reset) everything collected on this thread without
/// touching the bracket state.
fn take_report() -> ProfileReport {
    let c = COLLECT.with(|c| std::mem::take(&mut *c.borrow_mut()));
    let mut nodes: Vec<ProfileEntry> = c
        .nodes
        .into_iter()
        .map(|(n, ev, ns)| ProfileEntry {
            name: n.to_string(),
            events: ev,
            self_ns: ns,
        })
        .collect();
    let mut kinds: Vec<ProfileEntry> = c
        .kinds
        .into_iter()
        .map(|(n, ev, ns)| ProfileEntry {
            name: n.to_string(),
            events: ev,
            self_ns: ns,
        })
        .collect();
    let by_time = |e: &ProfileEntry| (u64::MAX - e.self_ns, e.name.clone());
    nodes.sort_by_key(by_time);
    kinds.sort_by_key(by_time);
    let cal = c.cal;
    let phases = vec![
        ProfileEntry {
            name: "calendar.pop".to_string(),
            events: c.dispatches,
            self_ns: c.pop_ns.saturating_sub(cal.advance_ns),
        },
        ProfileEntry {
            name: "calendar.advance.scan".to_string(),
            events: cal.advances,
            self_ns: cal.scan_ns,
        },
        ProfileEntry {
            name: "calendar.advance.promote".to_string(),
            events: cal.promoted,
            self_ns: cal.promote_ns,
        },
        ProfileEntry {
            name: "calendar.advance.sort".to_string(),
            events: cal.sorted_entries,
            self_ns: cal.sort_ns,
        },
    ];
    ProfileReport {
        wall_ns: c.wall_ns,
        dispatches: c.dispatches,
        events: c.events,
        nodes,
        kinds,
        phases,
        calendar: cal,
    }
}

impl Drop for ProfileMarker {
    fn drop(&mut self) {
        // A dropped (unfinished) marker must not leave profiling stuck
        // on for unrelated later runs on this thread.
        PROF_ON.with(|f| f.set(self.prev));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bracket_toggles_and_resets() {
        assert!(!enabled());
        let m = begin_profile();
        assert!(enabled());
        let r = m.finish();
        assert!(!enabled());
        assert_eq!(r.dispatches, 0);
        assert_eq!(r.wall_ns, 0);
        assert_eq!(r.phases.len(), 4, "all calendar phases always present");
    }

    #[test]
    fn merge_accumulates_by_name() {
        let m = begin_profile();
        let mut p = LoopProf::new(2);
        p.note(0, "cell", 100, 1);
        p.note(1, "cell", 50, 2);
        p.note(0, "timer", 25, 1);
        p.pop_ns = 30;
        p.wall_ns = 205;
        let cal = CalendarStats {
            active_inserts: 3,
            advances: 1,
            advance_ns: 10,
            scan_ns: 4,
            promote_ns: 3,
            sort_ns: 3,
            ..CalendarStats::default()
        };
        merge_run(p, &cal, &["a::A", "b::B"]);
        let mut p2 = LoopProf::new(2);
        p2.note(0, "cell", 10, 1);
        p2.wall_ns = 10;
        merge_run(p2, &CalendarStats::default(), &["a::A", "b::B"]);
        let r = m.finish();
        assert_eq!(r.dispatches, 4);
        assert_eq!(r.events, 5);
        assert_eq!(r.wall_ns, 215);
        assert_eq!(r.nodes[0].name, "a::A");
        assert_eq!(r.nodes[0].self_ns, 135);
        assert_eq!(r.kinds[0].name, "cell");
        assert_eq!(r.kinds[0].events, 4);
        assert_eq!(r.kinds[0].self_ns, 160);
        // pop phase excludes time measured inside advance.
        assert_eq!(r.phases[0].name, "calendar.pop");
        assert_eq!(r.phases[0].self_ns, 20);
        assert!((r.batching() - 1.25).abs() < 1e-12);
        // nodes + phases partition wall time (here: 185 dispatch + 30 pop).
        assert_eq!(r.attributed_ns(), 215);
    }

    #[test]
    fn finish_restores_outer_bracket_state() {
        let outer = begin_profile();
        let inner = begin_profile();
        let _ = inner.finish();
        assert!(enabled(), "inner finish keeps the outer bracket open");
        let _ = outer.finish();
        assert!(!enabled());
    }
}
