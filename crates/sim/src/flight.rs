//! Panic flight recorder: an actionable tail instead of a bare backtrace.
//!
//! When a run panics 50 million events deep, a backtrace says *where*
//! the engine died but not *what the simulation was doing*. Armed with
//! [`arm`], this module keeps a fixed-size ring of the most recent
//! semantic events (the [`crate::probe::RingProbe`] sink, fed by a
//! [`FlightProbe`] teed into the thread's probe chain) plus a rolling
//! engine-state snapshot (current sim-time, dispatch count, pending
//! calendar events, arena stats), and dumps everything to a post-mortem
//! JSONL file from a chained panic hook.
//!
//! The hook runs *before* unwinding — and before the process dies under
//! the release profile's `panic = "abort"` — on the panicking thread
//! itself, so the thread-local state it reads is exactly the crashed
//! run's. Runs that finish normally write nothing: dropping the
//! [`FlightGuard`] disarms the recorder.
//!
//! ## Dump format (`phantom-postmortem/1`)
//!
//! One JSON object per line, every line flat (parseable by the same
//! line-oriented parser as every other phantom artifact):
//!
//! 1. the provenance manifest (or a bare `{"schema": ...}` header),
//! 2. a `{"record":"snapshot", ...}` line with the panic message and
//!    engine state,
//! 3. one `{"record":"arena", ...}` line per typed arena,
//! 4. the retained ring tail, oldest first, as `{"record":"event", ...}`
//!    lines in `phantom-trace/1` field layout.
//!
//! Like the profiler, the recorder is always compiled and off by
//! default: disarmed, engines pay one thread-local check per run call;
//! armed, the dispatch loop updates the snapshot cursors once per
//! dispatch. Arming it changes neither the dispatch order nor the shard
//! count.
//!
//! ## Sharded runs
//!
//! Every shard worker's thread is armed with the same recorder, so a
//! panic in any shard writes the dump, with that shard's cursors. The
//! shared event ring is fed at epoch barriers, so the tail ends at the
//! last barrier (see `schemas/phantom-postmortem-v1.md`).

use crate::engine::{ArenaStats, NodeId};
use crate::probe::{event_to_json, Probe, ProbeEvent, RingProbe};
use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::fs;
use std::panic;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Once, TryLockError};

/// Default capacity of the retained event ring.
pub const DEFAULT_RING_CAP: usize = 256;

/// An armed recorder's state. A clone shares the event ring: a shard
/// worker's thread [`adopt`]s one, so its panic writes the same dump.
#[derive(Clone)]
pub(crate) struct FlightState {
    path: PathBuf,
    manifest: Option<String>,
    /// The event tail, shared with the shard workers of a sharded run.
    ring: Arc<Mutex<RingProbe>>,
    /// Configured ring depth, recorded in the dump's snapshot line so a
    /// post-mortem says how much tail it *could* have retained.
    ring_cap: usize,
    sim_time: SimTime,
    dispatches: u64,
    pending_events: usize,
    arenas: Vec<(&'static str, usize, usize)>,
}

thread_local! {
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static FLIGHT: RefCell<Option<FlightState>> = const { RefCell::new(None) };
}

static HOOK: Once = Once::new();

/// True when a flight recorder is armed on this thread. The engine
/// checks this once per run call, not per event.
#[inline]
pub fn armed() -> bool {
    ARMED.with(|f| f.get())
}

/// Arm the flight recorder: on panic, a post-mortem dump is written to
/// `path` (atomically: temp file + rename). `manifest_json` becomes the
/// dump's first line; `ring_cap` bounds the retained event tail. The
/// recorder disarms when the returned guard drops.
///
/// The panic hook is installed process-wide on first arm and chains to
/// the previous hook, so backtraces still print.
pub fn arm(path: &Path, manifest_json: Option<&str>, ring_cap: usize) -> FlightGuard {
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            dump_on_panic(info);
            prev(info);
        }));
    });
    FLIGHT.with(|f| {
        *f.borrow_mut() = Some(FlightState {
            path: path.to_path_buf(),
            manifest: manifest_json.map(str::to_string),
            ring: Arc::new(Mutex::new(RingProbe::new(ring_cap))),
            ring_cap,
            sim_time: SimTime::ZERO,
            dispatches: 0,
            pending_events: 0,
            arenas: Vec::new(),
        });
    });
    ARMED.with(|f| f.set(true));
    FlightGuard
}

/// Disarms the thread's flight recorder when dropped (without writing
/// anything — a completed run needs no post-mortem).
pub struct FlightGuard;

impl Drop for FlightGuard {
    fn drop(&mut self) {
        ARMED.with(|f| f.set(false));
        FLIGHT.with(|f| f.borrow_mut().take());
    }
}

/// A probe sink feeding the recorder's ring; tee it into the thread's
/// probe chain so the dump carries the last semantic events.
pub struct FlightProbe;

impl Probe for FlightProbe {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        FLIGHT.with(|f| {
            if let Some(st) = f.borrow_mut().as_mut() {
                let mut ring = st.ring.lock().unwrap_or_else(|e| e.into_inner());
                ring.on_event(t, node, ev);
            }
        });
    }
}

/// This thread's armed recorder, for a shard worker to [`adopt`].
pub(crate) fn share() -> Option<FlightState> {
    FLIGHT.with(|f| f.borrow().clone())
}

/// Arm this thread (a shard worker) with a recorder from [`share`]: a
/// panic here writes the dump with this thread's cursors and the shared
/// ring. Disarms when the guard drops.
pub(crate) fn adopt(st: FlightState) -> FlightGuard {
    FLIGHT.with(|f| *f.borrow_mut() = Some(st));
    ARMED.with(|f| f.set(true));
    FlightGuard
}

/// Record the arena layout at run start (called by the engine when it
/// starts a run with the recorder armed).
pub(crate) fn note_run_start(stats: &[ArenaStats]) {
    FLIGHT.with(|f| {
        if let Some(st) = f.borrow_mut().as_mut() {
            st.arenas = stats
                .iter()
                .map(|a| (a.type_name, a.nodes, a.bytes))
                .collect();
        }
    });
}

/// Update the rolling engine snapshot after one dispatch (or, on a
/// sharded run, one epoch).
#[inline]
pub(crate) fn note_dispatch(now: SimTime, dispatches: u64, pending: usize) {
    FLIGHT.with(|f| {
        if let Some(st) = f.borrow_mut().as_mut() {
            st.sim_time = now;
            st.dispatches = dispatches;
            st.pending_events = pending;
        }
    });
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn render_dump(st: &FlightState, panic_msg: &str) -> String {
    let mut out = String::new();
    match &st.manifest {
        Some(m) => out.push_str(m),
        None => out.push_str("{\"schema\":\"phantom-postmortem/1\"}"),
    }
    out.push('\n');
    // The hook may fire on a shard worker while another thread holds the
    // shared ring; then the tail is left out rather than waited for.
    let ring = match st.ring.try_lock() {
        Ok(r) => Some(r),
        Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
        Err(TryLockError::WouldBlock) => None,
    };
    let (seen, len) = ring
        .as_ref()
        .map_or((0, 0), |r| (r.seen(), r.events().count()));
    out.push_str(&format!(
        "{{\"record\":\"snapshot\",\"panic\":\"{}\",\"sim_secs\":{},\"dispatches\":{},\"pending_events\":{},\"ring_seen\":{},\"ring_len\":{},\"ring_cap\":{}}}\n",
        json_escape(panic_msg),
        st.sim_time.as_secs_f64(),
        st.dispatches,
        st.pending_events,
        seen,
        len,
        st.ring_cap,
    ));
    for &(name, nodes, bytes) in &st.arenas {
        out.push_str(&format!(
            "{{\"record\":\"arena\",\"type\":\"{}\",\"nodes\":{nodes},\"bytes\":{bytes}}}\n",
            json_escape(name)
        ));
    }
    for (t, node, ev) in ring.iter().flat_map(|r| r.events()) {
        let line = event_to_json(*t, *node, ev);
        // Tag the trace-format line as an event record.
        out.push_str("{\"record\":\"event\",");
        out.push_str(line.strip_prefix('{').unwrap_or(&line));
        out.push('\n');
    }
    out
}

fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(format!(".tmp{}", std::process::id()));
    let tmp = PathBuf::from(tmp);
    fs::write(&tmp, contents)?;
    fs::rename(&tmp, path)
}

fn dump_on_panic(info: &panic::PanicHookInfo<'_>) {
    if !armed() {
        return;
    }
    let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = info.payload().downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    };
    let msg = match info.location() {
        Some(loc) => format!("{msg} (at {}:{})", loc.file(), loc.line()),
        None => msg,
    };
    // try_borrow: if the panic fired while the recorder itself held the
    // state (e.g. inside FlightProbe), skip the dump rather than abort
    // with a nested panic.
    let _ = FLIGHT.try_with(|f| {
        if let Ok(guard) = f.try_borrow() {
            if let Some(st) = guard.as_ref() {
                let dump = render_dump(st, &msg);
                match write_atomic(&st.path, &dump) {
                    Ok(()) => eprintln!(
                        "flight recorder: post-mortem written to {}",
                        st.path.display()
                    ),
                    Err(e) => eprintln!(
                        "flight recorder: failed to write {}: {e}",
                        st.path.display()
                    ),
                }
            }
        }
    });
}

/// Render the current recorder state as a dump without panicking —
/// exercised by tests and usable for "dump on demand" diagnostics.
/// Returns `None` when the recorder is not armed.
pub fn dump_now(reason: &str) -> Option<String> {
    FLIGHT.with(|f| f.borrow().as_ref().map(|st| render_dump(st, reason)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::DropReason;

    #[test]
    fn disarmed_thread_reports_unarmed() {
        assert!(!armed());
        assert!(dump_now("x").is_none());
    }

    #[test]
    fn guard_arms_and_disarms() {
        let dir = std::env::temp_dir().join("phantom-flight-test");
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("pm.jsonl");
        {
            let _g = arm(&path, Some("{\"schema\":\"phantom-postmortem/1\"}"), 4);
            assert!(armed());
            note_dispatch(SimTime::from_millis(5), 42, 7);
            FlightProbe.on_event(
                SimTime::from_millis(4),
                NodeId(3),
                &ProbeEvent::Drop {
                    port: 1,
                    qlen: 9,
                    reason: DropReason::Overflow,
                },
            );
            let dump = dump_now("test reason").expect("armed recorder dumps");
            let lines: Vec<&str> = dump.lines().collect();
            assert!(lines[0].contains("phantom-postmortem/1"));
            assert!(lines[1].contains("\"record\":\"snapshot\""));
            assert!(lines[1].contains("\"panic\":\"test reason\""));
            assert!(lines[1].contains("\"dispatches\":42"));
            assert!(lines[1].contains("\"pending_events\":7"));
            assert!(lines[2].contains("\"record\":\"event\""));
            assert!(lines[2].contains("\"kind\":\"drop\""));
        }
        assert!(!armed());
    }

    #[test]
    fn ring_is_bounded() {
        let path = std::env::temp_dir().join("phantom-flight-ring.jsonl");
        let _g = arm(&path, None, 2);
        for i in 0..5 {
            FlightProbe.on_event(
                SimTime::from_millis(i),
                NodeId(0),
                &ProbeEvent::SessionStart { session: i as u32 },
            );
        }
        let dump = dump_now("r").unwrap();
        let events: Vec<&str> = dump
            .lines()
            .filter(|l| l.contains("\"record\":\"event\""))
            .collect();
        assert_eq!(events.len(), 2, "ring keeps only the most recent");
        assert!(events[1].contains("\"session\":4"));
        assert!(dump.contains("\"ring_seen\":5"));
        assert!(dump.contains("\"ring_cap\":2"), "snapshot records depth");
    }

    #[test]
    fn an_adopting_thread_dumps_with_the_shared_ring() {
        // A shard worker's panic: the worker thread adopts the armed
        // recorder of the thread that started the run, and its panic
        // writes the dump with its own cursors and the shared ring.
        let dir = std::env::temp_dir().join(format!("phantom-flight-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("adopt.pm.jsonl");
        let _ = fs::remove_file(&path);
        let _g = arm(&path, None, 8);
        FlightProbe.on_event(
            SimTime::from_millis(1),
            NodeId(5),
            &ProbeEvent::SessionStart { session: 77 },
        );
        let share = share().expect("armed thread shares its recorder");
        let worker = std::thread::spawn(move || {
            std::panic::catch_unwind(move || {
                let _w = adopt(share);
                assert!(armed());
                note_dispatch(SimTime::from_millis(3), 500, 4);
                panic!("shard failure");
            })
            .is_err()
        });
        assert!(worker.join().unwrap(), "the worker panicked");
        let dump = fs::read_to_string(&path).expect("the worker's hook wrote the dump");
        assert!(dump.contains("\"panic\":\"shard failure"));
        assert!(dump.contains("\"dispatches\":500"));
        assert!(dump.contains("\"session\":77"), "the shared ring's tail");
        assert!(armed(), "the adopting thread's guard leaves this one armed");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn escapes_panic_messages() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn panic_hook_writes_the_dump() {
        // Tests run with the unwind panic runtime, so the hook fires and
        // the thread survives via catch_unwind. Under the release
        // profile's panic=abort the same hook runs just before the
        // process dies.
        let dir = std::env::temp_dir().join(format!("phantom-flight-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("hook.pm.jsonl");
        let _ = fs::remove_file(&path);
        let path2 = path.clone();
        let result = std::panic::catch_unwind(move || {
            let _g = arm(&path2, None, 8);
            note_dispatch(SimTime::from_secs(2), 1000, 3);
            panic!("synthetic failure");
        });
        assert!(result.is_err());
        let dump = fs::read_to_string(&path).expect("hook wrote the post-mortem");
        assert!(dump.contains("\"panic\":\"synthetic failure"));
        assert!(dump.contains("\"dispatches\":1000"));
        assert!(!armed(), "unwinding the guard disarms the recorder");
        let _ = fs::remove_file(&path);
    }
}
