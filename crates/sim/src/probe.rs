//! Typed, zero-cost-when-disabled instrumentation.
//!
//! The engine's messages say what a node receives, not what it *means*.
//! This module makes the meaning observable: nodes announce semantic
//! events — a cell enqueued, a MACR update with its innards, an RM cell
//! turned around — through [`Ctx::emit`](crate::Ctx::emit), and pluggable
//! [`Probe`] sinks consume them. On a sharded run the workers buffer
//! their emissions and the coordinator replays them in the global
//! dispatch order, so every sink sees the same stream at any shard count.
//!
//! ## Zero cost when off
//!
//! Probes are installed per thread with [`install_thread_probe`]. The
//! emit path first checks a thread-local flag; when no probe is
//! installed, the event is never even constructed (the closure passed to
//! `emit` is not called) and the whole call reduces to one predictable
//! load-and-branch. The deep-calendar micro-bench guards this.
//!
//! ## Determinism
//!
//! Probes only observe. A run with any probe attached is byte-identical
//! to an untraced run — the workspace `trace_determinism` test enforces
//! this. Because the tap is thread-local, parallel sweeps (`--jobs N`)
//! give each worker its own probe and its own output file.

use crate::engine::NodeId;
use crate::time::SimTime;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::io::{self, Write};

/// One kind of semantic event, usable as a bitmask member of [`KindSet`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u16)]
pub enum ProbeKind {
    /// A cell/packet was accepted into a queue.
    Enqueue = 1 << 0,
    /// A cell/packet finished service and left its queue.
    Dequeue = 1 << 1,
    /// A cell/packet was dropped (tail, policy or wire).
    Drop = 1 << 2,
    /// A rate allocator updated its MACR estimate.
    MacrUpdate = 1 << 3,
    /// A destination turned a forward RM cell around.
    RmTurnaround = 1 << 4,
    /// A TCP sender's cwnd/ssthresh changed.
    CwndChange = 1 << 5,
    /// A traffic session became active.
    SessionStart = 1 << 6,
    /// A traffic session went idle.
    SessionStop = 1 << 7,
}

impl ProbeKind {
    /// Stable lowercase name used in JSONL output and `--trace-filter`.
    pub fn name(self) -> &'static str {
        match self {
            ProbeKind::Enqueue => "enqueue",
            ProbeKind::Dequeue => "dequeue",
            ProbeKind::Drop => "drop",
            ProbeKind::MacrUpdate => "macr",
            ProbeKind::RmTurnaround => "rm",
            ProbeKind::CwndChange => "cwnd",
            ProbeKind::SessionStart => "session_start",
            ProbeKind::SessionStop => "session_stop",
        }
    }
}

/// A set of [`ProbeKind`]s, e.g. parsed from a `--trace-filter` list.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KindSet(u16);

impl KindSet {
    /// Every kind.
    pub const ALL: KindSet = KindSet(0xff);
    /// No kind.
    pub const NONE: KindSet = KindSet(0);

    /// A set containing exactly `kind`.
    pub fn only(kind: ProbeKind) -> Self {
        KindSet(kind as u16)
    }

    /// Set union.
    pub fn with(self, kind: ProbeKind) -> Self {
        KindSet(self.0 | kind as u16)
    }

    /// Membership test.
    pub fn contains(self, kind: ProbeKind) -> bool {
        self.0 & kind as u16 != 0
    }

    /// Parse a comma-separated kind list: `enqueue`, `dequeue`, `drop`,
    /// `macr`, `rm`, `cwnd`, `session_start`, `session_stop`, plus the
    /// shorthands `session` (both session kinds), `queue` (enqueue +
    /// dequeue + drop) and `all`.
    pub fn parse(list: &str) -> Result<Self, String> {
        let mut set = KindSet::NONE;
        for raw in list.split(',') {
            let word = raw.trim();
            set = match word {
                "" => set,
                "all" => KindSet::ALL,
                "enqueue" => set.with(ProbeKind::Enqueue),
                "dequeue" => set.with(ProbeKind::Dequeue),
                "drop" => set.with(ProbeKind::Drop),
                "macr" => set.with(ProbeKind::MacrUpdate),
                "rm" => set.with(ProbeKind::RmTurnaround),
                "cwnd" => set.with(ProbeKind::CwndChange),
                "session_start" => set.with(ProbeKind::SessionStart),
                "session_stop" => set.with(ProbeKind::SessionStop),
                "session" => set
                    .with(ProbeKind::SessionStart)
                    .with(ProbeKind::SessionStop),
                "queue" => set
                    .with(ProbeKind::Enqueue)
                    .with(ProbeKind::Dequeue)
                    .with(ProbeKind::Drop),
                other => return Err(format!("unknown trace kind `{other}`")),
            };
        }
        Ok(set)
    }
}

impl Default for KindSet {
    fn default() -> Self {
        KindSet::ALL
    }
}

/// Why a cell/packet was dropped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropReason {
    /// The bounded queue was full (tail drop).
    Overflow,
    /// A queue discipline or selective-discard policy rejected it.
    Policy,
    /// Lost on the wire (configured link loss).
    Wire,
}

impl DropReason {
    /// Stable lowercase name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Overflow => "overflow",
            DropReason::Policy => "policy",
            DropReason::Wire => "wire",
        }
    }
}

/// A semantic event. All payloads are plain scalars so that domain crates
/// (ATM, TCP) can emit without this crate depending on them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProbeEvent {
    /// Accepted into the queue of `port`; `qlen` is the length after.
    Enqueue {
        /// Output-port index within the emitting node.
        port: u32,
        /// Queue length (items) after the enqueue.
        qlen: u32,
    },
    /// Left the queue of `port`; `qlen` is the length after.
    Dequeue {
        /// Output-port index within the emitting node.
        port: u32,
        /// Queue length (items) after the dequeue.
        qlen: u32,
    },
    /// Dropped at `port`.
    Drop {
        /// Output-port index within the emitting node.
        port: u32,
        /// Queue length (items) at the moment of the drop.
        qlen: u32,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A rate allocator finished a measurement interval.
    MacrUpdate {
        /// Output-port index within the emitting node.
        port: u32,
        /// New MACR estimate (cells/s or bytes/s, per domain).
        macr: f64,
        /// Residual-bandwidth error fed into the EWMA this interval.
        delta: f64,
        /// Mean absolute deviation of the estimator (NaN if untracked).
        dev: f64,
        /// Gain actually applied this interval (NaN if untracked).
        gain: f64,
    },
    /// A destination turned a forward RM cell around.
    RmTurnaround {
        /// Virtual circuit id.
        vc: u32,
        /// Explicit rate carried by the backward RM cell.
        er: f64,
        /// Congestion-indication bit on the backward cell.
        ci: bool,
    },
    /// A TCP sender's window state changed.
    CwndChange {
        /// Flow id.
        flow: u32,
        /// Congestion window, segments.
        cwnd: f64,
        /// Slow-start threshold, segments.
        ssthresh: f64,
    },
    /// A traffic session became active.
    SessionStart {
        /// Session (VC or flow) id.
        session: u32,
    },
    /// A traffic session went idle.
    SessionStop {
        /// Session (VC or flow) id.
        session: u32,
    },
}

impl ProbeEvent {
    /// The kind of this event.
    pub fn kind(&self) -> ProbeKind {
        match self {
            ProbeEvent::Enqueue { .. } => ProbeKind::Enqueue,
            ProbeEvent::Dequeue { .. } => ProbeKind::Dequeue,
            ProbeEvent::Drop { .. } => ProbeKind::Drop,
            ProbeEvent::MacrUpdate { .. } => ProbeKind::MacrUpdate,
            ProbeEvent::RmTurnaround { .. } => ProbeKind::RmTurnaround,
            ProbeEvent::CwndChange { .. } => ProbeKind::CwndChange,
            ProbeEvent::SessionStart { .. } => ProbeKind::SessionStart,
            ProbeEvent::SessionStop { .. } => ProbeKind::SessionStop,
        }
    }
}

/// A sink for semantic events.
pub trait Probe {
    /// Consume one event, delivered in deterministic simulation order.
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent);

    /// Flush any buffered output (called when the probe is uninstalled
    /// by [`take_thread_probe`] and at end of scope by harnesses).
    fn flush(&mut self) {}
}

thread_local! {
    static TAP_ON: Cell<bool> = const { Cell::new(false) };
    static TAP: RefCell<Option<Box<dyn Probe>>> = const { RefCell::new(None) };
}

/// Install `probe` as this thread's event tap, replacing (and returning)
/// any previous one. All engines running on this thread feed it.
pub fn install_thread_probe(probe: Box<dyn Probe>) -> Option<Box<dyn Probe>> {
    let prev = TAP.with(|t| t.borrow_mut().replace(probe));
    TAP_ON.with(|f| f.set(true));
    prev
}

/// Remove and return this thread's event tap, flushing it first. The
/// untraced fast path is restored.
pub fn take_thread_probe() -> Option<Box<dyn Probe>> {
    TAP_ON.with(|f| f.set(false));
    let mut probe = TAP.with(|t| t.borrow_mut().take());
    if let Some(p) = probe.as_mut() {
        p.flush();
    }
    probe
}

/// Run `f` with this thread's probe taken away, and put the probe back
/// afterwards, also when `f` panics. A harness that runs several
/// networks for one trace runs all but the first through this, so the
/// trace (and any analyzer on the probe) holds that first run alone.
pub fn without_thread_probe<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(Option<Box<dyn Probe>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            if let Some(p) = self.0.take() {
                install_thread_probe(p);
            }
        }
    }
    let _restore = Restore(take_thread_probe());
    f()
}

/// Flush this thread's probe (if any) without uninstalling it.
///
/// Checkpointing needs this: a checkpoint records the trace file's byte
/// offset at the snapshot instant, which is only meaningful once every
/// event up to that instant has reached the file.
pub fn flush_thread_probe() {
    TAP.with(|tap| {
        if let Some(p) = tap.borrow_mut().as_mut() {
            p.flush();
        }
    });
}

/// True when a probe is installed on this thread.
#[inline]
pub fn probe_enabled() -> bool {
    TAP_ON.with(|f| f.get())
}

/// Emit an event to this thread's probe, if any. `make` is only called
/// when a probe is installed, so the disabled path costs one predictable
/// thread-local load and branch.
#[inline]
pub fn emit(t: SimTime, node: NodeId, make: impl FnOnce() -> ProbeEvent) {
    if !probe_enabled() {
        return;
    }
    deliver(t, node, make());
}

#[cold]
#[inline(never)]
fn deliver(t: SimTime, node: NodeId, ev: ProbeEvent) {
    TAP.with(|tap| {
        if let Some(p) = tap.borrow_mut().as_mut() {
            p.on_event(t, node, &ev);
        }
    });
}

/// Render one event as a single-line JSON object (no trailing newline).
///
/// This is the record format of the `phantom-trace/1` schema: every line
/// has `t` (seconds), `node`, `kind`, plus kind-specific fields. A thin
/// wrapper over [`write_event_json`], for callers that want a `String`.
pub fn event_to_json(t: SimTime, node: NodeId, ev: &ProbeEvent) -> String {
    let mut out = Vec::with_capacity(128);
    write_event_json(&mut out, t, node, ev);
    String::from_utf8(out).expect("trace lines are ASCII")
}

/// Append one event's `phantom-trace/1` JSON object (no trailing
/// newline) to `out`.
///
/// The number formats (see `schemas/phantom-trace-v1.md`): `t` is the
/// shortest decimal of `ns / 1e9`, integers are plain, other floats use
/// Rust's shortest round-trip `Display` and non-finite floats are `null`.
/// None of them uses an exponent.
pub fn write_event_json(out: &mut Vec<u8>, t: SimTime, node: NodeId, ev: &ProbeEvent) {
    out.extend_from_slice(b"{\"t\":");
    push_secs(out, t);
    push_uint(out, b",\"node\":", node.0 as u64);
    out.extend_from_slice(b",\"kind\":\"");
    out.extend_from_slice(ev.kind().name().as_bytes());
    out.push(b'"');
    match *ev {
        ProbeEvent::Enqueue { port, qlen } | ProbeEvent::Dequeue { port, qlen } => {
            push_uint(out, b",\"port\":", port.into());
            push_uint(out, b",\"qlen\":", qlen.into());
        }
        ProbeEvent::Drop { port, qlen, reason } => {
            push_uint(out, b",\"port\":", port.into());
            push_uint(out, b",\"qlen\":", qlen.into());
            out.extend_from_slice(b",\"reason\":\"");
            out.extend_from_slice(reason.name().as_bytes());
            out.push(b'"');
        }
        ProbeEvent::MacrUpdate {
            port,
            macr,
            delta,
            dev,
            gain,
        } => {
            push_uint(out, b",\"port\":", port.into());
            push_f64(out, b",\"macr\":", macr);
            push_f64(out, b",\"delta\":", delta);
            push_f64(out, b",\"dev\":", dev);
            push_f64(out, b",\"gain\":", gain);
        }
        ProbeEvent::RmTurnaround { vc, er, ci } => {
            push_uint(out, b",\"vc\":", vc.into());
            push_f64(out, b",\"er\":", er);
            out.extend_from_slice(if ci {
                b",\"ci\":true"
            } else {
                b",\"ci\":false"
            });
        }
        ProbeEvent::CwndChange {
            flow,
            cwnd,
            ssthresh,
        } => {
            push_uint(out, b",\"flow\":", flow.into());
            push_f64(out, b",\"cwnd\":", cwnd);
            push_f64(out, b",\"ssthresh\":", ssthresh);
        }
        ProbeEvent::SessionStart { session } | ProbeEvent::SessionStop { session } => {
            push_uint(out, b",\"session\":", session.into());
        }
    }
    out.push(b'}');
}

/// Times below this many nanoseconds (about 52 days) print exactly as
/// `Display` of [`SimTime::as_secs_f64`]. Below 2^52 the `f64` nearest
/// `ns / 1e9` is under 2^23 s, so its ulp is at most 2^-30 s, finer than
/// the 1e-9 s step of `ns / 1e9`'s decimal. Every other decimal in the
/// value's rounding interval is then off that grid, so it has a digit
/// below 1e-9 and is longer; the shortest round-trip decimal `Display`
/// picks is the exact one.
const EXACT_SECS_BELOW_NS: u64 = 1 << 52;

/// `t` in seconds: the exact decimal of `ns / 1e9`, trailing zeros (and
/// a bare point) trimmed.
fn push_secs(out: &mut Vec<u8>, t: SimTime) {
    let ns = t.as_nanos();
    if ns >= EXACT_SECS_BELOW_NS {
        let _ = write!(out, "{}", t.as_secs_f64());
        return;
    }
    push_digits(out, ns / 1_000_000_000);
    let mut frac = ns % 1_000_000_000;
    if frac == 0 {
        return;
    }
    let mut len = 9;
    while frac.is_multiple_of(10) {
        frac /= 10;
        len -= 1;
    }
    let mut buf = [b'0'; 9];
    for slot in buf[..len].iter_mut().rev() {
        *slot = b'0' + (frac % 10) as u8;
        frac /= 10;
    }
    out.push(b'.');
    out.extend_from_slice(&buf[..len]);
}

/// `key` followed by `v` in plain decimal.
fn push_uint(out: &mut Vec<u8>, key: &[u8], v: u64) {
    out.extend_from_slice(key);
    push_digits(out, v);
}

fn push_digits(out: &mut Vec<u8>, mut v: u64) {
    let mut buf = [0u8; 20];
    let mut i = buf.len();
    loop {
        i -= 1;
        buf[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&buf[i..]);
}

/// `key` followed by `v` as a JSON value (`null` for NaN/infinite).
fn push_f64(out: &mut Vec<u8>, key: &[u8], v: f64) {
    out.extend_from_slice(key);
    if v.is_finite() {
        // Writing into a `Vec` cannot fail.
        let _ = write!(out, "{v}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// A probe writing one JSON object per line (`phantom-trace/1`).
///
/// If a manifest line is supplied it is written first, so every trace
/// file self-describes its provenance.
pub struct JsonlProbe<W: Write> {
    w: io::BufWriter<W>,
    /// The line being encoded, reused so an event costs no allocation.
    line: Vec<u8>,
    /// Events written (manifest line excluded).
    written: u64,
}

impl<W: Write> JsonlProbe<W> {
    /// A probe writing to `w`.
    pub fn new(w: W) -> Self {
        JsonlProbe {
            w: io::BufWriter::new(w),
            line: Vec::with_capacity(128),
            written: 0,
        }
    }

    /// A probe writing to `w`, with `manifest_json` (a single-line JSON
    /// object, typically `phantom_metrics::Manifest::to_json`) as the
    /// first record.
    pub fn with_manifest(w: W, manifest_json: &str) -> io::Result<Self> {
        let mut p = Self::new(w);
        writeln!(p.w, "{manifest_json}")?;
        Ok(p)
    }

    /// Events written so far (manifest line excluded).
    pub fn written(&self) -> u64 {
        self.written
    }
}

impl<W: Write> Probe for JsonlProbe<W> {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        // I/O errors deliberately do not panic mid-run (that would make
        // a full disk perturb the simulation's observable behavior only
        // via timing); the line is lost and `written` not incremented.
        self.line.clear();
        write_event_json(&mut self.line, t, node, ev);
        self.line.push(b'\n');
        if self.w.write_all(&self.line).is_ok() {
            self.written += 1;
        }
    }

    fn flush(&mut self) {
        let _ = self.w.flush();
    }
}

/// A bounded in-memory ring of the most recent events, for post-mortem
/// dumps when an assertion fails deep inside a run.
pub struct RingProbe {
    ring: VecDeque<(SimTime, NodeId, ProbeEvent)>,
    cap: usize,
    seen: u64,
}

impl RingProbe {
    /// A ring keeping the most recent `cap` events.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        RingProbe {
            ring: VecDeque::with_capacity(cap),
            cap,
            seen: 0,
        }
    }

    /// Total events observed (including ones already evicted).
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(SimTime, NodeId, ProbeEvent)> {
        self.ring.iter()
    }

    /// Render the retained events as JSONL (for a post-mortem dump).
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for (t, node, ev) in &self.ring {
            out.push_str(&event_to_json(*t, *node, ev));
            out.push('\n');
        }
        out
    }
}

impl Probe for RingProbe {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back((t, node, *ev));
        self.seen += 1;
    }
}

/// A probe passing through only events whose kind is in a [`KindSet`].
pub struct FilterProbe<P: Probe> {
    kinds: KindSet,
    inner: P,
}

impl<P: Probe> FilterProbe<P> {
    /// Wrap `inner`, forwarding only `kinds`.
    pub fn new(kinds: KindSet, inner: P) -> Self {
        FilterProbe { kinds, inner }
    }

    /// The wrapped probe.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: Probe> Probe for FilterProbe<P> {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        if self.kinds.contains(ev.kind()) {
            self.inner.on_event(t, node, ev);
        }
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// A probe fanning every event out to several sinks, in order.
#[derive(Default)]
pub struct TeeProbe {
    sinks: Vec<Box<dyn Probe>>,
}

impl TeeProbe {
    /// An empty tee.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a sink; returns `self` for chaining.
    pub fn and(mut self, sink: Box<dyn Probe>) -> Self {
        self.sinks.push(sink);
        self
    }
}

impl Probe for TeeProbe {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        for s in &mut self.sinks {
            s.on_event(t, node, ev);
        }
    }

    fn flush(&mut self) {
        for s in &mut self.sinks {
            s.flush();
        }
    }
}

/// A probe counting events per kind — cheap acceptance checks in tests.
#[derive(Default)]
pub struct CountingProbe {
    counts: [u64; 8],
}

impl CountingProbe {
    /// A fresh, all-zero counter probe.
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(kind: ProbeKind) -> usize {
        (kind as u16).trailing_zeros() as usize
    }

    /// Events of `kind` observed.
    pub fn count(&self, kind: ProbeKind) -> u64 {
        self.counts[Self::slot(kind)]
    }

    /// Events observed across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl Probe for CountingProbe {
    fn on_event(&mut self, _t: SimTime, _node: NodeId, ev: &ProbeEvent) {
        self.counts[Self::slot(ev.kind())] += 1;
    }
}

/// Uninstalls this thread's probe when dropped, restoring the fast path
/// even on panic/early return. Holds the flushed probe for inspection.
pub struct ProbeGuard;

impl ProbeGuard {
    /// Install `probe` for the lifetime of the returned guard.
    pub fn install(probe: Box<dyn Probe>) -> Self {
        install_thread_probe(probe);
        ProbeGuard
    }

    /// Uninstall early and recover the probe (flushed).
    pub fn take(self) -> Option<Box<dyn Probe>> {
        let p = take_thread_probe();
        std::mem::forget(self);
        p
    }
}

impl Drop for ProbeGuard {
    fn drop(&mut self) {
        let _ = take_thread_probe();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::rc::Rc;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The `format!`-based encoder that [`write_event_json`] replaced,
    /// kept as the byte-for-byte oracle.
    fn oracle_event_to_json(t: SimTime, node: NodeId, ev: &ProbeEvent) -> String {
        fn json_f64(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let head = format!("{{\"t\":{},\"node\":{}", json_f64(t.as_secs_f64()), node.0);
        let kind = ev.kind().name();
        match *ev {
            ProbeEvent::Enqueue { port, qlen } | ProbeEvent::Dequeue { port, qlen } => {
                format!("{head},\"kind\":\"{kind}\",\"port\":{port},\"qlen\":{qlen}}}")
            }
            ProbeEvent::Drop { port, qlen, reason } => format!(
                "{head},\"kind\":\"{kind}\",\"port\":{port},\"qlen\":{qlen},\"reason\":\"{}\"}}",
                reason.name()
            ),
            ProbeEvent::MacrUpdate {
                port,
                macr,
                delta,
                dev,
                gain,
            } => format!(
                "{head},\"kind\":\"{kind}\",\"port\":{port},\"macr\":{},\"delta\":{},\"dev\":{},\"gain\":{}}}",
                json_f64(macr),
                json_f64(delta),
                json_f64(dev),
                json_f64(gain)
            ),
            ProbeEvent::RmTurnaround { vc, er, ci } => format!(
                "{head},\"kind\":\"{kind}\",\"vc\":{vc},\"er\":{},\"ci\":{ci}}}",
                json_f64(er)
            ),
            ProbeEvent::CwndChange {
                flow,
                cwnd,
                ssthresh,
            } => format!(
                "{head},\"kind\":\"{kind}\",\"flow\":{flow},\"cwnd\":{},\"ssthresh\":{}}}",
                json_f64(cwnd),
                json_f64(ssthresh)
            ),
            ProbeEvent::SessionStart { session } | ProbeEvent::SessionStop { session } => {
                format!("{head},\"kind\":\"{kind}\",\"session\":{session}}}")
            }
        }
    }

    /// Encode through the new path, appending to a non-empty buffer so
    /// the encoder is also checked to only append.
    fn encode(t: SimTime, node: NodeId, ev: &ProbeEvent) -> String {
        let mut out = b"prefix".to_vec();
        write_event_json(&mut out, t, node, ev);
        assert!(out.starts_with(b"prefix"));
        String::from_utf8(out.split_off(6)).unwrap()
    }

    /// Floats the encoder must treat exactly like `Display`/`null`.
    const SPECIAL_F64: [f64; 12] = [
        0.0,
        -0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        5e-324,
        -2.5e-320,
        1e300,
        -1e300,
        f64::MAX,
        0.1,
    ];

    /// One event per kind (and per drop reason), built from the scalars
    /// `u` (ids), `f` (floats) and `ci`.
    fn every_kind(u: u32, f: [f64; 4], ci: bool) -> Vec<ProbeEvent> {
        let mut evs = vec![
            ProbeEvent::Enqueue { port: u, qlen: !u },
            ProbeEvent::Dequeue { port: !u, qlen: u },
            ProbeEvent::MacrUpdate {
                port: u,
                macr: f[0],
                delta: f[1],
                dev: f[2],
                gain: f[3],
            },
            ProbeEvent::RmTurnaround {
                vc: u,
                er: f[0],
                ci,
            },
            ProbeEvent::CwndChange {
                flow: u,
                cwnd: f[1],
                ssthresh: f[2],
            },
            ProbeEvent::SessionStart { session: u },
            ProbeEvent::SessionStop { session: !u },
        ];
        for reason in [DropReason::Overflow, DropReason::Policy, DropReason::Wire] {
            evs.push(ProbeEvent::Drop {
                port: u,
                qlen: u / 2,
                reason,
            });
        }
        evs
    }

    fn any_f64() -> impl Strategy<Value = f64> {
        prop_oneof![
            any::<u64>().prop_map(f64::from_bits),
            any::<f64>(),
            (0usize..SPECIAL_F64.len()).prop_map(|i| SPECIAL_F64[i]),
        ]
    }

    fn any_ns() -> impl Strategy<Value = u64> {
        prop_oneof![
            any::<u64>(),
            0u64..EXACT_SECS_BELOW_NS,
            (0u32..64, any::<u64>()).prop_map(|(bits, r)| r >> bits),
            (0u64..=u64::MAX / 1_000_000_000).prop_map(|s| s * 1_000_000_000),
            (0u64..2048).prop_map(|d| (EXACT_SECS_BELOW_NS - 1024).wrapping_add(d)),
            (0u64..2048).prop_map(|d| ((1u64 << 53) - 1024).wrapping_add(d)),
        ]
    }

    proptest! {
        #[test]
        fn write_event_json_matches_the_format_oracle(
            ns in any_ns(),
            node in prop_oneof![any::<usize>(), 0usize..1000, Just(usize::MAX)],
            u in any::<u32>(),
            f in (any_f64(), any_f64(), any_f64(), any_f64()),
            ci in any::<bool>(),
        ) {
            let (t, node) = (SimTime(ns), NodeId(node));
            for ev in every_kind(u, [f.0, f.1, f.2, f.3], ci) {
                prop_assert_eq!(encode(t, node, &ev), oracle_event_to_json(t, node, &ev));
                prop_assert_eq!(event_to_json(t, node, &ev), oracle_event_to_json(t, node, &ev));
            }
        }
    }

    #[test]
    fn encoder_matches_oracle_on_edge_values() {
        let mut times: Vec<u64> = vec![0, 1, 10, 999_999_999, u64::MAX, u64::MAX - 1];
        for s in [1u64, 2, 10, 86_400, 4_503_599, 18_446_744_073] {
            times.extend([
                s * 1_000_000_000 - 1,
                s * 1_000_000_000,
                s * 1_000_000_000 + 1,
            ]);
        }
        for bound in [EXACT_SECS_BELOW_NS, 1 << 53] {
            times.extend((0..=64).map(|d| bound - 32 + d));
        }
        // Every bit width, a few hundred values each.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for bits in 1..=64u32 {
            for _ in 0..300 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                times.push(x >> (64 - bits));
            }
        }
        let nodes = [0, 1, 9, 10, 4_294_967_295, usize::MAX];
        for (i, &ns) in times.iter().enumerate() {
            let node = NodeId(nodes[i % nodes.len()]);
            let f = SPECIAL_F64[i % SPECIAL_F64.len()];
            let g = SPECIAL_F64[(i / 7) % SPECIAL_F64.len()];
            for ev in every_kind(i as u32 ^ u32::MAX, [f, g, -f, 1.0 / g], i % 2 == 0) {
                assert_eq!(
                    encode(SimTime(ns), node, &ev),
                    oracle_event_to_json(SimTime(ns), node, &ev),
                    "t = {ns} ns"
                );
            }
        }
    }

    #[test]
    fn t_prints_as_plain_trimmed_seconds() {
        let ev = ProbeEvent::SessionStart { session: 0 };
        let t_of = |ns: u64| {
            let line = event_to_json(SimTime(ns), NodeId(0), &ev);
            line["{\"t\":".len()..line.find(',').unwrap()].to_string()
        };
        assert_eq!(t_of(0), "0");
        assert_eq!(t_of(1), "0.000000001");
        assert_eq!(t_of(1_500_000_000), "1.5");
        assert_eq!(t_of(3_000_000_000), "3");
        assert_eq!(t_of(123_456_789_012), "123.456789012");
    }

    /// A writer that accepts `room` bytes in total, then fails every
    /// write (after a final partial one) as a full disk would.
    struct FailingWriter {
        accepted: Rc<RefCell<Vec<u8>>>,
        room: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            let mut sink = self.accepted.borrow_mut();
            let n = buf.len().min(self.room - sink.len());
            if n == 0 && !buf.is_empty() {
                return Err(io::Error::other("disk full"));
            }
            sink.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_probe_survives_a_failing_writer() {
        let events: Vec<(SimTime, ProbeEvent)> = (0..2_000u32)
            .map(|i| {
                let ev = ProbeEvent::Enqueue {
                    port: i % 3,
                    qlen: i,
                };
                (SimTime(u64::from(i) * 2_731), ev)
            })
            .collect();
        let full: Vec<String> = events
            .iter()
            .map(|(t, ev)| event_to_json(*t, NodeId(7), ev) + "\n")
            .collect();
        for room in [0, 1, 100, 8_191, 8_192, 20_000, 60_000] {
            let accepted = Rc::new(RefCell::new(Vec::new()));
            let mut p = JsonlProbe::new(FailingWriter {
                accepted: Rc::clone(&accepted),
                room,
            });
            for (t, ev) in &events {
                p.on_event(*t, NodeId(7), ev);
            }
            p.flush();
            p.flush();
            let written = p.written() as usize;
            assert!(written < events.len(), "room {room}: some lines must fail");
            // Counted lines are whole lines in order; the sink holds a
            // prefix of them, so every line on disk was counted.
            let counted: String = full[..written].concat();
            let sink = accepted.borrow();
            assert!(counted.as_bytes().starts_with(&sink), "room {room}");
            assert_eq!(sink.len(), room.min(counted.len()), "room {room}");
            // Once the writer fails, the probe stops counting lines as
            // soon as its buffer is full.
            assert!(
                counted.len() <= room + 8 * 1024,
                "room {room}: {written} counted"
            );
        }
    }

    #[test]
    fn kindset_parse_round_trip() {
        let s = KindSet::parse("macr,drop").unwrap();
        assert!(s.contains(ProbeKind::MacrUpdate));
        assert!(s.contains(ProbeKind::Drop));
        assert!(!s.contains(ProbeKind::Enqueue));
        assert_eq!(KindSet::parse("all").unwrap(), KindSet::ALL);
        let q = KindSet::parse("queue").unwrap();
        assert!(q.contains(ProbeKind::Enqueue) && q.contains(ProbeKind::Drop));
        let sess = KindSet::parse("session").unwrap();
        assert!(sess.contains(ProbeKind::SessionStart) && sess.contains(ProbeKind::SessionStop));
        assert!(KindSet::parse("bogus").is_err());
    }

    #[test]
    fn emit_skips_construction_when_disabled() {
        assert!(!probe_enabled());
        let mut made = false;
        emit(t(1), NodeId(0), || {
            made = true;
            ProbeEvent::SessionStart { session: 0 }
        });
        assert!(!made, "event must not be constructed with no probe");
    }

    #[test]
    fn thread_tap_install_take() {
        let _ = take_thread_probe();
        install_thread_probe(Box::new(CountingProbe::new()));
        emit(t(1), NodeId(2), || ProbeEvent::Drop {
            port: 0,
            qlen: 3,
            reason: DropReason::Overflow,
        });
        emit(t(2), NodeId(2), || ProbeEvent::Enqueue { port: 0, qlen: 4 });
        let probe = take_thread_probe().unwrap();
        // Box<dyn Probe> has no downcast; re-route through a fresh probe
        // to check the tap is off instead.
        drop(probe);
        assert!(!probe_enabled());
        let mut made = false;
        emit(t(3), NodeId(2), || {
            made = true;
            ProbeEvent::Enqueue { port: 0, qlen: 1 }
        });
        assert!(!made);
    }

    #[test]
    fn ring_keeps_most_recent() {
        let mut ring = RingProbe::new(2);
        for i in 0..5u32 {
            ring.on_event(
                t(u64::from(i)),
                NodeId(0),
                &ProbeEvent::SessionStart { session: i },
            );
        }
        assert_eq!(ring.seen(), 5);
        let kept: Vec<u32> = ring
            .events()
            .map(|(_, _, ev)| match ev {
                ProbeEvent::SessionStart { session } => *session,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![3, 4]);
        assert_eq!(ring.dump_jsonl().lines().count(), 2);
    }

    #[test]
    fn filter_passes_only_selected_kinds() {
        let mut f = FilterProbe::new(KindSet::only(ProbeKind::MacrUpdate), CountingProbe::new());
        f.on_event(t(1), NodeId(0), &ProbeEvent::Enqueue { port: 0, qlen: 1 });
        f.on_event(
            t(2),
            NodeId(0),
            &ProbeEvent::MacrUpdate {
                port: 0,
                macr: 1.0,
                delta: 0.5,
                dev: 0.1,
                gain: 0.0625,
            },
        );
        let inner = f.into_inner();
        assert_eq!(inner.total(), 1);
        assert_eq!(inner.count(ProbeKind::MacrUpdate), 1);
    }

    #[test]
    fn without_thread_probe_hides_the_probe_and_always_restores_it() {
        struct Count(Rc<Cell<u32>>);
        impl Probe for Count {
            fn on_event(&mut self, _t: SimTime, _node: NodeId, _ev: &ProbeEvent) {
                self.0.set(self.0.get() + 1);
            }
        }
        let seen = Rc::new(Cell::new(0));
        let _guard = ProbeGuard::install(Box::new(Count(seen.clone())));
        let ev = ProbeEvent::SessionStart { session: 0 };
        without_thread_probe(|| emit(t(1), NodeId(0), || ev));
        assert_eq!(seen.get(), 0, "the hidden probe saw an event");
        let failed = std::panic::catch_unwind(|| without_thread_probe(|| panic!("run failed")));
        assert!(failed.is_err());
        emit(t(2), NodeId(0), || ev);
        assert_eq!(seen.get(), 1, "the probe was not put back after a panic");
    }

    #[test]
    fn tee_fans_out() {
        let mut tee = TeeProbe::new()
            .and(Box::new(CountingProbe::new()))
            .and(Box::new(RingProbe::new(4)));
        tee.on_event(t(1), NodeId(1), &ProbeEvent::Dequeue { port: 2, qlen: 0 });
        // Sinks are boxed away; the absence of panics plus flush coverage
        // is what this exercises.
        tee.flush();
    }

    #[test]
    fn jsonl_lines_are_valid_single_objects() {
        let mut buf = Vec::new();
        {
            let mut p =
                JsonlProbe::with_manifest(&mut buf, "{\"schema\":\"phantom-trace/1\"}").unwrap();
            p.on_event(
                t(1),
                NodeId(4),
                &ProbeEvent::MacrUpdate {
                    port: 1,
                    macr: 120.5,
                    delta: -3.5,
                    dev: f64::NAN,
                    gain: 0.0625,
                },
            );
            p.on_event(
                t(2),
                NodeId(4),
                &ProbeEvent::Drop {
                    port: 1,
                    qlen: 20,
                    reason: DropReason::Policy,
                },
            );
            p.flush();
            assert_eq!(p.written(), 2);
        }
        let text = String::from_utf8(buf).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("phantom-trace/1"));
        assert!(lines[1].contains("\"kind\":\"macr\""));
        assert!(lines[1].contains("\"dev\":null"), "NaN must encode as null");
        assert!(lines[2].contains("\"reason\":\"policy\""));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn guard_restores_fast_path_on_drop() {
        let _ = take_thread_probe();
        {
            let _g = ProbeGuard::install(Box::new(CountingProbe::new()));
            assert!(probe_enabled());
        }
        assert!(!probe_enabled());
    }
}
