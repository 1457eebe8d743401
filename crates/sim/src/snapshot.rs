//! Engine checkpointing: serializable snapshots of complete engine state.
//!
//! A [`crate::Engine`] run is a pure function of `(topology, seed)`, so a
//! mid-run snapshot that captures *all* dynamic state — every node's
//! fields, every per-node RNG stream, the clock, and the exact pending
//! contents of the timer wheel (including far-future slab and overflow
//! heap occupants, with their `(time, seq)` ordering) — is enough to
//! resume the run and reproduce the uninterrupted event sequence
//! byte-for-byte. That hard contract is what `phantom resume` and the
//! trace-divergence bisector are built on.
//!
//! This module owns the *format-free* layer: node state is written
//! through a [`KvWriter`] (flat `key=value` tokens, values
//! percent-escaped, numeric fields in exact round-trip encodings) and
//! read back through a [`KvReader`]; messages cross the boundary via
//! [`SnapshotMessage`]. Rendering a snapshot into the versioned
//! `phantom-checkpoint/2` artifact (manifest, provenance, JSONL) is the
//! CLI's job — the engine neither reads nor writes JSON.
//!
//! Restores are *rebuild-then-overwrite*: the caller reconstructs the
//! topology the same deterministic way the original run did (same node
//! registration order, same static configuration), then
//! [`crate::Engine::restore`] overwrites the dynamic state. Static
//! fields (routes, link delays, parameter blocks) are therefore never
//! serialized — only what time evolves.

use std::collections::HashMap;

/// Exact round-trip rendering of an `f64`. Rust's `Display` prints the
/// shortest decimal string that parses back to the identical bit
/// pattern (for finite values), so `parse_f64(&fmt_f64(v)) == v`
/// bit-for-bit; non-finite values render as `NaN`/`inf`/`-inf`, which
/// `f64::from_str` accepts.
pub fn fmt_f64(v: f64) -> String {
    format!("{v}")
}

/// Parse an [`fmt_f64`] rendering back.
pub fn parse_f64(s: &str) -> Result<f64, String> {
    s.parse::<f64>().map_err(|e| format!("bad f64 {s:?}: {e}"))
}

/// Percent-escape a value so it survives the `key=value`-with-spaces
/// token format: `%`, space, `=` and ASCII control characters are
/// encoded as `%XX`. Everything else passes through.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        match b {
            b'%' | b' ' | b'=' => out.push_str(&format!("%{b:02X}")),
            0x00..=0x1F | 0x7F => out.push_str(&format!("%{b:02X}")),
            _ => out.push(b as char),
        }
    }
    out
}

/// Invert [`escape`].
pub fn unescape(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {s:?}"))?;
            let hv = u8::from_str_radix(
                std::str::from_utf8(hex).map_err(|_| format!("bad escape in {s:?}"))?,
                16,
            )
            .map_err(|_| format!("bad escape in {s:?}"))?;
            out.push(hv);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("escape decodes to invalid UTF-8 in {s:?}"))
}

/// Writer for one node's dynamic state: an ordered sequence of
/// `key=value` tokens separated by single spaces. Keys are plain
/// identifiers (optionally dotted via [`KvWriter::scope`]); values are
/// percent-escaped. Numeric encodings are exact: integers in decimal,
/// floats via [`fmt_f64`].
#[derive(Default)]
pub struct KvWriter {
    out: String,
    prefix: String,
}

impl KvWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    fn push_key(&mut self, key: &str) {
        debug_assert!(
            !key.contains([' ', '=']),
            "kv keys must be plain identifiers: {key:?}"
        );
        if !self.out.is_empty() {
            self.out.push(' ');
        }
        self.out.push_str(&self.prefix);
        self.out.push_str(key);
        self.out.push('=');
    }

    /// Write a string value (escaped).
    pub fn str(&mut self, key: &str, val: &str) {
        self.push_key(key);
        let escaped = escape(val);
        self.out.push_str(&escaped);
    }

    /// Write an unsigned integer.
    pub fn u64(&mut self, key: &str, val: u64) {
        self.push_key(key);
        self.out.push_str(&val.to_string());
    }

    /// Write a float with exact round-trip.
    pub fn f64(&mut self, key: &str, val: f64) {
        self.push_key(key);
        self.out.push_str(&fmt_f64(val));
    }

    /// Write a bool as `0`/`1`.
    pub fn bool(&mut self, key: &str, val: bool) {
        self.u64(key, u64::from(val));
    }

    /// Write a list of floats, comma-joined, each exact round-trip.
    pub fn f64_list(&mut self, key: &str, vals: &[f64]) {
        let joined = vals
            .iter()
            .map(|v| fmt_f64(*v))
            .collect::<Vec<_>>()
            .join(",");
        self.str(key, &joined);
    }

    /// Write a list of unsigned integers, comma-joined.
    pub fn u64_list(&mut self, key: &str, vals: &[u64]) {
        let joined = vals
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(",");
        self.str(key, &joined);
    }

    /// Write every key produced inside `f` under a `seg.` prefix —
    /// how composite nodes (a switch's ports, a port's allocator)
    /// namespace their sub-objects without colliding.
    pub fn scope(&mut self, seg: &str, f: impl FnOnce(&mut Self)) {
        let saved = self.prefix.len();
        self.prefix.push_str(seg);
        self.prefix.push('.');
        f(self);
        self.prefix.truncate(saved);
    }

    /// Finish, yielding the token string.
    pub fn finish(self) -> String {
        self.out
    }
}

/// Reader over a [`KvWriter`] token string. Typed getters fail loudly
/// (with the key name) on missing keys or malformed values — a
/// checkpoint that does not parse must never half-restore an engine.
pub struct KvReader {
    map: HashMap<String, String>,
    prefix: String,
}

impl KvReader {
    /// Parse a token string produced by [`KvWriter::finish`].
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut map = HashMap::new();
        for tok in text.split(' ').filter(|t| !t.is_empty()) {
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("malformed kv token {tok:?}"))?;
            if map.insert(k.to_string(), unescape(v)?).is_some() {
                return Err(format!("duplicate kv key {k:?}"));
            }
        }
        Ok(KvReader {
            map,
            prefix: String::new(),
        })
    }

    fn raw(&self, key: &str) -> Result<&str, String> {
        let full = format!("{}{key}", self.prefix);
        self.map
            .get(&full)
            .map(String::as_str)
            .ok_or_else(|| format!("missing kv key {full:?}"))
    }

    /// Read a string value.
    pub fn str(&self, key: &str) -> Result<String, String> {
        self.raw(key).map(str::to_string)
    }

    /// Read an unsigned integer.
    pub fn u64(&self, key: &str) -> Result<u64, String> {
        let raw = self.raw(key)?;
        raw.parse()
            .map_err(|e| format!("bad u64 {key}={raw:?}: {e}"))
    }

    /// Read a float.
    pub fn f64(&self, key: &str) -> Result<f64, String> {
        let raw = self.raw(key)?;
        parse_f64(raw).map_err(|e| format!("{key}: {e}"))
    }

    /// Read a bool written by [`KvWriter::bool`].
    pub fn bool(&self, key: &str) -> Result<bool, String> {
        match self.u64(key)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("bad bool {key}={other}")),
        }
    }

    /// Read a float list written by [`KvWriter::f64_list`].
    pub fn f64_list(&self, key: &str) -> Result<Vec<f64>, String> {
        let raw = self.str(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|t| parse_f64(t).map_err(|e| format!("{key}: {e}")))
            .collect()
    }

    /// Read an integer list written by [`KvWriter::u64_list`].
    pub fn u64_list(&self, key: &str) -> Result<Vec<u64>, String> {
        let raw = self.str(key)?;
        if raw.is_empty() {
            return Ok(Vec::new());
        }
        raw.split(',')
            .map(|t| {
                t.parse()
                    .map_err(|e| format!("bad u64 list item {key}={t:?}: {e}"))
            })
            .collect()
    }

    /// Read keys inside `f` under a `seg.` prefix, mirroring
    /// [`KvWriter::scope`].
    pub fn scope<T>(
        &mut self,
        seg: &str,
        f: impl FnOnce(&mut Self) -> Result<T, String>,
    ) -> Result<T, String> {
        let saved = self.prefix.len();
        self.prefix.push_str(seg);
        self.prefix.push('.');
        let out = f(self);
        self.prefix.truncate(saved);
        out
    }
}

/// A message type that can cross a checkpoint: encoded to a single-line
/// string and decoded back to an identical value. Implemented by each
/// simulation domain's message enum (`AtmMsg`, `TcpMsg`), which is what
/// lets the engine serialize the timer wheel's pending events.
pub trait SnapshotMessage: Sized {
    /// Render this message as a single-line string (no `\n`).
    fn encode(&self) -> String;
    /// Parse an [`SnapshotMessage::encode`] rendering back.
    fn decode(s: &str) -> Result<Self, String>;
}

impl SnapshotMessage for u32 {
    fn encode(&self) -> String {
        self.to_string()
    }
    fn decode(s: &str) -> Result<Self, String> {
        s.parse().map_err(|e| format!("bad u32 message {s:?}: {e}"))
    }
}

/// One node's serialized dynamic state within an [`EngineSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct NodeSnapshot {
    /// Dense engine node id.
    pub id: usize,
    /// `std::any::type_name` of the concrete node type — a restore into
    /// a rebuilt engine cross-checks this against the rebuilt arena.
    pub type_name: String,
    /// Raw xoshiro256++ state of the node's RNG stream.
    pub rng: [u64; 4],
    /// Sends the node has made so far: the low bits of the ordering key
    /// its next send takes (see [`crate::shard`]).
    pub send_seq: u64,
    /// The node's dynamic fields, as a [`KvWriter`] token string.
    pub state: String,
}

/// One pending calendar event within an [`EngineSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct EventSnapshot {
    /// Delivery time.
    pub time: crate::time::SimTime,
    /// Ordering key — the tie-break among equal times: the sender's
    /// minted key, or the insertion number of an event scheduled from
    /// outside any node. Preserved exactly so the restored calendar
    /// delivers the identical `(time, seq)` order.
    pub seq: u64,
    /// Destination node id.
    pub dst: usize,
    /// The payload, via [`SnapshotMessage::encode`].
    pub msg: String,
}

/// Complete dynamic state of an engine at one instant: clock, dispatch
/// count, calendar insertion counter, every node (state, RNG and send
/// count), and every pending event in `(time, seq)` order.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineSnapshot {
    /// Simulation clock at snapshot time.
    pub now: crate::time::SimTime,
    /// [`crate::Engine::events_processed`] at snapshot time.
    pub events_processed: u64,
    /// The calendar's next insertion number, the key of the next event
    /// scheduled from outside any node.
    pub next_seq: u64,
    /// Per-node dynamic state, dense id order.
    pub nodes: Vec<NodeSnapshot>,
    /// Pending events, ascending `(time, seq)`.
    pub events: Vec<EventSnapshot>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f64_round_trips_exactly() {
        for v in [
            0.0,
            -0.0,
            1.5,
            1.0 / 3.0,
            f64::MAX,
            f64::MIN_POSITIVE,
            5e-324, // smallest subnormal
            1.234_567_890_123_456_7e300,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ] {
            let back = parse_f64(&fmt_f64(v)).unwrap();
            assert_eq!(v.to_bits(), back.to_bits(), "{v} must round-trip");
        }
        assert!(parse_f64(&fmt_f64(f64::NAN)).unwrap().is_nan());
        assert!(parse_f64("nope").is_err());
    }

    #[test]
    fn escape_round_trips_awkward_strings() {
        for s in ["", "plain", "a b=c%d", "tab\there", "new\nline", "100%=x y"] {
            let esc = escape(s);
            assert!(!esc.contains(' ') && !esc.contains('=') && !esc.contains('\n'));
            assert_eq!(unescape(&esc).unwrap(), s);
        }
        assert!(unescape("%").is_err(), "truncated escape");
        assert!(unescape("%zz").is_err(), "non-hex escape");
    }

    #[test]
    fn kv_round_trips_typed_values_and_scopes() {
        let mut w = KvWriter::new();
        w.u64("count", 42);
        w.f64("rate", 1.0 / 3.0);
        w.bool("busy", true);
        w.str("name", "a b=c");
        w.f64_list("xs", &[1.5, -2.25, 0.1]);
        w.u64_list("ys", &[3, 1, 4]);
        w.f64_list("empty", &[]);
        w.scope("port0", |w| {
            w.u64("depth", 9);
            w.scope("alloc", |w| w.f64("macr", 123.456));
        });
        let text = w.finish();
        assert!(!text.contains('\n'));

        let mut r = KvReader::parse(&text).unwrap();
        assert_eq!(r.u64("count").unwrap(), 42);
        assert_eq!(r.f64("rate").unwrap().to_bits(), (1.0f64 / 3.0).to_bits());
        assert!(r.bool("busy").unwrap());
        assert_eq!(r.str("name").unwrap(), "a b=c");
        assert_eq!(r.f64_list("xs").unwrap(), vec![1.5, -2.25, 0.1]);
        assert_eq!(r.u64_list("ys").unwrap(), vec![3, 1, 4]);
        assert!(r.f64_list("empty").unwrap().is_empty());
        r.scope("port0", |r| {
            assert_eq!(r.u64("depth").unwrap(), 9);
            r.scope("alloc", |r| {
                assert_eq!(r.f64("macr").unwrap(), 123.456);
                Ok(())
            })
        })
        .unwrap();
        assert!(r.u64("missing").is_err());
    }

    #[test]
    fn kv_reader_rejects_malformed_input() {
        assert!(KvReader::parse("noequals").is_err());
        assert!(KvReader::parse("a=1 a=2").is_err(), "duplicate key");
        let r = KvReader::parse("n=notanumber").unwrap();
        assert!(r.u64("n").is_err());
        assert!(r.bool("n").is_err());
    }
}
