//! Reading `phantom-trace/1` JSONL: a dependency-free flat-object JSON
//! parser, event decoding, structural linting, and the file-analysis
//! entry points.
//!
//! Trace lines carry only scalar values, so the parser handles exactly
//! `{"key": string|number|true|false|null, ...}` — nested containers are
//! a lint error. Numbers are decoded with `str::parse::<f64>` (shortest
//! round-trip), so a replayed trace feeds the analyzer the *same bits*
//! the live probe saw.

use crate::stream::{AnalysisReport, AnalysisTargets, StreamingAnalyzer};
use phantom_metrics::manifest::{Manifest, TRACE_SCHEMA};
use phantom_sim::probe::{DropReason, ProbeEvent};
use std::path::Path;

/// One scalar JSON value on a trace line.
#[derive(Clone, Debug, PartialEq)]
pub enum Scalar {
    /// A string literal.
    Str(String),
    /// A number (JSON numbers are f64 here).
    Num(f64),
    /// `true`/`false`.
    Bool(bool),
    /// `null` (how the trace encodes NaN/infinite floats).
    Null,
}

impl Scalar {
    fn as_f64(&self) -> Option<f64> {
        match *self {
            Scalar::Num(v) => Some(v),
            Scalar::Null => Some(f64::NAN),
            _ => None,
        }
    }

    fn as_u32(&self) -> Option<u32> {
        match *self {
            Scalar::Num(v) if v >= 0.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX) => {
                Some(v as u32)
            }
            _ => None,
        }
    }
}

/// Parse one flat JSON object into (key, value) pairs in line order.
pub fn parse_flat_object(line: &str) -> Result<Vec<(String, Scalar)>, String> {
    let mut p = Parser {
        b: line.as_bytes(),
        i: 0,
    };
    let pairs = p.object()?;
    p.skip_ws();
    if p.i != p.b.len() {
        return Err(format!("trailing bytes at offset {}", p.i));
    }
    Ok(pairs)
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && matches!(self.b[self.i], b' ' | b'\t' | b'\r' | b'\n') {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == c {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at offset {}", char::from(c), self.i))
        }
    }

    fn object(&mut self) -> Result<Vec<(String, Scalar)>, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == b'}' {
            self.i += 1;
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.eat(b':')?;
            self.skip_ws();
            pairs.push((key, self.scalar()?));
            self.skip_ws();
            match self.b.get(self.i) {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(pairs);
                }
                _ => return Err(format!("expected `,` or `}}` at offset {}", self.i)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.b.get(self.i) else {
                return Err("unterminated string".to_string());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&e) = self.b.get(self.i) else {
                        return Err("unterminated escape".to_string());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .b
                                .get(self.i..self.i + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("bad \\u escape")?;
                            let code =
                                u32::from_str_radix(hex, 16).map_err(|_| "bad \\u escape")?;
                            self.i += 4;
                            out.push(char::from_u32(code).ok_or("bad \\u codepoint")?);
                        }
                        other => return Err(format!("bad escape `\\{}`", char::from(other))),
                    }
                }
                _ => {
                    // Re-borrow as UTF-8: step back and take the full char.
                    self.i -= 1;
                    let s = std::str::from_utf8(&self.b[self.i..])
                        .map_err(|_| "invalid UTF-8".to_string())?;
                    let ch = s.chars().next().ok_or("unterminated string")?;
                    self.i += ch.len_utf8();
                    out.push(ch);
                }
            }
        }
    }

    fn scalar(&mut self) -> Result<Scalar, String> {
        match self.b.get(self.i) {
            Some(b'"') => Ok(Scalar::Str(self.string()?)),
            Some(b't') if self.b[self.i..].starts_with(b"true") => {
                self.i += 4;
                Ok(Scalar::Bool(true))
            }
            Some(b'f') if self.b[self.i..].starts_with(b"false") => {
                self.i += 5;
                Ok(Scalar::Bool(false))
            }
            Some(b'n') if self.b[self.i..].starts_with(b"null") => {
                self.i += 4;
                Ok(Scalar::Null)
            }
            Some(c) if c.is_ascii_digit() || *c == b'-' => {
                let start = self.i;
                while self.b.get(self.i).is_some_and(|c| {
                    c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                text.parse::<f64>()
                    .map(Scalar::Num)
                    .map_err(|_| format!("bad number `{text}`"))
            }
            Some(b'{') | Some(b'[') => Err("nested containers are not valid in a trace".into()),
            _ => Err(format!("expected a value at offset {}", self.i)),
        }
    }
}

fn get<'a>(pairs: &'a [(String, Scalar)], key: &str) -> Option<&'a Scalar> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn get_str<'a>(pairs: &'a [(String, Scalar)], key: &str) -> Result<&'a str, String> {
    match get(pairs, key) {
        Some(Scalar::Str(s)) => Ok(s),
        _ => Err(format!("missing string field `{key}`")),
    }
}

fn get_f64(pairs: &[(String, Scalar)], key: &str) -> Result<f64, String> {
    get(pairs, key)
        .and_then(Scalar::as_f64)
        .ok_or_else(|| format!("missing number field `{key}`"))
}

fn get_u32(pairs: &[(String, Scalar)], key: &str) -> Result<u32, String> {
    get(pairs, key)
        .and_then(Scalar::as_u32)
        .ok_or_else(|| format!("missing integer field `{key}`"))
}

/// Parse a trace's manifest line back into a [`Manifest`]. The schema
/// field must be [`TRACE_SCHEMA`].
pub fn parse_manifest_line(line: &str) -> Result<Manifest, String> {
    let pairs = parse_flat_object(line)?;
    let schema = get_str(&pairs, "schema")?;
    if schema != TRACE_SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{TRACE_SCHEMA}`"));
    }
    let seed = get_f64(&pairs, "seed")?;
    if !(seed >= 0.0 && seed.fract() == 0.0) {
        return Err("seed must be a non-negative integer".into());
    }
    Ok(Manifest {
        schema: schema.to_string(),
        scenario: get_str(&pairs, "scenario")?.to_string(),
        seed: seed as u64,
        config_hash: get_str(&pairs, "config_hash")?.to_string(),
        git_rev: get_str(&pairs, "git_rev")?.to_string(),
    })
}

/// Decode one event line to `(t_secs, node, event)`.
pub fn parse_event_line(line: &str) -> Result<(f64, usize, ProbeEvent), String> {
    let pairs = parse_flat_object(line)?;
    let t = get_f64(&pairs, "t")?;
    if !t.is_finite() || t < 0.0 {
        return Err("event time `t` must be a non-negative number".into());
    }
    let node = get_u32(&pairs, "node")? as usize;
    let kind = get_str(&pairs, "kind")?;
    let ev = match kind {
        "enqueue" => ProbeEvent::Enqueue {
            port: get_u32(&pairs, "port")?,
            qlen: get_u32(&pairs, "qlen")?,
        },
        "dequeue" => ProbeEvent::Dequeue {
            port: get_u32(&pairs, "port")?,
            qlen: get_u32(&pairs, "qlen")?,
        },
        "drop" => ProbeEvent::Drop {
            port: get_u32(&pairs, "port")?,
            qlen: get_u32(&pairs, "qlen")?,
            reason: match get_str(&pairs, "reason")? {
                "overflow" => DropReason::Overflow,
                "policy" => DropReason::Policy,
                "wire" => DropReason::Wire,
                other => return Err(format!("unknown drop reason `{other}`")),
            },
        },
        "macr" => ProbeEvent::MacrUpdate {
            port: get_u32(&pairs, "port")?,
            macr: get_f64(&pairs, "macr")?,
            delta: get_f64(&pairs, "delta")?,
            dev: get_f64(&pairs, "dev")?,
            gain: get_f64(&pairs, "gain")?,
        },
        "rm" => ProbeEvent::RmTurnaround {
            vc: get_u32(&pairs, "vc")?,
            er: get_f64(&pairs, "er")?,
            ci: match get(&pairs, "ci") {
                Some(&Scalar::Bool(b)) => b,
                _ => return Err("missing bool field `ci`".into()),
            },
        },
        "cwnd" => ProbeEvent::CwndChange {
            flow: get_u32(&pairs, "flow")?,
            cwnd: get_f64(&pairs, "cwnd")?,
            ssthresh: get_f64(&pairs, "ssthresh")?,
        },
        "session_start" => ProbeEvent::SessionStart {
            session: get_u32(&pairs, "session")?,
        },
        "session_stop" => ProbeEvent::SessionStop {
            session: get_u32(&pairs, "session")?,
        },
        other => return Err(format!("unknown event kind `{other}`")),
    };
    Ok((t, node, ev))
}

/// How a trace fails validation. Truncation (a final line cut mid-write,
/// the signature of a crashed or still-running producer) is distinct
/// from structural invalidity so callers can exit with different codes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LintError {
    /// The trace is structurally invalid at `line` (1-based).
    Invalid {
        /// 1-based line number.
        line: usize,
        /// What is wrong.
        msg: String,
    },
    /// The final line was cut mid-record (no closing `}`/newline).
    Truncated {
        /// 1-based line number of the partial record.
        line: usize,
        /// What is wrong.
        msg: String,
    },
}

impl std::fmt::Display for LintError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LintError::Invalid { line, msg } => write!(f, "line {line}: {msg}"),
            LintError::Truncated { line, msg } => {
                write!(f, "line {line}: truncated record: {msg}")
            }
        }
    }
}

/// Validate a trace: manifest first line, then fully-parsed events.
/// Returns the event count — an empty-but-valid trace (manifest line
/// only) is `Ok(0)`, not an error.
pub fn lint_trace_str(text: &str) -> Result<u64, LintError> {
    if text.is_empty() {
        return Err(LintError::Invalid {
            line: 1,
            msg: "empty file (no manifest line)".into(),
        });
    }
    let lines: Vec<&str> = text.lines().collect();
    // A producer that died mid-write leaves a final line without the
    // trailing newline `writeln!` always emits; flag it distinctly
    // unless the record still happens to be complete.
    let truncated_last = !text.ends_with('\n') && !lines.last().is_some_and(|l| l.ends_with('}'));
    let complete = if truncated_last {
        &lines[..lines.len() - 1]
    } else {
        &lines[..]
    };
    if let Some((first, rest)) = complete.split_first() {
        parse_manifest_line(first).map_err(|msg| LintError::Invalid { line: 1, msg })?;
        let mut events = 0u64;
        for (n, line) in rest.iter().enumerate() {
            parse_event_line(line).map_err(|msg| LintError::Invalid { line: n + 2, msg })?;
            events += 1;
        }
        if truncated_last {
            return Err(LintError::Truncated {
                line: lines.len(),
                msg: format!("`{}`", truncate_for_msg(lines.last().unwrap())),
            });
        }
        Ok(events)
    } else {
        // The only line in the file is itself truncated.
        Err(LintError::Truncated {
            line: 1,
            msg: format!("`{}`", truncate_for_msg(lines.first().unwrap_or(&""))),
        })
    }
}

fn truncate_for_msg(line: &str) -> &str {
    &line[..line.len().min(40)]
}

/// Analyze a whole trace string: manifest line, then one event per line.
pub fn analyze_trace_str(
    text: &str,
    targets: AnalysisTargets,
    window_secs: f64,
) -> Result<AnalysisReport, String> {
    let mut lines = text.lines();
    let first = lines.next().ok_or("empty trace")?;
    let manifest = parse_manifest_line(first).map_err(|e| format!("line 1: {e}"))?;
    let mut analyzer = StreamingAnalyzer::new(&manifest, targets, window_secs);
    for (n, line) in lines.enumerate() {
        let (t, node, ev) = parse_event_line(line).map_err(|e| format!("line {}: {e}", n + 2))?;
        analyzer.on_event(t, node, &ev);
    }
    Ok(analyzer.finish())
}

/// [`analyze_trace_str`] over a file.
pub fn analyze_trace_file(
    path: &Path,
    targets: AnalysisTargets,
    window_secs: f64,
) -> Result<AnalysisReport, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    analyze_trace_str(&text, targets, window_secs).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_sim::probe::event_to_json;
    use phantom_sim::{NodeId, SimTime};

    const MANIFEST: &str = "{\"schema\":\"phantom-trace/1\",\"scenario\":\"fig2\",\"seed\":1996,\"config_hash\":\"00ff\",\"git_rev\":\"unknown\"}";

    #[test]
    fn flat_parser_handles_scalars_and_escapes() {
        let pairs =
            parse_flat_object("{\"a\": 1.5e2, \"b\":\"x\\n\\u0041\", \"c\":true, \"d\":null}")
                .unwrap();
        assert_eq!(pairs[0], ("a".into(), Scalar::Num(150.0)));
        assert_eq!(pairs[1], ("b".into(), Scalar::Str("x\nA".into())));
        assert_eq!(pairs[2], ("c".into(), Scalar::Bool(true)));
        assert_eq!(pairs[3], ("d".into(), Scalar::Null));
        assert!(parse_flat_object("{\"a\":{}}").is_err(), "nested rejected");
        assert!(parse_flat_object("{\"a\":1} extra").is_err());
    }

    #[test]
    fn event_lines_round_trip_exactly() {
        // Every variant: emit with the probe writer, parse back, re-emit,
        // compare bytes. This pins the f64 round-trip the live-vs-file
        // identity depends on.
        let events = [
            ProbeEvent::Enqueue { port: 1, qlen: 7 },
            ProbeEvent::Dequeue { port: 0, qlen: 0 },
            ProbeEvent::Drop {
                port: 2,
                qlen: 99,
                reason: DropReason::Wire,
            },
            ProbeEvent::MacrUpdate {
                port: 0,
                macr: 1234.567891011,
                delta: -0.125,
                dev: f64::NAN,
                gain: 0.0625,
            },
            ProbeEvent::RmTurnaround {
                vc: 3,
                er: 1.0 / 3.0,
                ci: true,
            },
            ProbeEvent::CwndChange {
                flow: 1,
                cwnd: 10.5,
                ssthresh: 8.0,
            },
            ProbeEvent::SessionStart { session: 4 },
            ProbeEvent::SessionStop { session: 4 },
        ];
        for ev in &events {
            let line = event_to_json(SimTime::from_micros(123_457), NodeId(9), ev);
            let (t, node, parsed) = parse_event_line(&line).unwrap();
            let reline = event_to_json(SimTime::from_secs_f64(t), NodeId(node), &parsed);
            assert_eq!(line, reline, "round trip must be byte-exact");
            match (ev, &parsed) {
                (ProbeEvent::MacrUpdate { dev, .. }, ProbeEvent::MacrUpdate { dev: d2, .. }) => {
                    assert!(dev.is_nan() && d2.is_nan());
                }
                _ => assert_eq!(ev, &parsed),
            }
        }
    }

    #[test]
    fn manifest_round_trip() {
        let m = parse_manifest_line(MANIFEST).unwrap();
        assert_eq!(m.scenario, "fig2");
        assert_eq!(m.seed, 1996);
        assert_eq!(m.to_json(), MANIFEST);
        assert!(parse_manifest_line("{\"schema\":\"phantom-csv/1\"}").is_err());
    }

    #[test]
    fn lint_accepts_empty_but_valid_traces() {
        assert_eq!(lint_trace_str(&format!("{MANIFEST}\n")), Ok(0));
        let one = format!(
            "{MANIFEST}\n{{\"t\":0.1,\"node\":0,\"kind\":\"session_start\",\"session\":0}}\n"
        );
        assert_eq!(lint_trace_str(&one), Ok(1));
    }

    #[test]
    fn lint_distinguishes_truncation_from_invalidity() {
        // cut mid-record: distinct Truncated error
        let cut = format!("{MANIFEST}\n{{\"t\":0.1,\"node\":0,\"kind\":\"enq");
        assert!(matches!(
            lint_trace_str(&cut),
            Err(LintError::Truncated { line: 2, .. })
        ));
        // a complete final record merely missing the newline is fine
        let no_nl = format!(
            "{MANIFEST}\n{{\"t\":0.1,\"node\":0,\"kind\":\"session_start\",\"session\":0}}"
        );
        assert_eq!(lint_trace_str(&no_nl), Ok(1));
        // garbage mid-file: Invalid, with the right line number
        let bad = format!("{MANIFEST}\nnot json\n");
        assert!(matches!(
            lint_trace_str(&bad),
            Err(LintError::Invalid { line: 2, .. })
        ));
        // truncated manifest itself
        assert!(matches!(
            lint_trace_str("{\"schema\":\"phantom-tr"),
            Err(LintError::Truncated { line: 1, .. })
        ));
        // empty file is invalid, not truncated
        assert!(matches!(
            lint_trace_str(""),
            Err(LintError::Invalid { line: 1, .. })
        ));
    }

    #[test]
    fn analyze_trace_str_counts_events() {
        let text = format!(
            "{MANIFEST}\n{}\n{}\n",
            "{\"t\":0.001,\"node\":1,\"kind\":\"enqueue\",\"port\":0,\"qlen\":1}",
            "{\"t\":0.002,\"node\":1,\"kind\":\"dequeue\",\"port\":0,\"qlen\":0}"
        );
        let r = analyze_trace_str(&text, AnalysisTargets::default(), 0.05).unwrap();
        assert_eq!(r.events, 2);
        assert_eq!(r.manifest.schema, "phantom-analysis/1");
        assert_eq!(r.manifest.scenario, "fig2");
    }
}
