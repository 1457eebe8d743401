//! Reading `phantom-trace/1` JSONL: event decoding, structural linting,
//! and the file-analysis entry points.
//!
//! Every line goes through the workspace's one JSON reader,
//! [`Json::parse_line`], so errors name the line (and column) of the
//! file. A trace line is one flat object — `{"key": string|number|true|
//! false|null, ...}` — and a nested container is a lint error. Numbers
//! are decoded with `str::parse::<f64>` (shortest round-trip), so a
//! replayed trace feeds the analyzer the *same bits* the live probe saw.

use crate::stream::{AnalysisReport, AnalysisTargets, StreamingAnalyzer};
use phantom_metrics::json::Json;
use phantom_metrics::manifest::{Manifest, TRACE_SCHEMA};
use phantom_sim::probe::{DropReason, ProbeEvent};
use std::path::Path;

/// One trace line's members, with its line number in the file for
/// error messages. A trace line must be one flat object.
struct Line {
    no: usize,
    members: Vec<(String, Json)>,
}

impl Line {
    fn parse(text: &str, no: usize) -> Result<Line, String> {
        let Json::Obj(members) = Json::parse_line(text, no)? else {
            return Err(format!("line {no}: a trace line must be a JSON object"));
        };
        if let Some((key, _)) = members
            .iter()
            .find(|(_, v)| matches!(v, Json::Arr(_) | Json::Obj(_)))
        {
            return Err(format!(
                "line {no}: `{key}`: nested containers are not valid in a trace"
            ));
        }
        Ok(Line { no, members })
    }

    fn get(&self, key: &str) -> Option<&Json> {
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn missing(&self, what: &str, key: &str) -> String {
        format!("line {}: missing {what} field `{key}`", self.no)
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Json::as_str)
            .ok_or_else(|| self.missing("string", key))
    }

    /// A number; `null` (how the trace encodes NaN and infinities) reads
    /// as NaN.
    fn f64(&self, key: &str) -> Result<f64, String> {
        match self.get(key) {
            Some(Json::Num(v)) => Ok(*v),
            Some(Json::Null) => Ok(f64::NAN),
            _ => Err(self.missing("number", key)),
        }
    }

    fn u32(&self, key: &str) -> Result<u32, String> {
        match self.get(key) {
            Some(&Json::Num(v)) if v >= 0.0 && v.fract() == 0.0 && v <= f64::from(u32::MAX) => {
                Ok(v as u32)
            }
            _ => Err(self.missing("integer", key)),
        }
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.get(key)
            .and_then(Json::as_bool)
            .ok_or_else(|| self.missing("bool", key))
    }
}

/// Parse a trace's manifest line (line 1) back into a [`Manifest`].
/// The schema field must be [`TRACE_SCHEMA`]. Errors name the line.
pub fn parse_manifest_line(line: &str) -> Result<Manifest, String> {
    let l = Line::parse(line, 1)?;
    let schema = l.str("schema")?;
    if schema != TRACE_SCHEMA {
        return Err(format!(
            "line 1: schema is `{schema}`, expected `{TRACE_SCHEMA}`"
        ));
    }
    let seed = l.f64("seed")?;
    if !(seed >= 0.0 && seed.fract() == 0.0) {
        return Err("line 1: seed must be a non-negative integer".into());
    }
    Ok(Manifest {
        schema: schema.to_string(),
        scenario: l.str("scenario")?.to_string(),
        seed: seed as u64,
        config_hash: l.str("config_hash")?.to_string(),
        git_rev: l.str("git_rev")?.to_string(),
    })
}

/// Decode event line `line_no` of a trace to `(t_secs, node, event)`.
/// Errors name the line.
pub fn parse_event_line(line: &str, line_no: usize) -> Result<(f64, usize, ProbeEvent), String> {
    let l = Line::parse(line, line_no)?;
    let t = l.f64("t")?;
    if !t.is_finite() || t < 0.0 {
        return Err(format!(
            "line {line_no}: event time `t` must be a non-negative number"
        ));
    }
    let node = l.u32("node")? as usize;
    let ev = match l.str("kind")? {
        "enqueue" => ProbeEvent::Enqueue {
            port: l.u32("port")?,
            qlen: l.u32("qlen")?,
        },
        "dequeue" => ProbeEvent::Dequeue {
            port: l.u32("port")?,
            qlen: l.u32("qlen")?,
        },
        "drop" => ProbeEvent::Drop {
            port: l.u32("port")?,
            qlen: l.u32("qlen")?,
            reason: match l.str("reason")? {
                "overflow" => DropReason::Overflow,
                "policy" => DropReason::Policy,
                "wire" => DropReason::Wire,
                other => return Err(format!("line {line_no}: unknown drop reason `{other}`")),
            },
        },
        "macr" => ProbeEvent::MacrUpdate {
            port: l.u32("port")?,
            macr: l.f64("macr")?,
            delta: l.f64("delta")?,
            dev: l.f64("dev")?,
            gain: l.f64("gain")?,
        },
        "rm" => ProbeEvent::RmTurnaround {
            vc: l.u32("vc")?,
            er: l.f64("er")?,
            ci: l.bool("ci")?,
        },
        "cwnd" => ProbeEvent::CwndChange {
            flow: l.u32("flow")?,
            cwnd: l.f64("cwnd")?,
            ssthresh: l.f64("ssthresh")?,
        },
        "session_start" => ProbeEvent::SessionStart {
            session: l.u32("session")?,
        },
        "session_stop" => ProbeEvent::SessionStop {
            session: l.u32("session")?,
        },
        other => return Err(format!("line {line_no}: unknown event kind `{other}`")),
    };
    Ok((t, node, ev))
}

/// A trace's clock: event times never decrease, so a file that holds
/// several runs back to back (the clock restarts at each) is refused at
/// the first line that steps back.
#[derive(Default)]
struct Clock {
    t: f64,
    line: usize,
}

impl Clock {
    fn advance(&mut self, t: f64, line: usize) -> Result<(), String> {
        if t < self.t {
            return Err(format!(
                "line {line}: time `t` {t} steps back from {} on line {}",
                self.t, self.line
            ));
        }
        self.t = t;
        self.line = line;
        Ok(())
    }
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
        /// What is wrong, naming the line (and column, for bad JSON).
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
            LintError::Invalid { msg, .. } => f.write_str(msg),
            LintError::Truncated { line, msg } => {
                write!(f, "line {line}: truncated record: {msg}")
            }
        }
    }
}

/// Validate a trace: manifest first line, then fully-parsed events
/// whose times never decrease.
/// Returns the event count — an empty-but-valid trace (manifest line
/// only) is `Ok(0)`, not an error.
pub fn lint_trace_str(text: &str) -> Result<u64, LintError> {
    if text.is_empty() {
        return Err(LintError::Invalid {
            line: 1,
            msg: "line 1: empty file (no manifest line)".into(),
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
        let mut clock = Clock::default();
        for (n, line) in rest.iter().enumerate() {
            parse_event_line(line, n + 2)
                .and_then(|(t, ..)| clock.advance(t, n + 2))
                .map_err(|msg| LintError::Invalid { line: n + 2, msg })?;
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
/// A time that steps back is an error naming its line.
pub fn analyze_trace_str(
    text: &str,
    targets: AnalysisTargets,
    window_secs: f64,
) -> Result<AnalysisReport, String> {
    let mut lines = text.lines();
    let first = lines.next().ok_or("empty trace")?;
    let manifest = parse_manifest_line(first)?;
    let mut analyzer = StreamingAnalyzer::new(&manifest, targets, window_secs);
    let mut clock = Clock::default();
    for (n, line) in lines.enumerate() {
        let (t, node, ev) = parse_event_line(line, n + 2)?;
        clock.advance(t, n + 2)?;
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
    fn line_reader_takes_flat_objects_only() {
        let l = Line::parse(
            "{\"a\": 1.5e2, \"b\":\"x\\n\\u0041\", \"c\":true, \"d\":null}",
            7,
        )
        .unwrap();
        assert_eq!(l.f64("a"), Ok(150.0));
        assert_eq!(l.str("b"), Ok("x\nA"));
        assert_eq!(l.bool("c"), Ok(true));
        assert!(l.f64("d").unwrap().is_nan(), "null reads as NaN");
        assert_eq!(l.str("a").unwrap_err(), "line 7: missing string field `a`");
        for (bad, why) in [
            ("{\"a\":{}}", "nested containers"),
            ("{\"a\":[1]}", "nested containers"),
            ("{\"a\":1} extra", "line 7 col"),
            ("[1]", "must be a JSON object"),
        ] {
            let e = Line::parse(bad, 7).err().unwrap();
            assert!(e.starts_with("line 7") && e.contains(why), "{bad}: {e}");
        }
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
            let (t, node, parsed) = parse_event_line(&line, 2).unwrap();
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
    fn lint_and_analysis_refuse_a_clock_that_steps_back() {
        let ev =
            |t: f64| format!("{{\"t\":{t},\"node\":1,\"kind\":\"enqueue\",\"port\":0,\"qlen\":1}}");
        // Equal times are fine; the step back on line 4 is not.
        let text = format!("{MANIFEST}\n{}\n{}\n{}\n", ev(0.002), ev(0.002), ev(0.001));
        match lint_trace_str(&text) {
            Err(LintError::Invalid { line: 4, msg }) => {
                assert_eq!(
                    msg,
                    "line 4: time `t` 0.001 steps back from 0.002 on line 3"
                )
            }
            other => panic!("a restarted clock must not lint: {other:?}"),
        }
        let err = analyze_trace_str(&text, AnalysisTargets::default(), 0.05).unwrap_err();
        assert!(err.starts_with("line 4: time `t`"), "{err}");
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
