//! `phantom diverge`: find the first divergent event between two traces
//! and, with checkpoints available, localize it to engine state.
//!
//! Two runs of the same `(topology, seed)` must produce byte-identical
//! traces; when they don't (a perturbed config, a nondeterminism bug, a
//! platform difference), the interesting question is *where the
//! trajectories first separate*. This streams both traces line by line,
//! reports the first differing line with a ring of preceding common
//! context, and — given a `--checkpoints` directory from run A — restores
//! the nearest prior checkpoint, replays it to just before the divergent
//! instant, and dumps the engine-state delta accumulated since the
//! checkpoint (per-node field changes, pending-event changes) as a
//! `phantom-diverge/1` report.

use crate::checkpoint::{nearest_checkpoint, read_checkpoint, scene_of};
use phantom_metrics::json::{json_f64, json_str, Json};
use phantom_metrics::manifest::DIVERGE_SCHEMA;
use phantom_scene::compile;
use phantom_sim::{EngineSnapshot, SimTime};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::io::BufRead;
use std::path::{Path, PathBuf};

/// How `phantom diverge` runs.
#[derive(Clone, Debug)]
pub struct DivergeOptions {
    /// Common lines retained before the divergence (`--context N`).
    pub context: usize,
    /// Checkpoint directory from run A (`--checkpoints DIR`); enables
    /// the engine-state diff.
    pub checkpoints: Option<PathBuf>,
}

impl Default for DivergeOptions {
    fn default() -> Self {
        DivergeOptions {
            context: 8,
            checkpoints: None,
        }
    }
}

/// What the comparison found.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DivergeOutcome {
    /// Every line matched.
    Identical {
        /// Total lines compared (manifest included).
        lines: u64,
    },
    /// The traces differ.
    Diverged {
        /// 1-based line number of the first difference.
        line: u64,
    },
}

/// Maximum event-delta records emitted per direction before summarizing.
const EVENT_DELTA_CAP: usize = 50;

/// Compare two traces; returns the outcome plus the full
/// `phantom-diverge/1` report text (JSONL, ready for stdout or `--out`).
pub fn diverge(
    a_path: &Path,
    b_path: &Path,
    opts: &DivergeOptions,
) -> Result<(DivergeOutcome, String), String> {
    let open = |p: &Path| {
        std::fs::File::open(p)
            .map(std::io::BufReader::new)
            .map_err(|e| format!("cannot open trace {}: {e}", p.display()))
    };
    let mut a_lines = open(a_path)?.lines();
    let mut b_lines = open(b_path)?.lines();

    let mut ring: VecDeque<(u64, String)> = VecDeque::with_capacity(opts.context + 1);
    let mut line_no = 0u64;
    let divergence: Option<(u64, Option<String>, Option<String>)> = loop {
        let a = a_lines
            .next()
            .transpose()
            .map_err(|e| format!("read {}: {e}", a_path.display()))?;
        let b = b_lines
            .next()
            .transpose()
            .map_err(|e| format!("read {}: {e}", b_path.display()))?;
        line_no += 1;
        match (a, b) {
            (None, None) => break None,
            (Some(a), Some(b)) if a == b => {
                if opts.context > 0 {
                    if ring.len() == opts.context {
                        ring.pop_front();
                    }
                    ring.push_back((line_no, a));
                }
            }
            (a, b) => break Some((line_no, a, b)),
        }
    };

    let mut out = String::new();
    let identical = divergence.is_none();
    let _ = writeln!(
        out,
        "{{\"schema\":{},\"a\":{},\"b\":{},\"identical\":{},\"line\":{},\"context\":{}}}",
        json_str(DIVERGE_SCHEMA),
        json_str(&a_path.display().to_string()),
        json_str(&b_path.display().to_string()),
        identical,
        divergence
            .as_ref()
            .map_or_else(|| "null".to_string(), |(n, _, _)| n.to_string()),
        opts.context,
    );
    let Some((line, a_line, b_line)) = divergence else {
        // line_no counted one past the final pair (the simultaneous EOF).
        return Ok((DivergeOutcome::Identical { lines: line_no - 1 }, out));
    };
    for (n, l) in &ring {
        let _ = writeln!(
            out,
            "{{\"record\":\"context\",\"line\":{n},\"event\":{}}}",
            json_str(l)
        );
    }
    let _ = writeln!(
        out,
        "{{\"record\":\"first-divergence\",\"line\":{line},\"a\":{},\"b\":{}}}",
        a_line
            .as_deref()
            .map_or_else(|| "null".to_string(), json_str),
        b_line
            .as_deref()
            .map_or_else(|| "null".to_string(), json_str),
    );

    if let Some(dir) = &opts.checkpoints {
        localize(dir, a_line.as_deref(), b_line.as_deref(), &mut out)?;
    }
    Ok((DivergeOutcome::Diverged { line }, out))
}

/// Divergence instant in sim-nanoseconds, from the `"t"` (seconds) field
/// of whichever side still has a line.
fn divergence_instant_ns(a_line: Option<&str>, b_line: Option<&str>) -> Option<u64> {
    for line in [a_line, b_line].into_iter().flatten() {
        let t = Json::parse(line).ok().and_then(|j| j.get("t")?.as_f64());
        if let Some(t) = t.filter(|t| t.is_finite() && *t >= 0.0) {
            return Some((t * 1e9).round() as u64);
        }
    }
    None
}

/// Restore the nearest prior checkpoint, replay to just before the
/// divergent instant, and append the engine-state delta records.
fn localize(
    dir: &Path,
    a_line: Option<&str>,
    b_line: Option<&str>,
    out: &mut String,
) -> Result<(), String> {
    let Some(t_ns) = divergence_instant_ns(a_line, b_line) else {
        let _ = writeln!(
            out,
            "{{\"record\":\"note\",\"text\":{}}}",
            json_str("divergent line carries no \"t\" field; cannot pick a checkpoint")
        );
        return Ok(());
    };
    // Strictly prior: a checkpoint taken exactly at the divergent
    // instant would leave nothing to replay (an empty diff), so step
    // back one boundary to show the window leading into the divergence.
    let Some(ckpt_path) = nearest_checkpoint(dir, t_ns.saturating_sub(1))? else {
        let _ = writeln!(
            out,
            "{{\"record\":\"note\",\"text\":{}}}",
            json_str(&format!(
                "no checkpoint at or before t={}s in {}",
                json_f64(t_ns as f64 / 1e9),
                dir.display()
            ))
        );
        return Ok(());
    };
    let doc = read_checkpoint(&ckpt_path)?;
    let before = doc.snap.clone();
    let _ = writeln!(
        out,
        "{{\"record\":\"checkpoint\",\"path\":{},\"now_ns\":{},\"events_processed\":{}}}",
        json_str(&ckpt_path.display().to_string()),
        json_str(&before.now.0.to_string()),
        json_str(&before.events_processed.to_string()),
    );

    // Replay run A's deterministic trajectory from the checkpoint to the
    // last instant strictly before the divergence.
    let replay_to = SimTime(t_ns.saturating_sub(1).max(before.now.0));
    let mut engine = compile(&scene_of(&doc)?, doc.seed).engine;
    engine.restore(&before)?;
    engine.run_until(replay_to);
    let after = engine.snapshot()?;
    let _ = writeln!(
        out,
        "{{\"record\":\"replay\",\"to_ns\":{},\"events_processed\":{}}}",
        json_str(&replay_to.0.to_string()),
        json_str(&after.events_processed.to_string()),
    );
    diff_snapshots(&before, &after, out);
    Ok(())
}

/// Parse a `KvWriter` token string into `(key, raw_value)` pairs. Values
/// stay percent-escaped — the diff compares and prints them verbatim,
/// which is exact and single-line by construction.
fn kv_pairs(state: &str) -> Vec<(&str, &str)> {
    state
        .split(' ')
        .filter(|t| !t.is_empty())
        .filter_map(|t| t.split_once('='))
        .collect()
}

fn diff_snapshots(before: &EngineSnapshot, after: &EngineSnapshot, out: &mut String) {
    let mut nodes_changed = 0u64;
    for (b, a) in before.nodes.iter().zip(&after.nodes) {
        let mut changed = false;
        if b.rng != a.rng {
            changed = true;
            let fmt = |r: &[u64; 4]| format!("{},{},{},{}", r[0], r[1], r[2], r[3]);
            let _ = writeln!(
                out,
                "{{\"record\":\"node-diff\",\"id\":{},\"type\":{},\"field\":\"rng\",\
                 \"before\":{},\"after\":{}}}",
                b.id,
                json_str(&b.type_name),
                json_str(&fmt(&b.rng)),
                json_str(&fmt(&a.rng)),
            );
        }
        if b.state != a.state {
            changed = true;
            let bv = kv_pairs(&b.state);
            let av = kv_pairs(&a.state);
            // Keys come out in writer order, identical across snapshots
            // of the same topology; walk the union preserving that order.
            let mut keys: Vec<&str> = bv.iter().map(|(k, _)| *k).collect();
            for (k, _) in &av {
                if !keys.contains(k) {
                    keys.push(k);
                }
            }
            for key in keys {
                let vb = bv.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
                let va = av.iter().find(|(k, _)| *k == key).map(|(_, v)| *v);
                if vb != va {
                    let _ = writeln!(
                        out,
                        "{{\"record\":\"node-diff\",\"id\":{},\"type\":{},\"field\":{},\
                         \"before\":{},\"after\":{}}}",
                        b.id,
                        json_str(&b.type_name),
                        json_str(key),
                        vb.map_or_else(|| "null".to_string(), json_str),
                        va.map_or_else(|| "null".to_string(), json_str),
                    );
                }
            }
        }
        nodes_changed += u64::from(changed);
    }

    let key = |e: &phantom_sim::EventSnapshot| (e.time.0, e.seq, e.dst, e.msg.clone());
    let before_keys: std::collections::BTreeSet<_> = before.events.iter().map(key).collect();
    let after_keys: std::collections::BTreeSet<_> = after.events.iter().map(key).collect();
    let mut removed = 0u64;
    let mut added = 0u64;
    for (which, only) in [
        ("event-removed", before_keys.difference(&after_keys)),
        ("event-added", after_keys.difference(&before_keys)),
    ] {
        let mut emitted = 0usize;
        let mut total = 0u64;
        for (t_ns, seq, dst, msg) in only {
            total += 1;
            if emitted < EVENT_DELTA_CAP {
                emitted += 1;
                let _ = writeln!(
                    out,
                    "{{\"record\":{},\"t_ns\":{},\"seq\":{},\"dst\":{},\"msg\":{}}}",
                    json_str(which),
                    json_str(&t_ns.to_string()),
                    json_str(&seq.to_string()),
                    dst,
                    json_str(msg),
                );
            }
        }
        if total > EVENT_DELTA_CAP as u64 {
            let _ = writeln!(
                out,
                "{{\"record\":\"note\",\"text\":{}}}",
                json_str(&format!(
                    "{which}: {total} total, first {EVENT_DELTA_CAP} shown"
                ))
            );
        }
        match which {
            "event-removed" => removed = total,
            _ => added = total,
        }
    }
    let _ = writeln!(
        out,
        "{{\"record\":\"summary\",\"nodes_changed\":{nodes_changed},\
         \"events_added\":{added},\"events_removed\":{removed}}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, text: &str) -> PathBuf {
        let p = dir.join(name);
        std::fs::write(&p, text).unwrap();
        p
    }

    #[test]
    fn identical_traces_report_identical() {
        let dir = std::env::temp_dir().join(format!("phantom-div-id-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let text = "{\"schema\":\"phantom-trace/1\"}\n{\"t\":0.1,\"kind\":\"cell\"}\n";
        let a = write(&dir, "a.jsonl", text);
        let b = write(&dir, "b.jsonl", text);
        let (outcome, report) = diverge(&a, &b, &DivergeOptions::default()).unwrap();
        assert_eq!(outcome, DivergeOutcome::Identical { lines: 2 });
        assert!(report.contains("\"identical\":true"));
        assert!(report.contains("\"line\":null"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn first_difference_is_localized_with_context() {
        let dir = std::env::temp_dir().join(format!("phantom-div-ctx-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let head = "{\"schema\":\"phantom-trace/1\"}\n";
        let common: String = (0..10)
            .map(|i| format!("{{\"t\":0.{i},\"kind\":\"cell\",\"node\":1}}\n"))
            .collect();
        let a = write(
            &dir,
            "a.jsonl",
            &format!("{head}{common}{{\"t\":1.0,\"x\":1}}\n"),
        );
        let b = write(
            &dir,
            "b.jsonl",
            &format!("{head}{common}{{\"t\":1.0,\"x\":2}}\n"),
        );
        let opts = DivergeOptions {
            context: 3,
            checkpoints: None,
        };
        let (outcome, report) = diverge(&a, &b, &opts).unwrap();
        assert_eq!(outcome, DivergeOutcome::Diverged { line: 12 });
        assert_eq!(report.matches("\"record\":\"context\"").count(), 3);
        assert!(report.contains("\"record\":\"first-divergence\""));
        assert!(report.contains("\"a\":\"{\\\"t\\\":1.0,\\\"x\\\":1}\""));
        assert!(report.contains("\"b\":\"{\\\"t\\\":1.0,\\\"x\\\":2}\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_trace_being_a_prefix_of_the_other_diverges_at_the_eof() {
        let dir = std::env::temp_dir().join(format!("phantom-div-eof-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let a = write(&dir, "a.jsonl", "x\ny\n");
        let b = write(&dir, "b.jsonl", "x\n");
        let (outcome, report) = diverge(&a, &b, &DivergeOptions::default()).unwrap();
        assert_eq!(outcome, DivergeOutcome::Diverged { line: 2 });
        assert!(report.contains("\"a\":\"y\",\"b\":null"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_diff_reports_field_and_event_deltas() {
        use phantom_sim::{EventSnapshot, NodeSnapshot};
        let node = |state: &str, rng: [u64; 4]| NodeSnapshot {
            id: 0,
            type_name: "demo::Sw".into(),
            rng,
            send_seq: 0,
            state: state.into(),
        };
        let ev = |t: u64, seq: u64| EventSnapshot {
            time: SimTime(t),
            seq,
            dst: 0,
            msg: "m".into(),
        };
        let before = EngineSnapshot {
            now: SimTime(0),
            events_processed: 0,
            next_seq: 2,
            nodes: vec![node("q=1 macr=5", [1, 2, 3, 4])],
            events: vec![ev(10, 0), ev(20, 1)],
        };
        let after = EngineSnapshot {
            now: SimTime(15),
            events_processed: 1,
            next_seq: 3,
            nodes: vec![node("q=2 macr=5", [9, 2, 3, 4])],
            events: vec![ev(20, 1), ev(30, 2)],
        };
        let mut out = String::new();
        diff_snapshots(&before, &after, &mut out);
        assert!(
            out.contains("\"field\":\"q\",\"before\":\"1\",\"after\":\"2\""),
            "{out}"
        );
        assert!(out.contains("\"field\":\"rng\""));
        assert!(!out.contains("\"field\":\"macr\""), "unchanged key: {out}");
        assert!(out.contains("\"record\":\"event-removed\",\"t_ns\":\"10\""));
        assert!(out.contains("\"record\":\"event-added\",\"t_ns\":\"30\""));
        assert!(out.contains(
            "\"record\":\"summary\",\"nodes_changed\":1,\"events_added\":1,\"events_removed\":1"
        ));
    }
}
