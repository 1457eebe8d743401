//! Comparing two `BENCH_phantom.json` recordings.
//!
//! `repro --compare <baseline.json>` reads a previously committed bench
//! record, lines the current batch up against it run-by-run, and prints
//! per-scenario events/sec deltas. A drop past the configured relative
//! threshold is a *bench regression*: the harness exits with
//! [`EXIT_BENCH_REGRESSION`] so CI can gate on it (advisorily) without
//! conflating it with a correctness failure.
//!
//! The baseline is read as one JSON tree ([`Json`]). Only the live
//! schema, `phantom-bench/5`, is read; any other is refused by name.
//! The scale probe gates only when both recordings carry one for the
//! same scene. Shard-scaling points are compared and rendered but never
//! gate: parallel speedup depends on the machine's core count, which CI
//! runners do not pin.

use phantom_metrics::json::Json;
use phantom_metrics::manifest::BENCH_SCHEMA;
use phantom_metrics::BenchRecord;
use std::fmt::Write as _;

/// Process exit code for "the benchmark regressed past the threshold".
/// Distinct from `1` (usage/correctness failure) so CI and scripts can
/// tell "the code is wrong" from "the code got slower".
pub const EXIT_BENCH_REGRESSION: u8 = 4;

/// One run parsed out of a baseline bench record.
#[derive(Clone, Debug)]
pub struct BaselineRun {
    /// Experiment id.
    pub id: String,
    /// Master seed.
    pub seed: u64,
    /// Events per wall-clock second in the baseline recording.
    pub events_per_sec: f64,
    /// Events dispatched in the baseline recording.
    pub events: u64,
}

/// The scale probe parsed out of a baseline.
#[derive(Clone, Debug)]
pub struct BaselineScale {
    /// Scene id of the probe.
    pub scene: String,
    /// Events per wall-clock second in the baseline probe.
    pub events_per_sec: f64,
    /// Sessions per gigabyte in the baseline probe.
    pub sessions_per_gb: f64,
}

/// One shard-scaling point parsed out of a baseline.
#[derive(Clone, Debug)]
pub struct BaselineShardPoint {
    /// Shard count of the point.
    pub shards: u64,
    /// Scene id of the probe.
    pub scene: String,
    /// Events per wall-clock second at this shard count.
    pub events_per_sec: f64,
    /// Events dispatched — identical across shard counts by contract.
    pub events: u64,
}

/// The subset of a `BENCH_phantom.json` document the comparison needs.
#[derive(Clone, Debug)]
pub struct BenchBaseline {
    /// Calendar tag of the baseline recording.
    pub calendar: String,
    /// Aggregate events per second across the baseline batch.
    pub events_per_sec: f64,
    /// Per-run baseline numbers.
    pub runs: Vec<BaselineRun>,
    /// Scale probe, if the baseline recorded one.
    pub scale: Option<BaselineScale>,
    /// Shard-scaling points; empty when the baseline recorded none.
    pub shard_scaling: Vec<BaselineShardPoint>,
}

/// A named field of a bench-record object.
fn field<'a>(obj: &'a Json, what: &str, key: &str) -> Result<&'a Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{what} missing `{key}`"))
}

fn num(obj: &Json, what: &str, key: &str) -> Result<f64, String> {
    field(obj, what, key)?
        .as_f64()
        .ok_or_else(|| format!("{what} `{key}` is not a number"))
}

fn text(obj: &Json, what: &str, key: &str) -> Result<String, String> {
    field(obj, what, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{what} `{key}` is not a string"))
}

fn list<'a>(doc: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match doc.get(key) {
        None => Ok(&[]),
        Some(v) => v.as_arr().ok_or_else(|| format!("`{key}` is not an array")),
    }
}

/// Parse a `phantom-bench/5` document written by this workspace's
/// `BenchRecord::write`. Any other schema is refused by name.
pub fn parse_bench_json(text_in: &str) -> Result<BenchBaseline, String> {
    let doc = Json::parse(text_in)?;
    let schema = text(&doc, "bench record", "schema")?;
    if schema != BENCH_SCHEMA {
        return Err(format!(
            "baseline is {schema:?}; only {BENCH_SCHEMA:?} records are read — \
             re-record it with this build's `repro`"
        ));
    }
    let runs = list(&doc, "runs")?
        .iter()
        .map(|r| {
            Ok(BaselineRun {
                id: text(r, "run", "id")?,
                seed: num(r, "run", "seed")? as u64,
                events_per_sec: num(r, "run", "events_per_sec")?,
                events: num(r, "run", "events")? as u64,
            })
        })
        .collect::<Result<_, String>>()?;
    let scale = doc
        .get("scale")
        .map(|s| {
            Ok::<_, String>(BaselineScale {
                scene: text(s, "scale", "scene")?,
                events_per_sec: num(s, "scale", "events_per_sec")?,
                sessions_per_gb: num(s, "scale", "sessions_per_gb")?,
            })
        })
        .transpose()?;
    let shard_scaling = list(&doc, "shard_scaling")?
        .iter()
        .map(|p| {
            Ok(BaselineShardPoint {
                shards: num(p, "shard point", "shards")? as u64,
                scene: text(p, "shard point", "scene")?,
                events_per_sec: num(p, "shard point", "events_per_sec")?,
                events: num(p, "shard point", "events")? as u64,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(BenchBaseline {
        calendar: text(&doc, "bench record", "calendar")?,
        events_per_sec: num(&doc, "bench record", "events_per_sec")?,
        runs,
        scale,
        shard_scaling,
    })
}

/// Events/sec delta for one `(id, seed)` present in both recordings.
#[derive(Clone, Debug)]
pub struct RunDelta {
    /// Experiment id.
    pub id: String,
    /// Master seed.
    pub seed: u64,
    /// Baseline events/sec.
    pub base: f64,
    /// Current events/sec.
    pub cur: f64,
    /// `cur / base`.
    pub ratio: f64,
    /// True when the event *count* changed — a determinism red flag far
    /// more serious than any throughput delta.
    pub events_changed: bool,
}

/// Scale-probe deltas when both recordings probed the same scene.
#[derive(Clone, Debug)]
pub struct ScaleDelta {
    /// Scene id probed by both recordings.
    pub scene: String,
    /// Baseline probe events/sec.
    pub base_events_per_sec: f64,
    /// Current probe events/sec.
    pub cur_events_per_sec: f64,
    /// Baseline sessions per gigabyte.
    pub base_sessions_per_gb: f64,
    /// Current sessions per gigabyte.
    pub cur_sessions_per_gb: f64,
}

impl ScaleDelta {
    /// `cur / base` throughput ratio of the probe.
    pub fn throughput_ratio(&self) -> f64 {
        if self.base_events_per_sec > 0.0 {
            self.cur_events_per_sec / self.base_events_per_sec
        } else {
            f64::INFINITY
        }
    }

    /// `cur / base` memory-capacity ratio (sessions that fit in a GB);
    /// below 1.0 means each session got more expensive.
    pub fn capacity_ratio(&self) -> f64 {
        if self.base_sessions_per_gb > 0.0 {
            self.cur_sessions_per_gb / self.base_sessions_per_gb
        } else {
            f64::INFINITY
        }
    }
}

/// Advisory delta for one shard count probed by both recordings.
#[derive(Clone, Debug)]
pub struct ShardScaleDelta {
    /// Shard count of the matched points.
    pub shards: u64,
    /// Scene id probed by both recordings.
    pub scene: String,
    /// Baseline events/sec at this shard count.
    pub base_events_per_sec: f64,
    /// Current events/sec at this shard count.
    pub cur_events_per_sec: f64,
    /// True when the event count differs between the recordings — on a
    /// fixed scene that is a determinism red flag, not a perf delta.
    pub events_changed: bool,
}

impl ShardScaleDelta {
    /// `cur / base` throughput ratio at this shard count.
    pub fn ratio(&self) -> f64 {
        if self.base_events_per_sec > 0.0 {
            self.cur_events_per_sec / self.base_events_per_sec
        } else {
            f64::INFINITY
        }
    }
}

/// The result of lining a current batch up against a baseline.
#[derive(Clone, Debug)]
pub struct Comparison {
    /// Aggregate baseline events/sec.
    pub base_events_per_sec: f64,
    /// Aggregate current events/sec.
    pub cur_events_per_sec: f64,
    /// Per-run deltas for runs present in both recordings.
    pub deltas: Vec<RunDelta>,
    /// `(id, seed)` present only in the baseline.
    pub missing: Vec<(String, u64)>,
    /// `(id, seed)` present only in the current batch.
    pub extra: Vec<(String, u64)>,
    /// Scale-probe deltas, when both recordings probed the same scene.
    pub scale: Option<ScaleDelta>,
    /// Shard-scaling deltas for shard counts probed by both recordings
    /// on the same scene. Advisory only — never part of [`Self::regressed`],
    /// because parallel speedup is a property of the machine's core
    /// count as much as of the code.
    pub shard_scaling: Vec<ShardScaleDelta>,
}

impl Comparison {
    /// Aggregate `cur / base` events-per-second ratio.
    pub fn aggregate_ratio(&self) -> f64 {
        if self.base_events_per_sec > 0.0 {
            self.cur_events_per_sec / self.base_events_per_sec
        } else {
            f64::INFINITY
        }
    }

    /// True when both recordings actually swept runs. A probe-only
    /// batch (`repro --scenes … --scale <id>` with no experiment ids —
    /// the CI scale-gate shape) records zero sweep throughput, which
    /// must read as "no aggregate to compare", not as a regression to
    /// zero.
    pub fn aggregate_comparable(&self) -> bool {
        self.base_events_per_sec > 0.0 && self.cur_events_per_sec > 0.0
    }

    /// True when the aggregate throughput dropped by more than
    /// `threshold_pct` percent relative to the baseline — or, when both
    /// recordings carry a scale probe of the same scene, when the
    /// probe's throughput or its sessions-per-GB capacity did.
    /// Per-scenario deltas are reported but do not gate individually:
    /// single-scenario wall times on shared machines are too noisy to
    /// fail a build on. (Sessions-per-GB is RSS-derived and *does* gate:
    /// allocator-level noise is far below any real per-session cost
    /// change at 10^5 sessions.)
    pub fn regressed(&self, threshold_pct: f64) -> bool {
        let floor = 1.0 - threshold_pct / 100.0;
        if self.aggregate_comparable() && self.aggregate_ratio() < floor {
            return true;
        }
        if let Some(s) = &self.scale {
            if s.throughput_ratio() < floor || s.capacity_ratio() < floor {
                return true;
            }
        }
        false
    }

    /// Render the per-scenario delta table plus the aggregate verdict.
    pub fn render(&self, threshold_pct: f64) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "bench comparison (current vs baseline):");
        let _ = writeln!(
            s,
            "  {:<10} {:>6} {:>12} {:>12} {:>8}",
            "id", "seed", "base ev/s", "cur ev/s", "ratio"
        );
        for d in &self.deltas {
            let _ = writeln!(
                s,
                "  {:<10} {:>6} {:>12.0} {:>12.0} {:>7.3}x{}",
                d.id,
                d.seed,
                d.base,
                d.cur,
                d.ratio,
                if d.events_changed {
                    "  [! event count changed]"
                } else {
                    ""
                }
            );
        }
        for (id, seed) in &self.missing {
            let _ = writeln!(s, "  {id:<10} {seed:>6} only in baseline");
        }
        for (id, seed) in &self.extra {
            let _ = writeln!(s, "  {id:<10} {seed:>6} only in current batch");
        }
        if let Some(d) = &self.scale {
            let _ = writeln!(
                s,
                "  scale {}: {:.0} -> {:.0} ev/s ({:.3}x), {:.0} -> {:.0} sessions/GB ({:.3}x)",
                d.scene,
                d.base_events_per_sec,
                d.cur_events_per_sec,
                d.throughput_ratio(),
                d.base_sessions_per_gb,
                d.cur_sessions_per_gb,
                d.capacity_ratio()
            );
        }
        for d in &self.shard_scaling {
            let _ = writeln!(
                s,
                "  shards={} {}: {:.0} -> {:.0} ev/s ({:.3}x, advisory){}",
                d.shards,
                d.scene,
                d.base_events_per_sec,
                d.cur_events_per_sec,
                d.ratio(),
                if d.events_changed {
                    "  [! event count changed]"
                } else {
                    ""
                }
            );
        }
        let verdict = if self.regressed(threshold_pct) {
            "REGRESSED"
        } else {
            "ok"
        };
        if self.aggregate_comparable() {
            let _ = writeln!(
                s,
                "  aggregate: {:.0} -> {:.0} ev/s ({:.3}x), threshold -{}%: {}",
                self.base_events_per_sec,
                self.cur_events_per_sec,
                self.aggregate_ratio(),
                threshold_pct,
                verdict
            );
        } else {
            let _ = writeln!(
                s,
                "  aggregate: n/a (probe-only batch), threshold -{threshold_pct}%: {verdict}"
            );
        }
        s
    }
}

/// Line `current` up against `baseline` by `(id, seed)`.
pub fn compare(current: &BenchRecord, baseline: &BenchBaseline) -> Comparison {
    let mut deltas = Vec::new();
    let mut missing = Vec::new();
    let mut extra = Vec::new();
    for b in &baseline.runs {
        match current
            .runs
            .iter()
            .find(|r| r.id == b.id && r.seed == b.seed)
        {
            Some(r) => deltas.push(RunDelta {
                id: b.id.clone(),
                seed: b.seed,
                base: b.events_per_sec,
                cur: r.events_per_sec(),
                ratio: if b.events_per_sec > 0.0 {
                    r.events_per_sec() / b.events_per_sec
                } else {
                    f64::INFINITY
                },
                events_changed: r.events != b.events,
            }),
            None => missing.push((b.id.clone(), b.seed)),
        }
    }
    for r in &current.runs {
        if !baseline
            .runs
            .iter()
            .any(|b| b.id == r.id && b.seed == r.seed)
        {
            extra.push((r.id.clone(), r.seed));
        }
    }
    let scale = match (&current.scale, &baseline.scale) {
        (Some(cur), Some(base)) if cur.scene == base.scene => Some(ScaleDelta {
            scene: cur.scene.clone(),
            base_events_per_sec: base.events_per_sec,
            cur_events_per_sec: cur.events_per_sec(),
            base_sessions_per_gb: base.sessions_per_gb,
            cur_sessions_per_gb: cur.sessions_per_gb(),
        }),
        _ => None,
    };
    let mut shard_scaling = Vec::new();
    for b in &baseline.shard_scaling {
        if let Some(c) = current
            .shard_scaling
            .iter()
            .find(|c| c.shards as u64 == b.shards && c.scene == b.scene)
        {
            shard_scaling.push(ShardScaleDelta {
                shards: b.shards,
                scene: b.scene.clone(),
                base_events_per_sec: b.events_per_sec,
                cur_events_per_sec: c.events_per_sec(),
                events_changed: c.events != b.events,
            });
        }
    }
    Comparison {
        base_events_per_sec: baseline.events_per_sec,
        cur_events_per_sec: current.events_per_sec(),
        deltas,
        missing,
        extra,
        scale,
        shard_scaling,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_metrics::manifest::Manifest;
    use phantom_metrics::RunRecord;

    fn record(ids: &[(&str, u64, f64, u64)], total_wall: f64) -> BenchRecord {
        BenchRecord {
            manifest: Manifest::new(BENCH_SCHEMA, "repro", 1996, "test"),
            jobs: 1,
            calendar: phantom_sim::CALENDAR.to_string(),
            total_wall_secs: total_wall,
            runs: ids
                .iter()
                .map(|(id, seed, wall, events)| RunRecord {
                    id: (*id).into(),
                    seed: *seed,
                    wall_secs: *wall,
                    events: *events,
                    drops: 0,
                    retransmits: 0,
                    queue_peak: 0,
                })
                .collect(),
            scale: None,
            shard_scaling: Vec::new(),
        }
    }

    fn shard_points(walls: &[(usize, f64)]) -> Vec<phantom_metrics::ShardScalePoint> {
        walls
            .iter()
            .map(|&(shards, wall)| phantom_metrics::ShardScalePoint {
                shards,
                scene: "metro-100k".into(),
                seed: 1996,
                events: 10_000_000,
                wall_secs: wall,
            })
            .collect()
    }

    fn scale_probe(events: u64, wall: f64, rss: u64) -> phantom_metrics::ScaleRecord {
        phantom_metrics::ScaleRecord {
            scene: "metro-100k".into(),
            seed: 1996,
            sessions: 100_000,
            nodes: 300_052,
            events,
            wall_secs: wall,
            rss_delta_bytes: Some(rss),
            arena_bytes: 40_000_000,
            drops: 0,
            queue_peak: 100,
        }
    }

    #[test]
    fn scale_line_with_null_rss_parses_and_compares() {
        // A probe on a platform without /proc records `rss: null`; the
        // baseline must still parse and the (arena-derived) capacity
        // numbers must still gate.
        let mut base_rec = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        let mut probe = scale_probe(10_000_000, 4.0, 0);
        probe.rss_delta_bytes = None;
        base_rec.scale = Some(probe.clone());
        assert!(base_rec.to_json().contains("\"rss_delta_bytes\": null"));
        let base = parse_bench_json(&base_rec.to_json()).unwrap();
        let bs = base.scale.as_ref().expect("null-rss scale line parses");
        // 40 MB arena / 100k sessions = 400 B/session = 2.5M sessions/GB.
        assert!((bs.sessions_per_gb - 2_500_000.0).abs() < 1e-6);
        let mut cur = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        cur.scale = Some(probe);
        assert!(!compare(&cur, &base).regressed(10.0));
    }

    #[test]
    fn roundtrips_through_the_writer() {
        let rec = record(
            &[("fig2", 1996, 0.5, 1_000_000), ("fig9", 7, 0.5, 500_000)],
            1.0,
        );
        let parsed = parse_bench_json(&rec.to_json()).unwrap();
        assert_eq!(parsed.calendar, phantom_sim::CALENDAR);
        assert_eq!(parsed.runs.len(), 2);
        assert_eq!(parsed.runs[0].id, "fig2");
        assert_eq!(parsed.runs[0].events, 1_000_000);
        assert!((parsed.events_per_sec - 1_500_000.0).abs() < 1e-6);
    }

    #[test]
    fn refuses_a_v4_baseline_by_name() {
        let doc = r#"{
  "schema": "phantom-bench/4",
  "manifest": {"schema":"phantom-bench/4","scenario":"repro"},
  "jobs": 1,
  "calendar": "timer-wheel/4096x8192ns",
  "total_wall_secs": 2,
  "runs_per_sec": 0.5,
  "events_total": 100,
  "events_per_sec": 50,
  "runs": [
    {"id": "fig2", "seed": 1996, "wall_secs": 2, "events": 100, "events_per_sec": 50, "drops": 0, "retransmits": 0, "queue_peak": 3}
  ]
}
"#;
        let err = parse_bench_json(doc).unwrap_err();
        assert!(err.contains("\"phantom-bench/4\""), "{err}");
        assert!(err.contains(BENCH_SCHEMA), "{err}");
    }

    #[test]
    fn compare_flags_speedups_regressions_and_set_changes() {
        let base = parse_bench_json(
            &record(
                &[("fig2", 1996, 1.0, 1_000_000), ("fig9", 1996, 1.0, 500_000)],
                2.0,
            )
            .to_json(),
        )
        .unwrap();
        // fig2 twice as fast, fig9 missing, table1 new.
        let cur = record(
            &[("fig2", 1996, 0.5, 1_000_000), ("table1", 1996, 0.5, 9)],
            1.0,
        );
        let cmp = compare(&cur, &base);
        assert_eq!(cmp.deltas.len(), 1);
        assert!((cmp.deltas[0].ratio - 2.0).abs() < 1e-9);
        assert!(!cmp.deltas[0].events_changed);
        assert_eq!(cmp.missing, vec![("fig9".to_string(), 1996)]);
        assert_eq!(cmp.extra, vec![("table1".to_string(), 1996)]);
        let txt = cmp.render(10.0);
        assert!(txt.contains("fig2"));
        assert!(txt.contains("only in baseline"));
    }

    #[test]
    fn event_count_changes_are_flagged() {
        let base =
            parse_bench_json(&record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0).to_json()).unwrap();
        let cur = record(&[("fig2", 1996, 1.0, 999_999)], 1.0);
        let cmp = compare(&cur, &base);
        assert!(cmp.deltas[0].events_changed);
        assert!(cmp.render(10.0).contains("event count changed"));
    }

    #[test]
    fn scale_round_trips_and_gates_on_memory_and_throughput() {
        let mut base_rec = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        base_rec.scale = Some(scale_probe(10_000_000, 4.0, 2_000_000_000));
        let base = parse_bench_json(&base_rec.to_json()).unwrap();
        let bs = base.scale.as_ref().expect("scale parsed from the baseline");
        assert_eq!(bs.scene, "metro-100k");
        assert!((bs.events_per_sec - 2_500_000.0).abs() < 1e-6);
        assert!((bs.sessions_per_gb - 50_000.0).abs() < 1e-6);

        // Same sweep speed; probe 20% slower and sessions 20% costlier.
        let mut cur = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        cur.scale = Some(scale_probe(10_000_000, 5.0, 2_500_000_000));
        let cmp = compare(&cur, &base);
        let d = cmp.scale.as_ref().expect("matched scale probes");
        assert!((d.throughput_ratio() - 0.8).abs() < 1e-9);
        assert!((d.capacity_ratio() - 0.8).abs() < 1e-9);
        assert!(cmp.regressed(10.0), "20% scale drop must gate at 10%");
        assert!(!cmp.regressed(25.0), "20% scale drop passes at 25%");
        assert!(cmp.render(10.0).contains("scale metro-100k"));

        // An identical probe does not gate.
        let mut same = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        same.scale = Some(scale_probe(10_000_000, 4.0, 2_000_000_000));
        assert!(!compare(&same, &base).regressed(10.0));
    }

    #[test]
    fn scale_is_ignored_when_either_side_lacks_it_or_scenes_differ() {
        // A baseline without a scale object.
        let base =
            parse_bench_json(&record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0).to_json()).unwrap();
        assert!(base.scale.is_none());
        let mut cur = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        cur.scale = Some(scale_probe(1, 100.0, u64::MAX / 2));
        let cmp = compare(&cur, &base);
        assert!(cmp.scale.is_none());
        assert!(!cmp.regressed(10.0), "unmatched probe must not gate");

        // Same schema but a different probed scene: no comparison.
        let mut base_rec = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        let mut other = scale_probe(10_000_000, 4.0, 2_000_000_000);
        other.scene = "metro-1m".into();
        base_rec.scale = Some(other);
        let base2 = parse_bench_json(&base_rec.to_json()).unwrap();
        assert!(compare(&cur, &base2).scale.is_none());
    }

    #[test]
    fn probe_only_batch_skips_the_aggregate_gate_but_not_the_scale_gate() {
        // Baseline: full sweep + probe. Current: probe only (no ids),
        // the CI scale-gate invocation. The zero aggregate must not
        // read as a throughput collapse…
        let mut base_rec = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        base_rec.scale = Some(scale_probe(10_000_000, 4.0, 2_000_000_000));
        let base = parse_bench_json(&base_rec.to_json()).unwrap();
        let mut cur = record(&[], 0.0);
        cur.scale = Some(scale_probe(10_000_000, 4.0, 2_000_000_000));
        let cmp = compare(&cur, &base);
        assert!(!cmp.aggregate_comparable());
        assert!(!cmp.regressed(10.0), "matching probe must pass");
        assert!(cmp.render(10.0).contains("aggregate: n/a"));

        // …but a genuine probe regression still gates.
        let mut slow = record(&[], 0.0);
        slow.scale = Some(scale_probe(10_000_000, 5.0, 2_500_000_000));
        assert!(compare(&slow, &base).regressed(10.0));
    }

    #[test]
    fn shard_scaling_round_trips_and_stays_advisory() {
        let mut base_rec = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        // Include a scale probe, so the record carries both blocks.
        base_rec.scale = Some(scale_probe(50_000_000, 25.0, 2_000_000_000));
        base_rec.shard_scaling = shard_points(&[(1, 4.0), (2, 2.5), (4, 1.6)]);
        let base = parse_bench_json(&base_rec.to_json()).unwrap();
        assert!(base.scale.is_some(), "scale parses beside shard_scaling");
        assert_eq!(base.shard_scaling.len(), 3);
        assert_eq!(base.shard_scaling[0].shards, 1);
        assert_eq!(base.shard_scaling[0].scene, "metro-100k");
        assert!((base.shard_scaling[0].events_per_sec - 2_500_000.0).abs() < 1e-6);
        assert_eq!(base.shard_scaling[2].events, 10_000_000);

        // Current batch: shards=1 matches, shards=4 is 2x slower,
        // shards=2 not re-measured. The huge shards=4 drop must be
        // reported but must NOT gate.
        let mut cur = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        cur.shard_scaling = shard_points(&[(1, 4.0), (4, 3.2)]);
        let cmp = compare(&cur, &base);
        assert_eq!(cmp.shard_scaling.len(), 2);
        assert!((cmp.shard_scaling[0].ratio() - 1.0).abs() < 1e-9);
        assert!((cmp.shard_scaling[1].ratio() - 0.5).abs() < 1e-9);
        assert!(!cmp.shard_scaling[1].events_changed);
        assert!(
            !cmp.regressed(10.0),
            "shard-scaling deltas are advisory and must not gate"
        );
        let txt = cmp.render(10.0);
        assert!(txt.contains("shards=4 metro-100k"));
        assert!(txt.contains("advisory"));

        // A baseline without shard points parses to an empty vec and
        // produces no shard deltas.
        let plain =
            parse_bench_json(&record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0).to_json()).unwrap();
        assert!(plain.shard_scaling.is_empty());
        assert!(compare(&cur, &plain).shard_scaling.is_empty());

        // An event-count mismatch on a matched point is flagged.
        let mut drifted = record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0);
        drifted.shard_scaling = shard_points(&[(1, 4.0)]);
        drifted.shard_scaling[0].events = 9_999_999;
        let cmp2 = compare(&drifted, &base);
        assert!(cmp2.shard_scaling[0].events_changed);
        assert!(cmp2.render(10.0).contains("event count changed"));
    }

    #[test]
    fn threshold_gates_on_the_aggregate() {
        let base =
            parse_bench_json(&record(&[("fig2", 1996, 1.0, 1_000_000)], 1.0).to_json()).unwrap();
        // 8% slower than baseline.
        let cur = record(&[("fig2", 1996, 1.087, 1_000_000)], 1.087);
        let cmp = compare(&cur, &base);
        assert!(!cmp.regressed(10.0), "8% drop is inside a 10% threshold");
        assert!(cmp.regressed(5.0), "8% drop is outside a 5% threshold");
        assert!(!record(&[("fig2", 1996, 0.9, 1_000_000)], 0.9)
            .runs
            .is_empty());
    }
}
