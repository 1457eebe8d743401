//! Committed per-scenario baselines and the regression check over them.
//!
//! A baseline file (`crates/baselines/analysis/<id>.json`) is JSONL: a
//! header line naming the scenario, then one line per gated metric with
//! its recorded value and an explicit tolerance. `repro --analyze
//! --check` recomputes the metrics and fails, naming the metric and the
//! tolerance, when any strays outside its band — the CI analysis gate.

use crate::stream::{parse_epoch_metric, AnalysisReport, METRIC_NAMES};
use phantom_metrics::json::{json_f64, json_str, Json};
use std::fmt::Write as _;

/// Schema tag of baseline files.
pub const BASELINE_SCHEMA: &str = "phantom-analysis-baseline/1";

/// How a tolerance is interpreted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TolMode {
    /// `|measured - value| <= tol`.
    Abs,
    /// `|measured - value| <= tol * |value|`.
    Rel,
}

impl TolMode {
    fn name(self) -> &'static str {
        match self {
            TolMode::Abs => "abs",
            TolMode::Rel => "rel",
        }
    }
}

/// One gated metric.
#[derive(Clone, Debug)]
pub struct BaselineEntry {
    /// Metric name (one of [`METRIC_NAMES`]).
    pub metric: String,
    /// Recorded value.
    pub value: f64,
    /// Allowed deviation.
    pub tol: f64,
    /// Absolute or relative tolerance.
    pub mode: TolMode,
}

impl BaselineEntry {
    /// True when `measured` is within this entry's band.
    pub fn accepts(&self, measured: f64) -> bool {
        let band = match self.mode {
            TolMode::Abs => self.tol,
            TolMode::Rel => self.tol * self.value.abs(),
        };
        (measured - self.value).abs() <= band
    }
}

/// A parsed baseline file.
#[derive(Clone, Debug)]
pub struct Baseline {
    /// Scenario id the baseline gates.
    pub scenario: String,
    /// Gated metrics.
    pub entries: Vec<BaselineEntry>,
}

/// Parse a baseline file.
pub fn parse_baseline(text: &str) -> Result<Baseline, String> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or("empty baseline file")?;
    let header = Json::parse_line(header, 1)?;
    if header.get("schema").and_then(Json::as_str) != Some(BASELINE_SCHEMA) {
        return Err(format!("line 1: missing \"schema\":\"{BASELINE_SCHEMA}\""));
    }
    let scenario = match header.get("scenario").and_then(Json::as_str) {
        Some(s) => s.to_string(),
        None => return Err("line 1: missing string field `scenario`".into()),
    };
    let mut entries = Vec::new();
    for (n, line) in lines {
        if line.is_empty() {
            continue;
        }
        let obj = Json::parse_line(line, n + 1)?;
        let field = |key: &str| {
            obj.get(key)
                .ok_or_else(|| format!("line {}: missing `{key}`", n + 1))
        };
        let metric = match field("metric")?.as_str() {
            Some(s) => s.to_string(),
            None => return Err(format!("line {}: `metric` must be a string", n + 1)),
        };
        if !METRIC_NAMES.contains(&metric.as_str()) && parse_epoch_metric(&metric).is_none() {
            return Err(format!("line {}: unknown metric `{metric}`", n + 1));
        }
        let num = |key: &str| {
            field(key)?
                .as_f64()
                .ok_or_else(|| format!("line {}: `{key}` must be a number", n + 1))
        };
        let mode = match field("mode")?.as_str() {
            Some("abs") => TolMode::Abs,
            Some("rel") => TolMode::Rel,
            _ => return Err(format!("line {}: `mode` must be \"abs\" or \"rel\"", n + 1)),
        };
        let tol = num("tol")?;
        if tol < 0.0 {
            return Err(format!("line {}: `tol` must be non-negative", n + 1));
        }
        entries.push(BaselineEntry {
            metric,
            value: num("value")?,
            tol,
            mode,
        });
    }
    Ok(Baseline { scenario, entries })
}

/// Check `report` against `baseline`. Returns one message per violated
/// entry, each naming the metric and its tolerance; empty means pass.
pub fn check_report(report: &AnalysisReport, baseline: &Baseline) -> Vec<String> {
    let mut failures = Vec::new();
    for e in &baseline.entries {
        match report.metric(&e.metric) {
            None => failures.push(format!(
                "{}: metric `{}` is missing from the report (baseline {} ± {} {})",
                baseline.scenario,
                e.metric,
                json_f64(e.value),
                json_f64(e.tol),
                e.mode.name()
            )),
            Some(v) if !e.accepts(v) => failures.push(format!(
                "{}: metric `{}` = {} outside baseline {} ± {} ({})",
                baseline.scenario,
                e.metric,
                json_f64(v),
                json_f64(e.value),
                json_f64(e.tol),
                e.mode.name()
            )),
            Some(_) => {}
        }
    }
    failures
}

/// The default tolerance for a metric, used by `--write-baselines`.
/// Bands are deliberately loose enough to absorb seed-to-seed noise but
/// tight enough that a perturbed control loop (e.g. `dev_gain` changed)
/// trips at least one of them.
pub fn default_tolerance(metric: &str) -> (f64, TolMode) {
    // Epoch metrics share their whole-run namesakes' bands; the 5%
    // absolute band on `fixed_point_error_rel` is the acceptance
    // criterion for per-epoch re-convergence to `C/(1+n·u)`.
    let metric = match parse_epoch_metric(metric) {
        Some((_, "reconvergence_secs")) => "convergence_secs",
        Some((_, suffix)) => suffix,
        None => metric,
    };
    match metric {
        "convergence_secs" => (0.06, TolMode::Abs),
        "fixed_point_error_rel" => (0.05, TolMode::Abs),
        "macr_tail_mean_cps" => (0.10, TolMode::Rel),
        "oscillation_amplitude_cps" => (0.75, TolMode::Rel),
        // Tight on purpose: the deviation estimate is the most sensitive
        // fingerprint of the control loop's gains (a `dev_gain` change
        // from Jacobson's 1/4 to 1.0 moves it ~25% on fig2 while every
        // coarser metric stays put).
        "macr_mean_abs_dev_cps" => (0.20, TolMode::Rel),
        "jain_tail_min" => (0.10, TolMode::Abs),
        "jain_tail_mean" => (0.05, TolMode::Abs),
        "utilization_tail" => (0.10, TolMode::Abs),
        "queue_p50_cells" => (25.0, TolMode::Abs),
        "queue_p90_cells" => (50.0, TolMode::Abs),
        "queue_p99_cells" => (80.0, TolMode::Abs),
        "queue_max_cells" => (150.0, TolMode::Abs),
        "drops_total" => (0.0, TolMode::Abs),
        _ => (0.25, TolMode::Rel),
    }
}

/// Render a baseline file from a report with [`default_tolerance`]
/// bands. Null (unmeasurable) metrics are omitted rather than gated.
pub fn render_baseline(report: &AnalysisReport, scenario: &str) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{{\"schema\":{},\"scenario\":{}}}",
        json_str(BASELINE_SCHEMA),
        json_str(scenario)
    );
    let epoch_names = report
        .epochs
        .iter()
        .flat_map(|e| {
            crate::stream::EPOCH_METRIC_SUFFIXES
                .iter()
                .map(move |s| format!("epoch{}_{s}", e.index))
        })
        .collect::<Vec<_>>();
    for name in METRIC_NAMES
        .iter()
        .copied()
        .chain(epoch_names.iter().map(String::as_str))
    {
        let Some(v) = report.metric(name) else {
            continue;
        };
        let (tol, mode) = default_tolerance(name);
        let _ = writeln!(
            out,
            "{{\"metric\":{},\"value\":{},\"tol\":{},\"mode\":{}}}",
            json_str(name),
            json_f64(v),
            json_f64(tol),
            json_str(mode.name())
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{AnalysisTargets, StreamingAnalyzer};
    use phantom_metrics::manifest::{Manifest, TRACE_SCHEMA};

    fn tiny_report() -> AnalysisReport {
        let m = Manifest::new(TRACE_SCHEMA, "t", 1, "c");
        let mut a = StreamingAnalyzer::new(&m, AnalysisTargets::default(), 0.05);
        a.on_event(
            0.01,
            0,
            &phantom_sim::probe::ProbeEvent::Enqueue { port: 0, qlen: 3 },
        );
        a.finish()
    }

    #[test]
    fn baseline_round_trip_and_check() {
        let report = tiny_report();
        let text = render_baseline(&report, "t");
        let baseline = parse_baseline(&text).unwrap();
        assert_eq!(baseline.scenario, "t");
        assert!(!baseline.entries.is_empty());
        assert!(check_report(&report, &baseline).is_empty(), "self-check");
    }

    #[test]
    fn violations_name_metric_and_tolerance() {
        let report = tiny_report();
        let text = format!(
            "{{\"schema\":\"{BASELINE_SCHEMA}\",\"scenario\":\"t\"}}\n{}\n",
            "{\"metric\":\"drops_total\",\"value\":5,\"tol\":1,\"mode\":\"abs\"}"
        );
        let baseline = parse_baseline(&text).unwrap();
        let failures = check_report(&report, &baseline);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("`drops_total`"), "{}", failures[0]);
        assert!(failures[0].contains("± 1 (abs)"), "{}", failures[0]);
    }

    #[test]
    fn missing_metric_fails_the_check() {
        let report = tiny_report(); // has no MACR events
        let text = format!(
            "{{\"schema\":\"{BASELINE_SCHEMA}\",\"scenario\":\"t\"}}\n{}\n",
            "{\"metric\":\"macr_tail_mean_cps\",\"value\":100,\"tol\":0.1,\"mode\":\"rel\"}"
        );
        let failures = check_report(&report, &parse_baseline(&text).unwrap());
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing"));
    }

    #[test]
    fn rel_and_abs_bands() {
        let e = BaselineEntry {
            metric: "macr_tail_mean_cps".into(),
            value: 100.0,
            tol: 0.1,
            mode: TolMode::Rel,
        };
        assert!(e.accepts(109.9) && !e.accepts(111.0));
        let e = BaselineEntry {
            mode: TolMode::Abs,
            ..e
        };
        assert!(e.accepts(100.05) && !e.accepts(100.2));
    }

    #[test]
    fn unknown_metric_is_rejected_at_parse() {
        let text = format!(
            "{{\"schema\":\"{BASELINE_SCHEMA}\",\"scenario\":\"t\"}}\n{}\n",
            "{\"metric\":\"bogus\",\"value\":1,\"tol\":1,\"mode\":\"abs\"}"
        );
        assert!(parse_baseline(&text).is_err());
    }
}
