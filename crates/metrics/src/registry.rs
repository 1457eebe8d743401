//! A registry of named counters, gauges and histograms, for one thread.
//!
//! A reader registers metrics and fills them through the returned
//! [`CounterHandle`]/[`HistogramHandle`], or hands a gauge its
//! [`GaugeSummary`]; the registry keeps the authoritative list, in
//! registration order, and renders it as a Prometheus-style text
//! snapshot and a JSON summary, both stamped with a [`Manifest`].
//! `phantom run --metrics` and `phantom resume --metrics` build one from
//! the finished network's counters and series; the daemon's `/metrics`
//! endpoint builds one per scrape from its own counters. Both fill a
//! fresh registry on one thread, so nothing in it is shared or locked.
//!
//! A gauge summarizes a *sampled series* (one point per measurement
//! interval of a port), so a snapshot carries each gauge's mean/max over
//! the run, not just the final value.

use crate::json::{json_f64, json_str};
use crate::manifest::Manifest;
use phantom_sim::stats::{Histogram, TimeSeries};
use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::rc::Rc;

/// Handle to a registered monotonic counter.
#[derive(Clone, Debug)]
pub struct CounterHandle(Rc<Cell<u64>>);

impl CounterHandle {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// What a snapshot reports of a gauge: its last, mean and largest
/// sample, and the number of samples.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct GaugeSummary {
    /// The most recent sample (0 for an empty series).
    pub last: f64,
    /// Unweighted mean of the samples (0 for an empty series).
    pub mean: f64,
    /// Largest sample (0 for an empty series).
    pub max: f64,
    /// Number of samples.
    pub samples: usize,
}

impl GaugeSummary {
    /// A gauge read once: one sample of `v`.
    pub fn value(v: f64) -> Self {
        GaugeSummary {
            last: v,
            mean: v,
            max: v,
            samples: 1,
        }
    }

    /// Summarize the finite samples of `series` without copying it (a
    /// MACR series holds a non-finite sample when its allocator has no
    /// fair share yet). Mean and max are [`TimeSeries::mean`] and
    /// [`TimeSeries::max`] over those samples.
    pub fn of_finite(series: &TimeSeries) -> Self {
        let finite = || series.values().iter().copied().filter(|v| v.is_finite());
        let samples = finite().count();
        if samples == 0 {
            return GaugeSummary::default();
        }
        GaugeSummary {
            last: finite().next_back().unwrap_or(0.0),
            mean: finite().sum::<f64>() / samples as f64,
            max: finite().fold(f64::NEG_INFINITY, f64::max),
            samples,
        }
    }
}

/// Handle to a registered histogram.
#[derive(Clone, Debug)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// Record one observation `v >= 0`.
    pub fn record(&self, v: f64) {
        self.0.borrow_mut().record(v);
    }
}

enum Slot {
    Counter(Rc<Cell<u64>>),
    Gauge(GaugeSummary),
    Histogram(Rc<RefCell<Histogram>>),
}

struct Metric {
    name: String,
    labels: Vec<(String, String)>,
    slot: Slot,
}

/// The content-type a Prometheus scraper expects for the text
/// exposition format rendered by [`Registry::to_prometheus`].
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Fallback `# HELP` text for families registered without
/// [`Registry::set_help`].
const NO_HELP: &str = "phantom metric (no help registered)";

/// The metric registry for one run. Cloning shares the underlying list.
#[derive(Clone, Default)]
pub struct Registry {
    metrics: Rc<RefCell<Vec<Metric>>>,
    help: Rc<RefCell<Vec<(String, String)>>>,
}

fn check_name(name: &str) {
    assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "metric name `{name}` must be snake_case ASCII"
    );
}

fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| {
            check_name(k);
            (k.to_string(), v.to_string())
        })
        .collect()
}

fn label_suffix(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{k}={}", prom_label_value(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

fn prom_label_value(v: &str) -> String {
    let escaped = v
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n");
    format!("\"{escaped}\"")
}

fn labels_json(labels: &[(String, String)]) -> String {
    let body: Vec<String> = labels
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), json_str(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter named `name` with `labels`; returns its handle.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> CounterHandle {
        let cell = Rc::new(Cell::new(0));
        self.push(name, labels, Slot::Counter(Rc::clone(&cell)));
        CounterHandle(cell)
    }

    /// Register a gauge named `name` with `labels` and its summary.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], summary: GaugeSummary) {
        self.push(name, labels, Slot::Gauge(summary));
    }

    /// Register a histogram of `nbins` bins of width `bin_width`.
    pub fn histogram(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        bin_width: f64,
        nbins: usize,
    ) -> HistogramHandle {
        let hist = Rc::new(RefCell::new(Histogram::new(bin_width, nbins)));
        self.push(name, labels, Slot::Histogram(Rc::clone(&hist)));
        HistogramHandle(hist)
    }

    fn push(&self, name: &str, labels: &[(&str, &str)], slot: Slot) {
        check_name(name);
        self.metrics.borrow_mut().push(Metric {
            name: name.to_string(),
            labels: own_labels(labels),
            slot,
        });
    }

    /// Attach `# HELP` text to the metric family `name` (all samples of
    /// the family share it, per the exposition format). Last call wins;
    /// families without help render the explicit fallback text, so a
    /// scraper always sees exactly one `# HELP` line per family.
    pub fn set_help(&self, name: &str, help: &str) {
        check_name(name);
        let mut table = self.help.borrow_mut();
        match table.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = help.to_string(),
            None => table.push((name.to_string(), help.to_string())),
        }
    }

    /// The help text for family `name` — registered or fallback —
    /// escaped for the exposition format (`\\` and `\n`).
    fn help_for(&self, name: &str) -> String {
        let table = self.help.borrow();
        let text = table
            .iter()
            .find(|(n, _)| n == name)
            .map_or(NO_HELP, |(_, h)| h.as_str());
        text.replace('\\', "\\\\").replace('\n', "\\n")
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.borrow().len()
    }

    /// True when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.borrow().is_empty()
    }

    /// Render a Prometheus-style text snapshot (`phantom-metrics/1`).
    /// The manifest rides along as a leading comment. Histograms are
    /// rendered in the native exposition format: *cumulative*
    /// `_bucket{le="…"}` counts (the underlying bins are coalesced to at
    /// most ten boundaries so the snapshot stays readable), a `+Inf`
    /// bucket that is always present and equals `_count` (it absorbs
    /// the overflow bin), then `_sum` and `_count`.
    ///
    /// Samples are grouped by metric family (in first-registration
    /// order) — the text format requires every sample of a family to sit
    /// consecutively under a single `# HELP`/`# TYPE` pair, even when
    /// nodes registered the families interleaved. Serve the result with
    /// [`PROMETHEUS_CONTENT_TYPE`].
    pub fn to_prometheus(&self, manifest: &Manifest) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# manifest: {}", manifest.to_json());
        let metrics = self.metrics.borrow();
        let mut names: Vec<&str> = Vec::new();
        for m in metrics.iter() {
            if !names.contains(&m.name.as_str()) {
                names.push(&m.name);
            }
        }
        for name in names {
            let mut typed = false;
            for m in metrics.iter().filter(|m| m.name == name) {
                let suffix = label_suffix(&m.labels);
                match &m.slot {
                    Slot::Counter(c) => {
                        if !typed {
                            let _ = writeln!(out, "# HELP {name} {}", self.help_for(name));
                            let _ = writeln!(out, "# TYPE {name} counter");
                            typed = true;
                        }
                        let _ = writeln!(out, "{name}{suffix} {}", c.get());
                    }
                    Slot::Gauge(g) => {
                        if !typed {
                            let _ = writeln!(out, "# HELP {name} {}", self.help_for(name));
                            let _ = writeln!(out, "# TYPE {name} gauge");
                            typed = true;
                        }
                        let _ = writeln!(out, "{name}{suffix} {}", json_f64(g.last));
                    }
                    Slot::Histogram(h) => {
                        if !typed {
                            let _ = writeln!(out, "# HELP {name} {}", self.help_for(name));
                            let _ = writeln!(out, "# TYPE {name} histogram");
                            typed = true;
                        }
                        let h = h.borrow();
                        let bins = h.bins();
                        // Coalesce fine bins to at most ten exported
                        // boundaries; counts are cumulative per the
                        // exposition format. Boundaries derive from the
                        // *logical* bin count — `bins()` stores only the
                        // materialized prefix and trailing bins read 0.
                        let step = h.nbins().div_ceil(10).max(1);
                        let mut acc = 0u64;
                        let mut lo = 0usize;
                        while lo < h.nbins() {
                            let hi = (lo + step).min(h.nbins());
                            acc += (lo..hi.min(bins.len())).map(|i| bins[i]).sum::<u64>();
                            let edge = (hi as f64) * h.bin_width();
                            let mut labels = m.labels.clone();
                            labels.push(("le".to_string(), json_f64(edge).to_string()));
                            let _ = writeln!(out, "{name}_bucket{} {acc}", label_suffix(&labels));
                            lo = hi;
                        }
                        // +Inf is mandatory and equals the total count
                        // (it absorbs the overflow bin).
                        let mut labels = m.labels.clone();
                        labels.push(("le".to_string(), "+Inf".to_string()));
                        let _ =
                            writeln!(out, "{name}_bucket{} {}", label_suffix(&labels), h.count());
                        let _ = writeln!(out, "{name}_sum{suffix} {}", json_f64(h.sum()));
                        let _ = writeln!(out, "{name}_count{suffix} {}", h.count());
                    }
                }
            }
        }
        out
    }

    /// Render a JSON summary snapshot (`phantom-metrics/1`) with the
    /// manifest embedded. Gauges carry last/mean/max over the sampled
    /// series; histograms carry count/mean/quantiles/max.
    pub fn to_json(&self, manifest: &Manifest) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"schema\": {},", json_str(&manifest.schema));
        let _ = writeln!(out, "  \"manifest\": {},", manifest.to_json());
        out.push_str("  \"metrics\": [\n");
        let metrics = self.metrics.borrow();
        for (i, m) in metrics.iter().enumerate() {
            let head = format!(
                "    {{\"name\": {}, \"labels\": {}",
                json_str(&m.name),
                labels_json(&m.labels)
            );
            let body = match &m.slot {
                Slot::Counter(c) => {
                    format!("{head}, \"type\": \"counter\", \"value\": {}}}", c.get())
                }
                Slot::Gauge(g) => {
                    format!(
                        "{head}, \"type\": \"gauge\", \"last\": {}, \"mean\": {}, \"max\": {}, \"samples\": {}}}",
                        json_f64(g.last),
                        json_f64(g.mean),
                        json_f64(g.max),
                        g.samples
                    )
                }
                Slot::Histogram(h) => {
                    let h = h.borrow();
                    format!(
                        "{head}, \"type\": \"histogram\", \"count\": {}, \"mean\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}",
                        h.count(),
                        json_f64(h.mean()),
                        json_f64(h.quantile(0.5)),
                        json_f64(h.quantile(0.9)),
                        json_f64(h.quantile(0.99)),
                        json_f64(h.max())
                    )
                }
            };
            out.push_str(&body);
            out.push_str(if i + 1 < metrics.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::METRICS_SCHEMA;
    use phantom_sim::SimTime;

    fn manifest() -> Manifest {
        Manifest::new(METRICS_SCHEMA, "fig2", 1996, "cfg")
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("cells_dropped_total", &[("trunk", "s1->s2")]);
        let mut series = TimeSeries::new();
        series.push(SimTime::from_millis(1), 5.0);
        series.push(SimTime::from_millis(2), 9.0);
        reg.gauge(
            "trunk_queue_cells",
            &[("trunk", "s1->s2")],
            GaugeSummary::of_finite(&series),
        );
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        assert_eq!(reg.len(), 2);

        let prom = reg.to_prometheus(&manifest());
        assert!(prom.starts_with("# manifest: {\"schema\":\"phantom-metrics/1\""));
        assert!(prom.contains("# TYPE cells_dropped_total counter"));
        assert!(prom.contains("cells_dropped_total{trunk=\"s1->s2\"} 3"));
        assert!(prom.contains("trunk_queue_cells{trunk=\"s1->s2\"} 9"));

        let json = reg.to_json(&manifest());
        assert!(json.contains("\"schema\": \"phantom-metrics/1\""));
        assert!(json.contains("\"manifest\": {\"schema\":"));
        assert!(json.contains("\"value\": 3"));
        assert!(json.contains("\"last\": 9, \"mean\": 7, \"max\": 9, \"samples\": 2"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn histograms_export_cumulative_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("rm_delay_seconds", &[], 0.001, 100);
        for v in [0.0005, 0.0015, 0.0015, 0.0105] {
            h.record(v);
        }
        let prom = reg.to_prometheus(&manifest());
        assert!(prom.contains("# TYPE rm_delay_seconds histogram"));
        // Counts are cumulative: 3 observations below 0.01, all 4 below 0.02.
        assert!(prom.contains("rm_delay_seconds_bucket{le=\"0.01\"} 3"));
        assert!(prom.contains("rm_delay_seconds_bucket{le=\"0.02\"} 4"));
        assert!(prom.contains("rm_delay_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(prom.contains("rm_delay_seconds_count 4"));
        let json = reg.to_json(&manifest());
        assert!(json.contains("\"type\": \"histogram\", \"count\": 4"));
    }

    #[test]
    fn histogram_inf_bucket_absorbs_overflow() {
        let reg = Registry::new();
        let h = reg.histogram("q_cells", &[], 1.0, 4);
        h.record(100.0); // beyond the last bin
        let prom = reg.to_prometheus(&manifest());
        assert!(prom.contains("q_cells_bucket{le=\"4\"} 0"));
        assert!(prom.contains("q_cells_bucket{le=\"+Inf\"} 1"));
        assert!(prom.contains("q_cells_count 1"));
    }

    #[test]
    fn snapshot_interleaved_histograms_and_counters() {
        // Two ports register (histogram, counter) pairs interleaved;
        // pin the exact rendered snapshot (sans manifest line) so the
        // family grouping, cumulative buckets and +Inf stay fixed.
        let reg = Registry::new();
        let h0 = reg.histogram("q_cells", &[("port", "0")], 1.0, 4);
        reg.counter("tx_total", &[("port", "0")]).inc();
        let h1 = reg.histogram("q_cells", &[("port", "1")], 1.0, 4);
        reg.counter("tx_total", &[("port", "1")]).add(2);
        for v in [0.5, 1.5, 2.5] {
            h0.record(v);
        }
        h1.record(9.0); // overflow: visible only in +Inf
        let prom = reg.to_prometheus(&manifest());
        let body: String = prom.lines().skip(1).map(|l| format!("{l}\n")).collect();
        assert_eq!(
            body,
            "\
# HELP q_cells phantom metric (no help registered)
# TYPE q_cells histogram
q_cells_bucket{port=\"0\",le=\"1\"} 1
q_cells_bucket{port=\"0\",le=\"2\"} 2
q_cells_bucket{port=\"0\",le=\"3\"} 3
q_cells_bucket{port=\"0\",le=\"4\"} 3
q_cells_bucket{port=\"0\",le=\"+Inf\"} 3
q_cells_sum{port=\"0\"} 4.5
q_cells_count{port=\"0\"} 3
q_cells_bucket{port=\"1\",le=\"1\"} 0
q_cells_bucket{port=\"1\",le=\"2\"} 0
q_cells_bucket{port=\"1\",le=\"3\"} 0
q_cells_bucket{port=\"1\",le=\"4\"} 0
q_cells_bucket{port=\"1\",le=\"+Inf\"} 1
q_cells_sum{port=\"1\"} 9
q_cells_count{port=\"1\"} 1
# HELP tx_total phantom metric (no help registered)
# TYPE tx_total counter
tx_total{port=\"0\"} 1
tx_total{port=\"1\"} 2
"
        );
    }

    #[test]
    fn type_line_emitted_once_per_name() {
        let reg = Registry::new();
        reg.counter("drops_total", &[("port", "0")]).inc();
        reg.counter("drops_total", &[("port", "1")]).add(2);
        let prom = reg.to_prometheus(&manifest());
        assert_eq!(prom.matches("# TYPE drops_total counter").count(), 1);
        assert!(prom.contains("drops_total{port=\"0\"} 1"));
        assert!(prom.contains("drops_total{port=\"1\"} 2"));
    }

    #[test]
    fn interleaved_registrations_still_group_families() {
        // Two ports each register (tx, q) pairs, so the registration
        // order interleaves the families; the snapshot must regroup them.
        let reg = Registry::new();
        reg.counter("tx_total", &[("port", "0")]).inc();
        reg.gauge("q_cells", &[("port", "0")], GaugeSummary::value(1.0));
        reg.counter("tx_total", &[("port", "1")]).add(5);
        reg.gauge("q_cells", &[("port", "1")], GaugeSummary::value(2.0));
        let prom = reg.to_prometheus(&manifest());
        let tx0 = prom.find("tx_total{port=\"0\"}").unwrap();
        let tx1 = prom.find("tx_total{port=\"1\"}").unwrap();
        let q0 = prom.find("q_cells{port=\"0\"}").unwrap();
        assert!(tx0 < tx1 && tx1 < q0, "families must be consecutive");
        assert_eq!(prom.matches("# TYPE").count(), 2);
    }

    #[test]
    fn every_family_renders_help_and_type_exactly_once() {
        // One registry carrying all three metric kinds, two of them
        // multi-sample families, one with registered help and a
        // newline to escape: each family must render `# HELP` and
        // `# TYPE` exactly once, HELP immediately before TYPE.
        let reg = Registry::new();
        reg.counter("jobs_total", &[("state", "done")]).inc();
        reg.counter("jobs_total", &[("state", "failed")]).inc();
        reg.gauge("queue_depth", &[], GaugeSummary::value(3.0));
        reg.histogram("run_seconds", &[("worker", "0")], 0.5, 4)
            .record(0.7);
        reg.histogram("run_seconds", &[("worker", "1")], 0.5, 4)
            .record(1.2);
        reg.set_help("jobs_total", "jobs admitted, by terminal state");
        reg.set_help("queue_depth", "first\nsecond \\ line");
        let prom = reg.to_prometheus(&manifest());
        for name in ["jobs_total", "queue_depth", "run_seconds"] {
            assert_eq!(
                prom.matches(&format!("# HELP {name} ")).count(),
                1,
                "{name}: HELP must appear exactly once"
            );
            assert_eq!(
                prom.matches(&format!("# TYPE {name} ")).count(),
                1,
                "{name}: TYPE must appear exactly once"
            );
            let help = prom.find(&format!("# HELP {name} ")).unwrap();
            let ty = prom.find(&format!("# TYPE {name} ")).unwrap();
            assert!(help < ty, "{name}: HELP must precede TYPE");
        }
        assert!(prom.contains("# HELP jobs_total jobs admitted, by terminal state\n"));
        assert!(prom.contains("# HELP queue_depth first\\nsecond \\\\ line\n"));
        assert!(prom.contains("# HELP run_seconds phantom metric (no help registered)\n"));
        assert_eq!(PROMETHEUS_CONTENT_TYPE, "text/plain; version=0.0.4");
    }

    #[test]
    #[should_panic(expected = "snake_case")]
    fn bad_metric_name_rejected() {
        Registry::new().counter("Bad-Name", &[]);
    }

    #[test]
    fn label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter("c_total", &[("path", "a\"b\\c")]).inc();
        let prom = reg.to_prometheus(&manifest());
        assert!(prom.contains("c_total{path=\"a\\\"b\\\\c\"} 1"));
    }
}
