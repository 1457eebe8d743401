//! A two-pass reference analyzer, for testing the streaming one.
//!
//! This implementation buffers the whole event stream, finds the
//! bottleneck, and then computes every metric with batch algorithms
//! (e.g. the backward scan of [`phantom_metrics::convergence_time`]
//! instead of the streaming candidate tracker). It exists so tests can
//! assert the one-pass analyzer is *byte-identical* to an obviously
//! correct formulation on real traces — it is not exported to tools.

use crate::jsonl::{parse_event_line, parse_manifest_line};
use crate::stream::{jain_exact, AnalysisReport, AnalysisTargets, EpochRow, WindowRow};
use phantom_metrics::loghist::LogHistogram;
use phantom_metrics::manifest::ANALYSIS_SCHEMA;
use phantom_sim::probe::ProbeEvent;
use std::collections::BTreeMap;

/// Analyze a trace string in two passes. Same inputs and semantics as
/// [`crate::jsonl::analyze_trace_str`]; independent implementation.
pub fn analyze_trace_str_two_pass(
    text: &str,
    targets: AnalysisTargets,
    window_secs: f64,
) -> Result<AnalysisReport, String> {
    assert!(window_secs > 0.0);
    let mut lines = text.lines();
    let manifest =
        parse_manifest_line(lines.next().ok_or("empty trace")?)?.for_schema(ANALYSIS_SCHEMA);

    // Pass 1: buffer everything.
    let mut events = Vec::new();
    for (n, line) in lines.enumerate() {
        events.push(parse_event_line(line, n + 2)?);
    }

    let widx = |t: f64| (t / window_secs).max(0.0) as u64;
    let tail = targets.tail_from_secs;
    let nan = f64::NAN;

    // Bottleneck: most dequeues, ties to the lowest (node, port); ports
    // that only ever enqueued don't qualify, MACR-only ports do.
    let mut dequeues: BTreeMap<(usize, u32), u64> = BTreeMap::new();
    let mut qualifies: BTreeMap<(usize, u32), bool> = BTreeMap::new();
    for (_, node, ev) in &events {
        match *ev {
            ProbeEvent::Dequeue { port, .. } => {
                *dequeues.entry((*node, port)).or_default() += 1;
                qualifies.insert((*node, port), true);
            }
            ProbeEvent::MacrUpdate { port, .. } => {
                qualifies.entry((*node, port)).or_insert(true);
            }
            _ => {}
        }
    }
    let bkey = qualifies
        .keys()
        .map(|&k| (k, dequeues.get(&k).copied().unwrap_or(0)))
        .fold(None::<((usize, u32), u64)>, |best, (k, d)| match best {
            Some((_, bd)) if bd >= d => best,
            _ => Some((k, d)),
        })
        .map(|(k, _)| k);

    // Pass 2: batch metrics over the buffered stream.
    let mut n_events = 0u64;
    let mut drops = 0u64;
    let mut last_t = 0.0f64;
    let mut q_hist = LogHistogram::new();
    let mut macr_series: Vec<(f64, f64)> = Vec::new();
    let mut tail_sum = 0.0;
    let mut tail_n = 0u64;
    let mut tail_min = f64::INFINITY;
    let mut tail_max = f64::NEG_INFINITY;
    let mut dev_sum = 0.0;
    let mut dev_n = 0u64;
    let mut tail_dequeues = 0u64;
    let mut macr_windows: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    let mut qmax_windows: BTreeMap<u64, f64> = BTreeMap::new();
    let mut deq_windows: BTreeMap<u64, u64> = BTreeMap::new();
    // Fairness: per-window per-session (count, sum), windows keyed by
    // index but *segmented by arrival* exactly like the streaming
    // analyzer (a window only exists while rate samples land in it).
    type RateMap = BTreeMap<u32, (u64, f64)>;
    let mut jain_windows: Vec<(u64, RateMap, RateMap)> = Vec::new();

    for &(t, node, ref ev) in &events {
        n_events += 1;
        if t > last_t {
            last_t = t;
        }
        let at_bottleneck = |port: u32| bkey == Some((node, port));
        match *ev {
            ProbeEvent::Enqueue { port, qlen } | ProbeEvent::Dequeue { port, qlen }
                if at_bottleneck(port) =>
            {
                q_hist.record(u64::from(qlen));
                let e = qmax_windows.entry(widx(t)).or_insert(f64::NEG_INFINITY);
                *e = e.max(f64::from(qlen));
                if matches!(ev, ProbeEvent::Dequeue { .. }) {
                    *deq_windows.entry(widx(t)).or_default() += 1;
                    if t >= tail {
                        tail_dequeues += 1;
                    }
                }
            }
            ProbeEvent::Drop { port, qlen, .. } => {
                drops += 1;
                if at_bottleneck(port) {
                    q_hist.record(u64::from(qlen));
                    let e = qmax_windows.entry(widx(t)).or_insert(f64::NEG_INFINITY);
                    *e = e.max(f64::from(qlen));
                }
            }
            ProbeEvent::MacrUpdate {
                port, macr, dev, ..
            } if at_bottleneck(port) => {
                macr_series.push((t, macr));
                let e = macr_windows.entry(widx(t)).or_insert((0, 0.0));
                e.0 += 1;
                e.1 += macr;
                if t >= tail {
                    tail_sum += macr;
                    tail_n += 1;
                    tail_min = tail_min.min(macr);
                    tail_max = tail_max.max(macr);
                    if dev.is_finite() {
                        dev_sum += dev;
                        dev_n += 1;
                    }
                }
            }
            ProbeEvent::RmTurnaround { vc, er, .. } => {
                let idx = widx(t);
                if jain_windows.last().map(|w| w.0) != Some(idx) {
                    jain_windows.push((idx, RateMap::new(), RateMap::new()));
                }
                let e = jain_windows
                    .last_mut()
                    .unwrap()
                    .1
                    .entry(vc)
                    .or_insert((0, 0.0));
                e.0 += 1;
                e.1 += er;
            }
            ProbeEvent::CwndChange { flow, cwnd, .. } => {
                let idx = widx(t);
                if jain_windows.last().map(|w| w.0) != Some(idx) {
                    jain_windows.push((idx, RateMap::new(), RateMap::new()));
                }
                let e = jain_windows
                    .last_mut()
                    .unwrap()
                    .2
                    .entry(flow)
                    .or_insert((0, 0.0));
                e.0 += 1;
                e.1 += cwnd;
            }
            _ => {}
        }
    }

    // Convergence: the backward scan of phantom_metrics::convergence_time
    // transplanted onto the raw (t, macr) pairs.
    let conv = match targets.macr_cps {
        Some(target) if !macr_series.is_empty() => {
            let band = targets.conv_tol * target.abs().max(f64::MIN_POSITIVE);
            let last_bad = macr_series
                .iter()
                .rposition(|&(_, v)| (v - target).abs() > band);
            match last_bad {
                None => macr_series[0].0,
                Some(i) if i + 1 < macr_series.len() => macr_series[i + 1].0,
                Some(_) => nan,
            }
        }
        _ => nan,
    };
    let macr_mean = if tail_n == 0 {
        nan
    } else {
        tail_sum / tail_n as f64
    };
    let osc = if tail_n == 0 {
        nan
    } else if tail_n == 1 {
        0.0
    } else {
        tail_max - tail_min
    };
    let dev_mean = if dev_n == 0 {
        nan
    } else {
        dev_sum / dev_n as f64
    };
    let fp_err = match (targets.macr_cps, macr_mean.is_nan()) {
        (Some(target), false) if target != 0.0 => (macr_mean - target).abs() / target.abs(),
        _ => nan,
    };
    let util = match (targets.capacity_cps, bkey) {
        (Some(c), Some(_)) if last_t > tail && c > 0.0 => {
            tail_dequeues as f64 / ((last_t - tail) * c)
        }
        _ => nan,
    };

    let jains: Vec<(u64, f64)> = jain_windows
        .iter()
        .map(|(idx, rm, cwnd)| {
            let src = if rm.is_empty() { cwnd } else { rm };
            let rates: Vec<f64> = src.values().map(|&(n, s)| s / n as f64).collect();
            (*idx, jain_exact(&rates))
        })
        .collect();
    let (jain_min, jain_mean) = {
        let tailed: Vec<f64> = jains
            .iter()
            .filter(|&&(idx, j)| idx as f64 * window_secs >= tail && !j.is_nan())
            .map(|&(_, j)| j)
            .collect();
        if tailed.is_empty() {
            (nan, nan)
        } else {
            (
                tailed.iter().copied().fold(f64::INFINITY, f64::min),
                tailed.iter().sum::<f64>() / tailed.len() as f64,
            )
        }
    };
    let (qp50, qp90, qp99, qmax) = if q_hist.is_empty() {
        (nan, nan, nan, nan)
    } else {
        (
            q_hist.quantile(0.5) as f64,
            q_hist.quantile(0.9) as f64,
            q_hist.quantile(0.99) as f64,
            q_hist.max() as f64,
        )
    };

    // Per-epoch metrics via the same backward scan, restricted to the
    // epoch's interval, with the epoch's own target; the tail is the
    // epoch's second half.
    let epochs: Vec<EpochRow> = targets
        .epochs
        .iter()
        .enumerate()
        .map(|(i, e)| {
            let in_epoch: Vec<(f64, f64)> = macr_series
                .iter()
                .copied()
                .filter(|&(t, _)| t >= e.from_secs && t < e.to_secs)
                .collect();
            let band = targets.conv_tol * e.macr_cps.abs().max(f64::MIN_POSITIVE);
            let cand = if in_epoch.is_empty() {
                None
            } else {
                match in_epoch
                    .iter()
                    .rposition(|&(_, v)| (v - e.macr_cps).abs() > band)
                {
                    None => Some(in_epoch[0].0),
                    Some(i) if i + 1 < in_epoch.len() => Some(in_epoch[i + 1].0),
                    Some(_) => None,
                }
            };
            let tail_from = e.from_secs + 0.5 * (e.to_secs - e.from_secs);
            let (mut sum, mut n) = (0.0, 0u64);
            for &(t, v) in &in_epoch {
                if t >= tail_from {
                    sum += v;
                    n += 1;
                }
            }
            let mean = if n == 0 { nan } else { sum / n as f64 };
            EpochRow {
                index: i as u64,
                from_secs: e.from_secs,
                to_secs: e.to_secs,
                target_macr_cps: e.macr_cps,
                reconvergence_secs: cand.map_or(nan, |t| t - e.from_secs),
                fixed_point_error_rel: if mean.is_nan() || e.macr_cps == 0.0 {
                    nan
                } else {
                    (mean - e.macr_cps).abs() / e.macr_cps.abs()
                },
                macr_tail_mean_cps: mean,
            }
        })
        .collect();

    let metrics = vec![
        ("convergence_secs", conv),
        ("fixed_point_error_rel", fp_err),
        ("macr_tail_mean_cps", macr_mean),
        ("oscillation_amplitude_cps", osc),
        ("macr_mean_abs_dev_cps", dev_mean),
        ("jain_tail_min", jain_min),
        ("jain_tail_mean", jain_mean),
        ("utilization_tail", util),
        ("queue_p50_cells", qp50),
        ("queue_p90_cells", qp90),
        ("queue_p99_cells", qp99),
        ("queue_max_cells", qmax),
        ("drops_total", drops as f64),
    ];

    let mut rows: BTreeMap<u64, WindowRow> = BTreeMap::new();
    let blank = |index| WindowRow {
        index,
        macr_mean_cps: nan,
        jain: nan,
        utilization: nan,
        queue_max_cells: nan,
    };
    for (&idx, &(n, sum)) in &macr_windows {
        rows.entry(idx).or_insert_with(|| blank(idx)).macr_mean_cps = sum / n as f64;
    }
    for (&idx, &m) in &qmax_windows {
        rows.entry(idx)
            .or_insert_with(|| blank(idx))
            .queue_max_cells = m;
    }
    if let Some(c) = targets.capacity_cps {
        for (&idx, &n) in &deq_windows {
            rows.entry(idx).or_insert_with(|| blank(idx)).utilization =
                n as f64 / (window_secs * c);
        }
    }
    for &(idx, j) in &jains {
        if !j.is_nan() {
            rows.entry(idx).or_insert_with(|| blank(idx)).jain = j;
        }
    }

    Ok(AnalysisReport {
        manifest,
        window_secs,
        events: n_events,
        metrics,
        epochs,
        windows: rows.into_values().collect(),
    })
}
