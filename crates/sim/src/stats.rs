//! Measurement primitives used by every experiment.
//!
//! * [`TimeSeries`] — explicit `(t, v)` samples, e.g. a MACR trace.
//! * [`Counter`] — a monotonically increasing event count.
//! * [`Histogram`] — fixed-width bins with exact mean and approximate
//!   quantiles, e.g. for packet delays.
//! * [`RunningStats`] — streaming count/sum/min/max, the constant-memory
//!   accumulator behind single-pass trace analysis.
//! * [`IntervalSampler`] — tumbling-window [`RunningStats`] over a
//!   timestamped scalar stream.

use crate::snapshot::{KvReader, KvWriter};
use crate::time::SimTime;

/// A recorded sequence of `(time, value)` samples.
#[derive(Clone, Debug, Default)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a sample at time `t`. Times must be non-decreasing.
    pub fn push(&mut self, t: SimTime, v: f64) {
        let tf = t.as_secs_f64();
        debug_assert!(
            self.times.last().is_none_or(|&last| tf >= last),
            "TimeSeries times must be non-decreasing"
        );
        self.times.push(tf);
        self.values.push(v);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Sample times, in seconds.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Sample values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Heap bytes held by the recorded samples (by capacity).
    pub fn heap_bytes(&self) -> usize {
        (self.times.capacity() + self.values.capacity()) * std::mem::size_of::<f64>()
    }

    /// The last recorded value, if any.
    pub fn last(&self) -> Option<f64> {
        self.values.last().copied()
    }

    /// The same sample times with `f` applied to every value, sized
    /// exactly (no growth slack).
    pub fn map_values(&self, f: impl Fn(f64) -> f64) -> TimeSeries {
        TimeSeries {
            times: self.times.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Iterate over `(t_seconds, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Arithmetic mean of the sample values (unweighted by time).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Largest sample value, or `None` for an empty series.
    pub fn try_max(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(
                self.values
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max),
            )
        }
    }

    /// Largest sample value, or 0 for an empty series. Correct for
    /// all-negative series; use [`TimeSeries::try_max`] when the empty
    /// case must be distinguishable from a genuine 0.
    pub fn max(&self) -> f64 {
        self.try_max().unwrap_or(0.0)
    }

    /// Smallest sample value, or `None` for an empty series.
    pub fn try_min(&self) -> Option<f64> {
        if self.values.is_empty() {
            None
        } else {
            Some(self.values.iter().copied().fold(f64::INFINITY, f64::min))
        }
    }

    /// Smallest sample value, or 0 for an empty series (see
    /// [`TimeSeries::try_min`]).
    pub fn min(&self) -> f64 {
        self.try_min().unwrap_or(0.0)
    }

    /// Mean of samples with `t >= from` seconds (unweighted).
    pub fn mean_after(&self, from: f64) -> f64 {
        let mut sum = 0.0;
        let mut n = 0usize;
        for (t, v) in self.iter() {
            if t >= from {
                sum += v;
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Largest sample value with `t >= from` seconds, or `None` when no
    /// sample falls in the window.
    pub fn try_max_after(&self, from: f64) -> Option<f64> {
        self.iter()
            .filter(|&(t, _)| t >= from)
            .map(|(_, v)| v)
            .fold(None, |acc, v| Some(acc.map_or(v, |a: f64| a.max(v))))
    }

    /// Largest sample value with `t >= from` seconds, or 0 when no sample
    /// falls in the window. Correct for all-negative series; use
    /// [`TimeSeries::try_max_after`] to distinguish the empty window.
    pub fn max_after(&self, from: f64) -> f64 {
        self.try_max_after(from).unwrap_or(0.0)
    }

    /// Value of the series at time `t` (seconds), treating it as a
    /// piecewise-constant (sample-and-hold) signal. Returns `None` before
    /// the first sample.
    pub fn value_at(&self, t: f64) -> Option<f64> {
        match self.times.partition_point(|&x| x <= t) {
            0 => None,
            i => Some(self.values[i - 1]),
        }
    }

    /// Serialize the recorded samples for a checkpoint (exact
    /// round-trip). Callers namespace via [`KvWriter::scope`].
    pub fn save(&self, w: &mut KvWriter) {
        w.f64_list("times", &self.times);
        w.f64_list("values", &self.values);
    }

    /// Overwrite this series from a [`TimeSeries::save`] record.
    pub fn restore(&mut self, r: &mut KvReader) -> Result<(), String> {
        let times = r.f64_list("times")?;
        let values = r.f64_list("values")?;
        if times.len() != values.len() {
            return Err(format!(
                "time series length mismatch: {} times vs {} values",
                times.len(),
                values.len()
            ));
        }
        self.times = times;
        self.values = values;
        Ok(())
    }
}

/// A monotonically increasing event counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A fixed-bin histogram with exact count/sum and approximate quantiles.
///
/// Bin storage is allocated lazily: an empty histogram holds no bin
/// memory at all, and `record` grows the bin vector only as far as the
/// highest bin actually hit. A million idle histograms (one per session
/// at metro scale) therefore cost a few hundred bytes each instead of
/// `nbins * 8` — the eager `vec![0; 10_000]` here used to dominate the
/// whole simulation's resident set at 10⁵+ sessions.
#[derive(Clone, Debug)]
pub struct Histogram {
    bin_width: f64,
    /// Logical bin count: values at or above `nbins * bin_width`
    /// overflow. `bins.len() <= nbins`; trailing zero bins are not
    /// stored.
    nbins: usize,
    bins: Vec<u64>,
    overflow: u64,
    count: u64,
    sum: f64,
    max: f64,
}

impl Histogram {
    /// A histogram of `nbins` bins of width `bin_width`; values at or above
    /// `nbins * bin_width` land in an overflow bin. Allocates nothing
    /// until the first `record`.
    pub fn new(bin_width: f64, nbins: usize) -> Self {
        assert!(bin_width > 0.0 && nbins > 0);
        Histogram {
            bin_width,
            nbins,
            bins: Vec::new(),
            overflow: 0,
            count: 0,
            sum: 0.0,
            max: 0.0,
        }
    }

    /// Record one observation `v >= 0`.
    pub fn record(&mut self, v: f64) {
        debug_assert!(v >= 0.0, "histogram values must be non-negative");
        let idx = (v / self.bin_width) as usize;
        if idx < self.nbins {
            if idx >= self.bins.len() {
                self.bins.resize(idx + 1, 0);
            }
            self.bins[idx] += 1;
        } else {
            self.overflow += 1;
        }
        self.count += 1;
        self.sum += v;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact mean of all observations.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The width of each regular bin.
    pub fn bin_width(&self) -> f64 {
        self.bin_width
    }

    /// Per-bin counts (values in `[i*w, (i+1)*w)` land in bin `i`).
    /// May be shorter than [`Histogram::nbins`]: trailing bins that were
    /// never hit are not stored and count as zero.
    pub fn bins(&self) -> &[u64] {
        &self.bins
    }

    /// Logical bin count (the `nbins` passed at construction) — the
    /// overflow threshold is `nbins() * bin_width()` regardless of how
    /// many bins are materialized in [`Histogram::bins`].
    pub fn nbins(&self) -> usize {
        self.nbins
    }

    /// Observations at or above `nbins() * bin_width()`.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Heap bytes held by the materialized bins (by capacity).
    pub fn heap_bytes(&self) -> usize {
        self.bins.capacity() * std::mem::size_of::<u64>()
    }

    /// Serialize the observations for a checkpoint. Bin geometry
    /// (`bin_width`, `nbins`) is static configuration and not written.
    pub fn save(&self, w: &mut KvWriter) {
        w.u64_list("bins", &self.bins);
        w.u64("overflow", self.overflow);
        w.u64("count", self.count);
        w.f64("sum", self.sum);
        w.f64("max", self.max);
    }

    /// Overwrite this histogram's observations from a
    /// [`Histogram::save`] record. The histogram must have been rebuilt
    /// with the original bin geometry.
    pub fn restore(&mut self, r: &mut KvReader) -> Result<(), String> {
        let bins = r.u64_list("bins")?;
        if bins.len() > self.nbins {
            return Err(format!(
                "histogram has {} bins but geometry allows {}",
                bins.len(),
                self.nbins
            ));
        }
        self.bins = bins;
        self.overflow = r.u64("overflow")?;
        self.count = r.u64("count")?;
        self.sum = r.f64("sum")?;
        self.max = r.f64("max")?;
        Ok(())
    }

    /// Approximate `q`-quantile (`0 <= q <= 1`), resolved to bin width.
    /// Returns the upper edge of the bin containing the quantile.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0.0;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut acc = 0u64;
        for (i, &c) in self.bins.iter().enumerate() {
            acc += c;
            if acc >= target {
                return (i as f64 + 1.0) * self.bin_width;
            }
        }
        self.max
    }
}

/// Streaming count/sum/min/max of a scalar stream — the constant-memory
/// accumulator the trace analyzer builds everything on.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold in one observation.
    pub fn push(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            if v < self.min {
                self.min = v;
            }
            if v > self.max {
                self.max = v;
            }
        }
        self.count += 1;
        self.sum += v;
    }

    /// Observations folded in so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Peak-to-peak range (`max - min`; 0 when fewer than two samples).
    pub fn range(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.max - self.min
        }
    }
}

/// Tumbling-window statistics of a timestamped scalar stream.
///
/// Samples at time `t` land in window `floor(t / width)`. Windows close
/// as soon as a later sample arrives; closed windows accumulate until
/// drained with [`IntervalSampler::drain_closed`], and [`IntervalSampler::finish`]
/// closes the in-progress window. Windows with no samples are never
/// materialized, so memory is bounded by the number of *occupied*
/// windows still undrained.
#[derive(Clone, Debug)]
pub struct IntervalSampler {
    width: f64,
    current: Option<(u64, RunningStats)>,
    closed: Vec<(u64, RunningStats)>,
}

impl IntervalSampler {
    /// A sampler with tumbling windows of `width` seconds.
    pub fn new(width: f64) -> Self {
        assert!(width > 0.0, "window width must be positive");
        IntervalSampler {
            width,
            current: None,
            closed: Vec::new(),
        }
    }

    /// The configured window width in seconds.
    pub fn width(&self) -> f64 {
        self.width
    }

    /// The window index covering time `t` (seconds).
    pub fn index_of(&self, t: f64) -> u64 {
        (t / self.width).max(0.0) as u64
    }

    /// Fold in one sample at time `t` seconds. Times must be
    /// non-decreasing (simulation order).
    pub fn push(&mut self, t: f64, v: f64) {
        let idx = self.index_of(t);
        match &mut self.current {
            Some((cur, stats)) if *cur == idx => stats.push(v),
            Some((cur, stats)) => {
                debug_assert!(idx > *cur, "IntervalSampler times must be non-decreasing");
                self.closed.push((*cur, *stats));
                self.current = Some((idx, {
                    let mut s = RunningStats::new();
                    s.push(v);
                    s
                }));
            }
            None => {
                let mut s = RunningStats::new();
                s.push(v);
                self.current = Some((idx, s));
            }
        }
    }

    /// Take the windows closed so far, oldest first.
    pub fn drain_closed(&mut self) -> Vec<(u64, RunningStats)> {
        std::mem::take(&mut self.closed)
    }

    /// Close the in-progress window and return every remaining window,
    /// oldest first.
    pub fn finish(mut self) -> Vec<(u64, RunningStats)> {
        if let Some(cur) = self.current.take() {
            self.closed.push(cur);
        }
        self.closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_series_basics() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_millis(1), 10.0);
        ts.push(SimTime::from_millis(2), 20.0);
        ts.push(SimTime::from_millis(3), 30.0);
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.mean(), 20.0);
        assert_eq!(ts.max(), 30.0);
        assert_eq!(ts.min(), 10.0);
        assert_eq!(ts.last(), Some(30.0));
        let doubled = ts.map_values(|v| 2.0 * v);
        assert_eq!(doubled.times(), ts.times());
        assert_eq!(doubled.values(), &[20.0, 40.0, 60.0]);
        assert_eq!(doubled.heap_bytes(), 6 * 8, "no growth slack");
    }

    #[test]
    fn time_series_extrema_all_negative() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_millis(1), -5.0);
        ts.push(SimTime::from_millis(2), -2.0);
        ts.push(SimTime::from_millis(3), -9.0);
        assert_eq!(ts.max(), -2.0, "max must not clamp at 0");
        assert_eq!(ts.min(), -9.0);
        assert_eq!(ts.max_after(0.002), -2.0);
        assert_eq!(ts.try_max(), Some(-2.0));
        assert_eq!(ts.try_min(), Some(-9.0));
        assert_eq!(ts.try_max_after(0.0025), Some(-9.0));
    }

    #[test]
    fn time_series_extrema_empty_is_explicit() {
        let ts = TimeSeries::new();
        assert_eq!(ts.try_max(), None);
        assert_eq!(ts.try_min(), None);
        assert_eq!(ts.try_max_after(0.0), None);
        // The f64 variants keep the documented 0 fallback.
        assert_eq!(ts.max(), 0.0);
        assert_eq!(ts.min(), 0.0);
        assert_eq!(ts.max_after(0.0), 0.0);
    }

    #[test]
    fn time_series_mean_after_window() {
        let mut ts = TimeSeries::new();
        for i in 1..=10 {
            ts.push(SimTime::from_millis(i), i as f64);
        }
        assert_eq!(ts.mean_after(0.006), (6.0 + 7.0 + 8.0 + 9.0 + 10.0) / 5.0);
        assert_eq!(ts.max_after(0.02), 0.0);
    }

    #[test]
    fn time_series_value_at_sample_and_hold() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_millis(10), 1.0);
        ts.push(SimTime::from_millis(20), 2.0);
        assert_eq!(ts.value_at(0.005), None);
        assert_eq!(ts.value_at(0.010), Some(1.0));
        assert_eq!(ts.value_at(0.015), Some(1.0));
        assert_eq!(ts.value_at(0.020), Some(2.0));
        assert_eq!(ts.value_at(99.0), Some(2.0));
    }

    #[test]
    fn counter_counts() {
        let mut c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn histogram_mean_max_quantiles() {
        let mut h = Histogram::new(1.0, 10);
        for v in [0.5, 1.5, 2.5, 3.5, 100.0] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 21.6).abs() < 1e-9);
        assert_eq!(h.max(), 100.0);
        // median of 5 values: 3rd smallest (2.5) -> bin upper edge 3.0
        assert_eq!(h.quantile(0.5), 3.0);
        // the 100.0 overflows: top quantile returns exact max
        assert_eq!(h.quantile(1.0), 100.0);
    }

    #[test]
    fn histogram_empty_is_zeroes() {
        let h = Histogram::new(1.0, 4);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
    }

    #[test]
    fn histogram_exposes_raw_bins() {
        let mut h = Histogram::new(1.0, 3);
        for v in [0.5, 1.5, 1.6, 7.0] {
            h.record(v);
        }
        assert_eq!(h.bin_width(), 1.0);
        // Lazy storage: bin 2 was never hit, so only the prefix exists.
        assert_eq!(h.bins(), &[1, 2]);
        assert_eq!(h.nbins(), 3);
        assert_eq!(h.overflow(), 1);
    }

    #[test]
    fn histogram_bins_are_lazily_allocated() {
        // A fresh histogram must hold no bin storage at all — at metro
        // scale one histogram per session, eager `vec![0; nbins]` was
        // ~80 KB/session and dominated the resident set.
        let h = Histogram::new(0.1, 10_000);
        assert!(h.bins().is_empty());
        assert_eq!(h.nbins(), 10_000);
        let mut h = Histogram::new(0.1, 10_000);
        h.record(0.25); // bin 2: grows storage to exactly 3 bins
        assert_eq!(h.bins(), &[0, 0, 1]);
        // Overflow still keys off the logical bin count, not storage.
        h.record(1_000.5);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.count(), 2);
    }

    #[test]
    fn running_stats_folds_extremes_and_mean() {
        let mut s = RunningStats::new();
        assert!(s.mean().is_nan() && s.min().is_nan() && s.max().is_nan());
        assert_eq!(s.range(), 0.0);
        for v in [3.0, -1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.count(), 3);
        assert_eq!(s.sum(), 4.0);
        assert_eq!(s.min(), -1.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.range(), 4.0);
        assert!((s.mean() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn interval_sampler_tumbles_windows() {
        let mut w = IntervalSampler::new(0.010);
        w.push(0.001, 1.0);
        w.push(0.009, 3.0);
        assert!(w.drain_closed().is_empty(), "window 0 still open");
        w.push(0.010, 5.0); // opens window 1, closes window 0
        w.push(0.035, 7.0); // opens window 3 (window 2 is empty: skipped)
        let closed = w.drain_closed();
        assert_eq!(closed.len(), 2);
        assert_eq!(closed[0].0, 0);
        assert_eq!(closed[0].1.count(), 2);
        assert_eq!(closed[0].1.max(), 3.0);
        assert_eq!(closed[1].0, 1);
        assert_eq!(closed[1].1.sum(), 5.0);
        let rest = w.finish();
        assert_eq!(rest.len(), 1);
        assert_eq!(rest[0].0, 3);
        assert_eq!(rest[0].1.mean(), 7.0);
    }
}
