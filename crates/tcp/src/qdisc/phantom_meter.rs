//! The Phantom estimator adapted to router ports (bytes/second).
//!
//! Identical mathematics to the ATM side — the estimator in
//! `phantom_core` is unit-agnostic — plus the router-side question it
//! must answer: *is this packet's stamped rate above the allowed rate
//! `u × MACR`?*

use super::{QdiscTelemetry, RouterMeasurement};
use phantom_core::{MacrEstimator, PhantomConfig, ResidualMode};

/// A per-port Phantom meter for TCP routers.
#[derive(Clone, Copy, Debug)]
pub struct PhantomMeter {
    cfg: PhantomConfig,
    est: Option<MacrEstimator>,
}

impl PhantomMeter {
    /// A meter with the given Phantom configuration.
    pub fn new(cfg: PhantomConfig) -> Self {
        cfg.validate().expect("invalid Phantom configuration");
        PhantomMeter { cfg, est: None }
    }

    /// Paper defaults (u = 5).
    pub fn paper() -> Self {
        Self::new(PhantomConfig::paper())
    }

    /// Feed one interval's measurement.
    pub fn on_interval(&mut self, m: &RouterMeasurement) {
        let est = self
            .est
            .get_or_insert_with(|| MacrEstimator::new(self.cfg.macr, m.capacity));
        let used = match self.cfg.macr.residual {
            ResidualMode::Arrivals => m.arrival_rate(),
            ResidualMode::Departures => m.departure_rate(),
        };
        est.update(m.capacity - used, m.capacity);
    }

    /// Current MACR in bytes/s (0 before the first interval).
    pub fn macr(&self) -> f64 {
        self.est.map(|e| e.macr()).unwrap_or(0.0)
    }

    /// The allowed per-flow rate, `u × MACR`; infinite before the first
    /// interval so nothing is punished at startup.
    pub fn allowed_rate(&self) -> f64 {
        match &self.est {
            Some(e) => self.cfg.utilization_factor * e.macr(),
            None => f64::INFINITY,
        }
    }

    /// Is a packet stamped with rate `cr` above the allowed rate?
    pub fn over_limit(&self, cr: f64) -> bool {
        cr > self.allowed_rate()
    }

    /// Estimator internals for probes (all NaN before the first interval).
    pub fn telemetry(&self) -> QdiscTelemetry {
        match &self.est {
            Some(e) => QdiscTelemetry {
                delta: e.last_err(),
                dev: e.dev(),
                gain: e.last_gain(),
            },
            None => QdiscTelemetry::UNTRACKED,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(arrival_rate: f64) -> RouterMeasurement {
        let dt = 0.01;
        RouterMeasurement {
            dt,
            arrival_bytes: (arrival_rate * dt) as u64,
            departure_bytes: 0,
            queue_pkts: 0,
            queue_bytes: 0,
            capacity: 1.25e6, // 10 Mb/s in bytes/s
        }
    }

    #[test]
    fn nothing_over_limit_before_first_interval() {
        let meter = PhantomMeter::paper();
        assert!(!meter.over_limit(f64::MAX));
        assert_eq!(meter.macr(), 0.0);
    }

    #[test]
    fn tracks_residual_in_bytes() {
        let mut meter = PhantomMeter::paper();
        for _ in 0..5000 {
            meter.on_interval(&m(1.0e6)); // residual 0.25e6
        }
        assert!((meter.macr() - 0.25e6).abs() < 0.02e6);
        assert!((meter.allowed_rate() - 1.25e6).abs() < 0.1e6);
    }

    #[test]
    fn over_limit_predicate() {
        let mut meter = PhantomMeter::paper();
        for _ in 0..5000 {
            meter.on_interval(&m(1.0e6));
        }
        assert!(meter.over_limit(2.0e6));
        assert!(!meter.over_limit(0.5e6));
    }
}
