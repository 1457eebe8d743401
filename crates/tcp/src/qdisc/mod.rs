//! Router queue disciplines.
//!
//! The seam between the generic router and the congestion-control
//! mechanisms Section 4 of the paper compares:
//!
//! * [`DropTail`] — the plain FIFO baseline whose unfairness the paper's
//!   Fig. 14/17 (left panels) demonstrate.
//! * [`Red`] — Random Early Detection \[FJ93\].
//! * [`SelectiveDiscard`] — the paper's Fig. 18 pseudo-code: drop any
//!   data packet whose `CR > u × MACR`.
//! * [`SelectiveQuench`] — Source Quench to over-limit senders.
//! * [`EfciMark`] — set the congestion bit on over-limit packets.
//! * [`SelectiveRed`] — RED restricted to over-limit packets.
//!
//! All Phantom-driven disciplines share [`PhantomMeter`], a thin wrapper
//! around the `phantom_core` MACR estimator operating in bytes/second.

mod drop_tail;
mod phantom_meter;
mod red;
mod selective;

pub use drop_tail::DropTail;
pub use phantom_meter::PhantomMeter;
pub use red::{Red, RedConfig, RedCore};
pub use selective::{EfciMark, SelectiveDiscard, SelectiveQuench, SelectiveRed};

use crate::packet::Packet;
use rand::rngs::SmallRng;
use std::any::Any;

/// Aggregate measurements of one router port over one interval.
#[derive(Clone, Copy, Debug)]
pub struct RouterMeasurement {
    /// Interval length, seconds.
    pub dt: f64,
    /// Bytes that arrived (queued or dropped) during the interval.
    pub arrival_bytes: u64,
    /// Bytes transmitted during the interval.
    pub departure_bytes: u64,
    /// Queue length in packets at the end of the interval.
    pub queue_pkts: usize,
    /// Queue length in bytes at the end of the interval.
    pub queue_bytes: u64,
    /// Link capacity, bytes/s.
    pub capacity: f64,
}

impl RouterMeasurement {
    /// Offered load over the interval, bytes/s.
    pub fn arrival_rate(&self) -> f64 {
        self.arrival_bytes as f64 / self.dt
    }

    /// Throughput over the interval, bytes/s.
    pub fn departure_rate(&self) -> f64 {
        self.departure_bytes as f64 / self.dt
    }
}

/// What to do with an arriving packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Queue it (tail-drop if the buffer is full).
    Enqueue,
    /// Discard it.
    Drop,
    /// Set its ECN/EFCI bit and queue it.
    Mark,
    /// Queue it *and* send a Source Quench back to its sender.
    Quench,
}

/// Instrumentation snapshot of a discipline's Phantom estimator: the
/// residual error fed to the last MACR update, the tracked mean absolute
/// deviation, and the gain actually applied. All NaN for disciplines
/// without an estimator (or before its first interval).
#[derive(Clone, Copy, Debug)]
pub struct QdiscTelemetry {
    /// Residual error (capacity − used) fed to the last update.
    pub delta: f64,
    /// Mean absolute deviation of the residual.
    pub dev: f64,
    /// Gain applied on the last update.
    pub gain: f64,
}

impl QdiscTelemetry {
    /// The "no estimator" snapshot.
    pub const UNTRACKED: Self = QdiscTelemetry {
        delta: f64::NAN,
        dev: f64::NAN,
        gain: f64::NAN,
    };
}

/// A router queue discipline (constant space, like the switch allocators).
pub trait QueueDiscipline: Any + Send {
    /// Decide the fate of an arriving packet given the current queue
    /// state. Non-data packets should normally be enqueued untouched.
    fn on_arrival(
        &mut self,
        pkt: &Packet,
        queue_pkts: usize,
        queue_bytes: u64,
        rng: &mut SmallRng,
    ) -> Verdict;

    /// Called at the end of every measurement interval (for MACR-driven
    /// disciplines; default no-op).
    fn on_interval(&mut self, _m: &RouterMeasurement) {}

    /// Fair-share estimate (bytes/s) for tracing; NaN if not applicable.
    fn fair_share(&self) -> f64 {
        f64::NAN
    }

    /// Estimator internals for probes. Instrumentation only — default is
    /// all-NaN for disciplines without a Phantom meter.
    fn telemetry(&self) -> QdiscTelemetry {
        QdiscTelemetry::UNTRACKED
    }

    /// Short name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measurement_rates() {
        let m = RouterMeasurement {
            dt: 0.01,
            arrival_bytes: 10_000,
            departure_bytes: 5_000,
            queue_pkts: 3,
            queue_bytes: 1_536,
            capacity: 1.25e6,
        };
        assert_eq!(m.arrival_rate(), 1e6);
        assert_eq!(m.departure_rate(), 5e5);
    }
}
