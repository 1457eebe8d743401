//! Round-trip-time estimation and retransmission timeout (Jacobson/Karn).
//!
//! The classic filter from Jacobson's "Congestion Avoidance and Control"
//! \[Jac88\], as specified in Stevens ch. 21: smoothed RTT with gain 1/8,
//! mean deviation with gain 1/4, `RTO = srtt + 4·rttvar`, exponential
//! backoff on timeout, and Karn's rule (handled by the caller: never
//! sample a retransmitted segment).

use phantom_sim::SimDuration;

/// RTT estimator and RTO calculator.
#[derive(Clone, Copy, Debug)]
pub struct RttEstimator {
    srtt: f64,
    rttvar: f64,
    has_sample: bool,
    backoff: u32,
    min_rto: f64,
    max_rto: f64,
}

impl RttEstimator {
    /// A fresh estimator. Until the first sample, the RTO is
    /// `initial_rto`.
    pub fn new(min_rto: SimDuration, max_rto: SimDuration) -> Self {
        assert!(min_rto < max_rto);
        RttEstimator {
            srtt: 0.0,
            rttvar: 0.0,
            has_sample: false,
            backoff: 0,
            min_rto: min_rto.as_secs_f64(),
            max_rto: max_rto.as_secs_f64(),
        }
    }

    /// Defaults suitable for the paper's LAN/WAN scales: RTO in
    /// [50 ms, 4 s].
    pub fn default_paper() -> Self {
        Self::new(SimDuration::from_millis(50), SimDuration::from_secs(4))
    }

    /// Feed one RTT measurement (seconds). Resets the backoff.
    pub fn sample(&mut self, rtt: f64) {
        debug_assert!(rtt >= 0.0);
        if self.has_sample {
            let err = rtt - self.srtt;
            self.srtt += err / 8.0;
            self.rttvar += (err.abs() - self.rttvar) / 4.0;
        } else {
            self.srtt = rtt;
            self.rttvar = rtt / 2.0;
            self.has_sample = true;
        }
        self.backoff = 0;
    }

    /// Current smoothed RTT (seconds); 0 before the first sample.
    pub fn srtt(&self) -> f64 {
        self.srtt
    }

    /// Current retransmission timeout, including backoff.
    pub fn rto(&self) -> SimDuration {
        let base = if self.has_sample {
            self.srtt + 4.0 * self.rttvar
        } else {
            self.min_rto.max(0.2) // conservative initial RTO
        };
        let backed = base * f64::from(1u32 << self.backoff.min(16));
        SimDuration::from_secs_f64(backed.clamp(self.min_rto, self.max_rto))
    }

    /// Double the RTO (Karn's backoff), called on every timeout.
    pub fn back_off(&mut self) {
        self.backoff = (self.backoff + 1).min(16);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn est() -> RttEstimator {
        RttEstimator::default_paper()
    }

    #[test]
    fn first_sample_initializes_directly() {
        let mut e = est();
        e.sample(0.1);
        assert_eq!(e.srtt(), 0.1);
        // RTO = srtt + 4*rttvar = 0.1 + 4*0.05 = 0.3
        assert!((e.rto().as_secs_f64() - 0.3).abs() < 1e-9);
    }

    #[test]
    fn constant_rtt_converges_and_tightens() {
        let mut e = est();
        for _ in 0..200 {
            e.sample(0.08);
        }
        assert!((e.srtt() - 0.08).abs() < 1e-6);
        // variance decays; RTO approaches srtt (clamped at min_rto)
        assert!(e.rto().as_secs_f64() <= 0.1);
    }

    #[test]
    fn rto_clamped_to_bounds() {
        let mut e = est();
        e.sample(1e-6);
        assert!(e.rto() >= SimDuration::from_millis(50));
        let mut e2 = est();
        e2.sample(100.0);
        assert!(e2.rto() <= SimDuration::from_secs(4));
    }

    #[test]
    fn backoff_doubles_until_max_and_resets_on_sample() {
        let mut e = est();
        e.sample(0.1);
        let r0 = e.rto().as_secs_f64();
        e.back_off();
        assert!((e.rto().as_secs_f64() - (r0 * 2.0).min(4.0)).abs() < 1e-9);
        e.back_off();
        assert!((e.rto().as_secs_f64() - (r0 * 4.0).min(4.0)).abs() < 1e-9);
        for _ in 0..30 {
            e.back_off(); // saturates, must not overflow
        }
        assert!(e.rto() <= SimDuration::from_secs(4));
        e.sample(0.1);
        assert!((e.rto().as_secs_f64() - r0).abs() < 0.05);
    }

    #[test]
    fn initial_rto_is_conservative() {
        let e = est();
        assert!(e.rto() >= SimDuration::from_millis(200));
    }
}
