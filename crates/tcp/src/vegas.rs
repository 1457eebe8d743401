//! TCP Vegas \[BP95\] — the delay-based sender the paper's Section 4
//! discusses as the second source-side algorithm.
//!
//! Vegas compares the *expected* throughput `cwnd / baseRTT` against the
//! *actual* throughput `cwnd / RTT` once per round trip and steers the
//! window so that between `alpha` and `beta` segments worth of its own
//! data sit queued in the network:
//!
//! ```text
//! diff = (cwnd/baseRTT − cwnd/RTT) · baseRTT      # segments in queues
//! diff < alpha ⇒ cwnd += 1 (per RTT)
//! diff > beta  ⇒ cwnd -= 1 (per RTT)
//! ```
//!
//! Slow start doubles only every other RTT and ends as soon as
//! `diff > gamma`. Loss recovery (3-dupack fast retransmit, timeout) is
//! Reno-like.
//!
//! The paper's criticisms, which `scenarios::tcp::vegas` reproduces:
//! once two Vegas connections settle on different windows there is no
//! mechanism that would balance them (a late joiner measures an inflated
//! baseRTT and is content with less), and mismatched `alpha`/`beta`
//! thresholds between sessions cause persistent unfairness. The
//! Phantom-based Selective Discard removes both biases from the outside.

use crate::cc::{CcStats, CongestionControl};
use crate::reno::AckResult;

/// Vegas parameters (in segments), defaults per \[BP95\].
#[derive(Clone, Copy, Debug)]
pub struct VegasConfig {
    /// Lower threshold: fewer queued segments than this ⇒ grow.
    pub alpha: f64,
    /// Upper threshold: more queued segments than this ⇒ shrink.
    pub beta: f64,
    /// Slow-start exit threshold.
    pub gamma: f64,
    /// Window cap, segments.
    pub max_cwnd: f64,
}

impl Default for VegasConfig {
    fn default() -> Self {
        VegasConfig {
            alpha: 1.0,
            beta: 3.0,
            gamma: 1.0,
            max_cwnd: 10_000.0,
        }
    }
}

/// The Vegas sender state machine.
#[derive(Clone, Copy, Debug)]
pub struct Vegas {
    cfg: VegasConfig,
    mss: u32,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    dupacks: u32,
    in_recovery: bool,
    recovery_cwnd: f64,
    slow_start: bool,
    ss_toggle: bool,
    base_rtt: f64,
    stats: CcStats,
}

impl Vegas {
    /// A fresh Vegas connection with `mss`-byte segments.
    pub fn new(mss: u32, cfg: VegasConfig) -> Self {
        assert!(mss > 0);
        assert!(cfg.alpha > 0.0 && cfg.beta >= cfg.alpha);
        assert!(cfg.gamma > 0.0);
        assert!(cfg.max_cwnd >= 2.0);
        Vegas {
            cfg,
            mss,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: 2.0,
            dupacks: 0,
            in_recovery: false,
            recovery_cwnd: 2.0,
            slow_start: true,
            ss_toggle: false,
            base_rtt: f64::INFINITY,
            stats: CcStats::default(),
        }
    }

    /// Defaults per \[BP95\]: alpha 1, beta 3.
    pub fn default_thresholds(mss: u32) -> Self {
        Self::new(mss, VegasConfig::default())
    }

    /// The minimum RTT observed so far (seconds); the connection's
    /// propagation estimate.
    pub fn base_rtt(&self) -> f64 {
        self.base_rtt
    }

    /// The configuration in force.
    pub fn config(&self) -> &VegasConfig {
        &self.cfg
    }
}

impl CongestionControl for Vegas {
    fn on_ack(&mut self, ack: u64, _ecn_echo: bool) -> AckResult {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            if self.snd_nxt < self.snd_una {
                self.snd_nxt = self.snd_una;
            }
            self.dupacks = 0;
            if self.in_recovery {
                self.in_recovery = false;
                self.cwnd = self.recovery_cwnd;
            }
            // Window growth happens per RTT in on_rtt_sample; slow start
            // additionally grows per ACK on its "active" rounds.
            if self.slow_start && self.ss_toggle {
                self.cwnd = (self.cwnd + 1.0).min(self.cfg.max_cwnd);
            }
            AckResult {
                newly_acked: newly,
                retransmit: None,
            }
        } else if self.outstanding() {
            self.dupacks += 1;
            if self.dupacks == 3 && !self.in_recovery {
                self.recovery_cwnd = (self.cwnd * 0.75).max(2.0); // Vegas's gentler cut
                self.cwnd = self.recovery_cwnd + 3.0;
                self.in_recovery = true;
                self.slow_start = false;
                self.stats.fast_retransmits += 1;
                AckResult {
                    newly_acked: 0,
                    retransmit: Some(self.snd_una),
                }
            } else {
                if self.in_recovery {
                    self.cwnd = (self.cwnd + 1.0).min(self.cfg.max_cwnd);
                }
                AckResult::default()
            }
        } else {
            AckResult::default()
        }
    }

    fn on_rtt_sample(&mut self, rtt: f64) {
        if rtt <= 0.0 || !rtt.is_finite() {
            return;
        }
        if rtt < self.base_rtt {
            self.base_rtt = rtt;
        }
        let expected = self.cwnd / self.base_rtt;
        let actual = self.cwnd / rtt;
        let diff = (expected - actual) * self.base_rtt; // segments queued
        if self.slow_start {
            self.ss_toggle = !self.ss_toggle;
            if diff > self.cfg.gamma {
                self.slow_start = false;
                // shed the overshoot
                self.cwnd = (self.cwnd * 0.875).max(2.0);
            }
        } else if !self.in_recovery {
            if diff < self.cfg.alpha {
                self.cwnd = (self.cwnd + 1.0).min(self.cfg.max_cwnd);
            } else if diff > self.cfg.beta {
                self.cwnd = (self.cwnd - 1.0).max(2.0);
            }
        }
    }

    fn on_timeout(&mut self) {
        self.cwnd = 2.0;
        self.dupacks = 0;
        self.in_recovery = false;
        self.slow_start = true;
        self.ss_toggle = false;
        self.snd_nxt = self.snd_una;
        self.stats.timeouts += 1;
    }

    fn on_quench(&mut self) {
        self.cwnd = (self.cwnd / 2.0).max(2.0);
        self.slow_start = false;
        self.stats.quench_cuts += 1;
    }

    fn can_send(&self) -> bool {
        let wnd = (self.cwnd * self.mss as f64) as u64;
        self.snd_nxt + u64::from(self.mss) <= self.snd_una + wnd
    }

    fn take_segment(&mut self) -> u64 {
        debug_assert!(self.can_send());
        let seq = self.snd_nxt;
        self.snd_nxt += u64::from(self.mss);
        seq
    }

    fn snd_una(&self) -> u64 {
        self.snd_una
    }

    fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    fn outstanding(&self) -> bool {
        self.snd_nxt > self.snd_una
    }

    fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn mss(&self) -> u32 {
        self.mss
    }

    fn stats(&self) -> CcStats {
        self.stats
    }

    fn name(&self) -> &'static str {
        "vegas"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 512;

    fn drain(v: &mut Vegas) {
        while v.can_send() {
            v.take_segment();
        }
    }

    #[test]
    fn starts_in_slow_start_with_two_segments() {
        let v = Vegas::default_thresholds(MSS);
        assert_eq!(v.cwnd(), 2.0);
        assert!(v.base_rtt().is_infinite());
    }

    #[test]
    fn base_rtt_tracks_the_minimum() {
        let mut v = Vegas::default_thresholds(MSS);
        v.on_rtt_sample(0.10);
        v.on_rtt_sample(0.05);
        v.on_rtt_sample(0.20);
        assert_eq!(v.base_rtt(), 0.05);
    }

    #[test]
    fn steady_state_window_targets_alpha_beta_band() {
        // With baseRTT 50 ms, an RTT that keeps diff within [1, 3]
        // segments must leave the window alone.
        let mut v = Vegas::default_thresholds(MSS);
        v.on_rtt_sample(0.050); // sets base
        v.slow_start = false;
        v.cwnd = 10.0;
        // diff = cwnd * (1 - base/rtt): rtt such that diff = 2 ⇒
        // rtt = base / (1 - 2/10) = 62.5 ms
        v.on_rtt_sample(0.0625);
        assert_eq!(v.cwnd(), 10.0, "inside the band: hold");
        // diff < alpha ⇒ grow: rtt = base ⇒ diff = 0
        v.on_rtt_sample(0.050);
        assert_eq!(v.cwnd(), 11.0);
        // diff > beta ⇒ shrink: rtt large
        v.on_rtt_sample(0.10);
        assert_eq!(v.cwnd(), 10.0);
    }

    #[test]
    fn slow_start_exits_on_gamma_and_sheds() {
        let mut v = Vegas::default_thresholds(MSS);
        v.on_rtt_sample(0.050);
        v.cwnd = 16.0;
        // queueing builds: rtt >> base, diff = 16*(1-50/80) = 6 > gamma
        v.on_rtt_sample(0.080);
        // may take the toggle round; feed another sample
        v.on_rtt_sample(0.080);
        assert!(!v.slow_start, "slow start must end once diff exceeds gamma");
        assert!(v.cwnd() < 16.0, "overshoot is shed");
    }

    #[test]
    fn slow_start_grows_every_other_rtt() {
        let mut v = Vegas::default_thresholds(MSS);
        v.on_rtt_sample(0.050);
        drain(&mut v);
        // round 1: toggle=true -> acks grow the window
        let una0 = v.snd_una();
        v.on_ack(una0 + u64::from(MSS), false);
        let w_after_round1 = v.cwnd();
        // round 2 (toggle flips false on next sample): acks do not grow
        v.on_rtt_sample(0.050);
        let una1 = v.snd_una();
        v.on_ack(una1 + u64::from(MSS), false);
        // one of the two rounds grew, the other held
        let grew_then_held = (w_after_round1 > 2.0) ^ (v.cwnd() > w_after_round1);
        assert!(grew_then_held, "vegas slow start doubles every other RTT");
    }

    #[test]
    fn fast_retransmit_cuts_by_quarter_not_half() {
        let mut v = Vegas::default_thresholds(MSS);
        v.slow_start = false;
        v.cwnd = 16.0;
        drain(&mut v);
        for _ in 0..2 {
            assert_eq!(v.on_ack(0, false).retransmit, None);
        }
        let res = v.on_ack(0, false);
        assert_eq!(res.retransmit, Some(0));
        // recovery window = 0.75 * 16 = 12 (+3 inflation)
        assert_eq!(v.cwnd(), 15.0);
        // new ack deflates to the 0.75 cut
        let nxt = v.snd_nxt();
        v.on_ack(nxt, false);
        assert_eq!(v.cwnd(), 12.0);
        assert_eq!(v.stats().fast_retransmits, 1);
    }

    #[test]
    fn timeout_rewinds_and_restarts_slow_start() {
        let mut v = Vegas::default_thresholds(MSS);
        v.slow_start = false;
        v.cwnd = 20.0;
        drain(&mut v);
        v.on_timeout();
        assert_eq!(v.cwnd(), 2.0);
        assert!(v.slow_start);
        assert_eq!(v.snd_nxt(), v.snd_una());
    }

    #[test]
    fn window_floor_is_two_segments() {
        let mut v = Vegas::default_thresholds(MSS);
        v.on_rtt_sample(0.05);
        v.slow_start = false;
        v.cwnd = 2.0;
        for _ in 0..50 {
            v.on_rtt_sample(10.0); // massive queueing: shrink pressure
        }
        assert_eq!(v.cwnd(), 2.0);
        v.on_quench();
        assert_eq!(v.cwnd(), 2.0);
    }

    #[test]
    fn the_papers_unfairness_no_balancing_mechanism() {
        // Two Vegas connections in equilibrium at *different* windows on
        // the same (emulated) path: each sees diff inside [alpha, beta],
        // so neither moves — "the current mechanisms would either
        // increase both or decrease both".
        let mk = |cwnd: f64, rtt: f64| {
            let mut v = Vegas::default_thresholds(MSS);
            v.on_rtt_sample(0.050);
            v.slow_start = false;
            v.cwnd = cwnd;
            v.on_rtt_sample(rtt);
            v
        };
        // diff = cwnd*(1 - 0.05/rtt) in [1,3]
        let small = mk(5.0, 0.05 / (1.0 - 2.0 / 5.0)); // diff = 2
        let big = mk(20.0, 0.05 / (1.0 - 2.0 / 20.0)); // diff = 2
        assert_eq!(small.cwnd(), 5.0);
        assert_eq!(big.cwnd(), 20.0);
        // both are content despite a 4x rate difference
    }
}
