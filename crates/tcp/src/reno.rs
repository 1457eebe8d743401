//! The TCP Reno congestion-control state machine, pure and
//! simulator-independent.
//!
//! Implements the algorithms of Stevens' *TCP/IP Illustrated* ch. 21 that
//! the paper says its TCP end systems follow: slow start, congestion
//! avoidance, fast retransmit on 3 duplicate ACKs, and (Reno) fast
//! recovery with window inflation. The receiver window is unbounded
//! (greedy bulk transfer), so `cwnd` alone governs the send window.
//!
//! One extension from the paper's Section 4: an `ecn_echo` flag on
//! acknowledgements suppresses the window increase — the reaction to the
//! Phantom EFCI marking mechanism ("a source that observes this bit set
//! may not increase its rate") — and [`Reno::on_quench`] implements the
//! Source-Quench reaction ("the source reacts … as if a packet was
//! dropped, and hence reduces its window size").

/// Congestion-control phase.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Exponential window growth below `ssthresh`.
    SlowStart,
    /// Additive increase above `ssthresh`.
    CongestionAvoidance,
    /// Between a fast retransmit and the ACK that covers it.
    FastRecovery,
}

/// What the sender must do after processing an ACK.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AckResult {
    /// Bytes newly acknowledged (0 for duplicates).
    pub newly_acked: u64,
    /// Segment to retransmit immediately (fast retransmit).
    pub retransmit: Option<u64>,
}

/// The Reno sender state machine.
///
/// ```
/// use phantom_tcp::Reno;
///
/// let mut reno = Reno::new(512, 100.0);
/// let seq = reno.take_segment();          // cwnd = 1 allows one segment
/// assert_eq!(seq, 0);
/// assert!(!reno.can_send());
/// reno.on_ack(512, false);                // slow start: cwnd grows to 2
/// assert_eq!(reno.cwnd(), 2.0);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Reno {
    mss: u32,
    snd_una: u64,
    snd_nxt: u64,
    cwnd: f64,
    ssthresh: f64,
    dupacks: u32,
    phase: Phase,
    max_cwnd: f64,
    /// Fast retransmits performed (statistic).
    pub fast_retransmits: u64,
    /// Retransmission timeouts taken (statistic).
    pub timeouts: u64,
    /// Source-quench window cuts taken (statistic).
    pub quench_cuts: u64,
}

impl Reno {
    /// A fresh connection with `mss`-byte segments: `cwnd = 1` segment,
    /// `ssthresh` effectively unbounded (half the first overload will set
    /// it), window capped at `max_cwnd` segments.
    pub fn new(mss: u32, max_cwnd: f64) -> Self {
        assert!(mss > 0);
        assert!(max_cwnd >= 2.0);
        Reno {
            mss,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: 1.0,
            ssthresh: max_cwnd,
            dupacks: 0,
            phase: Phase::SlowStart,
            max_cwnd,
            fast_retransmits: 0,
            timeouts: 0,
            quench_cuts: 0,
        }
    }

    /// Segment size in bytes.
    pub fn mss(&self) -> u32 {
        self.mss
    }

    /// Congestion window in segments.
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    /// Slow-start threshold in segments.
    pub fn ssthresh(&self) -> f64 {
        self.ssthresh
    }

    /// Oldest unacknowledged byte.
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Next byte to be sent.
    pub fn snd_nxt(&self) -> u64 {
        self.snd_nxt
    }

    /// Current phase.
    pub fn phase(&self) -> Phase {
        self.phase
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// True while any data is unacknowledged.
    pub fn outstanding(&self) -> bool {
        self.snd_nxt > self.snd_una
    }

    /// May a new segment be sent under the congestion window?
    pub fn can_send(&self) -> bool {
        let wnd = (self.cwnd * self.mss as f64) as u64;
        self.snd_nxt + self.mss as u64 <= self.snd_una + wnd
    }

    /// Claim the next new segment for transmission; returns its first
    /// byte. Call only when [`Reno::can_send`] is true (greedy source —
    /// data is always available).
    pub fn take_segment(&mut self) -> u64 {
        debug_assert!(self.can_send());
        let seq = self.snd_nxt;
        self.snd_nxt += self.mss as u64;
        seq
    }

    /// Process a cumulative ACK. `ecn_echo` suppresses window growth
    /// (the Phantom marking mechanism).
    pub fn on_ack(&mut self, ack: u64, ecn_echo: bool) -> AckResult {
        if ack > self.snd_una {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            if self.snd_nxt < self.snd_una {
                self.snd_nxt = self.snd_una;
            }
            self.dupacks = 0;
            match self.phase {
                Phase::FastRecovery => {
                    // Plain Reno: the first new ACK deflates the window
                    // and resumes congestion avoidance.
                    self.cwnd = self.ssthresh;
                    self.phase = Phase::CongestionAvoidance;
                }
                Phase::SlowStart if !ecn_echo => {
                    self.cwnd = (self.cwnd + 1.0).min(self.max_cwnd);
                    if self.cwnd >= self.ssthresh {
                        self.phase = Phase::CongestionAvoidance;
                    }
                }
                Phase::CongestionAvoidance if !ecn_echo => {
                    self.cwnd = (self.cwnd + 1.0 / self.cwnd).min(self.max_cwnd);
                }
                _ => {} // ecn_echo: hold the window
            }
            AckResult {
                newly_acked: newly,
                retransmit: None,
            }
        } else if self.outstanding() {
            // Genuine duplicate ACK.
            self.dupacks += 1;
            if self.dupacks == 3 && self.phase != Phase::FastRecovery {
                self.ssthresh = (self.cwnd / 2.0).max(2.0);
                self.cwnd = self.ssthresh + 3.0;
                self.phase = Phase::FastRecovery;
                self.fast_retransmits += 1;
                AckResult {
                    newly_acked: 0,
                    retransmit: Some(self.snd_una),
                }
            } else {
                if self.phase == Phase::FastRecovery {
                    // Window inflation: each dup ACK signals a departure.
                    self.cwnd = (self.cwnd + 1.0).min(self.max_cwnd);
                }
                AckResult::default()
            }
        } else {
            AckResult::default()
        }
    }

    /// Retransmission timeout: collapse to slow start and resend from
    /// `snd_una` (go-back-N; the receiver discards duplicates).
    pub fn on_timeout(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dupacks = 0;
        self.phase = Phase::SlowStart;
        self.snd_nxt = self.snd_una;
        self.timeouts += 1;
    }

    /// ICMP Source Quench: halve the window as if a loss had been
    /// detected, without retransmitting anything.
    pub fn on_quench(&mut self) {
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = self.ssthresh;
        if self.phase == Phase::SlowStart {
            self.phase = Phase::CongestionAvoidance;
        }
        self.quench_cuts += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u32 = 512;

    fn fresh() -> Reno {
        Reno::new(MSS, 10_000.0)
    }

    /// Send everything the window allows; returns the seqs sent.
    fn drain(r: &mut Reno) -> Vec<u64> {
        let mut v = Vec::new();
        while r.can_send() {
            v.push(r.take_segment());
        }
        v
    }

    #[test]
    fn starts_with_one_segment_window() {
        let mut r = fresh();
        assert_eq!(r.cwnd(), 1.0);
        assert_eq!(drain(&mut r), vec![0]);
        assert!(!r.can_send());
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut r = fresh();
        let mut sent = drain(&mut r);
        for _round in 0..4 {
            let mut next = Vec::new();
            for seq in &sent {
                r.on_ack(seq + u64::from(MSS), false);
                next.extend(drain(&mut r));
            }
            // each ACK grows cwnd by 1 -> window doubles per round
            sent = next;
        }
        assert_eq!(r.cwnd(), 16.0);
        assert_eq!(r.phase(), Phase::SlowStart);
    }

    #[test]
    fn congestion_avoidance_grows_one_mss_per_rtt() {
        let mut r = fresh();
        r.ssthresh = 4.0;
        // grow past ssthresh
        for i in 0..4u64 {
            drain(&mut r);
            r.on_ack((i + 1) * u64::from(MSS), false);
        }
        assert_eq!(r.phase(), Phase::CongestionAvoidance);
        let w0 = r.cwnd();
        // one full window of ACKs ≈ +1 segment
        let acks = w0 as u64;
        let base = r.snd_una();
        drain(&mut r);
        for i in 0..acks {
            r.on_ack(base + (i + 1) * u64::from(MSS), false);
            drain(&mut r);
        }
        assert!((r.cwnd() - (w0 + 1.0)).abs() < 0.3, "got {}", r.cwnd());
    }

    #[test]
    fn three_dupacks_trigger_fast_retransmit_once() {
        let mut r = fresh();
        r.cwnd = 8.0;
        r.ssthresh = 64.0;
        r.phase = Phase::CongestionAvoidance;
        drain(&mut r);
        assert_eq!(r.on_ack(0, false).retransmit, None);
        assert_eq!(r.on_ack(0, false).retransmit, None);
        let res = r.on_ack(0, false);
        assert_eq!(res.retransmit, Some(0), "3rd dupack retransmits snd_una");
        assert_eq!(r.phase(), Phase::FastRecovery);
        assert_eq!(r.ssthresh(), 4.0);
        assert_eq!(r.cwnd(), 7.0); // ssthresh + 3
        assert_eq!(r.fast_retransmits, 1);
        // further dupacks only inflate
        assert_eq!(r.on_ack(0, false).retransmit, None);
        assert_eq!(r.cwnd(), 8.0);
    }

    #[test]
    fn recovery_exits_on_new_ack_with_deflated_window() {
        let mut r = fresh();
        r.cwnd = 8.0;
        r.phase = Phase::CongestionAvoidance;
        drain(&mut r);
        for _ in 0..3 {
            r.on_ack(0, false);
        }
        assert_eq!(r.phase(), Phase::FastRecovery);
        let res = r.on_ack(u64::from(MSS) * 8, false);
        assert_eq!(res.newly_acked, u64::from(MSS) * 8);
        assert_eq!(r.phase(), Phase::CongestionAvoidance);
        assert_eq!(r.cwnd(), 4.0, "window deflates to ssthresh");
    }

    #[test]
    fn timeout_collapses_to_one_segment_and_rewinds() {
        let mut r = fresh();
        r.cwnd = 16.0;
        r.phase = Phase::CongestionAvoidance;
        drain(&mut r);
        let nxt_before = r.snd_nxt();
        assert!(nxt_before > 0);
        r.on_timeout();
        assert_eq!(r.cwnd(), 1.0);
        assert_eq!(r.ssthresh(), 8.0);
        assert_eq!(r.phase(), Phase::SlowStart);
        assert_eq!(r.snd_nxt(), r.snd_una(), "go-back-N rewind");
        assert_eq!(r.timeouts, 1);
    }

    #[test]
    fn quench_halves_without_retransmit() {
        let mut r = fresh();
        r.cwnd = 10.0;
        r.phase = Phase::CongestionAvoidance;
        r.on_quench();
        assert_eq!(r.cwnd(), 5.0);
        assert_eq!(r.ssthresh(), 5.0);
        assert_eq!(r.quench_cuts, 1);
        // quench in slow start also moves to congestion avoidance
        let mut r2 = fresh();
        r2.cwnd = 8.0;
        r2.on_quench();
        assert_eq!(r2.phase(), Phase::CongestionAvoidance);
    }

    #[test]
    fn ecn_echo_freezes_growth_but_acks_data() {
        let mut r = fresh();
        r.cwnd = 4.0;
        r.ssthresh = 2.0;
        r.phase = Phase::CongestionAvoidance;
        drain(&mut r);
        let res = r.on_ack(u64::from(MSS), true);
        assert_eq!(res.newly_acked, u64::from(MSS));
        assert_eq!(r.cwnd(), 4.0, "no growth on marked ack");
        r.on_ack(2 * u64::from(MSS), false);
        assert!(r.cwnd() > 4.0, "unmarked ack grows again");
    }

    #[test]
    fn dupacks_before_any_send_are_ignored() {
        let mut r = fresh();
        for _ in 0..10 {
            assert_eq!(r.on_ack(0, false), AckResult::default());
        }
        assert_eq!(r.phase(), Phase::SlowStart);
    }

    #[test]
    fn window_never_exceeds_cap() {
        let mut r = Reno::new(MSS, 8.0);
        r.ssthresh = 8.0;
        for i in 0..100u64 {
            drain(&mut r);
            r.on_ack((i + 1) * u64::from(MSS), false);
        }
        assert!(r.cwnd() <= 8.0);
    }

    #[test]
    fn flight_accounting() {
        let mut r = fresh();
        r.cwnd = 4.0;
        let sent = drain(&mut r);
        assert_eq!(sent.len(), 4);
        assert_eq!(r.flight(), 4 * u64::from(MSS));
        r.on_ack(2 * u64::from(MSS), false);
        assert_eq!(r.flight(), 2 * u64::from(MSS));
        assert!(r.outstanding());
    }

    #[test]
    fn ssthresh_floor_is_two_segments() {
        let mut r = fresh();
        r.cwnd = 1.0;
        r.on_timeout();
        assert_eq!(r.ssthresh(), 2.0);
        let mut r2 = fresh();
        r2.cwnd = 2.5;
        r2.on_quench();
        assert_eq!(r2.ssthresh(), 2.0, "cwnd/2 = 1.25 floors at 2");
    }
}
