//! Pluggable congestion control for the TCP sender.
//!
//! The paper's Section 4 discusses both of the era's source-side
//! algorithms: Reno \[Jac88\] and Vegas \[BP95\]. [`CongestionControl`]
//! abstracts what the sender host needs from either; [`crate::reno::Reno`]
//! and [`crate::vegas::Vegas`] implement it. The host (`TcpSource`)
//! drives the machine with ACKs, RTT samples, timeouts and quenches, and
//! asks it what may be sent.

use crate::reno::AckResult;
use std::any::Any;

/// Loss/recovery statistics every algorithm reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Fast retransmits performed.
    pub fast_retransmits: u64,
    /// Retransmission timeouts taken.
    pub timeouts: u64,
    /// Source-quench window cuts taken.
    pub quench_cuts: u64,
}

/// A TCP congestion-control state machine (window arithmetic included).
pub trait CongestionControl: Any + Send {
    /// Process a cumulative ACK; `ecn_echo` = the receiver echoed a
    /// congestion mark (freeze growth).
    fn on_ack(&mut self, ack: u64, ecn_echo: bool) -> AckResult;

    /// One Karn-clean RTT measurement (seconds). Reno ignores it (the
    /// host keeps its own RTO estimator); Vegas bases its window
    /// adjustment on it.
    fn on_rtt_sample(&mut self, _rtt: f64) {}

    /// Retransmission timeout fired.
    fn on_timeout(&mut self);

    /// ICMP Source Quench received.
    fn on_quench(&mut self);

    /// May a new segment be sent under the window?
    fn can_send(&self) -> bool;

    /// Claim the next new segment; returns its first byte.
    fn take_segment(&mut self) -> u64;

    /// Oldest unacknowledged byte.
    fn snd_una(&self) -> u64;

    /// Next byte to be sent.
    fn snd_nxt(&self) -> u64;

    /// True while data is unacknowledged.
    fn outstanding(&self) -> bool;

    /// Congestion window, in segments.
    fn cwnd(&self) -> f64;

    /// Slow-start threshold, in segments; NaN for algorithms without one
    /// (instrumentation only).
    fn ssthresh(&self) -> f64 {
        f64::NAN
    }

    /// Segment size in bytes.
    fn mss(&self) -> u32;

    /// Loss/recovery statistics.
    fn stats(&self) -> CcStats;

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

impl CongestionControl for crate::reno::Reno {
    fn on_ack(&mut self, ack: u64, ecn_echo: bool) -> AckResult {
        crate::reno::Reno::on_ack(self, ack, ecn_echo)
    }

    fn on_timeout(&mut self) {
        crate::reno::Reno::on_timeout(self)
    }

    fn on_quench(&mut self) {
        crate::reno::Reno::on_quench(self)
    }

    fn can_send(&self) -> bool {
        crate::reno::Reno::can_send(self)
    }

    fn take_segment(&mut self) -> u64 {
        crate::reno::Reno::take_segment(self)
    }

    fn snd_una(&self) -> u64 {
        crate::reno::Reno::snd_una(self)
    }

    fn snd_nxt(&self) -> u64 {
        crate::reno::Reno::snd_nxt(self)
    }

    fn outstanding(&self) -> bool {
        crate::reno::Reno::outstanding(self)
    }

    fn cwnd(&self) -> f64 {
        crate::reno::Reno::cwnd(self)
    }

    fn ssthresh(&self) -> f64 {
        crate::reno::Reno::ssthresh(self)
    }

    fn mss(&self) -> u32 {
        crate::reno::Reno::mss(self)
    }

    fn stats(&self) -> CcStats {
        CcStats {
            fast_retransmits: self.fast_retransmits,
            timeouts: self.timeouts,
            quench_cuts: self.quench_cuts,
        }
    }

    fn name(&self) -> &'static str {
        "reno"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reno::Reno;

    #[test]
    fn reno_implements_the_trait_faithfully() {
        let mut cc: Box<dyn CongestionControl> = Box::new(Reno::new(512, 100.0));
        assert_eq!(cc.name(), "reno");
        assert_eq!(cc.mss(), 512);
        assert!(cc.can_send());
        let seq = cc.take_segment();
        assert_eq!(seq, 0);
        assert!(cc.outstanding());
        let res = cc.on_ack(512, false);
        assert_eq!(res.newly_acked, 512);
        assert_eq!(cc.snd_una(), 512);
        cc.on_timeout();
        cc.on_quench();
        let s = cc.stats();
        assert_eq!(s.timeouts, 1);
        assert_eq!(s.quench_cuts, 1);
    }
}
