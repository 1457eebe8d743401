//! The paper's four Phantom router mechanisms (Section 4).
//!
//! All share one predicate — *is the packet's stamped rate above
//! `u × MACR`?* — and differ only in the action taken:
//!
//! | Mechanism            | Action on over-limit data packets        |
//! |----------------------|------------------------------------------|
//! | [`SelectiveDiscard`] | drop (the paper's Fig. 18 pseudo-code)   |
//! | [`SelectiveQuench`]  | deliver + ICMP Source Quench to sender   |
//! | [`EfciMark`]         | set the EFCI/ECN bit                     |
//! | [`SelectiveRed`]     | RED early-drop, but only if over-limit   |
//!
//! Under-limit packets are never touched — this is what removes the bias
//! of drop-tail/RED against long-RTT and many-hop sessions while leaving
//! TCP's own window dynamics alone.

use super::phantom_meter::PhantomMeter;
use super::red::{RedConfig, RedCore};
use super::{QdiscTelemetry, QueueDiscipline, RouterMeasurement, Verdict};
use crate::packet::Packet;
use phantom_core::PhantomConfig;
use rand::rngs::SmallRng;

/// Fig. 18: `if CR > utilization_factor × MACR { discard }`.
#[derive(Clone, Copy, Debug)]
pub struct SelectiveDiscard {
    meter: PhantomMeter,
    min_queue: usize,
}

impl SelectiveDiscard {
    /// With a given Phantom configuration.
    pub fn new(cfg: PhantomConfig) -> Self {
        SelectiveDiscard {
            meter: PhantomMeter::new(cfg),
            min_queue: 0,
        }
    }

    /// Paper defaults (u = 5).
    pub fn paper() -> Self {
        Self::new(PhantomConfig::paper())
    }

    /// Engineering variant (ablated in `repro table5`): only discard when
    /// at least `min_queue` packets are queued. The paper's Fig. 18
    /// pseudo-code is unconditional (`min_queue = 0`); gating recovers
    /// goodput when the link has headroom, at the cost of letting the
    /// queue sit at the gate.
    pub fn with_min_queue(mut self, min_queue: usize) -> Self {
        self.min_queue = min_queue;
        self
    }
}

impl QueueDiscipline for SelectiveDiscard {
    fn on_arrival(
        &mut self,
        pkt: &Packet,
        queue_pkts: usize,
        _queue_bytes: u64,
        _rng: &mut SmallRng,
    ) -> Verdict {
        if pkt.is_data() && queue_pkts >= self.min_queue && self.meter.over_limit(pkt.cr) {
            Verdict::Drop
        } else {
            Verdict::Enqueue
        }
    }

    fn on_interval(&mut self, m: &RouterMeasurement) {
        self.meter.on_interval(m);
    }

    fn fair_share(&self) -> f64 {
        self.meter.macr()
    }

    fn telemetry(&self) -> QdiscTelemetry {
        self.meter.telemetry()
    }

    fn name(&self) -> &'static str {
        "selective-discard"
    }
}

/// Source Quench variant: over-limit packets are still delivered, but
/// their sender is told to halve its window.
#[derive(Clone, Copy, Debug)]
pub struct SelectiveQuench {
    meter: PhantomMeter,
}

impl SelectiveQuench {
    /// With a given Phantom configuration.
    pub fn new(cfg: PhantomConfig) -> Self {
        SelectiveQuench {
            meter: PhantomMeter::new(cfg),
        }
    }

    /// Paper defaults.
    pub fn paper() -> Self {
        Self::new(PhantomConfig::paper())
    }
}

impl QueueDiscipline for SelectiveQuench {
    fn on_arrival(
        &mut self,
        pkt: &Packet,
        _queue_pkts: usize,
        _queue_bytes: u64,
        _rng: &mut SmallRng,
    ) -> Verdict {
        if pkt.is_data() && self.meter.over_limit(pkt.cr) {
            Verdict::Quench
        } else {
            Verdict::Enqueue
        }
    }

    fn on_interval(&mut self, m: &RouterMeasurement) {
        self.meter.on_interval(m);
    }

    fn fair_share(&self) -> f64 {
        self.meter.macr()
    }

    fn telemetry(&self) -> QdiscTelemetry {
        self.meter.telemetry()
    }

    fn name(&self) -> &'static str {
        "selective-quench"
    }
}

/// EFCI/ECN variant: over-limit packets get the congestion bit; the
/// receiver echoes it and the sender freezes its window growth.
#[derive(Clone, Copy, Debug)]
pub struct EfciMark {
    meter: PhantomMeter,
}

impl EfciMark {
    /// With a given Phantom configuration.
    pub fn new(cfg: PhantomConfig) -> Self {
        EfciMark {
            meter: PhantomMeter::new(cfg),
        }
    }

    /// Paper defaults.
    pub fn paper() -> Self {
        Self::new(PhantomConfig::paper())
    }
}

impl QueueDiscipline for EfciMark {
    fn on_arrival(
        &mut self,
        pkt: &Packet,
        _queue_pkts: usize,
        _queue_bytes: u64,
        _rng: &mut SmallRng,
    ) -> Verdict {
        if pkt.is_data() && self.meter.over_limit(pkt.cr) {
            Verdict::Mark
        } else {
            Verdict::Enqueue
        }
    }

    fn on_interval(&mut self, m: &RouterMeasurement) {
        self.meter.on_interval(m);
    }

    fn fair_share(&self) -> f64 {
        self.meter.macr()
    }

    fn telemetry(&self) -> QdiscTelemetry {
        self.meter.telemetry()
    }

    fn name(&self) -> &'static str {
        "efci-mark"
    }
}

/// Selective RED: the RED average and probability machinery runs as
/// usual, but only packets whose `CR > u × MACR` may be early-dropped.
#[derive(Clone, Copy, Debug)]
pub struct SelectiveRed {
    meter: PhantomMeter,
    red: RedCore,
}

impl SelectiveRed {
    /// With given Phantom and RED configurations.
    pub fn new(cfg: PhantomConfig, red: RedConfig) -> Self {
        SelectiveRed {
            meter: PhantomMeter::new(cfg),
            red: RedCore::new(red),
        }
    }

    /// Paper-shaped defaults. Unlike Selective Discard, Selective RED
    /// does not police offered load down below capacity — RED keeps the
    /// link *saturated* — so the instantaneous residual is ≈ 0 and a
    /// fast estimator would collapse MACR to its floor, making every
    /// flow "over-limit" (i.e. degenerate to plain RED). The eligibility
    /// meter therefore uses symmetric slow gains (it estimates the
    /// long-horizon average headroom of the TCP sawtooth) and a 10%
    /// capacity floor so the predicate keeps discriminating under full
    /// load.
    pub fn paper() -> Self {
        use phantom_core::MacrConfig;
        let macr = MacrConfig {
            alpha_inc: 1.0 / 16.0,
            alpha_dec: 1.0 / 16.0,
            min_frac: 0.1,
            ..MacrConfig::default()
        };
        Self::new(PhantomConfig::paper().with_macr(macr), RedConfig::default())
    }
}

impl QueueDiscipline for SelectiveRed {
    fn on_arrival(
        &mut self,
        pkt: &Packet,
        queue_pkts: usize,
        _queue_bytes: u64,
        rng: &mut SmallRng,
    ) -> Verdict {
        if !pkt.is_data() {
            return Verdict::Enqueue;
        }
        // The average must track every arrival, eligible or not.
        let red_wants_drop = self.red.decide(queue_pkts, rng);
        if red_wants_drop && self.meter.over_limit(pkt.cr) {
            Verdict::Drop
        } else {
            Verdict::Enqueue
        }
    }

    fn on_interval(&mut self, m: &RouterMeasurement) {
        self.meter.on_interval(m);
    }

    fn fair_share(&self) -> f64 {
        self.meter.macr()
    }

    fn telemetry(&self) -> QdiscTelemetry {
        self.meter.telemetry()
    }

    fn name(&self) -> &'static str {
        "selective-red"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(7)
    }

    /// Settle a meter at capacity 1.25e6 B/s with 1.0e6 B/s offered:
    /// MACR ≈ 0.25e6, limit ≈ 1.25e6.
    fn settle<Q: QueueDiscipline>(q: &mut Q) {
        let dt = 0.01;
        for _ in 0..5000 {
            q.on_interval(&RouterMeasurement {
                dt,
                arrival_bytes: (1.0e6 * dt) as u64,
                departure_bytes: (1.0e6 * dt) as u64,
                queue_pkts: 0,
                queue_bytes: 0,
                capacity: 1.25e6,
            });
        }
    }

    fn over() -> Packet {
        Packet::data(FlowId(0), 0, 512, 2.0e6)
    }

    fn under() -> Packet {
        Packet::data(FlowId(1), 0, 512, 0.5e6)
    }

    #[test]
    fn discard_drops_only_over_limit_data() {
        let mut q = SelectiveDiscard::paper();
        settle(&mut q);
        let mut r = rng();
        assert_eq!(q.on_arrival(&over(), 5, 0, &mut r), Verdict::Drop);
        assert_eq!(q.on_arrival(&under(), 5, 0, &mut r), Verdict::Enqueue);
        let ack = Packet::ack(FlowId(0), 0, false);
        assert_eq!(q.on_arrival(&ack, 5, 0, &mut r), Verdict::Enqueue);
    }

    #[test]
    fn quench_delivers_and_signals() {
        let mut q = SelectiveQuench::paper();
        settle(&mut q);
        let mut r = rng();
        assert_eq!(q.on_arrival(&over(), 5, 0, &mut r), Verdict::Quench);
        assert_eq!(q.on_arrival(&under(), 5, 0, &mut r), Verdict::Enqueue);
    }

    #[test]
    fn mark_sets_bit_only_over_limit() {
        let mut q = EfciMark::paper();
        settle(&mut q);
        let mut r = rng();
        assert_eq!(q.on_arrival(&over(), 5, 0, &mut r), Verdict::Mark);
        assert_eq!(q.on_arrival(&under(), 5, 0, &mut r), Verdict::Enqueue);
    }

    #[test]
    fn nothing_punished_before_first_interval() {
        let mut r = rng();
        assert_eq!(
            SelectiveDiscard::paper().on_arrival(&over(), 0, 0, &mut r),
            Verdict::Enqueue
        );
        assert_eq!(
            SelectiveQuench::paper().on_arrival(&over(), 0, 0, &mut r),
            Verdict::Enqueue
        );
        assert_eq!(
            EfciMark::paper().on_arrival(&over(), 0, 0, &mut r),
            Verdict::Enqueue
        );
    }

    #[test]
    fn selective_red_spares_under_limit_even_when_red_fires() {
        let mut q = SelectiveRed::paper();
        settle(&mut q);
        let mut r = rng();
        // Saturate the RED average so it always wants to drop.
        for _ in 0..20_000 {
            q.on_arrival(&under(), 100, 0, &mut r);
        }
        // RED is firing, but under-limit packets survive…
        for _ in 0..100 {
            assert_eq!(q.on_arrival(&under(), 100, 0, &mut r), Verdict::Enqueue);
        }
    }

    #[test]
    fn selective_red_drops_over_limit_when_red_fires() {
        let mut q = SelectiveRed::paper();
        settle(&mut q);
        let mut r = rng();
        for _ in 0..20_000 {
            q.on_arrival(&under(), 100, 0, &mut r);
        }
        let mut drops = 0;
        for _ in 0..100 {
            if q.on_arrival(&over(), 100, 0, &mut r) == Verdict::Drop {
                drops += 1;
            }
        }
        assert!(
            drops > 50,
            "over-limit packets must be RED-dropped: {drops}"
        );
    }
}

#[cfg(test)]
mod gate_tests {
    use super::*;
    use crate::packet::{FlowId, Packet};
    use crate::qdisc::RouterMeasurement;
    use rand::SeedableRng;

    #[test]
    fn queue_gate_spares_over_limit_packets_below_the_gate() {
        let mut q = SelectiveDiscard::paper().with_min_queue(10);
        // settle: capacity 1.25e6, offered 1.0e6 -> limit ~1.25e6
        for _ in 0..5000 {
            q.on_interval(&RouterMeasurement {
                dt: 0.01,
                arrival_bytes: 10_000,
                departure_bytes: 10_000,
                queue_pkts: 0,
                queue_bytes: 0,
                capacity: 1.25e6,
            });
        }
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let over = Packet::data(FlowId(0), 0, 512, 2.0e6);
        assert_eq!(
            q.on_arrival(&over, 5, 0, &mut rng),
            Verdict::Enqueue,
            "below the gate nothing is dropped"
        );
        assert_eq!(
            q.on_arrival(&over, 10, 0, &mut rng),
            Verdict::Drop,
            "at the gate the Fig. 18 predicate applies"
        );
    }
}
