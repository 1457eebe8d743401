//! Random Early Detection \[FJ93\].
//!
//! The gateway mechanism of Floyd and Jacobson: an exponentially weighted
//! average of the queue length; below `min_th` nothing happens, above
//! `max_th` every eligible packet is dropped, in between packets are
//! dropped with a probability that rises linearly and is spread out by
//! the inter-drop count. Only data packets are eligible (dropping ACKs
//! would obscure the flow-control comparison; noted in DESIGN.md).

use super::{QueueDiscipline, Verdict};
use crate::packet::Packet;
use rand::rngs::SmallRng;
use rand::Rng;

/// RED parameters.
#[derive(Clone, Copy, Debug)]
pub struct RedConfig {
    /// EWMA gain of the average queue (0.002 in \[FJ93\]).
    pub wq: f64,
    /// No drops below this average queue length (packets).
    pub min_th: f64,
    /// All eligible packets dropped above this average (packets).
    pub max_th: f64,
    /// Drop probability at `max_th`.
    pub max_p: f64,
}

impl Default for RedConfig {
    fn default() -> Self {
        // [FJ93] uses wq = 0.002 on large routers; at this simulation's
        // scale (10 Mb/s ≈ 2 400 pkt/s) that filter is ~0.2 s slow and
        // lets slow-start bursts overflow the buffer before the average
        // reacts, so the recommended-shape parameters are scaled to the
        // link: faster filter, thresholds well below the buffer bound.
        RedConfig {
            wq: 0.01,
            min_th: 15.0,
            max_th: 60.0,
            max_p: 0.1,
        }
    }
}

/// The RED averaging-and-decision core, shared with Selective RED.
#[derive(Clone, Copy, Debug)]
pub struct RedCore {
    cfg: RedConfig,
    avg: f64,
    count: i64,
}

impl RedCore {
    /// A core with the given parameters.
    pub fn new(cfg: RedConfig) -> Self {
        assert!(cfg.wq > 0.0 && cfg.wq <= 1.0);
        assert!(cfg.min_th >= 0.0 && cfg.min_th < cfg.max_th);
        assert!(cfg.max_p > 0.0 && cfg.max_p <= 1.0);
        RedCore {
            cfg,
            avg: 0.0,
            count: -1,
        }
    }

    /// Current average queue estimate.
    pub fn avg(&self) -> f64 {
        self.avg
    }

    /// Update the average with the instantaneous queue length and decide
    /// whether this arrival should be early-dropped.
    pub fn decide(&mut self, queue_pkts: usize, rng: &mut SmallRng) -> bool {
        self.avg += self.cfg.wq * (queue_pkts as f64 - self.avg);
        if self.avg < self.cfg.min_th {
            self.count = -1;
            return false;
        }
        if self.avg >= self.cfg.max_th {
            self.count = 0;
            return true;
        }
        self.count += 1;
        let pb =
            self.cfg.max_p * (self.avg - self.cfg.min_th) / (self.cfg.max_th - self.cfg.min_th);
        let denom = 1.0 - self.count as f64 * pb;
        let pa = if denom <= 0.0 {
            1.0
        } else {
            (pb / denom).min(1.0)
        };
        if rng.gen::<f64>() < pa {
            self.count = 0;
            true
        } else {
            false
        }
    }
}

/// The RED queue discipline.
#[derive(Clone, Copy, Debug)]
pub struct Red {
    core: RedCore,
}

impl Red {
    /// RED with the given parameters.
    pub fn new(cfg: RedConfig) -> Self {
        Red {
            core: RedCore::new(cfg),
        }
    }

    /// RED with the \[FJ93\]-style defaults.
    pub fn recommended() -> Self {
        Self::new(RedConfig::default())
    }
}

impl QueueDiscipline for Red {
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
        if self.core.decide(queue_pkts, rng) {
            Verdict::Drop
        } else {
            Verdict::Enqueue
        }
    }

    fn name(&self) -> &'static str {
        "red"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn empty_queue_never_drops() {
        let mut red = Red::recommended();
        let mut r = rng();
        let pkt = Packet::data(FlowId(0), 0, 512, 0.0);
        for _ in 0..1000 {
            assert_eq!(red.on_arrival(&pkt, 0, 0, &mut r), Verdict::Enqueue);
        }
    }

    #[test]
    fn saturated_average_always_drops() {
        let mut core = RedCore::new(RedConfig::default());
        let mut r = rng();
        // Pump the average above max_th.
        for _ in 0..10_000 {
            core.decide(100, &mut r);
        }
        assert!(core.avg() > 60.0);
        assert!(core.decide(100, &mut r));
    }

    #[test]
    fn intermediate_average_drops_a_fraction() {
        let mut core = RedCore::new(RedConfig::default());
        let mut r = rng();
        for _ in 0..10_000 {
            core.decide(37, &mut r); // settle avg near the midpoint
        }
        let mut drops = 0;
        let trials = 10_000;
        for _ in 0..trials {
            if core.decide(37, &mut r) {
                drops += 1;
            }
        }
        let frac = drops as f64 / trials as f64;
        assert!(
            frac > 0.01 && frac < 0.30,
            "mid-range drop fraction {frac} out of plausible band"
        );
    }

    #[test]
    fn acks_are_never_early_dropped() {
        let mut red = Red::recommended();
        let mut r = rng();
        let ack = Packet::ack(FlowId(0), 0, false);
        for _ in 0..10_000 {
            assert_eq!(red.on_arrival(&ack, 1000, 0, &mut r), Verdict::Enqueue);
        }
    }

    #[test]
    fn average_moves_slowly() {
        let mut core = RedCore::new(RedConfig::default());
        let mut r = rng();
        core.decide(100, &mut r);
        assert!(core.avg() <= 1.0, "wq=0.01 still filters single samples");
    }

    #[test]
    #[should_panic]
    fn bad_thresholds_rejected() {
        let _ = RedCore::new(RedConfig {
            min_th: 50.0,
            max_th: 40.0,
            ..RedConfig::default()
        });
    }
}
