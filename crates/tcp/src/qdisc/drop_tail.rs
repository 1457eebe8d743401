//! Plain FIFO: every packet is enqueued; the buffer bound tail-drops.
//!
//! The baseline whose RTT bias and beat-down behavior the paper's TCP
//! experiments demonstrate.

use super::{QueueDiscipline, Verdict};
use crate::packet::Packet;
use rand::rngs::SmallRng;

/// The drop-tail discipline.
#[derive(Clone, Copy, Debug, Default)]
pub struct DropTail;

impl QueueDiscipline for DropTail {
    fn on_arrival(
        &mut self,
        _pkt: &Packet,
        _queue_pkts: usize,
        _queue_bytes: u64,
        _rng: &mut SmallRng,
    ) -> Verdict {
        Verdict::Enqueue
    }

    fn name(&self) -> &'static str {
        "drop-tail"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use rand::SeedableRng;

    #[test]
    fn always_enqueues() {
        let mut q = DropTail;
        let mut rng = SmallRng::seed_from_u64(0);
        let pkt = Packet::data(FlowId(0), 0, 512, 1e9);
        for n in [0usize, 10, 10_000] {
            assert_eq!(
                q.on_arrival(&pkt, n, n as u64 * 552, &mut rng),
                Verdict::Enqueue
            );
        }
        assert!(q.fair_share().is_nan());
    }
}
