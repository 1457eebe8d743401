//! F14 — Reno RTT unfairness and Selective Discard `[explicit]`.
//!
//! "An unfair behavior of Reno in an environment of drop tail routers is
//! depicted in the left hand side of Fig. 14 … The right hand sides of
//! Fig. 14 and Fig. 17 illustrate the behavior of this mechanism
//! [Selective Discard]." Two greedy Reno flows with a 500× RTT spread
//! share a 10 Mb/s trunk: left panel drop-tail (short flow dominates),
//! right panel Selective Discard (bias largely removed).

use super::collect_tcp;
use crate::common::{tcp_rtt_dumbbell, TcpMechanism};
use phantom_metrics::ExperimentResult;
use phantom_sim::probe::without_thread_probe;
use phantom_sim::{SimDuration, SimTime};
use phantom_tcp::network::TrunkIdx;

const RUN_SECS: f64 = 20.0;
const TAIL: f64 = 10.0;

fn run_side(mech: TcpMechanism, seed: u64) -> (f64, f64, ExperimentSide) {
    let (mut engine, net) = tcp_rtt_dumbbell(SimDuration::from_millis(25), mech, seed);
    engine.run_until(SimTime::from_secs_f64(RUN_SECS));
    let short = net.flow_goodput(&engine, 0).mean_after(TAIL);
    let long = net.flow_goodput(&engine, 1).mean_after(TAIL);
    (short, long, ExperimentSide { engine, net })
}

struct ExperimentSide {
    engine: phantom_sim::Engine<phantom_tcp::TcpMsg>,
    net: phantom_tcp::TcpNetwork,
}

/// Run F14.
pub fn run(seed: u64) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig14",
        "TCP Reno RTT bias: drop-tail (left) vs Selective Discard (right)",
    );
    r.add_note("explicit: left/right panels of the paper's Fig. 14");

    // The drop-tail run is the figure's trace.

    let (dt_s, dt_l, dt_side) = run_side(TcpMechanism::DropTail, seed);
    collect_tcp(
        &dt_side.engine,
        &dt_side.net,
        &mut r,
        TrunkIdx(0),
        TAIL,
        "droptail",
    );
    let (sd_s, sd_l, sd_side) =
        without_thread_probe(|| run_side(TcpMechanism::SelectiveDiscard, seed));
    collect_tcp(
        &sd_side.engine,
        &sd_side.net,
        &mut r,
        TrunkIdx(0),
        TAIL,
        "seldiscard",
    );

    r.add_metric("droptail_short_mbps", dt_s * 8.0 / 1e6);
    r.add_metric("droptail_long_mbps", dt_l * 8.0 / 1e6);
    r.add_metric("droptail_ratio", dt_s / dt_l.max(1.0));
    r.add_metric("seldiscard_short_mbps", sd_s * 8.0 / 1e6);
    r.add_metric("seldiscard_long_mbps", sd_l * 8.0 / 1e6);
    r.add_metric("seldiscard_ratio", sd_s / sd_l.max(1.0));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig14_selective_discard_reduces_rtt_bias() {
        let r = run(14);
        let dt = r.metric("droptail_ratio").unwrap();
        let sd = r.metric("seldiscard_ratio").unwrap();
        assert!(dt > 3.0, "drop-tail bias missing: {dt:.2}");
        assert!(
            sd < 3.0 && sd < 0.6 * dt,
            "selective discard should shrink the bias: {sd:.2} vs {dt:.2}"
        );
        assert!(r.metric("jain_seldiscard").unwrap() > r.metric("jain_droptail").unwrap());
    }
}
