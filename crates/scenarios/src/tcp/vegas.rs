//! EXT1 — the paper's Vegas-unfairness discussion, reproduced.
//!
//! Section 4 argues that source-side mechanisms alone cannot guarantee
//! fairness and names TCP Vegas \[BP95\] twice:
//!
//! 1. "when two sources that use Vegas get different window sizes, and
//!    both have the same delay thresholds (α, β), then there is no
//!    mechanism that would balance them. The current mechanisms would
//!    either increase both or decrease both."
//! 2. "distinct parameters for different sessions may cause severe
//!    unfairness. E.g., two sessions using Vegas … the lower threshold
//!    (α) of the one is larger than the upper threshold (β) of the
//!    other."
//!
//! Three panels on a 10 Mb/s dumbbell:
//! * `staggered`: two same-threshold Vegas flows, the second joining at
//!   5 s into a queue the first already built — the late flow measures an
//!   inflated baseRTT and settles for less; nothing rebalances them.
//! * `mismatched`: flow 0 with (α,β) = (4,6), flow 1 with (1,3) — the
//!   greedy-threshold flow parks more packets in the queue and holds a
//!   larger share forever.
//! * `mismatched + Selective Discard`: the Phantom router mechanism
//!   polices the over-limit flow from the outside and restores most of
//!   the balance, exactly the paper's argument for router support.

use super::collect_tcp;
use crate::common::TcpMechanism;
use phantom_metrics::ExperimentResult;
use phantom_sim::probe::without_thread_probe;
use phantom_sim::{Engine, SimDuration, SimTime};
use phantom_tcp::network::{CcAlgorithm, TrunkIdx};
use phantom_tcp::{TcpNetworkBuilder, VegasConfig};

const RUN_SECS: f64 = 30.0;
const TAIL: f64 = 20.0;

fn vegas(alpha: f64, beta: f64) -> CcAlgorithm {
    CcAlgorithm::Vegas(VegasConfig {
        alpha,
        beta,
        ..VegasConfig::default()
    })
}

fn run_pair(
    cc0: CcAlgorithm,
    cc1: CcAlgorithm,
    start1: SimTime,
    mech: TcpMechanism,
    seed: u64,
) -> (Engine<phantom_tcp::TcpMsg>, phantom_tcp::TcpNetwork) {
    let mut b = TcpNetworkBuilder::new();
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    b.trunk(r1, r2, 10.0, SimDuration::from_millis(1));
    b.flow_with_cc(&[r1, r2], SimTime::ZERO, cc0);
    b.flow_with_cc(&[r1, r2], start1, cc1);
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || mech.boxed());
    engine.run_until(SimTime::from_secs_f64(RUN_SECS));
    (engine, net)
}

/// Run EXT1.
pub fn run(seed: u64) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "ext1",
        "TCP Vegas unfairness (paper §4 discussion) and the Phantom remedy",
    );
    r.add_note("explicit discussion, no figure number: Vegas [BP95] imbalance modes");

    // Panel 1: same thresholds, staggered start, drop-tail. Its run is
    // the figure's trace.
    let (e, n) = run_pair(
        vegas(1.0, 3.0),
        vegas(1.0, 3.0),
        SimTime::from_secs(5),
        TcpMechanism::DropTail,
        seed,
    );
    collect_tcp(&e, &n, &mut r, TrunkIdx(0), TAIL, "staggered");
    let early = n.flow_goodput(&e, 0).mean_after(TAIL) * 8.0 / 1e6;
    let late = n.flow_goodput(&e, 1).mean_after(TAIL) * 8.0 / 1e6;
    r.add_metric("staggered_early_mbps", early);
    r.add_metric("staggered_late_mbps", late);
    r.add_metric("staggered_ratio", early / late.max(0.01));

    // Panel 2: mismatched thresholds (α0 > β1), drop-tail.
    let (e, n) = without_thread_probe(|| {
        run_pair(
            vegas(4.0, 6.0),
            vegas(1.0, 3.0),
            SimTime::ZERO,
            TcpMechanism::DropTail,
            seed,
        )
    });
    collect_tcp(&e, &n, &mut r, TrunkIdx(0), TAIL, "mismatched");
    let greedy = n.flow_goodput(&e, 0).mean_after(TAIL) * 8.0 / 1e6;
    let modest = n.flow_goodput(&e, 1).mean_after(TAIL) * 8.0 / 1e6;
    r.add_metric("mismatched_greedy_mbps", greedy);
    r.add_metric("mismatched_modest_mbps", modest);
    r.add_metric("mismatched_ratio", greedy / modest.max(0.01));

    // Panel 3: same mismatch, Selective Discard router.
    let (e, n) = without_thread_probe(|| {
        run_pair(
            vegas(4.0, 6.0),
            vegas(1.0, 3.0),
            SimTime::ZERO,
            TcpMechanism::SelectiveDiscard,
            seed,
        )
    });
    collect_tcp(&e, &n, &mut r, TrunkIdx(0), TAIL, "mismatched_sd");
    let greedy_sd = n.flow_goodput(&e, 0).mean_after(TAIL) * 8.0 / 1e6;
    let modest_sd = n.flow_goodput(&e, 1).mean_after(TAIL) * 8.0 / 1e6;
    r.add_metric("mismatched_sd_greedy_mbps", greedy_sd);
    r.add_metric("mismatched_sd_modest_mbps", modest_sd);
    r.add_metric("mismatched_sd_ratio", greedy_sd / modest_sd.max(0.01));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext1_vegas_unfairness_modes_and_remedy() {
        let r = run(41);
        // Mismatched thresholds: the greedy-threshold flow wins big.
        let mm = r.metric("mismatched_ratio").unwrap();
        assert!(mm > 1.5, "threshold mismatch should be visible: {mm:.2}");
        // Selective Discard shrinks the mismatch bias.
        let sd = r.metric("mismatched_sd_ratio").unwrap();
        assert!(
            sd < mm * 0.75,
            "selective discard should rebalance: {sd:.2} vs {mm:.2}"
        );
        // Staggered same-threshold flows do not equalize: the late joiner
        // measures a baseRTT inflated by the first flow's standing queue,
        // under-estimates its own queue occupancy and persistently
        // over-claims ("there is no mechanism that would balance them" —
        // the imbalance survives the whole run, in whichever direction).
        let st = r.metric("staggered_ratio").unwrap();
        assert!(
            (st - 1.0).abs() > 0.05,
            "staggered Vegas flows should stay imbalanced: {st:.2}"
        );
        // Everything still moves data.
        assert!(r.metric("aggregate_mbps_staggered").unwrap() > 5.0);
        assert!(r.metric("aggregate_mbps_mismatched").unwrap() > 5.0);
    }
}
