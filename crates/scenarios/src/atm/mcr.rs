//! EXT5 — MCR guarantees under Phantom.
//!
//! TM 4.0 sessions may carry a guaranteed Minimum Cell Rate; switches
//! never stamp ER below it (`RmCell::limit_er` clamps at the cell's MCR
//! field). With `n` sessions on capacity `C` where one session holds a
//! guarantee `m` that exceeds the unconstrained fair share `u·MACR`,
//! the fixed point becomes
//!
//! ```text
//! arrivals = m + (n−1)·u·MACR
//! MACR     = C − arrivals  ⇒  MACR = (C − m) / (1 + (n−1)·u)
//! ```
//!
//! — the guaranteed session is pinned at exactly `m` (the ER *floor*,
//! not floor-plus-share), and everyone else fair-shares what remains.
//!
//! EXT5 builds its network by hand because a scene cannot declare a
//! session's MCR.

use crate::common::AtmAlgorithm;
use phantom_atm::network::SessionId;
use phantom_atm::network::{NetworkBuilder, TrunkIdx};
use phantom_atm::units::{cps_to_mbps, mbps_to_cps};
use phantom_atm::{AtmParams, Traffic};
use phantom_metrics::ExperimentResult;
use phantom_sim::{Engine, SimDuration, SimTime};

const N: usize = 10;
const MCR_MBPS: f64 = 40.0;

/// Run EXT5.
pub fn run(seed: u64) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "ext5",
        "ten sessions, one with a 40 Mb/s MCR guarantee (Phantom, 150 Mb/s)",
    );
    r.add_note("TM 4.0 MCR: ER is never stamped below the session's guarantee");

    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    // Session 0 carries the guarantee (ICR must be at least MCR).
    let mut guaranteed = AtmParams::paper().with_icr_mbps(MCR_MBPS);
    guaranteed.mcr = mbps_to_cps(MCR_MBPS);
    b.session_with(&[s1, s2], Traffic::greedy(), guaranteed);
    for _ in 1..N {
        b.session(&[s1, s2], Traffic::greedy());
    }
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || AtmAlgorithm::Phantom.boxed());
    engine.run_until(SimTime::from_millis(800));

    // Closed-form fixed point with the guarantee binding
    // (u·MACR < MCR requires enough competing sessions).
    let c = mbps_to_cps(150.0);
    let m = mbps_to_cps(MCR_MBPS);
    let u = 5.0;
    let macr_pred = (c - m) / (1.0 + (N as f64 - 1.0) * u);
    assert!(
        u * macr_pred < m,
        "scenario must make the guarantee binding"
    );

    let macr = net.trunk_macr(&engine, TrunkIdx(0)).mean_after(0.5);
    r.add_metric("macr_measured_mbps", cps_to_mbps(macr));
    r.add_metric("macr_predicted_mbps", cps_to_mbps(macr_pred));
    r.add_metric(
        "guaranteed_measured_mbps",
        cps_to_mbps(net.session_rate(&engine, SessionId(0)).mean_after(0.5)),
    );
    r.add_metric("guaranteed_predicted_mbps", MCR_MBPS);
    let others: Vec<f64> = (1..N)
        .map(|s| net.session_rate(&engine, SessionId(s)).mean_after(0.5))
        .collect();
    r.add_metric(
        "besteffort_mean_mbps",
        cps_to_mbps(others.iter().sum::<f64>() / others.len() as f64),
    );
    r.add_metric("besteffort_predicted_mbps", cps_to_mbps(u * macr_pred));
    r.add_metric("besteffort_jain", phantom_metrics::jain_index(&others));
    r.add_metric(
        "utilization",
        crate::common::trunk_utilization(&engine, &net, TrunkIdx(0), 0.5),
    );
    r.add_metric(
        "cell_drops",
        net.trunk_port(&engine, TrunkIdx(0)).drops() as f64,
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext5_guarantee_is_pinned_and_the_rest_fair_share() {
        let r = run(55);
        let g = r.metric("guaranteed_measured_mbps").unwrap();
        assert!(
            (g - MCR_MBPS).abs() < 0.1 * MCR_MBPS,
            "guaranteed session should hold ≈{MCR_MBPS} Mb/s, got {g:.1}"
        );
        let be = r.metric("besteffort_mean_mbps").unwrap();
        let bep = r.metric("besteffort_predicted_mbps").unwrap();
        assert!(
            (be - bep).abs() < 0.15 * bep,
            "best-effort share {be:.2} vs predicted {bep:.2}"
        );
        // The guarantee clearly exceeds the best-effort share…
        assert!(g > 2.0 * be);
        // …without breaking fairness among the unguaranteed.
        assert!(r.metric("besteffort_jain").unwrap() > 0.99);
        let m = r.metric("macr_measured_mbps").unwrap();
        let mp = r.metric("macr_predicted_mbps").unwrap();
        assert!((m - mp).abs() < 0.15 * mp, "MACR {m:.2} vs {mp:.2}");
        assert_eq!(r.metric("cell_drops").unwrap(), 0.0);
    }
}
