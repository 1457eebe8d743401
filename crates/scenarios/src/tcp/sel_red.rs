//! F16 — Selective RED vs plain RED `[reconstructed §4]`.
//!
//! "Here the router applies the RED mechanism. However, only packets
//! whose rate is larger than utilization_factor × MACR may be dropped."
//! RED "overcomes some of the bias … yet the resulting mechanism still
//! does not always guarantee fairness"; restricting eligibility to
//! over-limit packets should improve the rate balance on the
//! heterogeneous-RTT dumbbell.

use super::collect_tcp;
use crate::common::{nth_run, tcp_rtt_dumbbell_cap, TcpMechanism};
use phantom_metrics::ExperimentResult;
use phantom_sim::{SimDuration, SimTime};
use phantom_tcp::network::TrunkIdx;

/// Run F16.
pub fn run(seed: u64) -> ExperimentResult {
    let mut r = ExperimentResult::new("fig16", "plain RED vs Selective RED on the RTT dumbbell");
    r.add_note("reconstructed §4: RED with Phantom eligibility predicate");

    // The plain-RED run is the figure's trace.
    let mut side = |i: usize, mech: TcpMechanism, label: &str| -> (f64, f64) {
        let (engine, net) = nth_run(i, || {
            let (mut engine, net) =
                tcp_rtt_dumbbell_cap(SimDuration::from_millis(25), mech, seed, 200);
            engine.run_until(SimTime::from_secs(20));
            (engine, net)
        });
        collect_tcp(&engine, &net, &mut r, TrunkIdx(0), 10.0, label);
        (
            net.flow_goodput(&engine, 0).mean_after(10.0),
            net.flow_goodput(&engine, 1).mean_after(10.0),
        )
    };
    let (red_s, red_l) = side(0, TcpMechanism::Red, "red");
    let (sel_s, sel_l) = side(1, TcpMechanism::SelectiveRed, "selred");

    r.add_metric("red_ratio", red_s / red_l.max(1.0));
    r.add_metric("selred_ratio", sel_s / sel_l.max(1.0));
    r.add_metric("red_short_mbps", red_s * 8.0 / 1e6);
    r.add_metric("red_long_mbps", red_l * 8.0 / 1e6);
    r.add_metric("selred_short_mbps", sel_s * 8.0 / 1e6);
    r.add_metric("selred_long_mbps", sel_l * 8.0 / 1e6);
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_selective_red_beats_plain_red_on_fairness() {
        let r = run(16);
        let red = r.metric("red_ratio").unwrap();
        let sel = r.metric("selred_ratio").unwrap();
        assert!(
            sel < red,
            "selective RED should be fairer: {sel:.2} vs plain {red:.2}"
        );
        assert!(r.metric("jain_selred").unwrap() >= r.metric("jain_red").unwrap());
        // both keep the link busy
        assert!(r.metric("aggregate_mbps_red").unwrap() > 5.0);
        assert!(r.metric("aggregate_mbps_selred").unwrap() > 5.0);
    }
}
