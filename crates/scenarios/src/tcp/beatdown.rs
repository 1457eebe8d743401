//! F17 — beat-down of many-hop sessions `[explicit]`.
//!
//! "Another source for unfairness … is the bias against sessions that
//! pass through many routers (analogous to the 'beat down' phenomena in
//! ATM \[BdJ94\]). An unfair behavior of Reno … is depicted in the left
//! hand side of Fig. 14 and Fig. 17." Parking lot of five routers: a
//! long flow crosses four 10 Mb/s trunks (with 50-packet buffers, so
//! losses are frequent), one cross flow per trunk. Under drop-tail the
//! long flow sees the loss product of four queues and is beaten down;
//! Selective Discard punishes only over-limit packets, so the long flow
//! recovers a much larger share.

use super::collect_tcp;
use crate::common::{nth_run, tcp_parking_lot, TcpMechanism};
use phantom_metrics::ExperimentResult;
use phantom_sim::SimTime;
use phantom_tcp::network::TrunkIdx;

const RUN_SECS: f64 = 25.0;
const TAIL: f64 = 12.0;

/// Run F17.
pub fn run(seed: u64) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "fig17",
        "beat-down parking lot: drop-tail (left) vs Selective Discard (right)",
    );
    r.add_note("explicit: many-router bias, Fig. 17 panels");

    // The drop-tail run is the figure's trace.
    let mut side = |i: usize, mech: TcpMechanism, label: &str| -> Vec<f64> {
        let (engine, net) = nth_run(i, || {
            let (mut engine, net) = tcp_parking_lot(mech, seed);
            engine.run_until(SimTime::from_secs_f64(RUN_SECS));
            (engine, net)
        });
        collect_tcp(&engine, &net, &mut r, TrunkIdx(0), TAIL, label);
        (0..net.flows.len())
            .map(|f| net.flow_goodput(&engine, f).mean_after(TAIL))
            .collect()
    };
    let dt = side(0, TcpMechanism::DropTail, "droptail");
    let sd = side(1, TcpMechanism::SelectiveDiscard, "seldiscard");

    let cross_mean = |v: &[f64]| v[1..].iter().sum::<f64>() / (v.len() - 1) as f64;
    r.add_metric("droptail_long_mbps", dt[0] * 8.0 / 1e6);
    r.add_metric("droptail_cross_mbps", cross_mean(&dt) * 8.0 / 1e6);
    r.add_metric("droptail_long_share", dt[0] / cross_mean(&dt).max(1.0));
    r.add_metric("seldiscard_long_mbps", sd[0] * 8.0 / 1e6);
    r.add_metric("seldiscard_cross_mbps", cross_mean(&sd) * 8.0 / 1e6);
    r.add_metric("seldiscard_long_share", sd[0] / cross_mean(&sd).max(1.0));
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_selective_discard_rescues_the_long_flow() {
        let r = run(17);
        let dt_share = r.metric("droptail_long_share").unwrap();
        let sd_share = r.metric("seldiscard_long_share").unwrap();
        assert!(
            dt_share < 0.7,
            "drop-tail should beat the long flow down, share {dt_share:.2}"
        );
        assert!(
            sd_share > dt_share * 1.3,
            "selective discard should lift the long flow: {sd_share:.2} vs {dt_share:.2}"
        );
    }
}
