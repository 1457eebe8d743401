//! T4 — control-loop delay sweep (LAN to WAN).
//!
//! Phantom's feedback loop is: measurement interval Δt at the port, plus
//! the round trip of the backward RM cells to the sources. The paper's
//! canonical figures use "negligible RTT" (0.01 ms) links; this sweep
//! stretches the trunk's one-way propagation to 2 000 km scales and
//! watches stability degrade gracefully: convergence slows with the
//! loop delay, but the fixed point, fairness and utilization are
//! delay-independent, and the transient queue stays bounded (a longer
//! loop also paces the sources' ramp-up, since each AIR increase waits
//! for a backward RM to arrive).

use crate::catalog::run_to_horizon;
use crate::common::{nth_run, trunk_utilization};
use phantom_atm::network::{SessionId, TrunkIdx};
use phantom_atm::units::{cps_to_mbps, mbps_to_cps};
use phantom_core::fixed_point::single_link_macr;
use phantom_metrics::{convergence_time, jain_index, Table};
use phantom_scene::parse_scene;

/// Two greedy sessions on one 150 Mb/s trunk for 1.5 s; each row swaps
/// the trunk's `prop_us`.
const SCENE: &str = include_str!("../../../scenes/catalog/table4.json");

/// Run T4. The LAN row is the table's trace.
pub fn table_wan(seed: u64) -> Table {
    let mut t = Table::new(
        "table4",
        "Phantom vs control-loop delay (2 greedy sessions, 150 Mb/s trunk)",
        &[
            "one_way_prop",
            "conv_ms",
            "jain",
            "utilization",
            "max_q",
            "macr_err_pct",
        ],
    );
    let c = mbps_to_cps(150.0);
    let pred = single_link_macr(c, 2, 5.0);
    let scene = parse_scene(SCENE).expect("the embedded table4 scene is valid");
    for (i, (label, prop_us)) in [
        ("10us(lan)", 10.0),
        ("1ms(200km)", 1_000.0),
        ("5ms(1000km)", 5_000.0),
        ("10ms(2000km)", 10_000.0),
    ]
    .into_iter()
    .enumerate()
    {
        let mut delayed = scene.clone();
        delayed.trunks[0].prop_us = prop_us;
        let run = nth_run(i, || run_to_horizon(&delayed, seed));
        let (engine, net) = (&run.engine, &run.net);

        let macr = net.trunk_macr(engine, TrunkIdx(0));
        let conv = convergence_time(macr, pred, 0.15).unwrap_or(f64::NAN) * 1e3;
        let rates: Vec<f64> = (0..2)
            .map(|s| net.session_rate(engine, SessionId(s)).mean_after(1.0))
            .collect();
        let util = trunk_utilization(engine, net, TrunkIdx(0), 1.0);
        let max_q = net.trunk_port(engine, TrunkIdx(0)).queue_high_water() as f64;
        let macr_err = 100.0 * (cps_to_mbps(macr.mean_after(1.0)) - cps_to_mbps(pred)).abs()
            / cps_to_mbps(pred);
        t.add_row(label, vec![conv, jain_index(&rates), util, max_q, macr_err]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_stability_degrades_gracefully_with_delay() {
        let t = table_wan(50);
        for row in ["10us(lan)", "1ms(200km)", "5ms(1000km)", "10ms(2000km)"] {
            // The fixed point is delay-independent: MACR lands within 15%.
            let err = t.cell(row, "macr_err_pct").unwrap();
            assert!(err < 15.0, "{row}: MACR error {err:.1}%");
            // Fairness survives any delay.
            assert!(t.cell(row, "jain").unwrap() > 0.98, "{row} unfair");
            // Utilization stays near the design point.
            let u = t.cell(row, "utilization").unwrap();
            assert!((u - 0.909).abs() < 0.08, "{row}: util {u:.3}");
        }
        // Convergence slows monotonically from LAN to 2000 km...
        let mut last = 0.0;
        for row in ["10us(lan)", "1ms(200km)", "5ms(1000km)", "10ms(2000km)"] {
            let c = t.cell(row, "conv_ms").unwrap();
            assert!(
                c >= last,
                "convergence should slow with delay: {row} took {c:.0} ms after {last:.0} ms"
            );
            last = c;
            // ...while the transient queue stays bounded (the slower
            // feedback also paces the ramp-up, so it does not grow).
            assert!(
                t.cell(row, "max_q").unwrap() < 2000.0,
                "{row}: transient queue unbounded"
            );
        }
    }
}
