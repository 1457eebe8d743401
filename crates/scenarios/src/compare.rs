//! The cross-algorithm comparison tables (T1, T2).
//!
//! The paper's Section 5 comparison is figure-by-figure; these tables
//! condense it into the quantities the text argues about: convergence
//! time, queue behavior, fairness and utilization.

use crate::catalog::{run_to_horizon, with_algorithm, FIG19, FIG4};
use crate::common::{nth_run, tcp_rtt_dumbbell, trunk_utilization, AtmAlgorithm, TcpMechanism};
use phantom_atm::network::SessionId;
use phantom_atm::network::TrunkIdx;
use phantom_metrics::{convergence_time, jain_index, Table};
use phantom_sim::probe::without_thread_probe;
use phantom_sim::{SimDuration, SimTime};
use phantom_tcp::network::TrunkIdx as TcpTrunkIdx;

/// T1 — ATM algorithms on the greedy (F2) and on/off (F4) scenarios:
/// F19's and F4's scenes with the algorithm swapped. Phantom's greedy
/// run is the table's trace.
pub fn table_atm(seed: u64) -> Table {
    let mut t = Table::new(
        "table1",
        "ATM rate allocators: 2 greedy sessions (conv/fair/util) + on/off load (queues)",
        &[
            "algorithm",
            "conv_ms",
            "jain",
            "utilization",
            "onoff_mean_q",
            "onoff_max_q",
        ],
    );
    let greedy = FIG19.parse();
    let onoff = FIG4.parse();
    for (i, alg) in [
        AtmAlgorithm::Phantom,
        AtmAlgorithm::PhantomNi,
        AtmAlgorithm::Eprca,
        AtmAlgorithm::Aprc,
        AtmAlgorithm::Capc,
        AtmAlgorithm::Osu,
        AtmAlgorithm::Erica,
    ]
    .into_iter()
    .enumerate()
    {
        let g = nth_run(i, || {
            run_to_horizon(&with_algorithm(&greedy, alg.name()), seed)
        });
        let tp = g.net.trunk_throughput(&g.engine, TrunkIdx(0));
        let target = tp.mean_after(0.6);
        let conv = convergence_time(tp, target, 0.10).unwrap_or(f64::NAN) * 1e3;
        let rates: Vec<f64> = (0..2)
            .map(|s| g.net.session_rate(&g.engine, SessionId(s)).mean_after(0.5))
            .collect();
        let jain = jain_index(&rates);
        let util = trunk_utilization(&g.engine, &g.net, TrunkIdx(0), 0.5);

        let o = without_thread_probe(|| run_to_horizon(&with_algorithm(&onoff, alg.name()), seed));
        let mean_q = o.net.trunk_queue(&o.engine, TrunkIdx(0)).mean_after(0.2);
        let max_q = o.net.trunk_port(&o.engine, TrunkIdx(0)).queue_high_water() as f64;

        t.add_row(alg.name(), vec![conv, jain, util, mean_q, max_q]);
    }
    t
}

/// T2 — TCP router mechanisms on the heterogeneous-RTT dumbbell.
pub fn table_tcp(seed: u64) -> Table {
    let mut t = Table::new(
        "table2",
        "TCP router mechanisms on the RTT dumbbell (10 Mb/s, RTT 2 ms vs 52 ms)",
        &[
            "mechanism",
            "jain",
            "short_mbps",
            "long_mbps",
            "aggregate_mbps",
            "loss_pct",
            "mean_q_pkts",
        ],
    );
    for (i, mech) in [
        TcpMechanism::DropTail,
        TcpMechanism::Red,
        TcpMechanism::SelectiveDiscard,
        TcpMechanism::SelectiveQuench,
        TcpMechanism::SelectiveRed,
        TcpMechanism::EfciMark,
    ]
    .into_iter()
    .enumerate()
    {
        let (engine, net) = nth_run(i, || {
            let (mut engine, net) = tcp_rtt_dumbbell(SimDuration::from_millis(25), mech, seed);
            engine.run_until(SimTime::from_secs(20));
            (engine, net)
        });
        let g: Vec<f64> = (0..2)
            .map(|f| net.flow_goodput(&engine, f).mean_after(10.0))
            .collect();
        let port = net.trunk_port(&engine, TcpTrunkIdx(0));
        let sent: u64 = (0..2).map(|f| net.source(&engine, f).segments_sent).sum();
        let loss_pct = 100.0 * port.total_drops() as f64 / (sent.max(1)) as f64;
        t.add_row(
            mech.name(),
            vec![
                jain_index(&g),
                g[0] * 8.0 / 1e6,
                g[1] * 8.0 / 1e6,
                (g[0] + g[1]) * 8.0 / 1e6,
                loss_pct,
                net.trunk_queue(&engine, TcpTrunkIdx(0)).mean_after(10.0),
            ],
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_phantom_wins_on_convergence_and_fairness() {
        let t = table_atm(101);
        let p_conv = t.cell("phantom", "conv_ms").unwrap();
        let c_conv = t.cell("capc", "conv_ms").unwrap();
        assert!(
            p_conv < c_conv,
            "phantom {p_conv:.0} ms should beat capc {c_conv:.0} ms"
        );
        for alg in ["phantom", "eprca", "aprc", "capc"] {
            assert!(
                t.cell(alg, "jain").unwrap() > 0.85,
                "{alg} grossly unfair on equals"
            );
            assert!(t.cell(alg, "utilization").unwrap() > 0.75, "{alg} idle");
        }
        // CAPC's smaller transient queue (the paper's explicit
        // observation: Phantom reacts faster at the cost of a larger
        // queue during convergence).
        assert!(
            t.cell("capc", "onoff_max_q").unwrap() <= t.cell("phantom", "onoff_max_q").unwrap()
        );
    }

    #[test]
    fn table2_selective_mechanisms_beat_drop_tail_on_fairness() {
        let t = table_tcp(102);
        let dt = t.cell("drop-tail", "jain").unwrap();
        for mech in ["selective-discard", "selective-red", "efci-mark"] {
            assert!(
                t.cell(mech, "jain").unwrap() > dt,
                "{mech} should be fairer than drop-tail"
            );
        }
        // every mechanism keeps some reasonable aggregate throughput
        for mech in [
            "drop-tail",
            "red",
            "selective-discard",
            "selective-quench",
            "selective-red",
            "efci-mark",
        ] {
            assert!(
                t.cell(mech, "aggregate_mbps").unwrap() > 4.0,
                "{mech} collapsed"
            );
        }
    }
}
