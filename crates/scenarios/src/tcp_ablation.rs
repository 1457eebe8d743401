//! T5 — ablations of the TCP-side Phantom mechanisms.
//!
//! Three axes on the heterogeneous-RTT dumbbell (the F14 topology):
//!
//! * **Utilization factor u** for Selective Discard: higher u leaves a
//!   smaller phantom share, admitting more load before the predicate
//!   bites — goodput up, enforcement (fairness) down.
//! * **Queue gate** (`SelectiveDiscard::with_min_queue`): the paper's
//!   Fig. 18 drops unconditionally; gating on a minimum queue recovers
//!   the goodput lost to drops taken while the link still had headroom.
//! * **CR measurement interval**: the sender's rate stamp must average
//!   at least one RTT (the source stretches the window to `max(interval,
//!   srtt)`); very long windows make the stamp stale and enforcement
//!   sloppy.

use crate::common::{nth_run, TcpMechanism};
use phantom_core::PhantomConfig;
use phantom_metrics::{jain_index, Table};
use phantom_sim::{Engine, SimDuration, SimTime};
use phantom_tcp::network::TrunkIdx;
use phantom_tcp::qdisc::{QueueDiscipline, SelectiveDiscard};
use phantom_tcp::TcpNetworkBuilder;

const RUN_SECS: u64 = 20;
const TAIL: f64 = 10.0;

fn run_dumbbell(
    qdisc: &mut dyn FnMut() -> Box<dyn QueueDiscipline>,
    cr_interval: SimDuration,
    seed: u64,
) -> Vec<f64> {
    let mut b = TcpNetworkBuilder::new().cr_interval(cr_interval);
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    b.trunk(r1, r2, 10.0, SimDuration::from_millis(1));
    b.flow(&[r1, r2], SimTime::ZERO);
    b.flow(&[r1, r2], SimTime::ZERO);
    b.last_flow_access_prop(SimDuration::from_millis(25));
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, qdisc);
    engine.run_until(SimTime::from_secs(RUN_SECS));
    let mut out: Vec<f64> = (0..2)
        .map(|f| net.flow_goodput(&engine, f).mean_after(TAIL) * 8.0 / 1e6)
        .collect();
    out.push(net.trunk_queue(&engine, TrunkIdx(0)).mean_after(TAIL));
    out
}

fn row_from(stats: Vec<f64>) -> Vec<f64> {
    let (short, long, q) = (stats[0], stats[1], stats[2]);
    vec![jain_index(&[short, long]), short, long, short + long, q]
}

/// Run T5.
pub fn table_tcp_ablation(seed: u64) -> Table {
    let mut t = Table::new(
        "table5",
        "TCP Selective Discard ablations (RTT dumbbell, 10 Mb/s)",
        &[
            "variant",
            "jain",
            "short_mbps",
            "long_mbps",
            "aggregate",
            "mean_q",
        ],
    );
    let dt10 = SimDuration::from_millis(10);
    // The first run (sd-u2) is the table's trace.
    let mut runs = 0;
    let mut run = |qdisc: &mut dyn FnMut() -> Box<dyn QueueDiscipline>, cr_interval| {
        runs += 1;
        row_from(nth_run(runs - 1, || run_dumbbell(qdisc, cr_interval, seed)))
    };

    // u sweep.
    for u in [2.0, 5.0, 10.0] {
        let cfg = PhantomConfig::paper().with_utilization_factor(u);
        t.add_row(
            &format!("sd-u{u}"),
            run(&mut || Box::new(SelectiveDiscard::new(cfg)), dt10),
        );
    }

    // Queue gate sweep (u = 5).
    for gate in [0usize, 5, 20] {
        t.add_row(
            &format!("sd-gate{gate}"),
            run(
                &mut || Box::new(SelectiveDiscard::paper().with_min_queue(gate)),
                dt10,
            ),
        );
    }

    // CR interval sweep (u = 5, ungated). The source stretches the window
    // to at least one smoothed RTT regardless.
    for (label, ms) in [("cr5ms", 5u64), ("cr50ms", 50), ("cr200ms", 200)] {
        t.add_row(
            &format!("sd-{label}"),
            run(
                &mut || Box::new(SelectiveDiscard::paper()),
                SimDuration::from_millis(ms),
            ),
        );
    }

    // Reference rows.
    t.add_row(
        "drop-tail",
        run(&mut || TcpMechanism::DropTail.boxed(), dt10),
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table5_ablation_shapes() {
        let t = table_tcp_ablation(105);
        // u sweep: more headroom (smaller u) = stricter policing = lower
        // aggregate, and every u beats drop-tail on fairness.
        let dt_jain = t.cell("drop-tail", "jain").unwrap();
        for u in ["sd-u2", "sd-u5", "sd-u10"] {
            assert!(
                t.cell(u, "jain").unwrap() > dt_jain,
                "{u} should beat drop-tail fairness"
            );
        }
        let agg2 = t.cell("sd-u2", "aggregate").unwrap();
        let agg10 = t.cell("sd-u10", "aggregate").unwrap();
        assert!(
            agg10 > agg2,
            "higher u admits more load: {agg10:.2} vs {agg2:.2}"
        );
        // Queue gate recovers goodput relative to the unconditional drop.
        let agg_gate0 = t.cell("sd-gate0", "aggregate").unwrap();
        let agg_gate20 = t.cell("sd-gate20", "aggregate").unwrap();
        assert!(
            agg_gate20 > agg_gate0,
            "gating should recover goodput: {agg_gate20:.2} vs {agg_gate0:.2}"
        );
        // All selective variants keep the queue below drop-tail's.
        let dt_q = t.cell("drop-tail", "mean_q").unwrap();
        for row in ["sd-u5", "sd-gate0", "sd-cr5ms"] {
            assert!(t.cell(row, "mean_q").unwrap() < dt_q, "{row} queue");
        }
    }
}
