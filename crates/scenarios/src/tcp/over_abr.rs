//! EXT3 — TCP over an ABR-carried trunk (the paper's interconnection
//! motivation).
//!
//! "An additional motivation to implement the newly suggested flow
//! control mechanism in TCP is that TCP traffic might traverse ATM
//! networks. The use of a consistent flow control mechanism in both TCP
//! and ABR over ATM may improve the network utilization."
//!
//! Two coupled simulations:
//!
//! 1. **ATM stage** — a Phantom-controlled 30 Mb/s ATM link carries one
//!    greedy ABR virtual circuit (the *carrier VC* of an IP trunk) plus
//!    two slow on/off competitors. The carrier VC's allowed rate (its
//!    ACR trace) is the bandwidth the ATM network grants the IP trunk
//!    over time.
//! 2. **TCP stage** — a dumbbell whose bottleneck trunk *replays that
//!    bandwidth trace* (cells/s × 48 payload bytes). Two Reno flows
//!    cross it, once with drop-tail and once with Selective Discard.
//!
//! The ATM stage is the figure's trace; the TCP runs go without the
//! thread probe. It stays hand-built because a scene with declared
//! trunks cannot set the 20 ms rate-sampling interval.
//!
//! The consistency claim to check: the Phantom-driven router tracks the
//! varying allocation (its MACR measures residual against the *current*
//! capacity each interval), so it rides the ABR swings with a small
//! queue and few losses, where drop-tail oscillates between buffer
//! overflow at every down-step and slow recovery at every up-step.

use super::collect_tcp;
use crate::common::{AtmAlgorithm, TcpMechanism};
use phantom_atm::network::SessionId;
use phantom_atm::units::cps_to_mbps;
use phantom_atm::{NetworkBuilder, Traffic};
use phantom_metrics::ExperimentResult;
use phantom_sim::probe::without_thread_probe;
use phantom_sim::{Engine, SimDuration, SimTime};
use phantom_tcp::network::TrunkIdx;
use phantom_tcp::TcpNetworkBuilder;

/// Payload bytes per ATM cell (AAL5 carries 48 of the 53).
const PAYLOAD_PER_CELL: f64 = 48.0;
const ATM_SECS: f64 = 6.0;
const CYCLES: usize = 3;
const TAIL: f64 = 6.0;

/// Stage 1: generate the carrier VC's bandwidth trace, `(time, bytes/s)`
/// sampled every 20 ms.
fn abr_bandwidth_trace(seed: u64) -> Vec<(SimTime, f64)> {
    let mut b = NetworkBuilder::new().rate_sample_interval(SimDuration::from_millis(20));
    let s1 = b.switch("atm1");
    let s2 = b.switch("atm2");
    b.trunk(s1, s2, 30.0, SimDuration::from_micros(10));
    b.session(&[s1, s2], Traffic::greedy()); // the carrier VC
    let on = SimDuration::from_millis(200);
    let off = SimDuration::from_millis(200);
    b.session(
        &[s1, s2],
        Traffic::on_off(SimTime::from_millis(500), on, off),
    );
    b.session(
        &[s1, s2],
        Traffic::on_off(SimTime::from_millis(600), on, off),
    );
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || AtmAlgorithm::Phantom.boxed());
    engine.run_until(SimTime::from_secs_f64(ATM_SECS));

    // The allowed rate of the carrier VC is its ACR trace; resample onto
    // a 20 ms grid for the capacity schedule.
    let acr = net.session_acr(&engine, SessionId(0));
    let mut points = Vec::new();
    let mut t = 0.1; // let the ATM loop initialize first
    while t < ATM_SECS {
        if let Some(cells_per_sec) = acr.value_at(t) {
            let bps = (cells_per_sec * PAYLOAD_PER_CELL).max(10_000.0);
            points.push((SimTime::from_secs_f64(t), bps));
        }
        t += 0.02;
    }
    points
}

fn run_tcp_over_trace(
    trace: &[(SimTime, f64)],
    mech: TcpMechanism,
    seed: u64,
) -> (Engine<phantom_tcp::TcpMsg>, phantom_tcp::TcpNetwork) {
    let mut b = TcpNetworkBuilder::new();
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    // Initial capacity = the trace's first point (replayed thereafter).
    let init_mbps = trace
        .first()
        .map(|&(_, bps)| bps * 8.0 / 1e6)
        .unwrap_or(10.0);
    b.trunk(r1, r2, init_mbps, SimDuration::from_millis(1));
    b.flow(&[r1, r2], SimTime::ZERO);
    b.flow(&[r1, r2], SimTime::ZERO);
    let mut engine = Engine::new(seed ^ 0xABCD);
    let net = b.build(&mut engine, &mut || mech.boxed());
    // Replay the ABR trace cyclically.
    let cycle = SimDuration::from_secs_f64(ATM_SECS);
    let mut points = Vec::new();
    for rep in 0..CYCLES {
        for &(t, bps) in trace {
            points.push((t + cycle * rep as u64, bps));
        }
    }
    net.schedule_capacity_trace(&mut engine, TrunkIdx(0), &points);
    engine.run_until(SimTime::from_secs_f64(ATM_SECS * CYCLES as f64));
    (engine, net)
}

/// Mean available bandwidth over the trace, bytes/s.
fn trace_mean(trace: &[(SimTime, f64)]) -> f64 {
    trace.iter().map(|&(_, b)| b).sum::<f64>() / trace.len().max(1) as f64
}

/// Run EXT3.
pub fn run(seed: u64) -> ExperimentResult {
    let mut r = ExperimentResult::new(
        "ext3",
        "TCP over an ABR-carried trunk: drop-tail vs Selective Discard",
    );
    r.add_note("the paper's TCP-over-ATM interconnection motivation, two-stage simulation");

    let trace = abr_bandwidth_trace(seed);
    let avail = trace_mean(&trace);
    r.add_metric("abr_mean_bandwidth_mbps", avail * 8.0 / 1e6);
    r.add_metric(
        "abr_min_bandwidth_mbps",
        trace.iter().map(|&(_, b)| b).fold(f64::INFINITY, f64::min) * 8.0 / 1e6,
    );
    r.add_metric(
        "abr_max_bandwidth_mbps",
        trace.iter().map(|&(_, b)| b).fold(0.0, f64::max) * 8.0 / 1e6,
    );
    {
        let mut ts = phantom_sim::stats::TimeSeries::new();
        for &(t, bps) in &trace {
            ts.push(t, cps_to_mbps(bps / PAYLOAD_PER_CELL));
        }
        r.add_series("abr_bandwidth_mbps", ts);
    }

    for mech in [TcpMechanism::DropTail, TcpMechanism::SelectiveDiscard] {
        let label = match mech {
            TcpMechanism::DropTail => "droptail",
            _ => "seldiscard",
        };
        let (engine, net) = without_thread_probe(|| run_tcp_over_trace(&trace, mech, seed));
        collect_tcp(&engine, &net, &mut r, TrunkIdx(0), TAIL, label);
        let delivered: f64 = (0..2)
            .map(|f| net.flow_goodput(&engine, f).mean_after(TAIL))
            .sum();
        r.add_metric(
            &format!("{label}_goodput_over_available"),
            delivered / avail,
        );
        let port = net.trunk_port(&engine, TrunkIdx(0));
        r.add_metric(&format!("{label}_total_drops"), port.total_drops() as f64);
        r.add_metric(
            &format!("{label}_queue_high_water"),
            port.queue_high_water() as f64,
        );
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext3_consistent_control_rides_the_abr_swings() {
        let r = run(33);
        // The ABR stage must actually swing (on/off competitors bite).
        let lo = r.metric("abr_min_bandwidth_mbps").unwrap();
        let hi = r.metric("abr_max_bandwidth_mbps").unwrap();
        assert!(hi > 1.5 * lo, "trace barely varies: {lo:.1}..{hi:.1} Mb/s");
        // Both mechanisms move real data over the varying pipe.
        for label in ["droptail", "seldiscard"] {
            let frac = r
                .metric(&format!("{label}_goodput_over_available"))
                .unwrap();
            assert!(frac > 0.4, "{label} wasted the pipe: {frac:.2}");
            assert!(frac <= 1.0);
        }
        // The consistency payoff: Selective Discard needs a far smaller
        // buffer excursion to ride the down-steps.
        let q_dt = r.metric("droptail_queue_high_water").unwrap();
        let q_sd = r.metric("seldiscard_queue_high_water").unwrap();
        assert!(
            q_sd < q_dt,
            "selective discard should ride the swings with less queue: {q_sd} vs {q_dt}"
        );
    }
}
