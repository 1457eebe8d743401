//! ATM experiments (paper Sections 2–3 and 5).

pub mod adaptive_alpha;
pub mod baselines;
pub mod basic;
pub mod canonical;
pub mod cbr_background;
pub mod efci;
pub mod erica_cmp;
pub mod lossy;
pub mod many;
pub mod mcr;
pub mod onoff;
pub mod parking_lot;
pub mod restricted;
pub mod rtt;
pub mod staggered;
pub mod statmux;

use phantom_atm::network::{Network, SessionId, TrunkIdx};
use phantom_atm::units::cps_to_mbps;
use phantom_atm::AtmMsg;
use phantom_metrics::ExperimentResult;
use phantom_sim::{Engine, SimTime};

/// The shared entry path of the standard ATM figure runners — and of
/// scene-compiled experiments, which lower to exactly this call: run
/// the built network until `until`, create the result (id, description,
/// provenance note) and attach the standard panels. The engine and
/// network are handed back so callers can append figure-specific
/// metrics.
#[allow(clippy::too_many_arguments)]
pub fn run_standard(
    mut engine: Engine<AtmMsg>,
    net: Network,
    until: SimTime,
    id: &str,
    describe: &str,
    note: &str,
    trunk: TrunkIdx,
    traced_sessions: &[SessionId],
    tail_from: f64,
) -> (Engine<AtmMsg>, Network, ExperimentResult) {
    engine.run_until(until);
    let mut r = ExperimentResult::new(id, describe);
    if !note.is_empty() {
        r.add_note(note);
    }
    collect_standard(&engine, &net, &mut r, trunk, traced_sessions, tail_from);
    (engine, net, r)
}

/// Attach the standard figure panels — queue length, MACR, sessions'
/// allowed rates (all rates converted to Mb/s) — plus the standard
/// metrics, mirroring the triple panels of the paper's ATM figures.
pub(crate) fn collect_standard(
    engine: &Engine<AtmMsg>,
    net: &Network,
    result: &mut ExperimentResult,
    trunk: TrunkIdx,
    traced_sessions: &[SessionId],
    tail_from: f64,
) {
    let mut macr = phantom_sim::stats::TimeSeries::new();
    for (t, v) in net.trunk_macr(engine, trunk).iter() {
        macr.push(phantom_sim::SimTime::from_secs_f64(t), cps_to_mbps(v));
    }
    result.add_series("macr_mbps", macr);
    result.add_series("queue_cells", net.trunk_queue(engine, trunk).clone());
    for &s in traced_sessions {
        let mut acr = phantom_sim::stats::TimeSeries::new();
        for (t, v) in net.session_acr(engine, s).iter() {
            acr.push(phantom_sim::SimTime::from_secs_f64(t), cps_to_mbps(v));
        }
        result.add_series(&format!("acr_mbps_s{}", s.0), acr);
    }

    let port = net.trunk_port(engine, trunk);
    result.add_metric(
        "utilization",
        crate::common::trunk_utilization(engine, net, trunk, tail_from),
    );
    result.add_metric(
        "mean_queue_cells",
        net.trunk_queue(engine, trunk).mean_after(tail_from),
    );
    result.add_metric("max_queue_cells", port.queue_high_water() as f64);
    result.add_metric("cell_drops", port.drops() as f64);

    let rates: Vec<f64> = (0..net.sessions.len())
        .map(|s| net.session_rate(engine, SessionId(s)).mean_after(tail_from))
        .collect();
    result.add_metric("jain_index", phantom_metrics::jain_index(&rates));

    // Cell-delay statistics of the first traced session (propagation +
    // queueing along the path).
    if let Some(&s) = traced_sessions.first() {
        let dest = engine.node::<phantom_atm::dest::AbrDest>(net.sessions[s.0].dest);
        if let Some(h) = dest.delay_hist.as_deref().filter(|h| h.count() > 0) {
            result.add_metric("cell_delay_mean_ms", h.mean());
            result.add_metric("cell_delay_p99_ms", h.quantile(0.99));
        }
    }
}
