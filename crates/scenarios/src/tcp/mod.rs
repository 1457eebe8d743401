//! TCP experiments (paper Section 4).

pub mod beatdown;
pub mod over_abr;
pub mod quench;
pub mod sel_red;
pub mod seldiscard;
pub mod unfair_rtt;
pub mod vegas;

use phantom_metrics::ExperimentResult;
use phantom_sim::Engine;
use phantom_tcp::network::TrunkIdx;
use phantom_tcp::{TcpMsg, TcpNetwork};

/// Attach the standard TCP panels: per-flow goodput (Mb/s), bottleneck
/// queue (packets) and MACR (Mb/s, when the discipline has one), plus the
/// standard metrics.
pub(crate) fn collect_tcp(
    engine: &Engine<TcpMsg>,
    net: &TcpNetwork,
    result: &mut ExperimentResult,
    trunk: TrunkIdx,
    tail_from: f64,
    label: &str,
) {
    let to_mbps = |bytes_per_sec: f64| bytes_per_sec * 8.0 / 1e6;
    for f in 0..net.flows.len() {
        result.add_series(
            &format!("goodput_mbps_f{f}_{label}"),
            net.flow_goodput(engine, f).map_values(to_mbps),
        );
    }
    result.add_series(
        &format!("queue_pkts_{label}"),
        net.trunk_queue(engine, trunk).clone(),
    );
    let macr = net.trunk_macr(engine, trunk);
    if !macr.is_empty() {
        result.add_series(&format!("macr_mbps_{label}"), macr.map_values(to_mbps));
    }

    let port = net.trunk_port(engine, trunk);
    let rates: Vec<f64> = (0..net.flows.len())
        .map(|f| net.flow_goodput(engine, f).mean_after(tail_from))
        .collect();
    result.add_metric(
        &format!("jain_{label}"),
        phantom_metrics::jain_index(&rates),
    );
    result.add_metric(
        &format!("aggregate_mbps_{label}"),
        rates.iter().sum::<f64>() * 8.0 / 1e6,
    );
    result.add_metric(
        &format!("mean_queue_pkts_{label}"),
        net.trunk_queue(engine, trunk).mean_after(tail_from),
    );
    result.add_metric(&format!("drops_{label}"), port.total_drops() as f64);
}
