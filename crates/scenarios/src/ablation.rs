//! T3 — ablations of Phantom's design choices (DESIGN.md §4.1).
//!
//! Four axes, each on the two-greedy-session scenario:
//!
//! * **Residual mode** — arrivals vs departures: measuring literal idle
//!   capacity stalls at zero while a standing queue drains.
//! * **Measurement interval Δt** — shorter reacts faster but measures
//!   noisier residuals.
//! * **Utilization factor u** — trades utilization against the phantom
//!   session's (i.e. headroom's) share: `util = n·u/(1+n·u)`.
//! * **Adaptive gains** — the paper's deviation damping vs fixed gains.
//!
//! T3 builds its networks by hand because a scene cannot declare the
//! measurement interval Δt or the MACR gain normalization
//! (`MacrConfig::norm_gain`). The baseline row is the table's trace.

use crate::common::{nth_run, trunk_utilization};
use phantom_atm::network::{NetworkBuilder, TrunkIdx};
use phantom_atm::units::cps_to_mbps;
use phantom_atm::{AtmMsg, Network, Traffic};
use phantom_core::{MacrConfig, PhantomAllocator, PhantomConfig, ResidualMode};
use phantom_metrics::{oscillation_amplitude, Table};
use phantom_sim::{Engine, SimDuration, SimTime};

fn run_config(cfg: PhantomConfig, dt: SimDuration, seed: u64) -> (Engine<AtmMsg>, Network) {
    let mut b = NetworkBuilder::new().measure_interval(dt);
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    for _ in 0..2 {
        b.session(&[s1, s2], Traffic::greedy());
    }
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || Box::new(PhantomAllocator::new(cfg)));
    engine.run_until(SimTime::from_millis(700));
    (engine, net)
}

fn row(engine: &Engine<AtmMsg>, net: &Network) -> Vec<f64> {
    let util = trunk_utilization(engine, net, TrunkIdx(0), 0.4);
    let q = net.trunk_queue(engine, TrunkIdx(0));
    let macr = net.trunk_macr(engine, TrunkIdx(0));
    vec![
        util,
        q.mean_after(0.4),
        net.trunk_port(engine, TrunkIdx(0)).queue_high_water() as f64,
        cps_to_mbps(oscillation_amplitude(macr, 0.4)),
        cps_to_mbps(macr.mean_after(0.4)),
    ]
}

/// Run T3.
pub fn table_ablation(seed: u64) -> Table {
    let mut t = Table::new(
        "table3",
        "Phantom ablations (2 greedy sessions, 150 Mb/s)",
        &[
            "variant",
            "utilization",
            "mean_q",
            "max_q",
            "macr_osc_mbps",
            "macr_mbps",
        ],
    );
    let paper = PhantomConfig::paper;
    let dt1 = SimDuration::from_millis(1);
    let mut variants = vec![
        (
            "baseline(u5,dt1ms,adaptive,arrivals)".to_string(),
            paper(),
            dt1,
        ),
        // Residual mode.
        (
            "residual=departures".to_string(),
            paper().with_macr(MacrConfig {
                residual: ResidualMode::Departures,
                ..MacrConfig::default()
            }),
            dt1,
        ),
    ];
    // Δt sweep.
    for (label, us) in [("dt=0.5ms", 500u64), ("dt=2ms", 2000), ("dt=5ms", 5000)] {
        variants.push((label.to_string(), paper(), SimDuration::from_micros(us)));
    }
    // Utilization factor sweep.
    for u in [2.0, 10.0, 20.0] {
        variants.push((format!("u={u}"), paper().with_utilization_factor(u), dt1));
    }
    // Fixed gains.
    variants.push((
        "fixed-gains".to_string(),
        paper().with_macr(MacrConfig::default().fixed_gains()),
        dt1,
    ));
    // No normalization cap (pure alpha).
    variants.push((
        "no-gain-normalization".to_string(),
        paper().with_macr(MacrConfig {
            norm_gain: f64::INFINITY,
            ..MacrConfig::default()
        }),
        dt1,
    ));
    for (i, (label, cfg, dt)) in variants.into_iter().enumerate() {
        let (engine, net) = nth_run(i, || run_config(cfg, dt, seed));
        t.add_row(&label, row(&engine, &net));
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_ablation_shapes() {
        let t = table_ablation(103);
        // higher u buys utilization
        let u2 = t.cell("u=2", "utilization").unwrap();
        let u20 = t.cell("u=20", "utilization").unwrap();
        assert!(
            u20 > u2,
            "u=20 util {u20:.3} should exceed u=2 util {u2:.3}"
        );
        // theory: n=2 -> u=2: 80%, u=20: 97.6%
        assert!((u2 - 0.80).abs() < 0.06, "u2 util {u2}");
        assert!((u20 - 0.976).abs() < 0.03, "u20 util {u20}");
        // every variant keeps the link controlled
        for label in [
            "baseline(u5,dt1ms,adaptive,arrivals)",
            "residual=departures",
            "dt=0.5ms",
            "dt=2ms",
            "dt=5ms",
            "fixed-gains",
            "no-gain-normalization",
        ] {
            let q = t.cell(label, "mean_q").unwrap();
            assert!(q < 4000.0, "{label}: queue runaway {q}");
        }
    }
}
