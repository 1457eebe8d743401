//! The catalog figures that run from embedded scenes.
//!
//! Each entry is a `phantom-scene/1` document — topology, traffic,
//! algorithm, horizon and analysis targets — plus a *reading* of the
//! finished run: which sessions the rate panels plot, and the
//! figure-specific metrics. The scene is parsed when the entry runs, so
//! listing the registry costs nothing. `repro <id>` on these ids and
//! `phantom run` on the committed scene file run the same pipeline
//! ([`RunPlan`]), so their traces are byte-identical.
//!
//! * F2, F3, F5, F8, F9, F11 — single-bottleneck convergence, joins and
//!   leaves, RTT fairness, scale, the canonical u=5 panels and its
//!   NI-bit variant.
//! * F4, F20–F22 — greedy plus two on/off sessions under Phantom, EPRCA,
//!   APRC and CAPC; F19 is EPRCA on F2's configuration.
//! * F6, F7 — the parking lot and the downstream-restricted session,
//!   checked against the weighted max-min prediction.

use phantom_atm::network::{SessionId, TrunkIdx};
use phantom_atm::units::{cps_to_mbps, mbps_to_cps};
use phantom_core::fixed_point::{single_link_macr, single_link_rate, single_link_utilization};
use phantom_metrics::fairness::Session;
use phantom_metrics::{
    convergence_time, normalized_jain_index, oscillation_amplitude, phantom_prediction,
    ExperimentResult,
};
use phantom_scene::{compile, parse_scene, Panels, RunOutcome, RunPlan, Scene};

/// One catalog figure: an embedded scene and its reading.
pub struct SceneFigure {
    /// The `phantom-scene/1` document.
    pub scene: &'static str,
    /// The provenance note and the sessions the rate panels plot.
    pub panels: Panels<'static>,
    /// Add the figure-specific metrics (and any further notes) to the
    /// finished run's result; handed the run's seed.
    pub read: fn(&mut RunOutcome, u64),
}

impl SceneFigure {
    /// The parsed, validated scene.
    pub fn parse(&self) -> Scene {
        parse_scene(self.scene).expect("embedded catalog scenes are valid")
    }

    /// Run the scene under `seed` and read the figure.
    pub fn run(&self, seed: u64) -> ExperimentResult {
        let scene = self.parse();
        let plan = RunPlan {
            panels: self.panels,
            ..RunPlan::new(&scene, seed)
        };
        let mut out = plan.run(|_| Ok(())).expect("an unobserved run does no I/O");
        (self.read)(&mut out, seed);
        out.result
    }
}

/// The standard panels with `note` and every ABR session plotted.
const fn note(note: &'static str) -> Panels<'static> {
    Panels {
        note,
        traced: None,
        tail_from_secs: None,
    }
}

/// The standard panels with `note`, plotting only `traced`.
const fn plot(note: &'static str, traced: &'static [SessionId]) -> Panels<'static> {
    Panels {
        note,
        traced: Some(traced),
        tail_from_secs: None,
    }
}

/// The paper's bottleneck (150 Mb/s) in cells/s.
fn c150() -> f64 {
    mbps_to_cps(150.0)
}

/// Mean MACR of trunk 0 after `from` seconds, in Mb/s.
fn macr_mbps_after(out: &RunOutcome, from: f64) -> f64 {
    cps_to_mbps(
        out.net
            .trunk_macr(&out.engine, TrunkIdx(0))
            .mean_after(from),
    )
}

/// Mean delivered rate of session `s` after `from` seconds, cells/s.
fn rate_after(out: &RunOutcome, s: usize, from: f64) -> f64 {
    out.net
        .session_rate(&out.engine, SessionId(s))
        .mean_after(from)
}

/// Time for trunk 0's MACR to settle within 15% of `target`, in ms.
fn macr_convergence_ms(out: &RunOutcome, target: f64) -> f64 {
    let macr = out.net.trunk_macr(&out.engine, TrunkIdx(0));
    convergence_time(macr, target, 0.15).unwrap_or(f64::NAN) * 1e3
}

/// F2 — basic convergence `[reconstructed §2]`: two greedy sessions on
/// one 150 Mb/s link. MACR climbs to `C/(1+2u) ≈ 13.6 Mb/s` and both
/// sessions settle at `5 × MACR ≈ 68 Mb/s`.
pub static FIG2: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/fig2.json"),
    panels: note("reconstructed from Section 2's introductory configuration"),
    read: |out, _| {
        let c = c150();
        let macr_pred = single_link_macr(c, 2, 5.0);
        let measured = macr_mbps_after(out, 0.3);
        let conv = macr_convergence_ms(out, macr_pred);
        let r = &mut out.result;
        r.add_metric("macr_predicted_mbps", cps_to_mbps(macr_pred));
        r.add_metric("macr_measured_mbps", measured);
        r.add_metric(
            "session_rate_predicted_mbps",
            cps_to_mbps(single_link_rate(c, 2, 5.0)),
        );
        r.add_metric("convergence_time_ms", conv);
    },
};

/// F3 — staggered joins and leaves `[reconstructed]`: ten sessions join
/// every 50 ms and the five newest leave at 700 ms. MACR steps along
/// `C/(1+n·u)` and recovers when sessions depart.
pub static FIG3: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig3.json"),
    panels: Panels {
        tail_from_secs: Some(0.9),
        ..plot(
            "reconstructed: adaptivity to joins/leaves",
            &[SessionId(0), SessionId(5), SessionId(9)],
        )
    },
    read: |out, _| {
        let c = c150();
        // Windows where the active-session count is stable long enough
        // to read the MACR plateau.
        let macr = out.net.trunk_macr(&out.engine, TrunkIdx(0));
        let plateau = |from: f64, to: f64| -> f64 {
            let mut sum = 0.0;
            let mut n = 0;
            for (t, v) in macr.iter() {
                if t >= from && t < to {
                    sum += v;
                    n += 1;
                }
            }
            if n == 0 {
                f64::NAN
            } else {
                sum / n as f64
            }
        };
        // 10 active sessions during [500, 700) ms; 5 active after 900 ms.
        let (n10, n5) = (plateau(0.60, 0.70), plateau(0.95, 1.20));
        let r = &mut out.result;
        r.add_metric("macr_n10_measured_mbps", cps_to_mbps(n10));
        r.add_metric(
            "macr_n10_predicted_mbps",
            cps_to_mbps(single_link_macr(c, 10, 5.0)),
        );
        r.add_metric("macr_n5_measured_mbps", cps_to_mbps(n5));
        r.add_metric(
            "macr_n5_predicted_mbps",
            cps_to_mbps(single_link_macr(c, 5, 5.0)),
        );
    },
};

/// The reading shared by the on/off figures: how hard the transient
/// hits the queue, and whether the greedy session absorbs the idle
/// bandwidth of the off phases.
fn read_onoff(out: &mut RunOutcome) {
    let queue_peak = out.net.trunk_queue(&out.engine, TrunkIdx(0)).max_after(0.2);
    let greedy = rate_after(out, 0, 0.2);
    let bursty = rate_after(out, 1, 0.2);
    let r = &mut out.result;
    r.add_metric("queue_p99_proxy_cells", queue_peak);
    r.add_metric("greedy_mean_mbps", cps_to_mbps(greedy));
    r.add_metric("bursty_mean_mbps", cps_to_mbps(bursty));
}

/// Provenance of the on/off configuration.
const ONOFF_NOTE: &str = "configuration 'analogous to Fig. 4' per the paper's Section 5 contexts";

/// The on/off figures plot the greedy session and the first burster.
const ONOFF_PLOT: &[SessionId] = &[SessionId(0), SessionId(1)];

/// F4 — on/off sessions `[explicit]`: one greedy background session and
/// two bursty ones (30 ms on / 30 ms off, half-period offset). Phantom
/// re-converges within each burst phase.
pub static FIG4: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/fig4.json"),
    panels: plot(ONOFF_NOTE, ONOFF_PLOT),
    read: |out, _| read_onoff(out),
};

/// F5 — heterogeneous RTT `[reconstructed]`: a 0.01 ms and a 5 ms access
/// link share the bottleneck; Phantom offers both the same ER.
pub static FIG5: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig5.json"),
    panels: note("reconstructed: RTT-fairness scenario"),
    read: |out, _| {
        let short = rate_after(out, 0, 0.5);
        let long = rate_after(out, 1, 0.5);
        let r = &mut out.result;
        r.add_metric("short_rtt_mbps", cps_to_mbps(short));
        r.add_metric("long_rtt_mbps", cps_to_mbps(long));
        r.add_metric("rate_ratio", short / long.max(1.0));
    },
};

/// F6 — parking lot `[reconstructed]`: a long session across two trunks
/// and one cross session per trunk, checked against the phantom
/// prediction (one imaginary session per link).
pub static FIG6: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/fig6.json"),
    panels: note("reconstructed: max-min fairness and beat-down resistance"),
    read: |out, _| {
        let c = c150();
        let sessions: Vec<Session> = [vec![0, 1], vec![0], vec![1]]
            .into_iter()
            .map(Session::on)
            .collect();
        let (pred_rates, pred_macr) = phantom_prediction(&[c, c], &sessions, 5.0);
        let measured: Vec<f64> = (0..3).map(|s| rate_after(out, s, 0.5)).collect();
        let r = &mut out.result;
        for (i, (&m, &p)) in measured.iter().zip(&pred_rates).enumerate() {
            r.add_metric(&format!("rate_s{i}_measured_mbps"), cps_to_mbps(m));
            r.add_metric(&format!("rate_s{i}_predicted_mbps"), cps_to_mbps(p));
        }
        r.add_metric("macr_trunk0_predicted_mbps", cps_to_mbps(pred_macr[0]));
        r.add_metric(
            "normalized_jain",
            normalized_jain_index(&measured, &pred_rates),
        );
        r.add_metric("long_over_cross_ratio", measured[0] / measured[1].max(1.0));
    },
};

/// F7 — a session restricted elsewhere `[explicit]`: B also crosses a
/// 30 Mb/s trunk, and the 150 Mb/s link's MACR rises so that A absorbs
/// the leftover.
pub static FIG7: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig7.json"),
    panels: note("explicit: 'the ratio between MACR and the link restriction is 5'"),
    read: |out, _| {
        let caps = [c150(), mbps_to_cps(30.0)];
        let sessions = [Session::on(vec![0]), Session::on(vec![0, 1])];
        let (pred, macrs) = phantom_prediction(&caps, &sessions, 5.0);
        let a = rate_after(out, 0, 0.5);
        let b = rate_after(out, 1, 0.5);
        let macr0 = macr_mbps_after(out, 0.5);
        let r = &mut out.result;
        r.add_metric("a_measured_mbps", cps_to_mbps(a));
        r.add_metric("a_predicted_mbps", cps_to_mbps(pred[0]));
        r.add_metric("b_measured_mbps", cps_to_mbps(b));
        r.add_metric("b_predicted_mbps", cps_to_mbps(pred[1]));
        r.add_metric("macr0_predicted_mbps", cps_to_mbps(macrs[0]));
        r.add_metric("macr0_measured_mbps", macr0);
    },
};

/// F8 — fifty greedy sessions `[reconstructed]`: the normalized gain
/// keeps the loop stable, and utilization approaches `n·u/(1+n·u)`.
pub static FIG8: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig8.json"),
    panels: plot(
        "reconstructed: scalability of the constant-space estimator",
        &[SessionId(0), SessionId(25), SessionId(49)],
    ),
    read: |out, _| {
        let measured = macr_mbps_after(out, 0.5);
        let r = &mut out.result;
        r.add_metric(
            "macr_predicted_mbps",
            cps_to_mbps(single_link_macr(c150(), 50, 5.0)),
        );
        r.add_metric("macr_measured_mbps", measured);
        r.add_metric("utilization_predicted", single_link_utilization(50, 5.0));
    },
};

/// The canonical u=5 reading (F9, F11): five greedy sessions against
/// the single-link fixed point.
fn read_canonical(out: &mut RunOutcome) {
    const N: usize = 5;
    let c = c150();
    let macr_pred = single_link_macr(c, N, 5.0);
    let measured = macr_mbps_after(out, 0.4);
    let conv = macr_convergence_ms(out, macr_pred);
    let r = &mut out.result;
    r.add_metric("macr_predicted_mbps", cps_to_mbps(macr_pred));
    r.add_metric("macr_measured_mbps", measured);
    r.add_metric(
        "rate_predicted_mbps",
        cps_to_mbps(single_link_rate(c, N, 5.0)),
    );
    r.add_metric("utilization_predicted", single_link_utilization(N, 5.0));
    r.add_metric("convergence_time_ms", conv);
}

/// Provenance of the canonical scenario.
const CANONICAL_NOTE: &str = "explicit: 'utilization factor = 5' figure";

/// F9 — the canonical utilization-factor-5 panels `[explicit]`: queue,
/// MACR and session 0's allowed rate.
pub static FIG9: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig9.json"),
    panels: plot(CANONICAL_NOTE, &[SessionId(0)]),
    read: |out, _| read_canonical(out),
};

/// F11 — F9's scenario with binary NI/CI feedback `[explicit]`.
pub static FIG11: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig11.json"),
    panels: plot(CANONICAL_NOTE, &[SessionId(0)]),
    read: |out, _| {
        read_canonical(out);
        out.result
            .add_note("binary NI/CI feedback instead of explicit rate (same scenario as fig9)");
    },
};

/// F19 — EPRCA on F2's configuration `[reconstructed §5.1]`: near-equal
/// rates, with the queue oscillating around the congestion threshold.
pub static FIG19: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig19.json"),
    panels: note("reconstructed §5.1: EPRCA on the F2 configuration"),
    read: |out, _| {
        // EPRCA has no analytic fixed point; report rate balance instead.
        let ratio = rate_after(out, 0, 0.5) / rate_after(out, 1, 0.5).max(1.0);
        let q = out.net.trunk_queue(&out.engine, TrunkIdx(0));
        let oscillation = oscillation_amplitude(q, 0.5);
        let r = &mut out.result;
        r.add_metric("rate_ratio", ratio);
        r.add_metric("queue_oscillation_cells", oscillation);
    },
};

/// F20 — EPRCA under on/off load `[reconstructed §5.1]`.
pub static FIG20: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig20.json"),
    panels: plot(ONOFF_NOTE, ONOFF_PLOT),
    read: |out, _| {
        read_onoff(out);
        out.result
            .add_note("reconstructed §5.1: binary thresholds under bursty load");
    },
};

/// F21 — APRC under on/off load `[explicit]`: the queue often exceeds
/// the 300-cell very-congested threshold.
pub static FIG21: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig21.json"),
    panels: plot(ONOFF_NOTE, ONOFF_PLOT),
    read: |out, _| {
        read_onoff(out);
        out.result
            .add_note("explicit: APRC with the 300-cell very-congested threshold");
    },
};

/// F22 — CAPC on F4's configuration `[explicit]`, with the comparison
/// the paper draws: "CAPC has longer convergence time while its queue
/// is relatively smaller". The comparison runs F19's two-greedy-session
/// scene again under CAPC and under Phantom.
pub static FIG22: SceneFigure = SceneFigure {
    scene: include_str!("../../../scenes/catalog/fig22.json"),
    panels: plot(ONOFF_NOTE, ONOFF_PLOT),
    read: |out, seed| {
        read_onoff(out);
        let r = &mut out.result;
        r.add_note(
            "explicit: 'CAPC has longer convergence time while its queue is relatively smaller'",
        );
        let basic = FIG19.parse();
        let run_basic = |algorithm: &str| {
            let scene = Scene {
                algorithm: algorithm.to_string(),
                ..basic.clone()
            };
            let mut c = compile(&scene, seed);
            c.engine.run_until(c.until);
            c
        };
        // Convergence to the algorithm's own steady state (tail mean of
        // the aggregate throughput), tolerance 10%.
        let conv_of = |algorithm: &str| {
            let c = run_basic(algorithm);
            let tp = c.net.trunk_throughput(&c.engine, TrunkIdx(0));
            let target = tp.mean_after(0.6);
            convergence_time(tp, target, 0.10).unwrap_or(f64::NAN) * 1e3
        };
        r.add_metric("capc_convergence_ms", conv_of("capc"));
        r.add_metric("phantom_convergence_ms", conv_of("phantom"));
        // "its queue is relatively smaller during that time": the peak
        // queue of the greedy ramp-up.
        let queue_of = |algorithm: &str| {
            let c = run_basic(algorithm);
            c.net.trunk_port(&c.engine, TrunkIdx(0)).queue_high_water() as f64
        };
        r.add_metric("capc_peak_queue_cells", queue_of("capc"));
        r.add_metric("phantom_peak_queue_cells", queue_of("phantom"));
    },
};

#[cfg(test)]
mod tests {
    use crate::registry::{run_experiment, targets_for, ExperimentOutput};
    use phantom_atm::units::mbps_to_cps;
    use phantom_core::fixed_point::single_link_macr;
    use phantom_metrics::ExperimentResult;

    fn run(id: &str, seed: u64) -> ExperimentResult {
        match run_experiment(id, seed) {
            Some(ExperimentOutput::Figure(r)) => r,
            _ => panic!("{id} is a catalog figure"),
        }
    }

    #[test]
    fn every_embedded_scene_is_valid_and_named_for_its_id() {
        for e in crate::registry::all_experiments() {
            if let Some(fig) = e.scene {
                assert_eq!(fig.parse().id, e.id);
            }
        }
    }

    #[test]
    fn shapes_state_the_paper_fixed_points() {
        let c = mbps_to_cps(150.0);
        let fig2 = targets_for("fig2");
        assert_eq!(fig2.macr_cps, Some(single_link_macr(c, 2, 5.0)));
        assert_eq!(fig2.capacity_cps, Some(c));
        assert_eq!(fig2.tail_from_secs, 0.3);
        let fig3 = targets_for("fig3");
        assert_eq!(fig3.macr_cps, Some(single_link_macr(c, 5, 5.0)));
        assert_eq!(fig3.tail_from_secs, 0.95);
        let fig4 = targets_for("fig4");
        assert_eq!(fig4.macr_cps, None);
        assert_eq!(fig4.capacity_cps, Some(c));
    }

    #[test]
    fn unknown_ids_fall_back_to_target_free_analysis() {
        let t = targets_for("table1");
        assert_eq!(t.macr_cps, None);
        assert_eq!(t.capacity_cps, None);
    }

    #[test]
    fn fig2_reproduces_the_fixed_point() {
        let r = run("fig2", 2);
        let pred = r.metric("macr_predicted_mbps").unwrap();
        let meas = r.metric("macr_measured_mbps").unwrap();
        assert!((meas - pred).abs() < 0.1 * pred, "{meas} vs {pred}");
        assert!(r.metric("jain_index").unwrap() > 0.99);
        assert!(r.metric("convergence_time_ms").unwrap() < 150.0);
        assert_eq!(r.metric("cell_drops").unwrap(), 0.0);
        assert!(r.get_series("macr_mbps").is_some());
        assert!(r.get_series("acr_mbps_s1").is_some());
    }

    #[test]
    fn fig3_macr_steps_track_session_count() {
        let r = run("fig3", 3);
        for n in ["n10", "n5"] {
            let meas = r.metric(&format!("macr_{n}_measured_mbps")).unwrap();
            let pred = r.metric(&format!("macr_{n}_predicted_mbps")).unwrap();
            assert!(
                (meas - pred).abs() < 0.2 * pred,
                "{n}: measured {meas:.2} vs predicted {pred:.2}"
            );
        }
        // MACR with 5 sessions must sit clearly above MACR with 10.
        assert!(
            r.metric("macr_n5_measured_mbps").unwrap()
                > 1.5 * r.metric("macr_n10_measured_mbps").unwrap()
        );
    }

    #[test]
    fn fig4_phantom_absorbs_bursts() {
        let r = run("fig4", 4);
        // the link must stay well used despite the on/off churn
        assert!(r.metric("utilization").unwrap() > 0.75);
        assert_eq!(r.metric("cell_drops").unwrap(), 0.0);
        // the greedy session gets more than the half-duty bursty ones
        assert!(r.metric("greedy_mean_mbps").unwrap() > r.metric("bursty_mean_mbps").unwrap());
        // bursty sessions still make real progress
        assert!(r.metric("bursty_mean_mbps").unwrap() > 5.0);
    }

    #[test]
    fn fig5_phantom_is_rtt_fair() {
        let r = run("fig5", 5);
        let ratio = r.metric("rate_ratio").unwrap();
        assert!(
            (0.9..=1.1).contains(&ratio),
            "rates should match within 10%, ratio {ratio:.3}"
        );
        assert!(r.metric("jain_index").unwrap() > 0.99);
    }

    #[test]
    fn fig6_no_beat_down() {
        let r = run("fig6", 6);
        // every session within 15% of its phantom-predicted rate
        for i in 0..3 {
            let m = r.metric(&format!("rate_s{i}_measured_mbps")).unwrap();
            let p = r.metric(&format!("rate_s{i}_predicted_mbps")).unwrap();
            assert!((m - p).abs() < 0.15 * p, "s{i}: {m:.1} vs {p:.1}");
        }
        assert!(r.metric("normalized_jain").unwrap() > 0.98);
        // the long session is NOT beaten down below the cross sessions
        let ratio = r.metric("long_over_cross_ratio").unwrap();
        assert!(ratio > 0.8, "beat-down: long/cross = {ratio:.2}");
    }

    #[test]
    fn fig7_leftover_goes_to_the_unrestricted_session() {
        let r = run("fig7", 7);
        let a = r.metric("a_measured_mbps").unwrap();
        let b = r.metric("b_measured_mbps").unwrap();
        let ap = r.metric("a_predicted_mbps").unwrap();
        let bp = r.metric("b_predicted_mbps").unwrap();
        assert!((a - ap).abs() < 0.15 * ap, "A: {a:.1} vs {ap:.1}");
        assert!((b - bp).abs() < 0.15 * bp, "B: {b:.1} vs {bp:.1}");
        // A must clearly exceed the equal split (68) by absorbing B's
        // unused share.
        assert!(a > 85.0, "A should absorb leftover, got {a:.1} Mb/s");
        // MACR of the big link tracks its prediction.
        let m = r.metric("macr0_measured_mbps").unwrap();
        let mp = r.metric("macr0_predicted_mbps").unwrap();
        assert!((m - mp).abs() < 0.15 * mp, "MACR {m:.1} vs {mp:.1}");
    }

    #[test]
    fn fig8_fifty_sessions_stay_stable_and_fair() {
        let r = run("fig8", 8);
        assert!(r.metric("jain_index").unwrap() > 0.97);
        let util = r.metric("utilization").unwrap();
        let pred = r.metric("utilization_predicted").unwrap();
        assert!(
            (util - pred).abs() < 0.05,
            "utilization {util:.3} vs predicted {pred:.3}"
        );
        // the queue must not run away at scale
        assert!(r.metric("mean_queue_cells").unwrap() < 2000.0);
        assert_eq!(r.metric("cell_drops").unwrap(), 0.0);
    }

    #[test]
    fn fig9_canonical_panels_match_theory() {
        let r = run("fig9", 9);
        let m = r.metric("macr_measured_mbps").unwrap();
        let p = r.metric("macr_predicted_mbps").unwrap();
        assert!((m - p).abs() < 0.12 * p, "MACR {m:.2} vs {p:.2}");
        let util = r.metric("utilization").unwrap();
        let up = r.metric("utilization_predicted").unwrap();
        assert!((util - up).abs() < 0.05);
        assert!(r.metric("convergence_time_ms").unwrap() < 200.0);
        assert!(r.metric("jain_index").unwrap() > 0.99);
    }

    #[test]
    fn fig11_binary_mode_controls_but_coarser_than_fig9() {
        let er = run("fig9", 11);
        let ni = run("fig11", 11);
        // Both control the link…
        assert_eq!(ni.metric("cell_drops").unwrap(), 0.0);
        assert!(ni.metric("utilization").unwrap() > 0.55);
        assert!(ni.metric("jain_index").unwrap() > 0.95);
        // …but the binary mode is coarser: its queue excursions are at
        // least as large as ER mode's, or its utilization lower.
        let coarser = ni.metric("max_queue_cells").unwrap()
            >= er.metric("max_queue_cells").unwrap()
            || ni.metric("utilization").unwrap() < er.metric("utilization").unwrap();
        assert!(coarser, "NI mode unexpectedly dominated ER mode");
    }

    #[test]
    fn fig19_eprca_controls_but_oscillates() {
        let r = run("fig19", 19);
        assert!(r.metric("utilization").unwrap() > 0.8);
        let ratio = r.metric("rate_ratio").unwrap();
        assert!((0.6..1.7).contains(&ratio), "ratio {ratio}");
        // binary queue-threshold feedback parks a standing queue at the
        // congestion threshold (Phantom's drains to ~zero, cf. fig2)
        assert!(
            r.metric("mean_queue_cells").unwrap() > 50.0,
            "EPRCA should hold a standing queue"
        );
    }

    #[test]
    fn fig21_aprc_queue_exceeds_very_congested_threshold_under_bursts() {
        let r = run("fig21", 21);
        assert!(
            r.metric("max_queue_cells").unwrap() > 300.0,
            "the paper's observed APRC weakness should reproduce"
        );
    }

    #[test]
    fn fig22_capc_slower_but_smaller_queue_than_phantom() {
        let r = run("fig22", 22);
        assert!(
            r.metric("capc_convergence_ms").unwrap() > r.metric("phantom_convergence_ms").unwrap(),
            "CAPC should converge slower: {:?} vs {:?}",
            r.metric("capc_convergence_ms"),
            r.metric("phantom_convergence_ms")
        );
        assert!(
            r.metric("capc_peak_queue_cells").unwrap()
                < r.metric("phantom_peak_queue_cells").unwrap(),
            "CAPC transient queue should be smaller: {:?} vs {:?}",
            r.metric("capc_peak_queue_cells"),
            r.metric("phantom_peak_queue_cells")
        );
    }
}
