//! Acceptance tests of the `phantom-analyze` subsystem, end to end:
//!
//! * the streaming one-pass analyzer is byte-identical to the buffered
//!   two-pass reference on real fig2/fig3 traces;
//! * a live `AnalysisSink` tap produces the same `phantom-analysis/1`
//!   report as re-analyzing the trace the run wrote, at any jobs level;
//! * the committed baselines accept an unperturbed run and reject a
//!   deliberately perturbed control loop (`dev_gain` cranked to 1.0),
//!   naming the offending metric and its tolerance.

use phantom_repro::analyze::reference::analyze_trace_str_two_pass;
use phantom_repro::analyze::{
    analyze_trace_str, check_report, parse_baseline, AnalysisSink, StreamingAnalyzer,
    DEFAULT_WINDOW_SECS,
};
use phantom_repro::atm::network::NetworkBuilder;
use phantom_repro::atm::Traffic;
use phantom_repro::core::{MacrConfig, PhantomAllocator, PhantomConfig};
use phantom_repro::metrics::manifest::{Manifest, TRACE_SCHEMA};
use phantom_repro::scenarios::registry::targets_for;
use phantom_repro::scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions};
use phantom_repro::sim::probe::{KindSet, Probe, ProbeGuard};
use phantom_repro::sim::{Engine, SimDuration, SimTime};
use std::path::Path;

const SEED: u64 = 1996;

fn committed_baseline(id: &str) -> phantom_repro::analyze::Baseline {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/baselines/analysis")
        .join(format!("{id}.json"));
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing committed baseline {}: {e}", path.display()));
    parse_baseline(&text).expect("committed baseline parses")
}

/// Satellite 3 on real traces + the live-tap acceptance criterion: for
/// fig2 and fig3, the one-pass streaming analyzer, the two-pass
/// reference, and the live `AnalysisSink` tap all emit byte-identical
/// reports — here with the sweep fanned across workers.
#[test]
fn streaming_two_pass_and_live_tap_agree_on_fig_traces() {
    let dir = std::env::temp_dir().join(format!("phantom-analysis-accept-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = SweepOptions {
        trace_dir: Some(dir.clone()),
        trace_filter: KindSet::ALL,
        analyze_window: Some(DEFAULT_WINDOW_SECS),
        ..SweepOptions::default()
    };
    let batch = vec![
        SweepJob {
            id: "fig2".into(),
            seed: SEED,
        },
        SweepJob {
            id: "fig3".into(),
            seed: SEED,
        },
    ];
    let runs = run_sweep_with(&batch, 2, &opts);
    for run in &runs {
        let id = &run.job.id;
        let text = std::fs::read_to_string(dir.join(format!("{id}-{SEED}.jsonl"))).unwrap();
        let targets = targets_for(id);
        let one = analyze_trace_str(&text, targets.clone(), DEFAULT_WINDOW_SECS).unwrap();
        let two = analyze_trace_str_two_pass(&text, targets, DEFAULT_WINDOW_SECS).unwrap();
        assert_eq!(
            one.to_json(),
            two.to_json(),
            "{id}: streaming and two-pass reference must be byte-identical"
        );
        let live = run.analysis.as_ref().expect("analysis enabled");
        assert_eq!(
            live.to_json(),
            one.to_json(),
            "{id}: live tap must equal trace re-analysis"
        );
        assert!(one.events > 1000, "{id}: trace should be substantial");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The committed baselines describe what the real runs do: an
/// unperturbed fig2 at the default seed passes its baseline.
#[test]
fn committed_fig2_baseline_accepts_the_unperturbed_run() {
    let opts = SweepOptions {
        analyze_window: Some(DEFAULT_WINDOW_SECS),
        ..SweepOptions::default()
    };
    let runs = run_sweep_with(
        &[SweepJob {
            id: "fig2".into(),
            seed: SEED,
        }],
        1,
        &opts,
    );
    let report = runs[0].analysis.as_ref().unwrap();
    let failures = check_report(report, &committed_baseline("fig2"));
    assert!(failures.is_empty(), "unexpected regressions: {failures:?}");
}

/// A figure's live analysis describes that figure's run alone: fig22,
/// fig12 and ext7 run their comparisons outside the tap, so the link
/// cannot look busier than its capacity (and, in a debug build, the
/// analyzer's clock never steps back).
#[test]
fn fig22_live_analysis_sees_only_its_own_run() {
    let opts = SweepOptions {
        analyze_window: Some(DEFAULT_WINDOW_SECS),
        ..SweepOptions::default()
    };
    let jobs: Vec<SweepJob> = ["fig22", "fig12", "ext7"]
        .into_iter()
        .map(|id| SweepJob {
            id: id.into(),
            seed: SEED,
        })
        .collect();
    for run in run_sweep_with(&jobs, 1, &opts) {
        let id = &run.job.id;
        let report = run.analysis.as_ref().expect("analysis enabled");
        let util = report
            .metric("utilization_tail")
            .unwrap_or_else(|| panic!("{id}'s scene names its bottleneck capacity"));
        assert!(
            util <= 1.01,
            "{id} utilization_tail {util} exceeds the link"
        );
    }
}

/// The regression gate has teeth: rebuild fig2's exact topology but with
/// the deviation-filter gain perturbed from Jacobson's 1/4 to 1.0 and
/// the committed baseline must reject the run, naming the metric and the
/// tolerance in the failure message.
#[test]
fn perturbed_dev_gain_trips_the_committed_fig2_baseline() {
    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    b.session(&[s1, s2], Traffic::greedy());
    b.session(&[s1, s2], Traffic::greedy());

    let manifest = Manifest::new(TRACE_SCHEMA, "fig2", SEED, "fig2;dev_gain=1.0");
    let analyzer = StreamingAnalyzer::new(&manifest, targets_for("fig2"), DEFAULT_WINDOW_SECS);
    let (sink, handle) = AnalysisSink::new(analyzer);
    let guard = ProbeGuard::install(Box::new(sink) as Box<dyn Probe>);

    let cfg = PhantomConfig::paper().with_macr(MacrConfig {
        dev_gain: 1.0,
        ..MacrConfig::default()
    });
    let mut engine = Engine::new(SEED);
    let _net = b.build(&mut engine, &mut || Box::new(PhantomAllocator::new(cfg)));
    engine.run_until(SimTime::from_millis(500));
    drop(guard);

    let report = handle.finish().expect("sink saw the run");
    let failures = check_report(&report, &committed_baseline("fig2"));
    assert!(
        !failures.is_empty(),
        "a perturbed control loop must trip the baseline gate"
    );
    for f in &failures {
        assert!(
            f.contains("metric `") && f.contains('±'),
            "failure must name the metric and tolerance: {f}"
        );
    }
}
