//! The `sweep` workload: the 31-experiment paper catalog through the
//! public sweep API, serially and untraced.
//!
//! Set-up is what `repro all --scenes scenes` does before its first run:
//! build the registry's job list and load the scene directory. One take
//! is well under a millisecond, so it is taken again before every
//! experiment run and `setup_s` is the median of those takes, spread
//! over the whole run.
//!
//! The measured phase runs the catalog in rounds at the workload seed,
//! timing each experiment alone (`SweepRun::wall_secs`, which excludes
//! CSV and chart rendering). The host runs in fast and slow phases
//! lasting seconds, and contention only ever adds time, so each
//! experiment's time is its fastest round. The catalog is the one
//! operation of the end-to-end metrics: its latency is the catalog
//! time and its throughput catalogs per second. Before the rounds, untimed,
//! the catalog runs once at seed 1996 and must match the committed
//! `BENCH_phantom.json` counts, and the six committed analysis baselines
//! are checked with the live analyzer tap, which therefore stays out of
//! the timed rounds.

use crate::layers::{self, timed};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Args, Outcome};
use phantom_analyze::{check_report, parse_baseline, DEFAULT_WINDOW_SECS};
use phantom_metrics::json::json_f64;
use phantom_scenarios::registry::all_experiments;
use phantom_scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions, SweepRun};
use phantom_scene::{load_scene_dir, register_scene, Json, Scene};
use std::collections::BTreeMap;

/// Seed of the committed `BENCH_phantom.json` runs.
const RECORD_SEED: u64 = 1996;
/// Catalog rounds per `--seconds`: one round takes eight to eleven
/// seconds on the reference host. At least two rounds run.
const SECONDS_PER_ROUND: f64 = 10.0;
/// Experiments with a committed analysis baseline (`churn` is a scene).
const BASELINE_IDS: [&str; 6] = ["fig2", "fig3", "fig4", "fig5", "fig8", "churn"];

/// `(events, drops, retransmits, queue_peak)` of one run.
type Counts = (u64, u64, u64, u64);

fn counts(r: &SweepRun) -> Counts {
    (
        r.events,
        r.counters.drops,
        r.counters.retransmits,
        r.counters.queue_peak,
    )
}

/// The run in progress: its checks, spans and set-up takes.
struct Sweep<'a> {
    args: &'a Args,
    tr: &'a mut Tracer,
    out: Outcome,
    setup_takes: Vec<f64>,
}

impl Sweep<'_> {
    /// The set-up a user waits for: the catalog's job list and the scene
    /// directory, parsed and validated. Each call is one timed take.
    fn setup(&mut self) -> Result<(Vec<SweepJob>, Vec<Scene>), String> {
        let (seed, dir) = (self.args.seed, self.args.root.join("scenes"));
        let tr = &mut *self.tr;
        let (loaded, secs) = timed(|| {
            let jobs = tr.span("scenarios", "all_experiments", "setup", |_| {
                all_experiments()
                    .into_iter()
                    .map(|e| SweepJob {
                        id: e.id.to_string(),
                        seed,
                    })
                    .collect()
            });
            let scenes = tr.span("scene", "load_scene_dir", "setup", |_| load_scene_dir(&dir));
            scenes.map(|s| (jobs, s))
        });
        self.setup_takes.push(secs);
        loaded
    }

    /// Run one experiment alone, inside a span named after it, after one
    /// more set-up take.
    fn run_one(&mut self, job: &SweepJob, opts: &SweepOptions) -> SweepRun {
        let _ = self.setup();
        self.out.attempted += 1;
        self.tr.span("scenarios", "run_sweep", &job.id, |_| {
            run_sweep_with(std::slice::from_ref(job), 1, opts)
                .pop()
                .expect("one job in, one run out")
        })
    }

    /// One catalog pass; each run's counts must equal `expect` when given.
    fn pass(&mut self, jobs: &[SweepJob], expect: Option<&[Counts]>, what: &str) -> Vec<SweepRun> {
        let runs: Vec<SweepRun> = jobs
            .iter()
            .map(|j| self.run_one(j, &SweepOptions::default()))
            .collect();
        for (i, r) in runs.iter().enumerate() {
            if r.output.is_none() {
                self.out.fail(format!("{}: unknown experiment", r.job.id));
            } else if let Some(want) = expect.filter(|w| w[i] != counts(r)) {
                self.out.fail(format!(
                    "{} at seed {}: {what} counts {:?} differ from the first pass {:?}",
                    r.job.id,
                    r.job.seed,
                    counts(r),
                    want[i]
                ));
            }
        }
        runs
    }

    /// The untimed output checks: counts at seed 1996 against the
    /// committed record, then the committed analysis baselines.
    fn check_catalog(&mut self, jobs: &[SweepJob]) -> Result<(), String> {
        let committed = committed_counts(self.args)?;
        let at_record: Vec<SweepJob> = jobs
            .iter()
            .map(|j| SweepJob {
                id: j.id.clone(),
                seed: RECORD_SEED,
            })
            .collect();
        for run in self.pass(&at_record, None, "record") {
            match committed.get(&run.job.id) {
                Some(&c) if c == counts(&run) => {}
                Some(c) => self.out.fail(format!(
                    "{} at seed {RECORD_SEED}: (events, drops, retransmits, queue_peak) = {:?}, committed {c:?}",
                    run.job.id,
                    counts(&run)
                )),
                None => self
                    .out
                    .fail(format!("{}: no committed run at seed {RECORD_SEED}", run.job.id)),
            }
        }
        let opts = SweepOptions {
            analyze_window: Some(DEFAULT_WINDOW_SECS),
            ..SweepOptions::default()
        };
        for id in BASELINE_IDS {
            let path = self
                .args
                .root
                .join("crates/baselines/analysis")
                .join(format!("{id}.json"));
            let baseline = std::fs::read_to_string(&path)
                .map_err(|e| format!("{}: {e}", path.display()))
                .and_then(|t| parse_baseline(&t))?;
            let job = SweepJob {
                id: id.to_string(),
                seed: RECORD_SEED,
            };
            let Some(report) = self.run_one(&job, &opts).analysis else {
                self.out.fail(format!("{id}: no analysis report"));
                continue;
            };
            let failures = self.tr.span("analyze", "check_report", id, |_| {
                check_report(&report, &baseline)
            });
            if !failures.is_empty() {
                self.out.fail(format!(
                    "{id} against its committed baseline: {}",
                    failures.join("; ")
                ));
            }
        }
        Ok(())
    }
}

/// Committed counts per experiment id at [`RECORD_SEED`].
fn committed_counts(args: &Args) -> Result<BTreeMap<String, Counts>, String> {
    let path = args.root.join("BENCH_phantom.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let runs = doc
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or("BENCH_phantom.json has no runs")?;
    let num = |r: &Json, k: &str| {
        r.get(k)
            .and_then(Json::as_f64)
            .map_or(u64::MAX, |v| v as u64)
    };
    Ok(runs
        .iter()
        .filter(|r| num(r, "seed") == RECORD_SEED)
        .filter_map(|r| {
            let id = r.get("id")?.as_str()?.to_string();
            let c = (
                num(r, "events"),
                num(r, "drops"),
                num(r, "retransmits"),
                num(r, "queue_peak"),
            );
            Some((id, c))
        })
        .collect())
}

/// Run the workload.
pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut s = Sweep {
        args,
        tr,
        out: Outcome::default(),
        setup_takes: Vec::new(),
    };
    let (jobs, scenes) = s.setup()?;
    let churn = scenes
        .into_iter()
        .find(|sc| sc.id == "churn")
        .ok_or("scenes/churn.json is missing")?;
    register_scene(churn);
    s.check_catalog(&jobs)?;

    let first = s.pass(&jobs, None, "timed");
    let expect: Vec<Counts> = first.iter().map(counts).collect();
    if !args.trace {
        let rounds = ((args.seconds / SECONDS_PER_ROUND).round() as usize).max(2);
        let mut best: Vec<f64> = first.iter().map(|r| r.wall_secs).collect();
        for _ in 1..rounds {
            for (b, r) in best.iter_mut().zip(s.pass(&jobs, Some(&expect), "timed")) {
                *b = b.min(r.wall_secs);
            }
        }
        let wall: f64 = best.iter().sum();
        let m = &mut s.out.metrics;
        m.put("setup_s", median(&s.setup_takes));
        m.put("wall_s", wall);
        m.put("jobs_per_s", 1.0 / wall);
        m.put("latency_p50_ms", wall * 1e3);
        m.put("latency_p90_ms", wall * 1e3);
        s.out.detail("rounds", rounds.to_string());
        s.out.detail("latency_samples", "1".into());
        s.out.detail("setup_takes", s.setup_takes.len().to_string());
        return Ok(s.out);
    }

    // Traced run: the first pass is the reference; a second pass runs
    // under the engine profiler and must agree on every count.
    let untraced: f64 = first.iter().map(|r| r.wall_secs).sum();
    let prof = phantom_sim::profile::begin_profile();
    let profiled = s.pass(&jobs, Some(&expect), "profiled");
    let report = prof.finish();
    let traced: f64 = profiled.iter().map(|r| r.wall_secs).sum();
    // The fig2 scene twin replays fig2's event stream with the engine in
    // hand, so it supplies the calendar-depth samples and memory figures.
    let text = std::fs::read_to_string(args.root.join("scenes/fig2.json"))
        .map_err(|e| format!("scenes/fig2.json: {e}"))?;
    let twin = layers::run_scene(&text, args.seed, 100, s.tr, "fig2")?;
    let macr_ns = layers::macr_update_ns(args.seed, s.tr);
    let m = &mut s.out.metrics;
    layers::scene_metrics(&twin, m);
    layers::profile_metrics(&report, m);
    for r in &first {
        m.put(&format!("scenarios.run_s.{}", r.job.id), r.wall_secs);
    }
    let events: u64 = first.iter().map(|r| r.events).sum();
    m.put("sim.events", events as f64);
    m.put("sim.run_s", untraced);
    m.put("sim.events_per_s", events as f64 / untraced);
    m.put(
        "sim.drops",
        first.iter().map(|r| r.counters.drops).sum::<u64>() as f64,
    );
    m.put(
        "sim.retransmits",
        first.iter().map(|r| r.counters.retransmits).sum::<u64>() as f64,
    );
    m.put(
        "sim.queue_peak",
        first
            .iter()
            .map(|r| r.counters.queue_peak)
            .max()
            .unwrap_or(0) as f64,
    );
    m.put("bench.trace_overhead_frac", traced / untraced - 1.0);
    m.put("core.macr_update_ns", macr_ns);
    s.out.detail("profiled_s", json_f64(traced));
    s.out.detail("untraced_s", json_f64(untraced));
    s.out.unexercised = &["trace.", "analyze.", "serve."];
    Ok(s.out)
}
