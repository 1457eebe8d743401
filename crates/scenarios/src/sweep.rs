//! Parallel fan-out of independent experiment runs across OS threads.
//!
//! Every experiment in the registry is a pure function of `(id, seed)`,
//! so a batch of runs is embarrassingly parallel: workers pull jobs off a
//! shared atomic cursor, run them to completion, and the batch result is
//! reassembled in job order. Parallelism therefore cannot change any
//! result — `--jobs 1` and `--jobs N` produce byte-identical reports —
//! it only changes wall-clock time.
//!
//! Uses only `std::thread::scope`; no thread-pool dependency.

use crate::registry::{run_experiment, targets_for, ExperimentOutput};
use phantom_analyze::AnalysisReport;
use phantom_metrics::manifest::{Manifest, PROFILE_SCHEMA, TRACE_SCHEMA};
use phantom_metrics::{ProfileRecord, RunStatus};
use phantom_scene::probes::{ProbeSpec, ProbeStack};
use phantom_sim::flight;
use phantom_sim::probe::KindSet;
use phantom_sim::telemetry::{self, RunCounters};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// One unit of work: an experiment id plus the seed to run it under.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SweepJob {
    /// Registry id, e.g. `"fig9"`.
    pub id: String,
    /// Master seed for the run (per-node streams derive from it).
    pub seed: u64,
}

/// Observability options for a sweep. The defaults are a fully untraced
/// sweep — probes cost nothing when no trace directory is set.
#[derive(Clone, Debug, Default)]
pub struct SweepOptions {
    /// Write one JSONL trace per run into this directory, named
    /// `<id>-<seed>.jsonl` (deterministic, so parallel workers never
    /// collide). `None` disables tracing entirely.
    pub trace_dir: Option<PathBuf>,
    /// Event kinds to keep in the traces (default: all).
    pub trace_filter: KindSet,
    /// Run a live [`StreamingAnalyzer`] tap over each run with this
    /// window width (seconds), populating [`SweepRun::analysis`]. The
    /// tap always sees the *unfiltered* event stream, so the report is
    /// identical whether or not the written trace is filtered.
    pub analyze_window: Option<f64>,
    /// Profile each run with the engine's in-run profiler and write one
    /// `phantom-profile/1` report per run into this directory, named
    /// `<id>-<seed>-profile.json` (deterministic names, so parallel
    /// workers never collide). Profiling attributes wall time only — it
    /// never changes results. `None` (the default) keeps the profiler
    /// off, which is what the bench gate measures.
    pub profile_dir: Option<PathBuf>,
    /// Atomically rewrite a `phantom-status/1` file here as runs finish
    /// (batch-level progress: runs done / total, events/s, ETA, RSS),
    /// for `phantom status FILE --watch` to poll.
    pub status_file: Option<PathBuf>,
    /// Minimum wall-clock seconds between status rewrites
    /// (`--heartbeat`). `None` rewrites on every run finish — fine for
    /// figure sweeps, wasteful for thousand-run batches. The final
    /// `done` write always lands regardless.
    pub heartbeat_secs: Option<f64>,
    /// Arm the panic flight recorder around every run, writing a
    /// `phantom-postmortem/1` dump to `<id>-<seed>-postmortem.jsonl` in
    /// this directory if that run panics.
    pub post_mortem_dir: Option<PathBuf>,
    /// Ring depth of the flight recorder (`--post-mortem-depth`): how
    /// many recent events a dump retains. `None` keeps the default.
    pub post_mortem_depth: Option<usize>,
    /// Intra-run shard count (`--shards`): run each simulation's engine
    /// on this many conservative PDES shards. 0 (the default) and 1 both
    /// mean one shard. Results are byte-identical at any shard count
    /// (see `phantom_sim::shard`).
    pub shards: usize,
}

/// Shared batch-progress state behind [`SweepOptions::status_file`]:
/// workers bump the counters as runs finish and the finishing worker
/// rewrites the status file. Writes go through the atomic temp+rename
/// writer, so concurrent finishers and external readers are all safe.
struct SweepProgress {
    path: PathBuf,
    scenario: String,
    seed: u64,
    total: u64,
    done: AtomicU64,
    events: AtomicU64,
    start: std::time::Instant,
    /// Heartbeat interval in milliseconds; 0 means "every run".
    heartbeat_ms: u64,
    /// Wall millis (since `start`) of the last status write; workers
    /// race on it with `compare_exchange`, so at most one finisher per
    /// heartbeat window pays for the rewrite.
    last_write_ms: AtomicU64,
}

impl SweepProgress {
    fn new(path: &Path, jobs_list: &[SweepJob], heartbeat_secs: Option<f64>) -> Self {
        let p = SweepProgress {
            path: path.to_path_buf(),
            scenario: "sweep".to_string(),
            seed: jobs_list.first().map_or(0, |j| j.seed),
            total: jobs_list.len() as u64,
            done: AtomicU64::new(0),
            events: AtomicU64::new(0),
            start: std::time::Instant::now(),
            heartbeat_ms: heartbeat_secs.map_or(0, |s| (s.max(0.0) * 1000.0) as u64),
            last_write_ms: AtomicU64::new(0),
        };
        let _ = p.status(0, 0, "running").write(&p.path);
        p
    }

    fn status(&self, done: u64, events: u64, state: &str) -> RunStatus {
        let wall_secs = self.start.elapsed().as_secs_f64();
        let mut s = RunStatus::starting(&self.scenario, self.seed, self.total, "runs");
        s.state = state.to_string();
        s.wall_secs = wall_secs;
        s.done = done;
        s.events = events;
        s.events_per_sec = if wall_secs > 0.0 {
            events as f64 / wall_secs
        } else {
            0.0
        };
        s.eta_secs = (done > 0 && done < self.total)
            .then(|| wall_secs / done as f64 * (self.total - done) as f64);
        s.rss_bytes = telemetry::rss_bytes();
        s
    }

    fn note_run(&self, run_events: u64) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        let events = self.events.fetch_add(run_events, Ordering::Relaxed) + run_events;
        if self.heartbeat_ms > 0 {
            let now_ms = self.start.elapsed().as_millis() as u64;
            let last = self.last_write_ms.load(Ordering::Relaxed);
            let due = now_ms.saturating_sub(last) >= self.heartbeat_ms;
            // One finisher per window wins the exchange and writes; the
            // rest skip — their counts land in the next heartbeat (or
            // the final `done` write, which is unconditional).
            if !due
                || self
                    .last_write_ms
                    .compare_exchange(last, now_ms, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                return;
            }
        }
        let _ = self.status(done, events, "running").write(&self.path);
    }

    fn finish(&self) {
        let done = self.done.load(Ordering::Relaxed);
        let events = self.events.load(Ordering::Relaxed);
        let _ = self.status(done, events, "done").write(&self.path);
    }
}

/// The outcome of one job.
pub struct SweepRun {
    /// The job this run answers.
    pub job: SweepJob,
    /// The experiment output; `None` if the id is unknown.
    pub output: Option<ExperimentOutput>,
    /// Simulator events dispatched by this run.
    pub events: u64,
    /// Wall-clock seconds this run took on its worker thread.
    pub wall_secs: f64,
    /// Drop/retransmit/queue-peak telemetry observed during the run.
    pub counters: RunCounters,
    /// The live analysis report, when [`SweepOptions::analyze_window`]
    /// was set. Byte-identical to `phantom analyze` over the written
    /// trace of the same run.
    pub analysis: Option<AnalysisReport>,
}

/// The probes one job asks for: files are named `<id>-<seed>…` in the
/// configured directories, so parallel workers never collide.
fn probe_spec(job: &SweepJob, opts: &SweepOptions) -> ProbeSpec {
    let name = |dir: &PathBuf, suffix: &str| dir.join(format!("{}-{}{suffix}", job.id, job.seed));
    ProbeSpec {
        analysis: opts.analyze_window.map(|w| (targets_for(&job.id), w)),
        trace: opts.trace_dir.as_ref().map(|d| name(d, ".jsonl")),
        trace_filter: opts.trace_filter,
        trace_headerless: false,
        flight: opts.post_mortem_dir.as_ref().map(|d| {
            let depth = opts.post_mortem_depth.unwrap_or(flight::DEFAULT_RING_CAP);
            (name(d, "-postmortem.jsonl"), depth)
        }),
    }
}

fn run_one(job: &SweepJob, opts: &SweepOptions) -> SweepRun {
    let manifest = Manifest::new(TRACE_SCHEMA, &job.id, job.seed, &job.id);
    // An I/O failure drops this run's trace and flight ring rather than
    // aborting the sweep; the analysis tap, which `--check` gates on,
    // does no I/O and always runs.
    let spec = probe_spec(job, opts);
    let probes = ProbeStack::install(&manifest, &spec).unwrap_or_else(|_| {
        let tap = ProbeSpec {
            analysis: spec.analysis.clone(),
            ..ProbeSpec::default()
        };
        ProbeStack::install(&manifest, &tap).expect("a tap alone does no I/O")
    });
    let marker = telemetry::begin_run();
    let prof = opts
        .profile_dir
        .as_ref()
        .map(|_| phantom_sim::profile::begin_profile());
    let events_before = phantom_sim::thread_events_dispatched();
    let start = std::time::Instant::now();
    // Restores the worker thread's previous request on drop, panics
    // included, so one run's shard request never leaks into the next.
    let _shard_guard = phantom_sim::ShardGuard::new(opts.shards);
    let output = run_experiment(&job.id, job.seed);
    let events = phantom_sim::thread_events_dispatched() - events_before;
    let wall_secs = start.elapsed().as_secs_f64();
    if let (Some(bracket), Some(dir)) = (prof, opts.profile_dir.as_ref()) {
        let record = ProfileRecord {
            manifest: manifest.for_schema(PROFILE_SCHEMA),
            wall_secs,
            report: bracket.finish(),
        };
        // Like the trace probe, an unwritable profile degrades this run's
        // observability rather than aborting the sweep.
        let _ = record.write(&dir.join(format!("{}-{}-profile.json", job.id, job.seed)));
    }
    let counters = marker.finish();
    let analysis = probes.finish();
    SweepRun {
        job: job.clone(),
        output,
        events,
        wall_secs,
        counters,
        analysis,
    }
}

/// Run every job, fanning across up to `jobs` worker threads, and return
/// the results in the same order as `jobs_list`.
pub fn run_sweep(jobs_list: &[SweepJob], jobs: usize) -> Vec<SweepRun> {
    run_sweep_with(jobs_list, jobs, &SweepOptions::default())
}

/// [`run_sweep`] with observability options. Each worker thread installs
/// its own probe, so traces stay deterministic at any `--jobs` level.
pub fn run_sweep_with(jobs_list: &[SweepJob], jobs: usize, opts: &SweepOptions) -> Vec<SweepRun> {
    let workers = jobs.max(1).min(jobs_list.len());
    let progress = opts
        .status_file
        .as_ref()
        .map(|p| SweepProgress::new(p, jobs_list, opts.heartbeat_secs));
    let note = |run: &SweepRun| {
        if let Some(p) = &progress {
            p.note_run(run.events);
        }
    };
    let out = if workers <= 1 {
        jobs_list
            .iter()
            .map(|j| {
                let run = run_one(j, opts);
                note(&run);
                run
            })
            .collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let mut indexed: Vec<(usize, SweepRun)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            let i = cursor.fetch_add(1, Ordering::Relaxed);
                            let Some(job) = jobs_list.get(i) else { break };
                            let run = run_one(job, opts);
                            note(&run);
                            local.push((i, run));
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("sweep worker panicked"))
                .collect()
        });
        indexed.sort_by_key(|(i, _)| *i);
        indexed.into_iter().map(|(_, r)| r).collect()
    };
    if let Some(p) = &progress {
        p.finish();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(ids: &[(&str, u64)]) -> Vec<SweepJob> {
        ids.iter()
            .map(|(id, seed)| SweepJob {
                id: id.to_string(),
                seed: *seed,
            })
            .collect()
    }

    #[test]
    fn parallel_results_match_sequential_byte_for_byte() {
        let batch = jobs(&[("fig2", 1996), ("fig2", 1997)]);
        let seq = run_sweep(&batch, 1);
        let par = run_sweep(&batch, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(&par) {
            assert_eq!(a.job, b.job, "result order must follow job order");
            assert_eq!(a.events, b.events, "event counts must match");
            let ra = a.output.as_ref().expect("fig2 is known").render(0);
            let rb = b.output.as_ref().expect("fig2 is known").render(0);
            assert_eq!(ra, rb, "reports must be byte-identical");
        }
    }

    #[test]
    fn unknown_ids_surface_as_none_in_order() {
        let batch = jobs(&[("no-such-figure", 1)]);
        let out = run_sweep(&batch, 2);
        assert_eq!(out.len(), 1);
        assert!(out[0].output.is_none());
        assert_eq!(out[0].events, 0);
    }

    #[test]
    fn events_and_wall_time_are_recorded() {
        let out = run_sweep(&jobs(&[("fig2", 1996)]), 1);
        assert!(out[0].events > 0, "a simulation dispatches events");
        assert!(out[0].wall_secs > 0.0);
    }

    /// The observability acceptance test: a JSONL-probed run must be
    /// byte-identical to the untraced run — same renders, same event
    /// counts, same telemetry — whether serial or fanned across workers,
    /// and the trace files must carry a manifest first line.
    #[test]
    fn traced_runs_are_byte_identical_serial_and_parallel() {
        let batch = jobs(&[("fig2", 1996), ("fig4", 1996)]);
        let plain = run_sweep(&batch, 1);

        let dir = std::env::temp_dir().join(format!("phantom-sweep-trace-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            trace_dir: Some(dir.clone()),
            trace_filter: KindSet::ALL,
            analyze_window: None,
            ..SweepOptions::default()
        };
        let serial = run_sweep_with(&batch, 1, &opts);
        let parallel = run_sweep_with(&batch, 4, &opts);

        for (a, b) in plain.iter().zip(serial.iter().chain(&parallel)) {
            assert_eq!(a.job.id, b.job.id);
            assert_eq!(a.events, b.events, "tracing must not change dispatch");
            assert_eq!(a.counters, b.counters, "telemetry must be identical");
            assert_eq!(
                a.output.as_ref().unwrap().render(0),
                b.output.as_ref().unwrap().render(0),
                "reports must be byte-identical with a probe attached"
            );
        }

        for job in &batch {
            let path = dir.join(format!("{}-{}.jsonl", job.id, job.seed));
            let text = std::fs::read_to_string(&path).unwrap();
            let first = text.lines().next().unwrap();
            assert!(first.contains("phantom-trace/1"), "manifest first: {first}");
            assert!(first.contains(&format!("\"scenario\":\"{}\"", job.id)));
            assert!(text.lines().count() > 1, "trace must contain events");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The PR 7 acceptance at the sweep level: a profiled, status-filed
    /// sweep produces byte-identical results; every run gets a
    /// `phantom-profile/1` report whose attributed share is sane; the
    /// status file ends in state `done` with every run counted and a
    /// well-formed final document.
    #[test]
    fn profiled_sweep_is_identical_and_writes_profile_and_status() {
        let batch = jobs(&[("fig2", 1996), ("fig4", 1996)]);
        let plain = run_sweep(&batch, 1);

        let dir = std::env::temp_dir().join(format!("phantom-sweep-prof-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let status_path = dir.join("run.status.json");
        let opts = SweepOptions {
            profile_dir: Some(dir.clone()),
            status_file: Some(status_path.clone()),
            ..SweepOptions::default()
        };
        let profiled = run_sweep_with(&batch, 2, &opts);

        for (a, b) in plain.iter().zip(&profiled) {
            assert_eq!(a.events, b.events, "profiling must not change dispatch");
            assert_eq!(a.counters, b.counters, "telemetry must be identical");
            assert_eq!(
                a.output.as_ref().unwrap().render(0),
                b.output.as_ref().unwrap().render(0),
                "reports must be byte-identical under the profiler"
            );
        }

        for job in &batch {
            let path = dir.join(format!("{}-{}-profile.json", job.id, job.seed));
            let text = std::fs::read_to_string(&path).unwrap();
            assert!(text.contains("\"schema\": \"phantom-profile/1\""));
            assert!(text.contains(&format!("\"scenario\":\"{}\"", job.id)));
            assert!(text.contains("\"name\": \"calendar.pop\""));
            assert!(
                text.contains("\"name\": \"cell\""),
                "the ATM classifier labels cell dispatches: {}",
                job.id
            );
            let share = text
                .lines()
                .find_map(|l| l.trim().strip_prefix("\"attributed_share\": "))
                .and_then(|v| v.trim_end_matches(',').parse::<f64>().ok())
                .expect("attributed_share field");
            assert!(
                share > 0.9 && share <= 1.0 + 1e-9,
                "attribution must cover the loop wall: {share}"
            );
        }

        let st = std::fs::read_to_string(&status_path).unwrap();
        assert!(st.starts_with("{\"schema\": \"phantom-status/1\""));
        assert!(st.ends_with("}\n"));
        assert!(st.contains("\"state\": \"done\""));
        assert!(st.contains("\"done\": 2") && st.contains("\"total\": 2"));
        assert!(st.contains("\"unit\": \"runs\""));
        assert!(st.contains("\"progress\": 1"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Acceptance: every drop the run's telemetry counted appears as a
    /// `drop` event in the JSONL trace (the probe and the counters watch
    /// the same queue sites), and the per-interval MACR updates all land
    /// too — across one ATM and one TCP experiment. Both run a single
    /// network: an entry's counters cover all its runs, its trace only
    /// the first.
    #[test]
    fn every_drop_and_macr_update_lands_in_the_trace() {
        let dir = std::env::temp_dir().join(format!("phantom-sweep-accept-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            trace_dir: Some(dir.clone()),
            trace_filter: KindSet::ALL,
            analyze_window: None,
            ..SweepOptions::default()
        };
        let batch = jobs(&[("fig2", 1996), ("fig18", 1996)]);
        let out = run_sweep_with(&batch, 2, &opts);
        for (job, run) in batch.iter().zip(&out) {
            let path = dir.join(format!("{}-{}.jsonl", job.id, job.seed));
            let text = std::fs::read_to_string(&path).unwrap();
            let drops = text
                .lines()
                .filter(|l| l.contains("\"kind\":\"drop\""))
                .count() as u64;
            assert_eq!(
                drops, run.counters.drops,
                "{}: every counted drop must appear in the trace",
                job.id
            );
        }
        let fig2 = std::fs::read_to_string(dir.join("fig2-1996.jsonl")).unwrap();
        let macrs = fig2
            .lines()
            .filter(|l| l.contains("\"kind\":\"macr\""))
            .count();
        assert!(macrs > 100, "fig2 updates MACR every interval: {macrs}");
        assert!(
            out[1].counters.drops > 0,
            "fig18 drops packets, so the drop cross-check is not vacuous"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The tentpole acceptance: a live `AnalysisSink` run must produce
    /// the same `phantom-analysis/1` report as analyzing the trace it
    /// wrote — byte-identical JSON — at any `--jobs` level, and even
    /// when the written trace is filtered (the tap sees everything).
    #[test]
    fn live_analysis_matches_file_analysis_at_any_jobs_level() {
        let dir = std::env::temp_dir().join(format!("phantom-sweep-live-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            trace_dir: Some(dir.clone()),
            trace_filter: KindSet::ALL,
            analyze_window: Some(phantom_analyze::DEFAULT_WINDOW_SECS),
            ..SweepOptions::default()
        };
        let batch = jobs(&[("fig2", 1996), ("fig4", 1996)]);
        let serial = run_sweep_with(&batch, 1, &opts);
        let parallel = run_sweep_with(&batch, 4, &opts);
        for run in serial.iter().chain(&parallel) {
            let live = run.analysis.as_ref().expect("analysis enabled");
            let path = dir.join(format!("{}-{}.jsonl", run.job.id, run.job.seed));
            let from_file = phantom_analyze::analyze_trace_file(
                &path,
                targets_for(&run.job.id),
                phantom_analyze::DEFAULT_WINDOW_SECS,
            )
            .unwrap();
            assert_eq!(
                live.to_json(),
                from_file.to_json(),
                "{}: live tap and trace re-analysis must agree byte-for-byte",
                run.job.id
            );
            assert!(live.events > 0);
        }

        // A filtered trace must not change the live report.
        let filtered = SweepOptions {
            trace_filter: KindSet::parse("drop").unwrap(),
            ..opts
        };
        let thin = run_sweep_with(&jobs(&[("fig2", 1996)]), 1, &filtered);
        assert_eq!(
            thin[0].analysis.as_ref().unwrap().to_json(),
            serial[0].analysis.as_ref().unwrap().to_json(),
            "the tap must see the unfiltered stream"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// PR 8 satellites at the sweep level: a heartbeat-throttled,
    /// flight-armed sweep is byte-identical to a plain one; the status
    /// file still ends in an unconditional `done` write even when the
    /// heartbeat interval is far longer than the whole batch; and a
    /// clean run leaves no post-mortem dump behind (the recorder only
    /// writes on panic).
    #[test]
    fn heartbeat_and_post_mortem_do_not_change_results() {
        let batch = jobs(&[("fig2", 1996), ("fig4", 1996)]);
        let plain = run_sweep(&batch, 1);

        let dir = std::env::temp_dir().join(format!("phantom-sweep-hb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let status_path = dir.join("run.status.json");
        std::fs::create_dir_all(&dir).unwrap();
        let opts = SweepOptions {
            status_file: Some(status_path.clone()),
            heartbeat_secs: Some(3600.0), // throttles every mid-run write
            post_mortem_dir: Some(dir.clone()),
            post_mortem_depth: Some(64),
            ..SweepOptions::default()
        };
        let out = run_sweep_with(&batch, 2, &opts);

        for (a, b) in plain.iter().zip(&out) {
            assert_eq!(a.events, b.events, "arming must not change dispatch");
            assert_eq!(a.counters, b.counters, "telemetry must be identical");
            assert_eq!(
                a.output.as_ref().unwrap().render(0),
                b.output.as_ref().unwrap().render(0),
                "reports must be byte-identical with the recorder armed"
            );
        }

        // The final write is unconditional, so despite the 1-hour
        // heartbeat the file must end in state `done` with full counts.
        let st = std::fs::read_to_string(&status_path).unwrap();
        assert!(st.contains("\"state\": \"done\""));
        assert!(st.contains("\"done\": 2") && st.contains("\"total\": 2"));

        // No panic, no dump.
        for job in &batch {
            let dump = dir.join(format!("{}-{}-postmortem.jsonl", job.id, job.seed));
            assert!(!dump.exists(), "clean runs write no post-mortem");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn trace_filter_limits_kinds() {
        let dir = std::env::temp_dir().join(format!("phantom-sweep-filter-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = SweepOptions {
            trace_dir: Some(dir.clone()),
            trace_filter: KindSet::parse("macr,drop").unwrap(),
            analyze_window: None,
            ..SweepOptions::default()
        };
        let out = run_sweep_with(&jobs(&[("fig2", 7)]), 1, &opts);
        assert!(out[0].output.is_some());
        let text = std::fs::read_to_string(dir.join("fig2-7.jsonl")).unwrap();
        let mut saw_macr = false;
        for line in text.lines().skip(1) {
            assert!(
                line.contains("\"kind\":\"macr\"") || line.contains("\"kind\":\"drop\""),
                "filtered kinds only: {line}"
            );
            saw_macr |= line.contains("\"kind\":\"macr\"");
        }
        assert!(saw_macr, "fig2 runs MACR updates every interval");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
