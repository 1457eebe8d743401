//! Run a scene with the CLI's observability stack, read its report,
//! and compute the closed-form phantom prediction.
//!
//! Every run is a [`RunPlan`]: [`run_scene_opts`] only maps
//! [`RunOptions`] onto it and writes the CLI-only artifacts (metrics
//! snapshot, engine profile). The analysis tap uses the targets *the
//! scene itself declares* (`analysis_targets`), since the file in hand
//! is the authority when running it directly.

use crate::checkpoint::CkptDriver;
use phantom_analyze::AnalysisTargets;
use phantom_atm::network::{Network, SessionId, TrunkIdx};
use phantom_atm::switch::Switch;
use phantom_atm::units::{cps_to_mbps, mbps_to_cps};
use phantom_atm::AtmMsg;
use phantom_metrics::fairness::Session;
use phantom_metrics::manifest::{Manifest, METRICS_SCHEMA, PROFILE_SCHEMA};
use phantom_metrics::{jain_index, phantom_prediction, ProfileRecord, Registry, RunStatus, Table};
use phantom_scenarios::probes::{ensure_parent, ProbeSpec};
use phantom_scene::compile::ms_to_time;
use phantom_scene::{analysis_targets, RunPlan, Scene, TrafficDecl};
use phantom_sim::flight;
use phantom_sim::probe::KindSet;
use phantom_sim::stats::TimeSeries;
use phantom_sim::telemetry::{self, RunCounters};
use phantom_sim::{profile, Engine, SimDuration, SimTime};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Instant;

/// Everything one scene run produced.
pub use phantom_scene::RunOutcome as SceneReport;

/// Per-session and per-trunk results of one finished run.
#[derive(Debug)]
pub struct RunReport {
    /// Per-session mean delivered rate over the tail half of the run, Mb/s.
    pub session_rates_mbps: Vec<f64>,
    /// Per-trunk (a→b direction) MACR tail mean, Mb/s.
    pub trunk_macr_mbps: Vec<f64>,
    /// Per-trunk utilization over the tail.
    pub trunk_utilization: Vec<f64>,
    /// Per-trunk mean queue (cells) over the tail.
    pub trunk_mean_queue: Vec<f64>,
    /// Per-trunk peak queue (cells).
    pub trunk_peak_queue: Vec<usize>,
    /// Jain index of the session rates.
    pub jain: f64,
    /// Events the engine dispatched.
    pub events: u64,
    /// Drop/retransmit/queue-peak telemetry observed during the run.
    pub counters: RunCounters,
}

/// Observability options for [`run_scene_opts`]. The defaults run the
/// scene unobserved: no trace, no metrics, quiet.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Write a JSONL event trace (manifest first line) to this path.
    pub trace: Option<PathBuf>,
    /// Event kinds to keep in the trace (default: all).
    pub trace_filter: KindSet,
    /// Write a Prometheus-style metrics snapshot to this path, plus a
    /// JSON summary to the same path with `.json` appended.
    pub metrics: Option<PathBuf>,
    /// Print a progress heartbeat to stderr (events/s, sim/wall ratio,
    /// ETA, RSS) after each run slice.
    pub verbose: bool,
    /// Write a `phantom-profile/1` engine profile (where the wall time
    /// went: node types, event kinds, calendar phases) to this path.
    pub profile: Option<PathBuf>,
    /// Atomically rewrite a `phantom-status/1` liveness file here after
    /// each run slice; `phantom status FILE [--watch]` pretty-prints it.
    pub status_file: Option<PathBuf>,
    /// Arm the panic flight recorder: on panic, a `phantom-postmortem/1`
    /// dump (engine snapshot + recent-event ring) lands at this path.
    pub post_mortem: Option<PathBuf>,
    /// Ring depth of the flight recorder (`--post-mortem-depth`): how
    /// many recent events a post-mortem dump retains. `None` keeps the
    /// default ([`flight::DEFAULT_RING_CAP`]).
    pub post_mortem_depth: Option<usize>,
    /// Heartbeat interval in *simulated* seconds (`--heartbeat`): how
    /// often the `-v` stderr line and the status file are refreshed.
    /// `None` keeps the historical default of ten slices per run.
    pub heartbeat_secs: Option<f64>,
    /// Emit a `phantom-checkpoint/2` artifact this often (sim-seconds,
    /// or every N dispatched events with an `ev` suffix). Requires
    /// [`RunOptions::checkpoint_dir`].
    pub checkpoint_every: Option<CheckpointEvery>,
    /// Directory receiving periodic checkpoints, named
    /// `ckpt-<now_ns>-<events>.jsonl` (zero-padded, so lexical order is
    /// simulation order).
    pub checkpoint_dir: Option<PathBuf>,
    /// Intra-run shard count (`--shards`): run the engine on this many
    /// conservative PDES shards. 0 (the default) and 1 both mean one
    /// shard; every count gives the same trace.
    pub shards: usize,
}

impl RunOptions {
    /// The probe stack these options ask for, plus an optional live
    /// analysis tap (targets, window seconds).
    pub(crate) fn probe_spec(&self, analysis: Option<(AnalysisTargets, f64)>) -> ProbeSpec {
        ProbeSpec {
            analysis,
            trace: self.trace.clone(),
            trace_filter: self.trace_filter,
            trace_headerless: false,
            flight: self.post_mortem.clone().map(|path| {
                let depth = self.post_mortem_depth.unwrap_or(flight::DEFAULT_RING_CAP);
                (path, depth)
            }),
        }
    }
}

/// Checkpoint cadence: a simulated-time period, or an event-count period
/// (`--checkpoint-every 0.05` vs `--checkpoint-every 250000ev`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum CheckpointEvery {
    /// Checkpoint at every multiple of this many simulated seconds.
    SimSecs(f64),
    /// Checkpoint at every multiple of this many dispatched events.
    Events(u64),
}

impl CheckpointEvery {
    /// Parse the `--checkpoint-every` argument: a positive float means
    /// sim-seconds, a positive integer with an `ev` suffix means events.
    pub fn parse(s: &str) -> Result<Self, String> {
        if let Some(n) = s.strip_suffix("ev") {
            let n: u64 = n
                .parse()
                .map_err(|_| format!("bad checkpoint event count: {s}"))?;
            if n == 0 {
                return Err("checkpoint event period must be positive".into());
            }
            Ok(CheckpointEvery::Events(n))
        } else {
            let secs: f64 = s
                .parse()
                .map_err(|_| format!("bad checkpoint period (sim-secs or Nev): {s}"))?;
            // NaN fails the comparison too, so it is rejected here.
            if secs.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
                return Err(format!("checkpoint period must be positive: {s}"));
            }
            Ok(CheckpointEvery::SimSecs(secs))
        }
    }
}

impl RunReport {
    /// Terminal rendering: one line per session and per trunk of
    /// `scene`, under a header naming the run.
    pub fn render(&self, scene: &Scene, seed: u64) -> String {
        let mut out = String::new();
        let algorithm = match scene.u {
            Some(u) => format!("{} u={u}", scene.algorithm),
            None => scene.algorithm.clone(),
        };
        let _ = writeln!(
            out,
            "simulated {} under {algorithm} (seed {seed}) — {} events",
            ms_to_time(scene.duration_ms) - SimTime::ZERO,
            self.events
        );
        for (i, (r, s)) in self
            .session_rates_mbps
            .iter()
            .zip(&scene.sessions)
            .enumerate()
        {
            let path = s.path.join("→");
            let _ = writeln!(out, "  session {i} [{path}]: {r:8.2} Mb/s");
        }
        let _ = writeln!(out, "  jain index: {:.4}", self.jain);
        let _ = writeln!(
            out,
            "  telemetry: {} drops, peak queue {} cells",
            self.counters.drops, self.counters.queue_peak
        );
        for (i, t) in scene.trunks.iter().enumerate() {
            let _ = writeln!(
                out,
                "  trunk {}–{}: macr {:6.2} Mb/s, util {:5.3}, queue mean {:6.1} / peak {} cells",
                t.a,
                t.b,
                self.trunk_macr_mbps[i],
                self.trunk_utilization[i],
                self.trunk_mean_queue[i],
                self.trunk_peak_queue[i]
            );
        }
        out
    }
}

/// The files `phantom run` and `phantom resume` write once the run is
/// over: the `--metrics` snapshot and the `--profile` engine profile.
/// Begin it before the run (the profile bracket opens there) and
/// [`RunArtifacts::write`] it on the finished run. A CLI user asked for
/// these files explicitly, so failures are hard errors (unlike the sweep
/// harness, which degrades silently).
pub(crate) struct RunArtifacts<'o> {
    opts: &'o RunOptions,
    wall_start: Instant,
    prof: Option<profile::ProfileMarker>,
}

impl<'o> RunArtifacts<'o> {
    pub(crate) fn begin(opts: &'o RunOptions) -> Self {
        RunArtifacts {
            opts,
            wall_start: Instant::now(),
            prof: opts.profile.as_ref().map(|_| profile::begin_profile()),
        }
    }

    /// Close the profile bracket and write what the options ask for,
    /// stamped with the run's `manifest`.
    pub(crate) fn write(self, manifest: &Manifest, out: &SceneReport) -> Result<(), String> {
        let report = self.prof.map(profile::ProfileMarker::finish);
        if let Some(path) = &self.opts.metrics {
            let registry = metrics_snapshot(&out.engine, &out.net);
            let manifest = manifest.for_schema(METRICS_SCHEMA);
            ensure_parent(path)?;
            std::fs::write(path, registry.to_prometheus(&manifest))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let mut json_os = path.as_os_str().to_os_string();
            json_os.push(".json");
            let json_path = PathBuf::from(json_os);
            std::fs::write(&json_path, registry.to_json(&manifest))
                .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
        }
        if let (Some(path), Some(report)) = (&self.opts.profile, report) {
            let record = ProfileRecord {
                manifest: manifest.for_schema(PROFILE_SCHEMA),
                wall_secs: self.wall_start.elapsed().as_secs_f64(),
                report,
            };
            record
                .write(path)
                .map_err(|e| format!("cannot write profile {}: {e}", path.display()))?;
        }
        Ok(())
    }
}

/// The `--metrics` registry of a finished run, read from state the nodes
/// keep anyway: per switch the cells it routed, then per trunk direction
/// (labelled `link="A->B"`) the cells it transmitted and dropped and its
/// queue, MACR and throughput series. Every routed cell was queued on, or
/// dropped at, exactly one of the switch's ports, so the switch routed
/// what its ports sent, still hold and dropped. A checkpoint carries all
/// of this state, so a resumed run reports whole-run values.
fn metrics_snapshot(engine: &Engine<AtmMsg>, net: &Network) -> Registry {
    let registry = Registry::new();
    for sh in &net.switches {
        let sw = engine.node::<Switch>(sh.node);
        let routed = (0..sw.port_count())
            .map(|i| sw.port(i))
            .map(|p| p.total_departures() + p.queue_len() as u64 + p.drops())
            .sum();
        registry
            .counter("atm_cells_routed_total", &[("switch", sw.name())])
            .add(routed);
    }
    for th in &net.trunks {
        let a = engine.node::<Switch>(th.a_switch);
        let b = engine.node::<Switch>(th.b_switch);
        for (port, from, to) in [(a.port(th.a_port), a, b), (b.port(th.b_port), b, a)] {
            let label = format!("{}->{}", from.name(), to.name());
            let l: &[(&str, &str)] = &[("link", &label)];
            registry
                .counter("atm_tx_cells_total", l)
                .add(port.total_departures());
            registry
                .counter("atm_dropped_cells_total", l)
                .add(port.drops() + port.wire_losses);
            let series = port
                .series()
                .expect("the builder records series on every trunk port");
            let gauge = |name: &str, samples: &TimeSeries| {
                let g = registry.gauge(name, l);
                // Only MACR holds non-finite samples (an allocator
                // without a fair share); the snapshot skips them.
                for (t, v) in samples.iter().filter(|(_, v)| v.is_finite()) {
                    g.set(SimTime::from_secs_f64(t), v);
                }
            };
            gauge("atm_queue_cells", &series.queue);
            gauge("atm_macr_cells_per_sec", &series.macr);
            gauge("atm_throughput_cells_per_sec", &series.throughput);
        }
    }
    registry
}

/// Drive the engine to `end` in heartbeat-sized slices, emitting the
/// requested liveness signals after each: a stderr heartbeat line
/// (percent done, events/s, sim/wall ratio, ETA, RSS) when `verbose`,
/// and an atomic `phantom-status/1` rewrite when `--status-file` names a
/// file (final write has `state: "done"`). The slice width is
/// [`RunOptions::heartbeat_secs`] of simulated time (default: a tenth of
/// the remaining horizon). When a checkpoint driver is supplied, every
/// slice advances through it so `phantom-checkpoint/2` artifacts land at
/// their exact cadence. Slicing `run_until` cannot change results — the
/// event order within each slice is exactly the order of one
/// uninterrupted run. Starts from the engine's current clock, so resumed
/// runs report progress over the remaining horizon only.
pub(crate) fn run_driver(
    engine: &mut Engine<phantom_atm::AtmMsg>,
    end: SimTime,
    opts: &RunOptions,
    scenario: &str,
    seed: u64,
    mut ckpt: Option<&mut crate::checkpoint::CkptDriver<'_>>,
) -> Result<(), String> {
    let from = engine.now();
    let total = (end - from).as_secs_f64();
    let liveness = opts.verbose || opts.status_file.is_some();
    let slices: u64 = if liveness && total > 0.0 {
        let hb = opts.heartbeat_secs.unwrap_or(total / 10.0);
        // Bound the slice count so a tiny heartbeat over a long horizon
        // cannot turn the run into pure bookkeeping.
        ((total / hb.max(1e-9)).ceil() as u64).clamp(1, 100_000)
    } else {
        1
    };
    let wall_start = std::time::Instant::now();
    let events_before = engine.events_processed();
    for i in 1..=slices {
        let target = if i == slices {
            end
        } else {
            from + SimDuration::from_secs_f64(total * i as f64 / slices as f64)
        };
        match ckpt.as_deref_mut() {
            Some(ck) => ck.advance(engine, target)?,
            None => engine.run_until(target),
        }
        if !liveness {
            continue;
        }
        let wall = wall_start.elapsed().as_secs_f64().max(1e-9);
        let sim = (target - SimTime::ZERO).as_secs_f64();
        let events = engine.events_processed() - events_before;
        let eta = (i < slices).then(|| wall / i as f64 * (slices - i) as f64);
        let rss = telemetry::rss_bytes();
        if opts.verbose {
            eprintln!(
                "[{:3}%] sim {:.3}s  wall {:.2}s  {:.0} events/s  sim/wall {:.2}x  eta {}  rss {}",
                i * 100 / slices,
                sim,
                wall,
                events as f64 / wall,
                (sim - (from - SimTime::ZERO).as_secs_f64()) / wall,
                eta.map_or_else(|| "--".to_string(), |e| format!("{e:.1}s")),
                rss.map_or_else(
                    || "n/a".to_string(),
                    |b| format!("{:.0} MB", b as f64 / 1e6)
                ),
            );
        }
        if let Some(path) = opts.status_file.as_deref() {
            let st = RunStatus {
                scenario: scenario.to_string(),
                seed,
                state: if i == slices { "done" } else { "running" }.to_string(),
                wall_secs: wall,
                events,
                events_per_sec: events as f64 / wall,
                done: i,
                total: slices,
                unit: "slices".to_string(),
                eta_secs: eta,
                rss_bytes: rss,
                sim_secs: Some(sim),
                sim_end_secs: Some((end - SimTime::ZERO).as_secs_f64()),
            };
            st.write(path)
                .map_err(|e| format!("cannot write status {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Compile and run a validated scene with the requested observability:
/// optional JSONL trace, optional metrics snapshot, optional live
/// `phantom-analysis/1` tap with window width `analyze_window` seconds,
/// plus the run-wide options (heartbeat, status file, engine profile,
/// panic flight recorder, checkpoints). None of them changes the
/// simulation.
pub fn run_scene_opts(
    scene: &Scene,
    seed: u64,
    analyze_window: Option<f64>,
    opts: &RunOptions,
) -> Result<SceneReport, String> {
    // Scoped to this run; restored on drop, panics included.
    let _shard_guard = phantom_sim::ShardGuard::new(opts.shards);
    let artifacts = RunArtifacts::begin(opts);
    let plan = RunPlan {
        probes: opts.probe_spec(analyze_window.map(|w| (analysis_targets(scene), w))),
        ..RunPlan::new(scene, seed)
    };
    let manifest = plan.manifest();
    let outcome = plan.run(|d| {
        // Pre-drive in heartbeat slices only when liveness or
        // checkpointing was requested; otherwise the plan's standard
        // collection runs the whole horizon in one call.
        let mut ckpt = CkptDriver::from_opts(opts, scene, d.manifest, d.until, d.marker)?;
        if opts.verbose || opts.status_file.is_some() || ckpt.is_some() {
            run_driver(d.engine, d.until, opts, &scene.id, seed, ckpt.as_mut())?;
        }
        Ok(())
    })?;
    artifacts.write(&manifest, &outcome)?;
    Ok(outcome)
}

/// Read the per-session and per-trunk report of a finished run of
/// `scene`: tail-half means of the delivered rates and of each trunk's
/// a→b MACR, utilization and queue.
pub fn collect_report(scene: &Scene, out: &SceneReport) -> RunReport {
    let (engine, net) = (&out.engine, &out.net);
    let tail = (ms_to_time(scene.duration_ms) - SimTime::ZERO).as_secs_f64() / 2.0;
    let session_rates_mbps: Vec<f64> = (0..net.sessions.len())
        .map(|i| cps_to_mbps(net.session_rate(engine, SessionId(i)).mean_after(tail)))
        .collect();
    let mut trunk_macr_mbps = Vec::new();
    let mut trunk_utilization = Vec::new();
    let mut trunk_mean_queue = Vec::new();
    let mut trunk_peak_queue = Vec::new();
    for i in 0..net.trunks.len() {
        let t = TrunkIdx(i);
        trunk_macr_mbps.push(cps_to_mbps(net.trunk_macr(engine, t).mean_after(tail)));
        let port = net.trunk_port(engine, t);
        trunk_utilization.push(net.trunk_throughput(engine, t).mean_after(tail) / port.capacity());
        trunk_mean_queue.push(net.trunk_queue(engine, t).mean_after(tail));
        trunk_peak_queue.push(port.queue_high_water());
    }
    let jain = jain_index(&session_rates_mbps);
    RunReport {
        session_rates_mbps,
        trunk_macr_mbps,
        trunk_utilization,
        trunk_mean_queue,
        trunk_peak_queue,
        jain,
        events: engine.events_processed(),
        counters: out.counters,
    }
}

/// Closed-form phantom prediction for an explicit scene (ignores
/// traffic windows — every session is treated as greedy — and
/// non-Phantom algorithms; the CLI warns accordingly).
pub fn predict(scene: &Scene) -> Result<String, String> {
    if scene.generate.is_some() {
        return Err("predict needs an explicit topology; a generated scene declares none".into());
    }
    let u = scene.u.unwrap_or(5.0);
    let caps: Vec<f64> = scene.trunks.iter().map(|t| mbps_to_cps(t.mbps)).collect();
    let sessions: Vec<Session> = scene
        .sessions
        .iter()
        .map(|s| {
            let links = s
                .path
                .windows(2)
                .map(|w| {
                    scene
                        .trunk_between(&w[0], &w[1])
                        .expect("validated connectivity")
                })
                .collect();
            match s.cbr_mbps {
                None => Session::on(links),
                Some(mbps) => Session::on(links).cap(mbps_to_cps(mbps) * duty_cycle(&s.traffic)),
            }
        })
        .collect();
    let (rates, macrs) = phantom_prediction(&caps, &sessions, u);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "phantom fixed point (u = {u}; ABR sessions greedy, CBR at its mean offered rate):"
    );
    for (i, r) in rates.iter().enumerate() {
        let path = scene.sessions[i].path.join("→");
        let _ = writeln!(out, "  session {i} [{path}]: {:8.2} Mb/s", cps_to_mbps(*r));
    }
    for (m, t) in macrs.iter().zip(&scene.trunks) {
        let _ = writeln!(
            out,
            "  trunk {}–{}: MACR {:6.2} Mb/s",
            t.a,
            t.b,
            cps_to_mbps(*m)
        );
    }
    Ok(out)
}

/// The share of time a source with this traffic pattern sends: the
/// mean duty cycle of an on/off pattern, 1 for a greedy one. A window
/// counts as always on, since the fixed point describes the time it is
/// active.
fn duty_cycle(traffic: &TrafficDecl) -> f64 {
    match *traffic {
        TrafficDecl::Greedy | TrafficDecl::Window { .. } => 1.0,
        TrafficDecl::OnOff { on_ms, off_ms, .. } => on_ms / (on_ms + off_ms),
        TrafficDecl::Random {
            mean_on_ms,
            mean_off_ms,
        } => mean_on_ms / (mean_on_ms + mean_off_ms),
    }
}

/// Run many independent scenes under one seed, fanning across up to
/// `jobs` worker threads (plain `std::thread::scope`, no pool
/// dependency). Each run is a pure function of its scene and the seed,
/// so the reports, returned in input order, are identical to a serial
/// run.
fn run_reports(scenes: &[Scene], seed: u64, jobs: usize) -> Vec<RunReport> {
    let run = |scene: &Scene| {
        let out = RunPlan::new(scene, seed)
            .run(|_| Ok(()))
            .expect("an unobserved run does no I/O");
        collect_report(scene, &out)
    };
    let workers = jobs.max(1).min(scenes.len());
    if workers <= 1 {
        return scenes.iter().map(run).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, RunReport)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(scene) = scenes.get(i) else { break };
                        local.push((i, run(scene)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("run_reports worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

fn summary_row(report: &RunReport) -> Vec<f64> {
    let total: f64 = report.session_rates_mbps.iter().sum();
    let util = report.trunk_utilization.iter().copied().fold(0.0, f64::max);
    let max_q = report.trunk_peak_queue.iter().copied().max().unwrap_or(0) as f64;
    vec![total, report.jain, util, max_q]
}

/// The algorithms `phantom compare` runs, in table order.
const COMPARED: [&str; 7] = [
    "phantom",
    "phantom-ni",
    "eprca",
    "aprc",
    "capc",
    "osu",
    "erica",
];

/// Run the scene under every compared algorithm, each at its
/// recommended settings (the scene's Phantom overrides are dropped), and
/// tabulate the headline quantities. `jobs` bounds the worker threads;
/// the table is the same at any parallelism.
pub fn compare_algorithms(scene: &Scene, seed: u64, jobs: usize) -> Table {
    let scenes: Vec<Scene> = COMPARED
        .iter()
        .map(|alg| {
            let mut s = scene.clone();
            s.algorithm = alg.to_string();
            s.u = None;
            for t in &mut s.trunks {
                (t.u, t.alpha_inc, t.alpha_dec) = (None, None, None);
            }
            s
        })
        .collect();
    let reports = run_reports(&scenes, seed, jobs);
    let mut t = Table::new(
        "compare",
        "all algorithms on this topology",
        &[
            "algorithm",
            "total_mbps",
            "jain",
            "bottleneck_util",
            "max_q_cells",
        ],
    );
    for (label, report) in COMPARED.iter().zip(&reports) {
        t.add_row(label, summary_row(report));
    }
    t
}

/// Sweep the Phantom utilization factor over the scene: one row per
/// `u` (applied to every trunk), columns for total throughput, fairness,
/// utilization and queueing. `jobs` bounds the worker threads; the
/// table is the same at any parallelism.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
pub fn sweep_u(scene: &Scene, seed: u64, us: &[f64], jobs: usize) -> Result<Table, String> {
    for &u in us {
        if !(u > 0.0) {
            return Err(format!("u must be positive, got {u}"));
        }
    }
    let scenes: Vec<Scene> = us
        .iter()
        .map(|&u| {
            let mut s = scene.clone();
            s.algorithm = "phantom".into();
            s.u = Some(u);
            for t in &mut s.trunks {
                t.u = None;
            }
            s
        })
        .collect();
    let reports = run_reports(&scenes, seed, jobs);
    let mut t = Table::new(
        "sweep-u",
        "utilization-factor sweep",
        &["u", "total_mbps", "jain", "bottleneck_util", "max_q_cells"],
    );
    for (&u, report) in us.iter().zip(&reports) {
        t.add_row(&format!("{u}"), summary_row(report));
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_str;
    use phantom_metrics::manifest::POSTMORTEM_SCHEMA;
    use phantom_scene::parse_scene;
    use phantom_sim::flight::FlightProbe;
    use phantom_sim::probe::ProbeGuard;

    const DUMBBELL: &str = "\
switch s1
switch s2
trunk s1 s2 150mbps 10us
session s1 s2 greedy
session s1 s2 greedy
algorithm phantom u=5
run 400ms seed=3
";

    /// Run a topology file with `opts`; the scene, its seed and report.
    fn run_dsl(src: &str, opts: &RunOptions) -> (Scene, u64, RunReport) {
        let (scene, seed) = parse_str(src).unwrap();
        let out = run_scene_opts(&scene, seed, None, opts).unwrap();
        let report = collect_report(&scene, &out);
        (scene, seed, report)
    }

    #[test]
    fn run_matches_prediction_on_the_dumbbell() {
        let (scene, seed, report) = run_dsl(DUMBBELL, &RunOptions::default());
        assert_eq!(report.session_rates_mbps.len(), 2);
        // fixed point: 68.18 Mb/s per session, MACR 13.64
        for r in &report.session_rates_mbps {
            assert!((r - 68.18).abs() < 5.0, "rate {r}");
        }
        assert!((report.trunk_macr_mbps[0] - 13.64).abs() < 1.5);
        assert!(report.jain > 0.99);
        assert!(report.events > 100_000);
        let rendered = report.render(&scene, seed);
        assert!(rendered.starts_with("simulated 0.400000s under phantom u=5 (seed 3)"));
        assert!(rendered.contains("session 0"));
        assert!(rendered.contains("trunk s1–s2"));
    }

    #[test]
    fn predict_without_simulation() {
        let (scene, _) = parse_str(DUMBBELL).unwrap();
        let text = predict(&scene).unwrap();
        assert!(text.contains("68.18"));
        assert!(text.contains("13.64"));
    }

    #[test]
    fn predict_holds_cbr_sessions_at_their_offered_rate() {
        let src = include_str!("../../../examples/topologies/kitchen_sink.phantom");
        let (scene, _) = parse_str(src).unwrap();
        let text = predict(&scene).unwrap();
        // `cbr edge core 20mbps` and `cbr core far 10mbps on=100ms
        // off=100ms`: the run delivers 19.98 and 4.94 Mb/s.
        assert!(
            text.contains("session 4 [edge→core]:    20.00 Mb/s"),
            "{text}"
        );
        assert!(
            text.contains("session 5 [core→far]:     5.00 Mb/s"),
            "{text}"
        );
    }

    #[test]
    fn sweep_u_shows_the_utilization_dial() {
        let (scene, seed) = parse_str(DUMBBELL).unwrap();
        let t = sweep_u(&scene, seed, &[2.0, 5.0, 20.0], 1).unwrap();
        let u2 = t.cell("2", "bottleneck_util").unwrap();
        let u20 = t.cell("20", "bottleneck_util").unwrap();
        assert!(u20 > u2, "higher u buys utilization: {u2:.3} vs {u20:.3}");
        assert!((u2 - 0.80).abs() < 0.05, "u=2 with n=2 targets 4/5");
        assert!(t.cell("5", "jain").unwrap() > 0.99);
        assert!(sweep_u(&scene, seed, &[0.0], 1).is_err());
    }

    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        let (scene, seed) = parse_str(DUMBBELL).unwrap();
        let serial = sweep_u(&scene, seed, &[2.0, 5.0], 1).unwrap();
        let parallel = sweep_u(&scene, seed, &[2.0, 5.0], 4).unwrap();
        assert_eq!(serial.render(), parallel.render());
    }

    /// Run with every observability option on and validate each artifact
    /// against the committed schema docs in `schemas/`.
    #[test]
    fn observability_artifacts_validate_against_committed_schemas() {
        let dir = std::env::temp_dir().join("phantom_cli_obs_test");
        let _ = std::fs::remove_dir_all(&dir);
        let (mut scene, seed) = parse_str(DUMBBELL).unwrap();
        scene.id = "dumbbell".into();
        let opts = RunOptions {
            trace: Some(dir.join("run.jsonl")),
            metrics: Some(dir.join("run.prom")),
            profile: Some(dir.join("run.profile.json")),
            status_file: Some(dir.join("run.status.json")),
            post_mortem: Some(dir.join("run.pm.jsonl")),
            ..Default::default()
        };
        let traced = run_scene_opts(&scene, seed, None, &opts).unwrap();
        let plain = run_scene_opts(&scene, seed, None, &RunOptions::default()).unwrap();
        assert_eq!(
            collect_report(&scene, &plain).render(&scene, seed),
            collect_report(&scene, &traced).render(&scene, seed),
            "observability must not change the simulation"
        );

        let profile = std::fs::read_to_string(dir.join("run.profile.json")).unwrap();
        assert!(profile.starts_with("{\n  \"schema\": \"phantom-profile/1\""));
        assert!(profile.contains("\"scenario\":\"dumbbell\""));
        for name in ["\"calendar.pop\"", "\"calendar.advance.scan\"", "\"cell\""] {
            assert!(profile.contains(name), "{name} missing from profile");
        }
        let share_line = profile
            .lines()
            .find(|l| l.contains("\"attributed_share\""))
            .unwrap();
        let share: f64 = share_line
            .trim()
            .trim_end_matches(',')
            .rsplit(' ')
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert!(
            share > 0.9 && share <= 1.0 + 1e-9,
            "node + phase self-times must account for the loop wall: {share}"
        );

        let status = std::fs::read_to_string(dir.join("run.status.json")).unwrap();
        assert!(status.starts_with("{\"schema\": \"phantom-status/1\""));
        assert!(status.ends_with("}\n"));
        for key in [
            "\"state\": \"done\"",
            "\"done\": 10",
            "\"total\": 10",
            "\"unit\": \"slices\"",
            "\"progress\": 1",
            "\"sim_end_secs\": 0.4",
        ] {
            assert!(status.contains(key), "{key} missing from status: {status}");
        }

        assert!(
            !dir.join("run.pm.jsonl").exists(),
            "a run that finishes normally writes no post-mortem"
        );

        let trace = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
        let mut lines = trace.lines();
        let first = lines.next().unwrap();
        for key in [
            "\"schema\":\"phantom-trace/1\"",
            "\"scenario\":\"dumbbell\"",
            "\"seed\":3",
            "\"config_hash\":",
            "\"git_rev\":",
        ] {
            assert!(first.contains(key), "{key} missing from manifest: {first}");
        }
        let mut events = 0u64;
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(
                line.contains("\"t\":")
                    && line.contains("\"node\":")
                    && line.contains("\"kind\":\""),
                "event shape: {line}"
            );
            events += 1;
        }
        assert!(events > 0, "a traced run must emit events");

        let prom = std::fs::read_to_string(dir.join("run.prom")).unwrap();
        assert!(prom.starts_with("# manifest: {\"schema\":\"phantom-metrics/1\""));
        for name in [
            "atm_tx_cells_total",
            "atm_dropped_cells_total",
            "atm_queue_cells",
            "atm_macr_cells_per_sec",
            "atm_throughput_cells_per_sec",
            "atm_cells_routed_total",
        ] {
            assert!(prom.contains(&format!("# TYPE {name} ")), "{name} missing");
        }

        let json = std::fs::read_to_string(dir.join("run.prom.json")).unwrap();
        assert!(json.contains("\"schema\": \"phantom-metrics/1\""));
        assert!(json.contains("\"manifest\": {\"schema\":\"phantom-metrics/1\""));
        assert!(json.contains("\"metrics\": ["));
        assert_eq!(json.matches('{').count(), json.matches('}').count());

        let schemas = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas");
        for (file, tag) in [
            ("phantom-trace-v1.md", "phantom-trace/1"),
            ("phantom-metrics-v1.md", "phantom-metrics/1"),
            ("phantom-bench-v5.md", "phantom-bench/5"),
            ("phantom-csv-v1.md", "phantom-csv/1"),
            ("phantom-scene-v1.md", "phantom-scene/1"),
            ("phantom-profile-v1.md", "phantom-profile/1"),
            ("phantom-status-v1.md", "phantom-status/1"),
            ("phantom-postmortem-v1.md", "phantom-postmortem/1"),
            ("phantom-checkpoint-v2.md", "phantom-checkpoint/2"),
            ("phantom-diverge-v1.md", "phantom-diverge/1"),
        ] {
            let doc = std::fs::read_to_string(schemas.join(file)).unwrap();
            assert!(doc.contains(tag), "{file} must document {tag}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A flight-recorder dump must round-trip through the JSON reader:
    /// every line of the post-mortem — manifest, snapshot, arena rows,
    /// retained events — is one flat JSON object, and the snapshot
    /// reflects the run that fed it.
    #[test]
    fn flight_dump_round_trips_through_the_reader() {
        use phantom_metrics::json::Json;

        let dir = std::env::temp_dir().join("phantom_cli_flight_test");
        let _ = std::fs::create_dir_all(&dir);
        let (scene, seed) = parse_str(DUMBBELL).unwrap();
        let manifest = Manifest::new(POSTMORTEM_SCHEMA, "dumbbell", seed, "cfg");
        // Arm outside run_scene_opts so the recorder survives the run and
        // `dump_now` can render what a panic hook would have written.
        let _g = flight::arm(&dir.join("pm.jsonl"), Some(&manifest.to_json()), 32);
        let _probe = ProbeGuard::install(Box::new(FlightProbe));
        let report = run_scene_opts(&scene, seed, None, &RunOptions::default()).unwrap();
        let dump = flight::dump_now("inspection").expect("recorder is armed");

        let mut arenas = 0u32;
        let mut events = 0u32;
        for (i, line) in dump.lines().enumerate() {
            let obj = Json::parse_line(line, i + 1).unwrap_or_else(|e| panic!("{e}: {line}"));
            let fields = obj
                .as_obj()
                .unwrap_or_else(|| panic!("not an object: {line}"));
            assert!(
                fields
                    .iter()
                    .all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_))),
                "line {i} is flat: {line}"
            );
            let get = |key: &str| obj.get(key).unwrap_or_else(|| panic!("{key} missing"));
            match i {
                0 => assert_eq!(get("schema").as_str(), Some("phantom-postmortem/1")),
                1 => {
                    assert_eq!(get("record").as_str(), Some("snapshot"));
                    assert_eq!(get("panic").as_str(), Some("inspection"));
                    let dispatches = get("dispatches").as_f64().expect("dispatches") as u64;
                    assert!(
                        dispatches <= report.events && dispatches > 0,
                        "snapshot dispatches {dispatches} vs {} events",
                        report.events
                    );
                }
                _ => match get("record").as_str() {
                    Some("arena") => {
                        let _ = get("type");
                        arenas += 1;
                    }
                    Some("event") => {
                        // phantom-trace/1 field layout, tagged as a record
                        let _ = get("t");
                        let _ = get("kind");
                        events += 1;
                    }
                    other => panic!("unexpected record on line {i}: {other:?}"),
                },
            }
        }
        assert!(arenas > 0, "dump lists the typed arenas");
        assert!(events > 0, "dump retains a ring of recent events");
    }

    #[test]
    fn every_algorithm_runs() {
        for alg in ["phantom-ni", "eprca", "aprc", "capc", "erica", "osu"] {
            let src = DUMBBELL.replace("phantom u=5", alg);
            let (_, _, report) = run_dsl(&src, &RunOptions::default());
            let total: f64 = report.session_rates_mbps.iter().sum();
            assert!(total > 60.0, "{alg} collapsed: {total:.1} Mb/s");
        }
    }

    const DUMBBELL_SCENE: &str = r#"{
        "schema": "phantom-scene/1",
        "id": "cli-scene-test",
        "describe": "two greedy sessions for the CLI scene runner",
        "algorithm": "phantom",
        "duration_ms": 400,
        "switches": ["s1", "s2"],
        "trunks": [{"a": "s1", "b": "s2", "mbps": 150, "prop_us": 10}],
        "sessions": [
            {"id": "g0", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}},
            {"id": "g1", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}}
        ],
        "bottleneck": 0,
        "analysis": {"n_sessions": 2}
    }"#;

    #[test]
    fn scene_run_reports_convergence_and_artifacts() {
        let scene = parse_scene(DUMBBELL_SCENE).unwrap();
        let dir = std::env::temp_dir().join(format!("phantom-cli-scene-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = RunOptions {
            trace: Some(dir.join("run.jsonl")),
            metrics: Some(dir.join("run.prom")),
            profile: Some(dir.join("run.profile.json")),
            status_file: Some(dir.join("run.status.json")),
            ..RunOptions::default()
        };
        let report = run_scene_opts(
            &scene,
            1996,
            Some(phantom_analyze::DEFAULT_WINDOW_SECS),
            &opts,
        )
        .unwrap();
        assert!(report.events > 100_000);
        let rendered = report.result.render(0);
        assert!(rendered.contains("cli-scene-test"), "{rendered}");
        // MACR fixed point 150/(1+2·5) Mb/s ≈ 13.64.
        let analysis = report.analysis.expect("analysis tap enabled");
        let err = analysis.metric("fixed_point_error_rel").unwrap();
        assert!(err < 0.05, "fixed-point error {err}");

        let trace = std::fs::read_to_string(dir.join("run.jsonl")).unwrap();
        let first = trace.lines().next().unwrap();
        assert!(first.contains("\"schema\":\"phantom-trace/1\""), "{first}");
        assert!(first.contains("\"scenario\":\"cli-scene-test\""), "{first}");
        assert!(trace.lines().count() > 1);
        let prom = std::fs::read_to_string(dir.join("run.prom")).unwrap();
        assert!(prom.starts_with("# manifest: {\"schema\":\"phantom-metrics/1\""));
        let profile = std::fs::read_to_string(dir.join("run.profile.json")).unwrap();
        assert!(profile.starts_with("{\n  \"schema\": \"phantom-profile/1\""));
        assert!(profile.contains("\"scenario\":\"cli-scene-test\""));
        assert!(profile.contains("\"calendar.pop\""));
        let status = std::fs::read_to_string(dir.join("run.status.json")).unwrap();
        assert!(
            status.starts_with("{\"schema\": \"phantom-status/1\""),
            "{status}"
        );
        assert!(status.contains("\"state\": \"done\""));
        assert!(status.contains("\"unit\": \"slices\""));
        let _ = std::fs::remove_dir_all(&dir);

        // Untraced rerun is identical: observability never changes the run.
        let plain = run_scene_opts(&scene, 1996, None, &RunOptions::default()).unwrap();
        assert_eq!(plain.events, report.events);
        assert_eq!(plain.result.render(0), rendered);
    }

    /// `--shards 2` with `--checkpoint-every` runs on a topology file and
    /// a scene file alike, checkpoints, and traces the same bytes as the
    /// run without shards or checkpoints.
    #[test]
    fn shards_with_checkpoints_run_on_both_paths() {
        let dir = std::env::temp_dir().join(format!("phantom-cli-shard-ck-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = |tag: &str, shards: usize, every: Option<f64>| RunOptions {
            shards,
            trace: Some(dir.join(format!("{tag}.jsonl"))),
            checkpoint_every: every.map(crate::CheckpointEvery::SimSecs),
            checkpoint_dir: every.map(|_| dir.join(format!("{tag}-ckpts"))),
            ..RunOptions::default()
        };
        let (dsl, dsl_seed) = crate::parse_str(
            "switch s1\nswitch s2\ntrunk s1 s2 150mbps 10us\n\
             session s1 s2 greedy\nsession s1 s2 greedy\nalgorithm phantom u=5\n\
             run 10ms seed=3\n",
        )
        .unwrap();
        run_scene_opts(&dsl, dsl_seed, None, &opts("dsl", 0, None)).unwrap();
        run_scene_opts(&dsl, dsl_seed, None, &opts("dsl-s2", 2, Some(0.002))).unwrap();
        let mut scene = parse_scene(DUMBBELL_SCENE).unwrap();
        scene.duration_ms = 20.0;
        run_scene_opts(&scene, 1996, None, &opts("scene", 0, None)).unwrap();
        run_scene_opts(&scene, 1996, None, &opts("scene-s2", 2, Some(0.005))).unwrap();
        for tag in ["dsl", "scene"] {
            let read = |t: &str| std::fs::read(dir.join(format!("{t}.jsonl"))).unwrap();
            assert_eq!(read(tag), read(&format!("{tag}-s2")), "{tag}: trace bytes");
            let ckpts = std::fs::read_dir(dir.join(format!("{tag}-s2-ckpts"))).unwrap();
            assert!(ckpts.count() >= 3, "{tag}: checkpoints written");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A cancel at `--shards 2` stops the run at an epoch barrier: the
    /// outcome says cancelled and the truncated trace lints.
    #[test]
    fn cancel_at_two_shards_stops_cleanly_and_the_trace_lints() {
        let dir = std::env::temp_dir().join(format!("phantom-cli-cancel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut scene = parse_scene(DUMBBELL_SCENE).unwrap();
        scene.duration_ms = 600_000.0; // far more than the test waits for
        let token = phantom_sim::CancelToken::new();
        let _guard = phantom_sim::CancelGuard::new(token.clone());
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(300));
            token.cancel();
        });
        let opts = RunOptions {
            shards: 2,
            trace: Some(dir.join("cancelled.jsonl")),
            ..RunOptions::default()
        };
        let outcome = run_scene_opts(&scene, 1996, None, &opts).unwrap();
        canceller.join().unwrap();
        assert!(outcome.engine.cancelled(), "the run reports the cancel");
        let text = std::fs::read_to_string(dir.join("cancelled.jsonl")).unwrap();
        let lines = phantom_analyze::lint_trace_str(&text).expect("truncated trace lints");
        assert!(lines > 0, "the run got under way before the cancel");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
