//! Execute a parsed topology: simulate it, or compute the closed-form
//! phantom prediction.

use crate::spec::{AlgorithmSpec, TopologySpec, TrafficSpec};
use phantom_analyze::AnalysisTargets;
use phantom_atm::allocator::RateAllocator;
use phantom_atm::network::{NetworkBuilder, SessionId, TrunkIdx};
use phantom_atm::units::cps_to_mbps;
use phantom_atm::Traffic;
use phantom_baselines::{Aprc, Capc, Eprca, Erica, Osu};
use phantom_core::{PhantomAllocator, PhantomConfig, PhantomNi};
use phantom_metrics::fairness::Session;
use phantom_metrics::manifest::{Manifest, METRICS_SCHEMA, PROFILE_SCHEMA};
use phantom_metrics::{jain_index, phantom_prediction, ProfileRecord, Registry, RunStatus, Table};
use phantom_scenarios::probes::{ensure_parent, ProbeSpec, ProbeStack};
use phantom_sim::flight;
use phantom_sim::probe::KindSet;
use phantom_sim::telemetry::{self, RunCounters};
use phantom_sim::{profile, Engine, SimDuration, SimTime};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Results of one simulated run.
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

/// Observability options for [`run_spec_opts`]. The defaults reproduce
/// the plain [`run_spec`] behaviour: no trace, no metrics, quiet.
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
    /// [`RunOptions::checkpoint_dir`] and [`RunOptions::checkpoint_source`].
    pub checkpoint_every: Option<CheckpointEvery>,
    /// Directory receiving periodic checkpoints, named
    /// `ckpt-<now_ns>-<events>.jsonl` (zero-padded, so lexical order is
    /// simulation order).
    pub checkpoint_dir: Option<PathBuf>,
    /// The original input text (scene JSON or topology DSL) embedded in
    /// each checkpoint so `phantom resume` can rebuild the topology.
    /// Must be non-empty when checkpointing is requested.
    pub checkpoint_source: String,
    /// Scenario name recorded in artifact manifests (e.g. the topology
    /// file path); empty means `"cli"`.
    pub scenario: String,
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
    /// Terminal rendering.
    pub fn render(&self, spec: &TopologySpec) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "simulated {} under {:?} (seed {}) — {} events",
            spec.duration, spec.algorithm, spec.seed, self.events
        );
        for (i, r) in self.session_rates_mbps.iter().enumerate() {
            let path = spec.sessions[i].path.join("→");
            let _ = writeln!(out, "  session {i} [{path}]: {r:8.2} Mb/s");
        }
        let _ = writeln!(out, "  jain index: {:.4}", self.jain);
        let _ = writeln!(
            out,
            "  telemetry: {} drops, peak queue {} cells",
            self.counters.drops, self.counters.queue_peak
        );
        for (i, t) in spec.trunks.iter().enumerate() {
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

fn allocator_for(alg: AlgorithmSpec) -> Box<dyn RateAllocator> {
    match alg {
        AlgorithmSpec::Phantom { u } => Box::new(PhantomAllocator::new(
            PhantomConfig::paper().with_utilization_factor(u),
        )),
        AlgorithmSpec::PhantomNi => Box::new(PhantomNi::paper()),
        AlgorithmSpec::Eprca => Box::new(Eprca::recommended()),
        AlgorithmSpec::Aprc => Box::new(Aprc::recommended()),
        AlgorithmSpec::Capc => Box::new(Capc::recommended()),
        AlgorithmSpec::Erica => Box::new(Erica::recommended()),
        AlgorithmSpec::Osu => Box::new(Osu::recommended()),
    }
}

fn traffic_for(t: TrafficSpec) -> Traffic {
    match t {
        TrafficSpec::Greedy => Traffic::greedy(),
        TrafficSpec::Window { start, stop } => Traffic::window(start, stop),
        TrafficSpec::OnOff { start, on, off } => Traffic::on_off(start, on, off),
        TrafficSpec::Random { mean_on, mean_off } => Traffic::random(mean_on, mean_off),
    }
}

/// Simulate the topology and collect the report.
pub fn run_spec(spec: &TopologySpec) -> Result<RunReport, String> {
    run_spec_opts(spec, &RunOptions::default())
}

/// Write the `phantom-profile/1` artifact for a finished profile
/// bracket. A CLI user asked for this file explicitly, so failures are
/// hard errors (unlike the sweep harness, which degrades silently).
pub(crate) fn write_profile(
    path: &Path,
    manifest: &Manifest,
    wall_secs: f64,
    report: phantom_sim::ProfileReport,
) -> Result<(), String> {
    let record = ProfileRecord {
        manifest: manifest.for_schema(PROFILE_SCHEMA),
        wall_secs,
        report,
    };
    record
        .write(path)
        .map_err(|e| format!("cannot write profile {}: {e}", path.display()))
}

/// Write the Prometheus-style snapshot to `path` and the JSON summary
/// to `path` with `.json` appended.
pub(crate) fn write_metrics(
    path: &Path,
    registry: &Registry,
    manifest: &Manifest,
) -> Result<(), String> {
    ensure_parent(path)?;
    std::fs::write(path, registry.to_prometheus(manifest))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    let mut json_os = path.as_os_str().to_os_string();
    json_os.push(".json");
    let json_path = PathBuf::from(json_os);
    std::fs::write(&json_path, registry.to_json(manifest))
        .map_err(|e| format!("cannot write {}: {e}", json_path.display()))?;
    Ok(())
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

/// Build the simulated network for a validated topology spec: a fresh
/// engine seeded from the spec and the wired [`Network`] handle. Shared
/// by [`run_spec_opts`] and `phantom resume`, which must reconstruct the
/// topology identically before restoring checkpointed dynamics into it.
pub(crate) fn build_topology(
    spec: &TopologySpec,
) -> (Engine<phantom_atm::AtmMsg>, phantom_atm::network::Network) {
    let mut b = NetworkBuilder::new().cbr_priority(spec.cbr_priority);
    let switches: Vec<_> = spec.switches.iter().map(|n| b.switch(n)).collect();
    for t in &spec.trunks {
        b.trunk(
            switches[spec.switch_index(&t.a)],
            switches[spec.switch_index(&t.b)],
            t.mbps,
            t.prop,
        );
        if t.loss > 0.0 {
            b.last_trunk_loss(t.loss);
        }
    }
    for s in &spec.sessions {
        let path: Vec<_> = s
            .path
            .iter()
            .map(|n| switches[spec.switch_index(n)])
            .collect();
        match s.cbr_mbps {
            Some(mbps) => {
                b.cbr_session(&path, mbps, traffic_for(s.traffic));
            }
            None => {
                b.session(&path, traffic_for(s.traffic));
            }
        }
        b.last_session_access_prop(s.access_prop);
    }
    let mut engine = Engine::new(spec.seed);
    let alg = spec.algorithm;
    let net = b.build(&mut engine, &mut || allocator_for(alg));
    (engine, net)
}

/// Collect the tail-window report of a finished topology run. Shared by
/// [`run_spec_opts`] and `phantom resume`, so a resumed run renders the
/// byte-identical report of its uninterrupted twin.
pub(crate) fn collect_report(
    spec: &TopologySpec,
    engine: &Engine<phantom_atm::AtmMsg>,
    net: &phantom_atm::network::Network,
    counters: RunCounters,
) -> RunReport {
    let tail = spec.duration.as_secs_f64() / 2.0;
    let session_rates_mbps: Vec<f64> = (0..spec.sessions.len())
        .map(|i| cps_to_mbps(net.session_rate(engine, SessionId(i)).mean_after(tail)))
        .collect();
    let mut trunk_macr_mbps = Vec::new();
    let mut trunk_utilization = Vec::new();
    let mut trunk_mean_queue = Vec::new();
    let mut trunk_peak_queue = Vec::new();
    for i in 0..spec.trunks.len() {
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
        counters,
    }
}

/// [`run_spec`] with observability: optional JSONL trace, optional
/// metrics snapshot, optional progress heartbeat and status file,
/// optional engine profile, optional panic flight recorder, optional
/// periodic checkpoints. None of them changes the simulation — a run
/// with every option on produces the same report as a bare [`run_spec`].
pub fn run_spec_opts(spec: &TopologySpec, opts: &RunOptions) -> Result<RunReport, String> {
    spec.validate()?;
    // Scoped to this run; restored on drop, panics included.
    let _shard_guard = phantom_sim::ShardGuard::new(opts.shards);
    let wall_start = std::time::Instant::now();
    let (mut engine, net) = build_topology(spec);

    // One manifest describes the run; each artifact re-stamps it with
    // its own schema id. The config hash covers the whole parsed spec.
    let scenario = if opts.scenario.is_empty() {
        "cli"
    } else {
        opts.scenario.as_str()
    };
    let manifest = Manifest::new(METRICS_SCHEMA, scenario, spec.seed, &format!("{spec:?}"));

    let registry = opts.metrics.as_ref().map(|_| {
        let r = Registry::new();
        net.bind_metrics(&mut engine, &r);
        r
    });
    let probes = ProbeStack::install(&manifest, &opts.probe_spec(None))?;
    let marker = telemetry::begin_run();
    let prof = opts.profile.as_ref().map(|_| profile::begin_profile());

    let end = SimTime::ZERO + spec.duration;
    let mut ckpt = crate::checkpoint::CkptDriver::from_opts(
        opts,
        &manifest,
        crate::checkpoint::KIND_TOPOLOGY,
        end,
        &marker,
    )?;
    if opts.verbose || opts.status_file.is_some() || ckpt.is_some() {
        run_driver(&mut engine, end, opts, scenario, spec.seed, ckpt.as_mut())?;
    } else {
        engine.run_until(end);
    }
    drop(ckpt);
    let report = prof.map(profile::ProfileMarker::finish);
    let counters = marker.finish();
    probes.finish();

    if let (Some(path), Some(reg)) = (&opts.metrics, &registry) {
        write_metrics(path, reg, &manifest)?;
    }
    if let (Some(path), Some(report)) = (&opts.profile, report) {
        write_profile(path, &manifest, wall_start.elapsed().as_secs_f64(), report)?;
    }

    Ok(collect_report(spec, &engine, &net, counters))
}

/// Closed-form phantom prediction for the topology (ignores traffic
/// windows — every session is treated as greedy — and non-Phantom
/// algorithm lines; the CLI warns accordingly).
pub fn predict(spec: &TopologySpec) -> Result<String, String> {
    spec.validate()?;
    let u = match spec.algorithm {
        AlgorithmSpec::Phantom { u } => u,
        _ => 5.0,
    };
    let caps: Vec<f64> = spec
        .trunks
        .iter()
        .map(|t| phantom_atm::units::mbps_to_cps(t.mbps))
        .collect();
    let trunk_of = |a: &str, b: &str| -> usize {
        spec.trunks
            .iter()
            .position(|t| (t.a == a && t.b == b) || (t.a == b && t.b == a))
            .expect("validated connectivity")
    };
    let sessions: Vec<Session> = spec
        .sessions
        .iter()
        .map(|s| {
            let links = s.path.windows(2).map(|w| trunk_of(&w[0], &w[1])).collect();
            Session::on(links)
        })
        .collect();
    let (rates, macrs) = phantom_prediction(&caps, &sessions, u);
    let mut out = String::new();
    let _ = writeln!(out, "phantom fixed point (u = {u}, all sessions greedy):");
    for (i, r) in rates.iter().enumerate() {
        let path = spec.sessions[i].path.join("→");
        let _ = writeln!(out, "  session {i} [{path}]: {:8.2} Mb/s", cps_to_mbps(*r));
    }
    for (i, m) in macrs.iter().enumerate() {
        let t = &spec.trunks[i];
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

/// Run many independent topology specs, fanning across up to `jobs`
/// worker threads (plain `std::thread::scope`, no pool dependency).
/// Each run is a pure function of its spec — including the seed — so the
/// results, returned in input order, are identical to a serial run.
fn run_specs(specs: &[TopologySpec], jobs: usize) -> Result<Vec<RunReport>, String> {
    let workers = jobs.max(1).min(specs.len());
    if workers <= 1 {
        return specs.iter().map(run_spec).collect();
    }
    use std::sync::atomic::{AtomicUsize, Ordering};
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, Result<RunReport, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        local.push((i, run_spec(spec)));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("run_specs worker panicked"))
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

/// Run the topology under every implemented algorithm and tabulate the
/// headline quantities. `jobs` bounds the worker threads; the table is
/// the same at any parallelism.
pub fn compare_algorithms(spec: &TopologySpec, jobs: usize) -> Result<Table, String> {
    spec.validate()?;
    let algorithms = [
        (AlgorithmSpec::Phantom { u: 5.0 }, "phantom"),
        (AlgorithmSpec::PhantomNi, "phantom-ni"),
        (AlgorithmSpec::Eprca, "eprca"),
        (AlgorithmSpec::Aprc, "aprc"),
        (AlgorithmSpec::Capc, "capc"),
        (AlgorithmSpec::Osu, "osu"),
        (AlgorithmSpec::Erica, "erica"),
    ];
    let specs: Vec<TopologySpec> = algorithms
        .iter()
        .map(|(alg, _)| {
            let mut s2 = spec.clone();
            s2.algorithm = *alg;
            s2
        })
        .collect();
    let reports = run_specs(&specs, jobs)?;
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
    for ((_, label), report) in algorithms.iter().zip(&reports) {
        t.add_row(label, summary_row(report));
    }
    Ok(t)
}

/// Sweep the Phantom utilization factor over the topology: one row per
/// `u`, columns for total throughput, fairness, utilization and queueing.
/// `jobs` bounds the worker threads; the table is the same at any
/// parallelism.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
pub fn sweep_u(spec: &TopologySpec, us: &[f64], jobs: usize) -> Result<Table, String> {
    spec.validate()?;
    for &u in us {
        if !(u > 0.0) {
            return Err(format!("u must be positive, got {u}"));
        }
    }
    let specs: Vec<TopologySpec> = us
        .iter()
        .map(|&u| {
            let mut s2 = spec.clone();
            s2.algorithm = AlgorithmSpec::Phantom { u };
            s2
        })
        .collect();
    let reports = run_specs(&specs, jobs)?;
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

    #[test]
    fn run_matches_prediction_on_the_dumbbell() {
        let spec = parse_str(DUMBBELL).unwrap();
        let report = run_spec(&spec).unwrap();
        assert_eq!(report.session_rates_mbps.len(), 2);
        // fixed point: 68.18 Mb/s per session, MACR 13.64
        for r in &report.session_rates_mbps {
            assert!((r - 68.18).abs() < 5.0, "rate {r}");
        }
        assert!((report.trunk_macr_mbps[0] - 13.64).abs() < 1.5);
        assert!(report.jain > 0.99);
        assert!(report.events > 100_000);
        let rendered = report.render(&spec);
        assert!(rendered.contains("session 0"));
        assert!(rendered.contains("trunk s1–s2"));
    }

    #[test]
    fn predict_without_simulation() {
        let spec = parse_str(DUMBBELL).unwrap();
        let text = predict(&spec).unwrap();
        assert!(text.contains("68.18"));
        assert!(text.contains("13.64"));
    }

    #[test]
    fn sweep_u_shows_the_utilization_dial() {
        let spec = parse_str(DUMBBELL).unwrap();
        let t = sweep_u(&spec, &[2.0, 5.0, 20.0], 1).unwrap();
        let u2 = t.cell("2", "bottleneck_util").unwrap();
        let u20 = t.cell("20", "bottleneck_util").unwrap();
        assert!(u20 > u2, "higher u buys utilization: {u2:.3} vs {u20:.3}");
        assert!((u2 - 0.80).abs() < 0.05, "u=2 with n=2 targets 4/5");
        assert!(t.cell("5", "jain").unwrap() > 0.99);
        assert!(sweep_u(&spec, &[0.0], 1).is_err());
    }

    #[test]
    fn parallel_sweep_matches_serial_byte_for_byte() {
        let spec = parse_str(DUMBBELL).unwrap();
        let serial = sweep_u(&spec, &[2.0, 5.0], 1).unwrap();
        let parallel = sweep_u(&spec, &[2.0, 5.0], 4).unwrap();
        assert_eq!(serial.render(), parallel.render());
    }

    /// Run with every observability option on and validate each artifact
    /// against the committed schema docs in `schemas/`.
    #[test]
    fn observability_artifacts_validate_against_committed_schemas() {
        let dir = std::env::temp_dir().join("phantom_cli_obs_test");
        let _ = std::fs::remove_dir_all(&dir);
        let spec = parse_str(DUMBBELL).unwrap();
        let opts = RunOptions {
            trace: Some(dir.join("run.jsonl")),
            metrics: Some(dir.join("run.prom")),
            profile: Some(dir.join("run.profile.json")),
            status_file: Some(dir.join("run.status.json")),
            post_mortem: Some(dir.join("run.pm.jsonl")),
            scenario: "dumbbell".into(),
            ..Default::default()
        };
        let traced = run_spec_opts(&spec, &opts).unwrap();
        let plain = run_spec(&spec).unwrap();
        assert_eq!(
            plain.render(&spec),
            traced.render(&spec),
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

        let schemas = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../schemas");
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
        let spec = parse_str(DUMBBELL).unwrap();
        let manifest = Manifest::new(POSTMORTEM_SCHEMA, "dumbbell", spec.seed, "cfg");
        // Arm outside run_spec_opts so the recorder survives the run and
        // `dump_now` can render what a panic hook would have written.
        let _g = flight::arm(&dir.join("pm.jsonl"), Some(&manifest.to_json()), 32);
        let _probe = ProbeGuard::install(Box::new(FlightProbe));
        let report = run_spec_opts(&spec, &RunOptions::default()).unwrap();
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
            let spec = parse_str(&src).unwrap();
            let report = run_spec(&spec).unwrap();
            let total: f64 = report.session_rates_mbps.iter().sum();
            assert!(total > 60.0, "{alg} collapsed: {total:.1} Mb/s");
        }
    }
}
