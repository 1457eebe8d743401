//! `repro` — regenerate the paper's figures and tables.
//!
//! ```text
//! repro list                 # show every experiment id + description
//! repro all [--seed N]       # run everything, print reports, write CSV
//! repro fig9 table1 [...]    # run selected experiments
//! repro churn --scenes DIR   # load phantom-scene/1 files as experiments
//! repro all --jobs 8         # fan independent runs across 8 threads
//! repro all --csv-dir DIR    # override the artifact directory
//! repro all --steps 60       # width of the ASCII charts (0 = no charts)
//! repro fig2 --trace-dir DIR # write a JSONL event trace per run
//! repro fig2 --trace-dir DIR --trace-filter macr,drop
//! repro fig2 --analyze       # live phantom-analysis/1 report per run
//! repro fig2 --analyze --check            # gate against committed baselines
//! repro fig2 --analyze --write-baselines  # refresh the committed baselines
//! repro all --bench --compare BENCH_phantom.json   # events/sec delta gate
//! repro --scenes DIR --shard-scaling metro-100k    # events/s at --shards 1/2/4
//! ```
//!
//! Artifacts land in `target/experiments/<id>.csv` (long format:
//! `series,t,value`) for plotting; the terminal output carries the same
//! series as coarse ASCII charts plus the summary metrics that
//! EXPERIMENTS.md records. Every invocation that runs experiments also
//! writes a machine-readable performance record (`BENCH_phantom.json` by
//! default; see `--bench-json`) with runs/sec, events/sec and per-run
//! wall time.
//!
//! Runs are pure functions of `(experiment, seed)`, so `--jobs N` changes
//! only wall-clock time: reports and CSVs are byte-identical to `--jobs 1`.

use phantom_analyze::{check_report, parse_baseline, render_baseline};
use phantom_bench::compare::{compare, parse_bench_json, EXIT_BENCH_REGRESSION};
use phantom_bench::{logger, DEFAULT_SEED};
use phantom_metrics::manifest::{BENCH_SCHEMA, CSV_SCHEMA};
use phantom_metrics::{BenchRecord, Manifest, RunRecord};
use phantom_scenarios::registry::{all_experiments, dynamic_experiments, suggest_id};
use phantom_scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions, SweepRun};
use phantom_scenarios::ExperimentOutput;
use phantom_scene::{load_scene_dir, register_scene, scale_scene, shard_scale_scene, Scene};
use phantom_sim::probe::KindSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    ids: Vec<String>,
    all: bool,
    scenes: Option<PathBuf>,
    seed: u64,
    seeds: u64,
    jobs: usize,
    csv_dir: PathBuf,
    bench_json: PathBuf,
    steps: usize,
    list: bool,
    gnuplot: bool,
    trace_dir: Option<PathBuf>,
    trace_filter: KindSet,
    analyze: bool,
    check: bool,
    write_baselines: bool,
    baseline_dir: PathBuf,
    window_secs: f64,
    compare: Option<PathBuf>,
    bench_threshold_pct: f64,
    scale: Option<String>,
    shards: usize,
    shard_scaling: Option<String>,
    profile_dir: Option<PathBuf>,
    status_file: Option<PathBuf>,
    heartbeat_secs: Option<f64>,
    post_mortem_dir: Option<PathBuf>,
    post_mortem_depth: Option<usize>,
    level: logger::Level,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        ids: Vec::new(),
        all: false,
        scenes: None,
        seed: DEFAULT_SEED,
        seeds: 1,
        jobs: 1,
        csv_dir: PathBuf::from("target/experiments"),
        bench_json: PathBuf::from("BENCH_phantom.json"),
        steps: 60,
        list: false,
        gnuplot: false,
        trace_dir: None,
        trace_filter: KindSet::ALL,
        analyze: false,
        check: false,
        write_baselines: false,
        baseline_dir: PathBuf::from("crates/baselines/analysis"),
        window_secs: phantom_analyze::DEFAULT_WINDOW_SECS,
        compare: None,
        bench_threshold_pct: 10.0,
        scale: None,
        shards: 0,
        shard_scaling: None,
        profile_dir: None,
        status_file: None,
        heartbeat_secs: None,
        post_mortem_dir: None,
        post_mortem_depth: None,
        level: logger::Level::Normal,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "list" => args.list = true,
            "all" => {
                args.all = true;
                args.ids
                    .extend(all_experiments().iter().map(|e| e.id.to_string()));
            }
            "--scenes" => {
                args.scenes = Some(PathBuf::from(it.next().ok_or("--scenes needs a value")?));
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                args.seed = v.parse().map_err(|_| format!("bad seed: {v}"))?;
            }
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                args.seeds = v.parse().map_err(|_| format!("bad seeds: {v}"))?;
                if args.seeds == 0 {
                    return Err("--seeds must be at least 1".into());
                }
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                args.jobs = v.parse().map_err(|_| format!("bad jobs: {v}"))?;
                if args.jobs == 0 {
                    return Err("--jobs must be at least 1".into());
                }
            }
            "--csv-dir" => {
                args.csv_dir = PathBuf::from(it.next().ok_or("--csv-dir needs a value")?);
            }
            "--bench-json" => {
                args.bench_json = PathBuf::from(it.next().ok_or("--bench-json needs a value")?);
            }
            // The bench record is always written; `--bench` is accepted so
            // the documented `repro all --bench --compare ...` invocation
            // reads naturally.
            "--bench" => {}
            "--compare" => {
                args.compare = Some(PathBuf::from(it.next().ok_or("--compare needs a value")?));
            }
            "--bench-threshold" => {
                let v = it.next().ok_or("--bench-threshold needs a value (%)")?;
                match v.parse::<f64>() {
                    Ok(pct) if pct >= 0.0 => args.bench_threshold_pct = pct,
                    _ => return Err(format!("bad threshold (%): {v}")),
                }
            }
            "--scale" => {
                args.scale = Some(it.next().ok_or("--scale needs a scene id")?);
            }
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value")?;
                args.shards = v.parse().map_err(|_| format!("bad shard count: {v}"))?;
            }
            "--shard-scaling" => {
                args.shard_scaling = Some(it.next().ok_or("--shard-scaling needs a scene id")?);
            }
            "--profile-dir" => {
                args.profile_dir = Some(PathBuf::from(
                    it.next().ok_or("--profile-dir needs a value")?,
                ));
            }
            "--status-file" => {
                args.status_file = Some(PathBuf::from(
                    it.next().ok_or("--status-file needs a value")?,
                ));
            }
            "--heartbeat" => {
                let v = it.next().ok_or("--heartbeat needs a value (secs)")?;
                match v.parse::<f64>() {
                    Ok(s) if s > 0.0 => args.heartbeat_secs = Some(s),
                    _ => return Err(format!("bad heartbeat (secs): {v}")),
                }
            }
            "--post-mortem" => {
                args.post_mortem_dir = Some(PathBuf::from(
                    it.next().ok_or("--post-mortem needs a directory")?,
                ));
            }
            "--post-mortem-depth" => {
                let v = it.next().ok_or("--post-mortem-depth needs a value")?;
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => args.post_mortem_depth = Some(n),
                    _ => return Err(format!("bad post-mortem depth: {v}")),
                }
            }
            "-v" | "--verbose" => args.level = logger::Level::Verbose,
            "-q" | "--quiet" => args.level = logger::Level::Quiet,
            "--gnuplot" => args.gnuplot = true,
            "--trace-dir" => {
                args.trace_dir = Some(PathBuf::from(it.next().ok_or("--trace-dir needs a value")?));
            }
            "--trace-filter" => {
                let v = it.next().ok_or("--trace-filter needs a value")?;
                args.trace_filter = KindSet::parse(&v)?;
            }
            "--steps" => {
                let v = it.next().ok_or("--steps needs a value")?;
                args.steps = v.parse().map_err(|_| format!("bad steps: {v}"))?;
            }
            "--analyze" => args.analyze = true,
            "--check" => {
                args.analyze = true;
                args.check = true;
            }
            "--write-baselines" => {
                args.analyze = true;
                args.write_baselines = true;
            }
            "--baseline-dir" => {
                args.baseline_dir = PathBuf::from(it.next().ok_or("--baseline-dir needs a value")?);
            }
            "--window" => {
                let v = it.next().ok_or("--window needs a value (ms)")?;
                match v.parse::<f64>() {
                    Ok(ms) if ms > 0.0 => args.window_secs = ms / 1e3,
                    _ => return Err(format!("bad window (ms): {v}")),
                }
            }
            id if !id.starts_with('-') => args.ids.push(id.to_string()),
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

/// Print one single-seed run the way the serial harness always has.
fn report_single(run: &SweepRun, args: &Args) -> bool {
    let Some(out) = &run.output else {
        let hint = suggest_id(&run.job.id)
            .map(|s| format!(" — did you mean `{s}`?"))
            .unwrap_or_default();
        logger::error(&format!(
            "unknown experiment '{}'{hint} (try `repro list`)",
            run.job.id
        ));
        return false;
    };
    print!("{}", out.render(args.steps));
    println!(
        "   [{} regenerated in {:.2}s, seed {}, {} events, {} drops, {} retx, peak queue {}]",
        run.job.id,
        run.wall_secs,
        run.job.seed,
        run.events,
        run.counters.drops,
        run.counters.retransmits,
        run.counters.queue_peak
    );
    let manifest = Manifest::new(CSV_SCHEMA, &run.job.id, run.job.seed, &run.job.id);
    if let Err(e) = out.write_csv_with_manifest(&args.csv_dir, &manifest.to_json()) {
        logger::warn(&format!("could not write CSV for {}: {e}", run.job.id));
    } else {
        println!("   [csv: {}/{}.csv]", args.csv_dir.display(), run.job.id);
    }
    if args.gnuplot {
        if let ExperimentOutput::Figure(r) = out {
            if let Err(e) = r.write_gnuplot(&args.csv_dir) {
                logger::warn(&format!("gnuplot script for {}: {e}", run.job.id));
            } else {
                println!("   [gp:  {}/{}.gp]", args.csv_dir.display(), run.job.id);
            }
        }
    }
    println!();
    true
}

/// Aggregate one experiment's multi-seed batch and print the metric table.
fn report_multi_seed(id: &str, runs: Vec<SweepRun>, args: &Args) -> bool {
    let wall: f64 = runs.iter().map(|r| r.wall_secs).sum();
    let mut figures = Vec::new();
    for run in runs {
        match run.output {
            Some(ExperimentOutput::Figure(r)) => figures.push(r),
            Some(ExperimentOutput::Table(_)) => {
                logger::note(&format!("{id} is a table; --seeds aggregates figures only"));
                break;
            }
            None => {
                let hint = suggest_id(id)
                    .map(|s| format!(" — did you mean `{s}`?"))
                    .unwrap_or_default();
                logger::error(&format!(
                    "unknown experiment '{id}'{hint} (try `repro list`)"
                ));
                return false;
            }
        }
    }
    if !figures.is_empty() {
        let t = phantom_metrics::aggregate_runs(
            &format!("{id}-x{}", args.seeds),
            &format!(
                "{id} across {} seeds ({}..{})",
                args.seeds,
                args.seed,
                args.seed + args.seeds - 1
            ),
            &figures,
        );
        print!("{}", t.render());
        println!("   [{} × {} seeds in {:.2}s]", id, figures.len(), wall);
        let manifest = Manifest::new(
            CSV_SCHEMA,
            &t.id,
            args.seed,
            &format!("{id};seeds={}", args.seeds),
        );
        if let Err(e) = t.write_csv_with_manifest(&args.csv_dir, Some(&manifest.to_json())) {
            logger::warn(&format!("could not write CSV: {e}"));
        }
        println!();
    }
    true
}

/// The loaded scenes `all` adds to the catalog: those that declare an
/// explicit topology, in load order. A generated scene runs only when
/// named by id or by `--scale`: one metro-class run outweighs the whole
/// catalog, and a sweep that picks it up silently no longer has the
/// catalog's 31 runs.
fn all_scene_ids(loaded: &[Scene]) -> impl Iterator<Item = &str> {
    loaded
        .iter()
        .filter(|s| s.generate.is_none())
        .map(|s| s.id.as_str())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            logger::error(&e);
            eprintln!(
                "usage: repro [list | all | <id>...] [--scenes DIR] [--seed N] [--seeds N] \
                 [--jobs N] [--csv-dir DIR] [--bench-json PATH] [--steps N] [--gnuplot] \
                 [--trace-dir DIR] [--trace-filter KINDS] \
                 [--analyze] [--check] [--write-baselines] [--baseline-dir DIR] [--window MS] \
                 [--bench] [--compare BASELINE.json] [--bench-threshold PCT] \
                 [--scale SCENE_ID] [--shards N] [--shard-scaling SCENE_ID] \
                 [--profile-dir DIR] [--status-file PATH] \
                 [--heartbeat SECS] [--post-mortem DIR] [--post-mortem-depth N] [-v|-q]"
            );
            return ExitCode::FAILURE;
        }
    };
    logger::set_level(args.level);

    // Load scene files first: they register as dynamic experiments, so
    // everything downstream — `list`, `all`, the sweep — sees them as
    // first-class ids (shadowing same-named built-ins). A copy is kept
    // for the `--scale` probe, which needs the scene value itself.
    let mut loaded_scenes = Vec::new();
    if let Some(dir) = &args.scenes {
        let scenes = match load_scene_dir(dir) {
            Ok(s) => s,
            Err(e) => {
                logger::error(&e);
                return ExitCode::FAILURE;
            }
        };
        for scene in scenes {
            loaded_scenes.push(scene.clone());
            register_scene(scene);
        }
    }
    let mut args = args;
    if args.all {
        for id in all_scene_ids(&loaded_scenes) {
            if !args.ids.iter().any(|i| i == id) {
                args.ids.push(id.to_string());
            }
        }
    }
    let args = args;

    if args.list || (args.ids.is_empty() && args.scale.is_none() && args.shard_scaling.is_none()) {
        println!("experiments (run with `repro all` or `repro <id>...`):");
        for e in all_experiments() {
            println!("  {:8} {}", e.id, e.describe);
        }
        let dynamic = dynamic_experiments();
        if !dynamic.is_empty() {
            println!();
            println!("scenes (loaded via --scenes, shadowing same-named built-ins):");
            for (id, describe) in dynamic {
                println!("  {id:8} {describe}");
            }
        }
        return ExitCode::SUCCESS;
    }

    // One job per (experiment, seed), id-major so each id's seeds are a
    // contiguous chunk of the (order-preserving) sweep result.
    let jobs: Vec<SweepJob> = args
        .ids
        .iter()
        .flat_map(|id| {
            (0..args.seeds).map(move |s| SweepJob {
                id: id.clone(),
                seed: args.seed + s,
            })
        })
        .collect();

    let opts = SweepOptions {
        trace_dir: args.trace_dir.clone(),
        trace_filter: args.trace_filter,
        analyze_window: args.analyze.then_some(args.window_secs),
        shards: args.shards,
        profile_dir: args.profile_dir.clone(),
        status_file: args.status_file.clone(),
        heartbeat_secs: args.heartbeat_secs,
        post_mortem_dir: args.post_mortem_dir.clone(),
        post_mortem_depth: args.post_mortem_depth,
    };
    logger::info(&format!(
        "dispatching {} run(s) on {} thread(s)",
        jobs.len(),
        args.jobs
    ));
    let batch_start = std::time::Instant::now();
    let runs = run_sweep_with(&jobs, args.jobs, &opts);
    let total_wall_secs = batch_start.elapsed().as_secs_f64();
    let schedule_past_total: u64 = runs.iter().map(|r| r.counters.schedule_past).sum();

    // The config that determines this batch byte-for-byte: which
    // experiments, the base seed, and how many seeds per experiment.
    let config = format!(
        "ids={};seed={};seeds={}",
        args.ids.join(","),
        args.seed,
        args.seeds
    );
    let mut bench = BenchRecord {
        manifest: Manifest::new(BENCH_SCHEMA, "repro", args.seed, &config),
        jobs: args.jobs,
        calendar: phantom_sim::CALENDAR.to_string(),
        total_wall_secs,
        runs: runs
            .iter()
            .filter(|r| r.output.is_some())
            .map(|r| RunRecord {
                id: r.job.id.clone(),
                seed: r.job.seed,
                wall_secs: r.wall_secs,
                events: r.events,
                drops: r.counters.drops,
                retransmits: r.counters.retransmits,
                queue_peak: r.counters.queue_peak,
            })
            .collect(),
        scale: None,
        shard_scaling: Vec::new(),
    };

    // Analysis artifacts and the baseline gate. Reports are written per
    // run; `--check` collects every violation before failing so CI logs
    // name all regressed metrics, not just the first.
    let mut check_failures: Vec<String> = Vec::new();
    if args.analyze {
        for run in &runs {
            let Some(report) = &run.analysis else {
                continue;
            };
            if let Err(e) = std::fs::create_dir_all(&args.csv_dir) {
                logger::warn(&format!("{}: {e}", args.csv_dir.display()));
            }
            let rpath = args
                .csv_dir
                .join(format!("{}-{}-analysis.json", run.job.id, run.job.seed));
            match std::fs::write(&rpath, report.to_json()) {
                Ok(()) => println!("   [analysis: {}]", rpath.display()),
                Err(e) => logger::warn(&format!("could not write {}: {e}", rpath.display())),
            }
            if args.write_baselines {
                if let Err(e) = std::fs::create_dir_all(&args.baseline_dir) {
                    logger::warn(&format!("{}: {e}", args.baseline_dir.display()));
                }
                let bpath = args.baseline_dir.join(format!("{}.json", run.job.id));
                match std::fs::write(&bpath, render_baseline(report, &run.job.id)) {
                    Ok(()) => println!("   [baseline written: {}]", bpath.display()),
                    Err(e) => logger::warn(&format!("could not write {}: {e}", bpath.display())),
                }
            }
            if args.check {
                let bpath = args.baseline_dir.join(format!("{}.json", run.job.id));
                match std::fs::read_to_string(&bpath) {
                    Ok(text) => match parse_baseline(&text) {
                        Ok(baseline) => {
                            let failures = check_report(report, &baseline);
                            if failures.is_empty() {
                                println!(
                                    "   [check: {} ok against {} ({} metrics)]",
                                    run.job.id,
                                    bpath.display(),
                                    baseline.entries.len()
                                );
                            }
                            check_failures.extend(failures);
                        }
                        Err(e) => check_failures.push(format!("{}: {e}", bpath.display())),
                    },
                    Err(_) => println!(
                        "   [check: no baseline for {} at {}, skipped]",
                        run.job.id,
                        bpath.display()
                    ),
                }
            }
        }
    }

    let mut failed = false;
    let mut it = runs.into_iter();
    for id in &args.ids {
        let id_runs: Vec<SweepRun> = it.by_ref().take(args.seeds as usize).collect();
        let ok = if args.seeds > 1 {
            report_multi_seed(id, id_runs, &args)
        } else {
            report_single(&id_runs[0], &args)
        };
        failed |= !ok;
    }

    // The scale probe runs serially after the sweep so its RSS delta is
    // not polluted by concurrent workers' allocations.
    if let Some(scene_id) = &args.scale {
        match loaded_scenes.iter().find(|s| s.id == *scene_id) {
            Some(scene) => {
                let (record, arenas) = scale_scene(scene, args.seed);
                println!(
                    "[scale: {} — {} sessions / {} nodes, {} events in {:.2}s ({:.0} events/s), {} drops, peak queue {}]",
                    record.scene,
                    record.sessions,
                    record.nodes,
                    record.events,
                    record.wall_secs,
                    record.events_per_sec(),
                    record.drops,
                    record.queue_peak
                );
                let mb = |b: u64| b as f64 / 1e6;
                let counted = record.arena_bytes + record.node_heap_bytes + record.calendar_bytes;
                let (rss, remainder) = match record.rss_delta_bytes {
                    Some(b) => (
                        format!("rss +{:.1} MB", mb(b)),
                        format!("{:.1} MB", mb(b) - mb(counted)),
                    ),
                    None => {
                        logger::warn(
                            "rss unreadable on this platform (/proc/self/status); \
                             per-session cost falls back to arena accounting",
                        );
                        ("rss n/a".to_string(), "n/a".to_string())
                    }
                };
                println!(
                    "[scale: {}: arenas {:.1} MB, node heap {:.1} MB, calendar {:.1} MB, remainder {} — {:.0} bytes/session, {:.0} sessions/GB]",
                    rss,
                    mb(record.arena_bytes),
                    mb(record.node_heap_bytes),
                    mb(record.calendar_bytes),
                    remainder,
                    record.bytes_per_session(),
                    record.sessions_per_gb()
                );
                for a in &arenas {
                    println!(
                        "   [arena {}: {} nodes, {:.1} MB, node heap {:.1} MB]",
                        a.type_name,
                        a.nodes,
                        a.bytes as f64 / 1e6,
                        a.heap_bytes as f64 / 1e6
                    );
                }
                bench.scale = Some(record);
            }
            None => {
                logger::error(&format!(
                    "--scale {scene_id}: no such scene (load its directory with --scenes)"
                ));
                failed = true;
            }
        }
    }

    // The shard-scaling probe: the same scene at --shards 1, 2 and 4,
    // serially so the points don't contend with each other. Advisory
    // numbers — speedup depends on the machine's core count — but the
    // event counts must agree exactly, which IS a hard check.
    if let Some(scene_id) = &args.shard_scaling {
        match loaded_scenes.iter().find(|s| s.id == *scene_id) {
            Some(scene) => {
                let mut base_events = None;
                for shards in [1usize, 2, 4] {
                    let p = shard_scale_scene(scene, args.seed, shards);
                    println!(
                        "[shard-scaling: {} at --shards {} — {} events in {:.2}s ({:.0} events/s)]",
                        p.scene,
                        p.shards,
                        p.events,
                        p.wall_secs,
                        p.events_per_sec()
                    );
                    match base_events {
                        None => base_events = Some(p.events),
                        Some(b) if b != p.events => {
                            logger::error(&format!(
                                "shard-scaling: event count diverged across shard counts \
                                 ({b} at --shards 1 vs {} at --shards {shards}) — \
                                 determinism violation",
                                p.events
                            ));
                            failed = true;
                        }
                        Some(_) => {}
                    }
                    bench.shard_scaling.push(p);
                }
            }
            None => {
                logger::error(&format!(
                    "--shard-scaling {scene_id}: no such scene (load its directory with --scenes)"
                ));
                failed = true;
            }
        }
    }

    if !bench.runs.is_empty() || bench.scale.is_some() || !bench.shard_scaling.is_empty() {
        match bench.write(&args.bench_json) {
            Ok(()) => println!(
                "[bench: {} — {} runs in {:.2}s on {} thread(s), {:.0} events/s]",
                args.bench_json.display(),
                bench.runs.len(),
                total_wall_secs,
                args.jobs,
                bench.events_per_sec()
            ),
            Err(e) => logger::warn(&format!(
                "could not write {}: {e}",
                args.bench_json.display()
            )),
        }
    }

    // A clamped past-time send is survivable but means a scenario is
    // scheduling incorrectly — surface it next to the bench numbers so a
    // "faster" run that cheated the calendar is never celebrated.
    if schedule_past_total > 0 {
        logger::warn(&format!(
            "{schedule_past_total} send(s) clamped from the past (schedule_past telemetry)"
        ));
    }

    let mut bench_regressed = false;
    if let Some(path) = &args.compare {
        match std::fs::read_to_string(path) {
            Ok(text) => match parse_bench_json(&text) {
                Ok(baseline) => {
                    let cmp = compare(&bench, &baseline);
                    let rendered = cmp.render(args.bench_threshold_pct);
                    print!("{rendered}");
                    if baseline.calendar != phantom_sim::CALENDAR {
                        println!(
                            "  [calendar changed: {} -> {}]",
                            baseline.calendar,
                            phantom_sim::CALENDAR
                        );
                    }
                    let artifact = args.csv_dir.join("bench-compare.txt");
                    if std::fs::create_dir_all(&args.csv_dir).is_ok() {
                        if let Err(e) = std::fs::write(&artifact, &rendered) {
                            logger::warn(&format!("could not write {}: {e}", artifact.display()));
                        } else {
                            println!("  [comparison: {}]", artifact.display());
                        }
                    }
                    if cmp.regressed(args.bench_threshold_pct) {
                        logger::error(&format!(
                            "aggregate events/sec regressed more than {}% vs {}",
                            args.bench_threshold_pct,
                            path.display()
                        ));
                        bench_regressed = true;
                    }
                }
                Err(e) => {
                    logger::error(&format!("could not parse {}: {e}", path.display()));
                    failed = true;
                }
            },
            Err(e) => {
                logger::error(&format!("could not read {}: {e}", path.display()));
                failed = true;
            }
        }
    }

    if !check_failures.is_empty() {
        for f in &check_failures {
            logger::error(&format!("check failed: {f}"));
        }
        logger::error(&format!(
            "{} metric(s) outside their baseline tolerance",
            check_failures.len()
        ));
        failed = true;
    }

    if failed {
        ExitCode::FAILURE
    } else if bench_regressed {
        ExitCode::from(EXIT_BENCH_REGRESSION)
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn all_adds_explicit_scenes_but_not_generated_ones() {
        let scenes = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenes");
        let metro = load_scene_dir(&scenes.join("metro")).unwrap();
        assert_eq!(metro.len(), 2);
        assert_eq!(
            all_scene_ids(&metro).count(),
            0,
            "metro scenes are generated"
        );
        let explicit = load_scene_dir(&scenes).unwrap();
        assert_eq!(
            all_scene_ids(&explicit).collect::<Vec<_>>(),
            ["capstep", "churn", "fig2", "fig4", "fig6", "linkflap"]
        );
    }
}
