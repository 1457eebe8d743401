//! `phantom` — simulate a topology or scene file.
//!
//! ```text
//! phantom run <file>        simulate and report (topology DSL or scene JSON)
//! phantom predict <file>    closed-form phantom fixed point (no simulation)
//! phantom check <file>      parse + validate only
//! phantom list              built-in experiments + committed scene files
//! phantom trace-lint <file.jsonl>   validate a trace artifact
//! phantom analyze <file.jsonl>      trace -> phantom-analysis/1 report
//! phantom profile <file.json>       render a phantom-profile/1 artifact
//! phantom status <file> [--watch]   pretty-print a phantom-status/1 file
//! ```
//!
//! A file whose first non-blank byte is `{` is treated as a
//! `phantom-scene/1` document (declarative topology + workload +
//! mid-run timeline); anything else is the line-oriented topology DSL,
//! which lowers to a scene. Every command takes either.

use phantom_analyze::{analyze_trace_str, lint_trace_str, AnalysisTargets, LintError};
use phantom_cli::parse::DEFAULT_SEED;
use phantom_cli::{
    collect_report, compare_algorithms, parse_str, predict, run_scene_opts, sweep_u, RunOptions,
};
use phantom_scenarios::registry::all_experiments;
use phantom_scenarios::shape::targets_for;
use phantom_scene::{check_error_json, check_ok_json, load_scene_dir, parse_scene, Json, Scene};
use phantom_sim::probe::KindSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Default `--server` for `phantom submit` / `phantom jobs`, matching
/// the default `phantom serve --listen`.
const DEFAULT_SERVER: &str = "127.0.0.1:8790";

/// `trace-lint` exit code for a structurally invalid trace.
const EXIT_INVALID: u8 = 1;
/// `trace-lint` exit code for a trace whose final line was cut short
/// (e.g. the producer died mid-write) — distinct so callers can retry.
const EXIT_TRUNCATED: u8 = 2;
/// `diverge` exit code when the traces differ (0 = identical, 1 =
/// operational error) — CI gates branch on it.
const EXIT_DIVERGED: u8 = 3;

fn usage() -> ExitCode {
    eprintln!("usage: phantom <run|predict|check> <topology-file|scene.json>");
    eprintln!("       phantom list [--scenes DIR]               # experiments + scene files");
    eprintln!("       phantom sweep <file> <u,u,...>            # e.g. sweep t.phantom 2,5,10");
    eprintln!("       phantom compare <file>                    # every algorithm, one table");
    eprintln!("       phantom trace-lint <file.jsonl>           # validate a trace artifact");
    eprintln!("                                                 # exit 1 invalid, 2 truncated");
    eprintln!("       phantom analyze <file.jsonl> [--window MS] [--out F.json]");
    eprintln!("                                                 # phantom-analysis/1 report");
    eprintln!("       phantom profile <file.json>               # render a phantom-profile/1");
    eprintln!("                                                 # artifact as a self-time table");
    eprintln!("       phantom status <file> [--watch]           # pretty-print a phantom-status/1");
    eprintln!("                                                 # file; --watch polls until done");
    eprintln!("       phantom resume <ckpt.jsonl> [--until MS]  # continue a checkpointed run;");
    eprintln!("                                                 # trace suffix is byte-identical");
    eprintln!("       resume ... [run's flags but --seed, --analyze]  # the checkpoint fixes");
    eprintln!(
        "                                                 # the seed; --metrics is whole-run"
    );
    eprintln!("       phantom diverge <a.jsonl> <b.jsonl> [--context N] [--out F]");
    eprintln!("                       [--checkpoints DIR]       # first divergent event + state");
    eprintln!("                                                 # diff; exit 0 same, 3 diverged");
    eprintln!("       phantom serve [--listen ADDR] [--workers N] [--queue N] [--spool DIR]");
    eprintln!("                                                 # phantom-as-a-service daemon;");
    eprintln!("                                                 # SIGTERM drains and exits 0");
    eprintln!("       phantom submit <scene.json> [--server H:P] [--seed N] [--storm N]");
    eprintln!("                                                 # POST a scene; --storm floods N");
    eprintln!("       phantom jobs [ID] [--server H:P] [--cancel] [--trace-out F] [--analysis]");
    eprintln!("                                                 # list/inspect/cancel server jobs");
    eprintln!(
        "       check <file> [--json]                     # machine-readable phantom-check/1"
    );
    eprintln!("       ... [--jobs N]                            # parallel sweep/compare runs");
    eprintln!("       ... [--seed N]                            # override the run seed");
    eprintln!("       run ... [--trace F.jsonl] [--trace-filter KINDS]  # JSONL event trace");
    eprintln!("       run ... [--metrics F.prom]                # metrics snapshot + F.prom.json");
    eprintln!("       run ... [-v]                              # progress heartbeat on stderr");
    eprintln!(
        "       run ... [--profile F.json]                # phantom-profile/1 engine profile"
    );
    eprintln!("       run ... [--status-file F.json]            # live phantom-status/1 heartbeat");
    eprintln!(
        "       run ... [--heartbeat SECS]                # sim-secs between -v/status beats"
    );
    eprintln!("       run ... [--post-mortem F.jsonl]           # panic flight-recorder dump");
    eprintln!("       run ... [--post-mortem-depth N]           # events kept in the dump ring");
    eprintln!("       run ... [--checkpoint-every S|Nev] [--checkpoint-dir DIR]");
    eprintln!("                                                 # periodic phantom-checkpoint/2");
    eprintln!("       run|resume ... [--shards N]               # intra-run PDES shards; output");
    eprintln!("                                                 # byte-identical at any N");
    eprintln!("       run ... [--analyze]                       # live phantom-analysis/1 report");
    eprintln!();
    eprintln!("scene file format: phantom-scene/1 JSON — see schemas/phantom-scene-v1.md");
    eprintln!();
    eprintln!("topology file format (lowers to a scene):");
    eprintln!("  switch <name>");
    eprintln!("  trunk <a> <b> <rate: 150mbps> <prop: 10us>");
    eprintln!("  session <sw>... <greedy|window|onoff|random> [start=|stop=|on=|off=|rtt=]");
    eprintln!("  cbr <sw>... <rate> [on=|off=|rtt=]        # unresponsive background");
    eprintln!("  priority cbr                              # strict-priority CBR queues");
    eprintln!("  algorithm <phantom|phantom-ni|eprca|aprc|capc|erica|osu|...> [u=5 for phantom]");
    eprintln!("  run <duration: 500ms> [seed=1996]");
    ExitCode::FAILURE
}

/// Remove `flag <value>` from `args`, returning the value if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    if i + 1 >= args.len() {
        return Err(format!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Ok(Some(v))
}

/// Remove a bare `flag` from `args`, returning whether it was present.
fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(i) = args.iter().position(|a| a == flag) {
        args.remove(i);
        true
    } else {
        false
    }
}

/// Read an input file as a scene and its seed: JSON when its first
/// non-blank byte is `{`, else a topology file, which names its own
/// seed and whose file stem names the scene. The flag is true for
/// topology files.
fn load_input(path: &str, input: &str) -> Result<(Scene, u64, bool), String> {
    if input.trim_start().starts_with('{') {
        return Ok((parse_scene(input)?, DEFAULT_SEED, false));
    }
    let (mut scene, seed) = parse_str(input).map_err(|e| e.to_string())?;
    if let Some(stem) = Path::new(path).file_stem().and_then(|s| s.to_str()) {
        let id_char = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
        scene.id = stem
            .chars()
            .map(|c| if id_char(c) { c } else { '_' })
            .collect();
    }
    Ok((scene, seed, true))
}

/// `phantom check`: one line (or a `phantom-check/1` document with
/// `--json`) summarizing the validated scene.
fn check(path: &str, scene: &Scene, json: bool) {
    if json {
        println!("{}", check_ok_json(path, scene));
    } else if let Some(generate) = &scene.generate {
        // Generated scenes declare no explicit lists; report the shape
        // the generator will expand to.
        println!(
            "{path}: ok (scene `{}`: generated, {} trunks, {} sessions, {} timeline events)",
            scene.id,
            generate.n_trunks(),
            generate.n_sessions(),
            scene.timeline.len()
        );
    } else {
        println!(
            "{path}: ok (scene `{}`: {} switches, {} trunks, {} sessions, {} timeline events)",
            scene.id,
            scene.switches.len(),
            scene.trunks.len(),
            scene.sessions.len(),
            scene.timeline.len()
        );
    }
}

/// `phantom list`: the built-in experiment registry, then any scene
/// files in `--scenes DIR` (default `scenes/`, skipped silently when
/// the default directory does not exist).
fn list(scenes_dir: Option<&str>) -> ExitCode {
    println!("built-in experiments (run with `repro <id>`):");
    for e in all_experiments() {
        println!("  {:8} {}", e.id, e.describe);
    }
    let (dir, explicit) = match scenes_dir {
        Some(d) => (PathBuf::from(d), true),
        None => (PathBuf::from("scenes"), false),
    };
    if !dir.is_dir() {
        if explicit {
            eprintln!("error: {}: not a directory", dir.display());
            return ExitCode::FAILURE;
        }
        return ExitCode::SUCCESS;
    }
    match load_scene_dir(&dir) {
        Ok(scenes) => {
            println!();
            println!(
                "scene files in {} (run with `phantom run <file>` or `repro <id> --scenes {}`):",
                dir.display(),
                dir.display()
            );
            for s in &scenes {
                println!("  {:8} {}", s.id, s.describe);
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Full validation of a JSONL trace: the manifest and every event line
/// must parse under the exact `phantom-trace/1` grammar. A trace with a
/// manifest and no events is valid (exit 0); a trace whose final line
/// was cut mid-record gets its own exit code so producers that died
/// mid-write are distinguishable from corrupt data.
fn trace_lint(path: &str) -> ExitCode {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::from(EXIT_INVALID);
        }
    };
    match lint_trace_str(&text) {
        Ok(events) => {
            println!("{path}: ok (manifest + {events} events)");
            ExitCode::SUCCESS
        }
        Err(LintError::Truncated { line, msg }) => {
            eprintln!("error: {path}:{line}: truncated: {msg}");
            ExitCode::from(EXIT_TRUNCATED)
        }
        Err(LintError::Invalid { msg, .. }) => {
            eprintln!("error: {path}: {msg}");
            ExitCode::from(EXIT_INVALID)
        }
    }
}

/// `phantom analyze`: stream a trace file into a `phantom-analysis/1`
/// report, using the per-figure expected-shape table when the trace's
/// manifest names a known scenario.
fn analyze(path: &str, window_secs: Option<f64>, out: Option<&str>) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let manifest = phantom_analyze::jsonl::parse_manifest_line(
        text.lines()
            .next()
            .ok_or_else(|| format!("{path}: empty file"))?,
    )
    .map_err(|e| format!("{path}: {e}"))?;
    let targets: AnalysisTargets = targets_for(&manifest.scenario);
    let window = window_secs.unwrap_or(phantom_analyze::DEFAULT_WINDOW_SECS);
    let report = analyze_trace_str(&text, targets, window).map_err(|e| format!("{path}: {e}"))?;
    let json = report.to_json();
    match out {
        Some(f) => std::fs::write(f, &json).map_err(|e| format!("cannot write {f}: {e}"))?,
        None => print!("{json}"),
    }
    Ok(())
}

/// Numeric field, `None` when absent or `null`.
fn num(obj: &Json, key: &str) -> Option<f64> {
    obj.get(key).and_then(Json::as_f64)
}

/// String field, `None` when absent.
fn text<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(Json::as_str)
}

/// `phantom profile`: re-read a `phantom-profile/1` document and render
/// it as sorted self-time tables.
fn show_profile(path: &str) -> Result<(), String> {
    let doc = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&doc).map_err(|e| format!("{path}: {e}"))?;
    if text(&doc, "schema") != Some("phantom-profile/1") {
        return Err(format!("{path}: not a phantom-profile/1 document"));
    }
    let manifest = doc.get("manifest").unwrap_or(&Json::Null);
    let calendar = doc.get("calendar").unwrap_or(&Json::Null);
    println!(
        "phantom-profile/1 — {} (seed {})",
        text(manifest, "scenario").unwrap_or("?"),
        num(manifest, "seed").unwrap_or(0.0) as u64
    );
    println!(
        "  loop wall {:.3}s of {:.3}s harness wall — {} events in {} dispatches \
         (batching {:.2}x), {:.0} events/s, {:.1}% attributed",
        num(&doc, "loop_wall_secs").unwrap_or(0.0),
        num(&doc, "wall_secs").unwrap_or(0.0),
        num(&doc, "events").unwrap_or(0.0) as u64,
        num(&doc, "dispatches").unwrap_or(0.0) as u64,
        num(&doc, "batching").unwrap_or(1.0),
        num(&doc, "events_per_sec").unwrap_or(0.0),
        num(&doc, "attributed_share").unwrap_or(0.0) * 100.0,
    );
    for sec in ["nodes", "kinds", "phases"] {
        // (name, events, self_secs, share)
        let mut list: Vec<_> = doc
            .get(sec)
            .and_then(Json::as_arr)
            .unwrap_or_default()
            .iter()
            .map(|row| {
                (
                    text(row, "name").unwrap_or("?"),
                    num(row, "events").unwrap_or(0.0) as u64,
                    num(row, "self_secs").unwrap_or(0.0),
                    num(row, "share").unwrap_or(0.0),
                )
            })
            .collect();
        if list.is_empty() {
            continue;
        }
        list.sort_by(|a, b| b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal));
        println!();
        println!(
            "  {:34} {:>12} {:>10} {:>7}",
            sec, "events", "self", "share"
        );
        for r in list {
            println!(
                "    {:32} {:>12} {:>9.3}s {:>6.1}%",
                r.0,
                r.1,
                r.2,
                r.3 * 100.0
            );
        }
    }
    if calendar.as_obj().is_some() {
        println!();
        println!(
            "  calendar: {} active inserts, {} wheel pushes, {} far pushes; \
             {} advances ({} promoted, {} sorted), occupancy mean {:.1} / max {}",
            num(calendar, "active_inserts").unwrap_or(0.0) as u64,
            num(calendar, "wheel_pushes").unwrap_or(0.0) as u64,
            num(calendar, "far_pushes").unwrap_or(0.0) as u64,
            num(calendar, "advances").unwrap_or(0.0) as u64,
            num(calendar, "promoted").unwrap_or(0.0) as u64,
            num(calendar, "sorted_entries").unwrap_or(0.0) as u64,
            num(calendar, "occupied_mean").unwrap_or(0.0),
            num(calendar, "occupied_max").unwrap_or(0.0) as u64,
        );
    }
    Ok(())
}

/// `phantom status`: pretty-print a `phantom-status/1` file as one
/// line; with `--watch`, poll about once a second until the writer
/// reports `done`. Reads are safe mid-run because the writer replaces
/// the file atomically. A watched file that disappears after we saw it
/// at least once means the run (or its harness) cleaned up — that is a
/// normal end of watch, not an error.
fn show_status(path: &str, watch: bool) -> Result<(), String> {
    let mut seen_once = false;
    loop {
        let doc = match std::fs::read_to_string(path) {
            Ok(d) => d,
            Err(e) if watch && seen_once && e.kind() == std::io::ErrorKind::NotFound => {
                println!("run ended: status file {path} removed");
                return Ok(());
            }
            Err(e) => return Err(format!("cannot read {path}: {e}")),
        };
        seen_once = true;
        let pairs = Json::parse(&doc).map_err(|e| format!("{path}: {e}"))?;
        if text(&pairs, "schema") != Some("phantom-status/1") {
            return Err(format!("{path}: not a phantom-status/1 document"));
        }
        let state = text(&pairs, "state").unwrap_or("?").to_string();
        let mut line = format!(
            "{} seed {}: {} {:.0}% ({}/{} {}) — {} events, {:.0}/s, wall {:.1}s",
            text(&pairs, "scenario").unwrap_or("?"),
            num(&pairs, "seed").unwrap_or(0.0) as u64,
            state,
            num(&pairs, "progress").unwrap_or(0.0) * 100.0,
            num(&pairs, "done").unwrap_or(0.0) as u64,
            num(&pairs, "total").unwrap_or(0.0) as u64,
            text(&pairs, "unit").unwrap_or("?"),
            num(&pairs, "events").unwrap_or(0.0) as u64,
            num(&pairs, "events_per_sec").unwrap_or(0.0),
            num(&pairs, "wall_secs").unwrap_or(0.0),
        );
        if let Some(eta) = num(&pairs, "eta_secs") {
            line.push_str(&format!(", eta {eta:.1}s"));
        }
        if let Some(rss) = num(&pairs, "rss_bytes") {
            line.push_str(&format!(", rss {:.0} MB", rss / 1e6));
        }
        if let (Some(sim), Some(end)) = (num(&pairs, "sim_secs"), num(&pairs, "sim_end_secs")) {
            line.push_str(&format!(", sim {sim:.2}/{end:.2}s"));
        }
        println!("{line}");
        if !watch || state == "done" {
            return Ok(());
        }
        std::thread::sleep(std::time::Duration::from_millis(1000));
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("list") {
        let scenes = match take_value(&mut args, "--scenes") {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        if args.len() != 1 {
            return usage();
        }
        return list(scenes.as_deref());
    }

    if args.first().map(String::as_str) == Some("trace-lint") {
        let [_, path] = args.as_slice() else {
            return usage();
        };
        return trace_lint(path);
    }

    if args.first().map(String::as_str) == Some("analyze") {
        let parsed = (|| -> Result<(Option<f64>, Option<String>), String> {
            let window = match take_value(&mut args, "--window")? {
                Some(v) => match v.parse::<f64>() {
                    Ok(ms) if ms > 0.0 => Some(ms / 1e3),
                    _ => return Err(format!("bad window (ms): {v}")),
                },
                None => None,
            };
            Ok((window, take_value(&mut args, "--out")?))
        })();
        let (window, out) = match parsed {
            Ok(p) => p,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        let [_, path] = args.as_slice() else {
            return usage();
        };
        return match analyze(path, window, out.as_deref()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.first().map(String::as_str) == Some("profile") {
        let [_, path] = args.as_slice() else {
            return usage();
        };
        return match show_profile(path) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.first().map(String::as_str) == Some("diverge") {
        let parsed = (|| -> Result<phantom_cli::DivergeOptions, String> {
            let mut opts = phantom_cli::DivergeOptions::default();
            if let Some(v) = take_value(&mut args, "--context")? {
                opts.context = v.parse().map_err(|_| format!("bad context: {v}"))?;
            }
            if let Some(v) = take_value(&mut args, "--checkpoints")? {
                opts.checkpoints = Some(PathBuf::from(v));
            }
            Ok(opts)
        })();
        let dopts = match parsed {
            Ok(o) => o,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        let out = match take_value(&mut args, "--out") {
            Ok(v) => v,
            Err(e) => {
                eprintln!("error: {e}");
                return usage();
            }
        };
        let [_, a, b] = args.as_slice() else {
            return usage();
        };
        return match phantom_cli::diverge(Path::new(a), Path::new(b), &dopts) {
            Ok((outcome, report)) => {
                match &out {
                    Some(f) => {
                        if let Err(e) = std::fs::write(f, &report) {
                            eprintln!("error: cannot write {f}: {e}");
                            return ExitCode::FAILURE;
                        }
                    }
                    None => print!("{report}"),
                }
                match outcome {
                    phantom_cli::DivergeOutcome::Identical { lines } => {
                        eprintln!("no divergence: {lines} lines identical");
                        ExitCode::SUCCESS
                    }
                    phantom_cli::DivergeOutcome::Diverged { line } => {
                        eprintln!("traces diverge at line {line}");
                        ExitCode::from(EXIT_DIVERGED)
                    }
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.first().map(String::as_str) == Some("status") {
        let watch = take_switch(&mut args, "--watch");
        let [_, path] = args.as_slice() else {
            return usage();
        };
        return match show_status(path, watch) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }

    if args.first().map(String::as_str) == Some("serve") {
        return serve_command(args);
    }
    if args.first().map(String::as_str) == Some("submit") {
        return submit_command(args);
    }
    if args.first().map(String::as_str) == Some("jobs") {
        return jobs_command(args);
    }

    let mut jobs = 1usize;
    let mut seed: Option<u64> = None;
    let mut until: Option<phantom_sim::SimTime> = None;
    let analyze = take_switch(&mut args, "--analyze");
    let json_check = take_switch(&mut args, "--json");
    let mut opts = RunOptions {
        verbose: take_switch(&mut args, "-v"),
        ..RunOptions::default()
    };
    let flags = (|| -> Result<(), String> {
        if let Some(v) = take_value(&mut args, "--jobs")? {
            jobs = match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("bad jobs: {v}")),
            };
        }
        if let Some(v) = take_value(&mut args, "--seed")? {
            seed = Some(v.parse::<u64>().map_err(|_| format!("bad seed: {v}"))?);
        }
        if let Some(v) = take_value(&mut args, "--trace")? {
            opts.trace = Some(PathBuf::from(v));
        }
        if let Some(v) = take_value(&mut args, "--trace-filter")? {
            opts.trace_filter = KindSet::parse(&v)?;
        }
        if let Some(v) = take_value(&mut args, "--metrics")? {
            opts.metrics = Some(PathBuf::from(v));
        }
        if let Some(v) = take_value(&mut args, "--profile")? {
            opts.profile = Some(PathBuf::from(v));
        }
        if let Some(v) = take_value(&mut args, "--status-file")? {
            opts.status_file = Some(PathBuf::from(v));
        }
        if let Some(v) = take_value(&mut args, "--post-mortem")? {
            opts.post_mortem = Some(PathBuf::from(v));
        }
        if let Some(v) = take_value(&mut args, "--post-mortem-depth")? {
            opts.post_mortem_depth = match v.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => return Err(format!("bad post-mortem depth: {v}")),
            };
        }
        if let Some(v) = take_value(&mut args, "--heartbeat")? {
            opts.heartbeat_secs = match v.parse::<f64>() {
                Ok(s) if s > 0.0 => Some(s),
                _ => return Err(format!("bad heartbeat (sim-secs): {v}")),
            };
        }
        if let Some(v) = take_value(&mut args, "--shards")? {
            opts.shards = v
                .parse::<usize>()
                .map_err(|_| format!("bad shard count: {v}"))?;
        }
        if let Some(v) = take_value(&mut args, "--checkpoint-every")? {
            opts.checkpoint_every = Some(phantom_cli::CheckpointEvery::parse(&v)?);
        }
        if let Some(v) = take_value(&mut args, "--checkpoint-dir")? {
            opts.checkpoint_dir = Some(PathBuf::from(v));
        }
        if let Some(v) = take_value(&mut args, "--until")? {
            until = match v.parse::<f64>() {
                Ok(ms) if ms >= 0.0 => Some(phantom_sim::SimTime((ms * 1e6).round() as u64)),
                _ => return Err(format!("bad until (ms): {v}")),
            };
        }
        Ok(())
    })();
    if let Err(e) = flags {
        eprintln!("error: {e}");
        return usage();
    }

    let (cmd, path, extra) = match args.as_slice() {
        [cmd, path] => (cmd.as_str(), path.as_str(), None),
        [cmd, path, extra] => (cmd.as_str(), path.as_str(), Some(extra.clone())),
        _ => return usage(),
    };
    // `resume` takes a checkpoint file, not an input file — and a
    // checkpoint also starts with `{`, so this must branch before the
    // scene-vs-topology sniff below.
    if cmd == "resume" {
        // Refused rather than dropped: the checkpoint fixes the seed, and
        // a resume has only the suffix trace to analyze.
        let refused = if seed.is_some() {
            Some("--seed does not apply to resume: the checkpoint carries its run's seed")
        } else if analyze {
            Some(
                "--analyze does not apply to resume: run `phantom analyze` on the \
                 stitched trace (the original prefix followed by the resumed suffix)",
            )
        } else {
            None
        };
        if let Some(e) = refused {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
        return match phantom_cli::resume(Path::new(path), until, &opts) {
            Ok(outcome) => {
                print!("{}", outcome.rendered);
                println!(
                    "   [resumed from {path}: {} events total, {} drops, peak queue {}]",
                    outcome.events, outcome.counters.drops, outcome.counters.queue_peak
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let input = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if json_check && cmd != "check" {
        eprintln!("error: --json applies to `phantom check`");
        return ExitCode::FAILURE;
    }
    let (scene, file_seed, topology_file) = match load_input(path, &input) {
        Ok(loaded) => loaded,
        Err(e) => {
            // `check --json` keeps the exact error text, wrapped in the
            // phantom-check/1 envelope (the same body the serve daemon
            // returns for a 400); stderr keeps the prose form either way.
            if json_check {
                println!("{}", check_error_json(path, &e));
            }
            eprintln!("error: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seed = seed.unwrap_or(file_seed);
    let outcome = match cmd {
        "check" => {
            check(path, &scene, json_check);
            Ok(())
        }
        "predict" => predict(&scene).map(|text| print!("{text}")),
        "compare" => {
            print!("{}", compare_algorithms(&scene, seed, jobs).render());
            Ok(())
        }
        "run" => {
            let window = analyze.then_some(phantom_analyze::DEFAULT_WINDOW_SECS);
            run_scene_opts(&scene, seed, window, &opts).map(|out| {
                // A topology file gets the per-session and per-trunk
                // report; a scene file its figure panels and metrics.
                if topology_file {
                    print!("{}", collect_report(&scene, &out).render(&scene, seed));
                } else {
                    print!("{}", out.result.render(60));
                    println!(
                        "   [scene {}, seed {}, {} events, {} drops, peak queue {}]",
                        scene.id, seed, out.events, out.counters.drops, out.counters.queue_peak
                    );
                }
                if let Some(a) = out.analysis {
                    print!("{}", a.to_json());
                }
            })
        }
        "sweep" => {
            let spec_list = extra.unwrap_or_else(|| "2,5,10".to_string());
            let us: Result<Vec<f64>, _> = spec_list
                .split(',')
                .map(|x| x.trim().parse::<f64>())
                .collect();
            match us {
                Ok(us) => sweep_u(&scene, seed, &us, jobs).map(|t| print!("{}", t.render())),
                Err(_) => Err(format!("bad u list: {spec_list}")),
            }
        }
        _ => return usage(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `phantom serve`: run the phantom-serve daemon in the foreground
/// until SIGTERM drains it (then exit 0).
fn serve_command(mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<phantom_serve::ServerConfig, String> {
        let mut cfg = phantom_serve::ServerConfig {
            listen: DEFAULT_SERVER.to_string(),
            ..phantom_serve::ServerConfig::default()
        };
        if let Some(v) = take_value(&mut args, "--listen")? {
            cfg.listen = v;
        }
        if let Some(v) = take_value(&mut args, "--workers")? {
            cfg.workers = match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("bad workers: {v}")),
            };
        }
        if let Some(v) = take_value(&mut args, "--queue")? {
            cfg.queue_cap = match v.parse::<usize>() {
                Ok(n) if n >= 1 => n,
                _ => return Err(format!("bad queue: {v}")),
            };
        }
        if let Some(v) = take_value(&mut args, "--spool")? {
            cfg.spool = Some(PathBuf::from(v));
        }
        if args.len() != 1 {
            return Err(format!("unexpected arguments: {}", args[1..].join(" ")));
        }
        Ok(cfg)
    })();
    let cfg = match parsed {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    match phantom_serve::serve(cfg, true) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `phantom submit`: POST a scene to a running daemon; `--storm N`
/// floods N copies through the bounded queue and reports what the
/// admission control did.
fn submit_command(mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<(String, Option<u64>, Option<usize>), String> {
        let server = take_value(&mut args, "--server")?.unwrap_or_else(|| DEFAULT_SERVER.into());
        let seed = match take_value(&mut args, "--seed")? {
            Some(v) => Some(v.parse::<u64>().map_err(|_| format!("bad seed: {v}"))?),
            None => None,
        };
        let storm = match take_value(&mut args, "--storm")? {
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => return Err(format!("bad storm count: {v}")),
            },
            None => None,
        };
        Ok((server, seed, storm))
    })();
    let (server, seed, storm) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let [_, path] = args.as_slice() else {
        return usage();
    };
    let scene_text = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(n) = storm {
        let seed0 = seed.unwrap_or(phantom_serve::DEFAULT_SEED);
        return match phantom_serve::client::storm(&server, &scene_text, n, seed0) {
            Ok(report) => {
                let done = report
                    .final_states
                    .iter()
                    .filter(|(_, s)| s == "done")
                    .count();
                println!(
                    "storm: {} submitted, {} admitted ({} retries after 429), {} done, \
                     {} dropped, {} server errors, peak queue depth {}",
                    n,
                    report.admitted.len(),
                    report.retries_429,
                    done,
                    report.dropped,
                    report.server_errors,
                    report.depth_samples.iter().copied().max().unwrap_or(0),
                );
                if report.dropped == 0 && report.server_errors == 0 {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match phantom_serve::client::submit(&server, &scene_text, seed) {
        Ok(resp) => {
            let body = String::from_utf8_lossy(&resp.body);
            if resp.status == 202 {
                println!("{}", body.trim_end());
                ExitCode::SUCCESS
            } else {
                eprintln!("error: server answered {}: {}", resp.status, body.trim());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `phantom jobs`: list jobs, or inspect/cancel one (`--cancel`,
/// `--trace-out F` to save the streamed trace, `--analysis` for the
/// report). Unknown ids surface the server's edit-distance hint.
fn jobs_command(mut args: Vec<String>) -> ExitCode {
    let parsed = (|| -> Result<(String, bool, Option<String>, bool), String> {
        let server = take_value(&mut args, "--server")?.unwrap_or_else(|| DEFAULT_SERVER.into());
        let cancel = take_switch(&mut args, "--cancel");
        let trace_out = take_value(&mut args, "--trace-out")?;
        let analysis = take_switch(&mut args, "--analysis");
        Ok((server, cancel, trace_out, analysis))
    })();
    let (server, cancel, trace_out, analysis) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let id = match args.as_slice() {
        [_] => None,
        [_, id] => Some(id.clone()),
        _ => return usage(),
    };
    let Some(id) = id else {
        if cancel || trace_out.is_some() || analysis {
            eprintln!("error: --cancel/--trace-out/--analysis need a job id");
            return ExitCode::FAILURE;
        }
        return match phantom_serve::client::list(&server) {
            Ok(resp) if resp.status == 200 => {
                println!("{}", String::from_utf8_lossy(&resp.body).trim_end());
                ExitCode::SUCCESS
            }
            Ok(resp) => {
                eprintln!(
                    "error: server answered {}: {}",
                    resp.status,
                    String::from_utf8_lossy(&resp.body).trim()
                );
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    };
    let outcome = (|| -> Result<(), String> {
        if cancel {
            let resp = phantom_serve::client::cancel(&server, &id)?;
            let body = String::from_utf8_lossy(&resp.body).trim_end().to_string();
            if resp.status != 200 {
                return Err(format!("server answered {}: {}", resp.status, body));
            }
            println!("{body}");
        }
        if let Some(out) = &trace_out {
            let bytes = phantom_serve::client::fetch_trace(&server, &id)?;
            std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
            eprintln!("wrote {} trace bytes to {out}", bytes.len());
        }
        if analysis {
            let resp = phantom_serve::client::fetch_analysis(&server, &id)?;
            let body = String::from_utf8_lossy(&resp.body).trim_end().to_string();
            if resp.status != 200 {
                return Err(format!("server answered {}: {}", resp.status, body));
            }
            println!("{body}");
        }
        if !cancel && trace_out.is_none() && !analysis {
            let resp = phantom_serve::client::job_record(&server, &id)?;
            let body = String::from_utf8_lossy(&resp.body).trim_end().to_string();
            if resp.status != 200 {
                return Err(format!("server answered {}: {}", resp.status, body));
            }
            println!("{body}");
        }
        Ok(())
    })();
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
