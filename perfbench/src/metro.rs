//! The `metro` workload: `scenes/metro/metro-100k.json` (100,000
//! sessions, 200,052 nodes), serially and untraced, to its 200 ms
//! horizon.
//!
//! Set-up is parse, generate and compile. The run is the one operation:
//! its latency is the run's host time and its throughput runs per
//! second. It is driven in 1 ms `run_until` slices so the traced run can
//! sample the calendar depth between them. The counts must equal the
//! committed `scale`
//! record of `BENCH_phantom.json`; they do not depend on the engine
//! seed. The horizon is fixed, so a run takes longer than `--seconds`.

use crate::host;
use crate::layers::{self, timed, SceneRun};
use crate::spans::Tracer;
use crate::stats::median;
use crate::{Args, Outcome};
use phantom_metrics::json::json_f64;
use phantom_scene::{compile, parse_scene, Json};

/// One slice per simulated millisecond of the 200 ms horizon.
const SLICES: u64 = 200;
/// Set-up takes: the one before the run, then two after it.
const SETUP_TAKES: usize = 3;
/// The traced run profiles 20 ms in the middle of the horizon, after
/// every session has started: the whole horizon under the profiler
/// takes over 100 s.
const PROFILE_FROM: u64 = 100;
/// Last profiled slice.
const PROFILE_TO: u64 = 120;

/// The run's counts against the committed `scale` record.
fn check_scale_record(args: &Args, run: &SceneRun, out: &mut Outcome) -> Result<(), String> {
    let path = args.root.join("BENCH_phantom.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let scale = doc
        .get("scale")
        .ok_or("BENCH_phantom.json has no scale record")?;
    let events: u64 = run.log.events.iter().sum();
    for (key, got) in [
        ("events", events),
        ("drops", run.counters.drops),
        ("queue_peak", run.counters.queue_peak),
        ("sessions", run.sessions),
        ("nodes", run.nodes),
    ] {
        let want = scale.get(key).and_then(Json::as_f64).map(|v| v as u64);
        if want != Some(got) {
            out.fail(format!(
                "metro-100k {key} = {got}, committed scale record {want:?}"
            ));
        }
    }
    Ok(())
}

/// Run the workload.
pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let path = args.root.join("scenes/metro/metro-100k.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let run = layers::run_scene(&text, args.seed, SLICES, tr, "metro-100k")?;
    out.attempted += 1;
    check_scale_record(args, &run, &mut out)?;
    let bytes_per_session = run.rss_delta as f64 / run.sessions as f64;
    out.detail("bytes_per_session", json_f64(bytes_per_session));

    if !args.trace {
        let wall: f64 = run.log.secs.iter().sum();
        let mut takes = vec![run.parse_s + run.compile_s];
        drop(run);
        for _ in 1..SETUP_TAKES {
            let (c, secs) = timed(|| parse_scene(&text).map(|s| compile(&s, args.seed)));
            drop(c?);
            takes.push(secs);
        }
        let m = &mut out.metrics;
        m.put("setup_s", median(&takes));
        m.put("wall_s", wall);
        m.put("peak_rss_mb", layers::mib(host::peak_rss_bytes("self")));
        m.put("jobs_per_s", 1.0 / wall);
        m.put("latency_p50_ms", wall * 1e3);
        m.put("latency_p90_ms", wall * 1e3);
        out.detail("latency_samples", "1".into());
        out.detail("setup_takes", SETUP_TAKES.to_string());
        return Ok(out);
    }

    layers::scene_metrics(&run, &mut out.metrics);
    let m = &mut out.metrics;
    m.put("sim.drops", run.counters.drops as f64);
    m.put("sim.retransmits", run.counters.retransmits as f64);
    m.put("sim.queue_peak", run.counters.queue_peak as f64);
    let scene = run.scene;
    let (report, log) = layers::profile_slices(
        &scene,
        args.seed,
        SLICES,
        PROFILE_FROM,
        PROFILE_TO,
        tr,
        "metro-100k",
    );
    let to = PROFILE_TO as usize;
    if log.events[..to] != run.log.events[..to] {
        out.fail(
            "metro-100k: the profiled run's per-slice event counts differ from the untraced run"
                .into(),
        );
    }
    let window = PROFILE_FROM as usize..to;
    let profiled_s: f64 = log.secs[window.clone()].iter().sum();
    let untraced_s: f64 = run.log.secs[window].iter().sum();
    let m = &mut out.metrics;
    layers::profile_metrics(&report, m);
    m.put("bench.trace_overhead_frac", profiled_s / untraced_s - 1.0);
    m.put("core.macr_update_ns", layers::macr_update_ns(args.seed, tr));
    out.detail("profiled_s", json_f64(profiled_s));
    out.detail("untraced_s", json_f64(untraced_s));
    out.unexercised = &["scenarios.", "trace.", "analyze.", "serve."];
    Ok(out)
}
