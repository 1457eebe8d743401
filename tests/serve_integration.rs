//! End-to-end acceptance for the phantom-serve daemon (PR 10).
//!
//! Everything here runs the real server — `Server::start` on a port-0
//! listener, real worker threads, the real HTTP wire — and speaks to it
//! through the same `serve::client` helpers `phantom submit`/`phantom
//! jobs` use. The contracts under test:
//!
//! * **Determinism**: a trace streamed from `/v1/jobs/{id}/trace` is
//!   byte-identical to `phantom run <scene> --seed N --trace` on the
//!   same scene text, including when several jobs run concurrently on
//!   a multi-worker pool.
//! * **Admission control**: a full bounded queue answers 429 with the
//!   queue depth; an invalid scene answers 400 with the same
//!   `phantom-check/1` body `phantom check --json` prints; a draining
//!   server answers 503.
//! * **Cancellation**: DELETE on a running metro-chain job flips it to
//!   `cancelled` promptly, frees the worker for the next job, and
//!   leaves a truncated-but-lintable trace.
//! * **Stream wake-ups**: a trace stream opened on a queued job ends
//!   within a bound when the job is cancelled (404) or runs (the whole
//!   trace), so a lost wake-up fails a test instead of hanging it; a
//!   job that ends without a spool gets a 404 naming its state.
//! * **Drain**: queued and running jobs finish after `drain()`, then
//!   `wait()` returns cleanly.
//! * **Storm smoke**: a flood of submissions through a small queue
//!   loses nothing — zero drops, zero 5xx, and the queue depth drains
//!   monotonically once admission ends.

use phantom_cli::{run_scene_opts, RunOptions};
use phantom_repro::analyze::lint_trace_str;
use phantom_repro::scenarios::sweep::{run_sweep_with, SweepJob, SweepOptions};
use phantom_repro::scene::{parse_scene, register_scene, Json};
use phantom_repro::serve::{client, Server, ServerConfig};
use std::path::PathBuf;
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Per-job sim duration (ms) for the short jobs; debug builds simulate
/// roughly 25x slower than release, so they get a smaller slice.
const SHORT_MS: f64 = if cfg!(debug_assertions) { 30.0 } else { 200.0 };

/// Wall-clock cap on any single wait loop. Generous: a debug-build
/// metro-chain compile plus a few jobs fit well inside it.
const WAIT: Duration = Duration::from_secs(300);

fn scene_text(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Rewrite `duration_ms` (and scale the analysis tail to 60% of it) so
/// tests control how long a job runs without forking scene fixtures.
fn with_duration_ms(text: &str, ms: f64) -> String {
    let mut doc = Json::parse(text).expect("scene fixture parses");
    let Json::Obj(pairs) = &mut doc else {
        panic!("scene fixture is not an object")
    };
    for (k, v) in pairs.iter_mut() {
        if k == "duration_ms" {
            *v = Json::Num(ms);
        }
        if k == "analysis" {
            if let Json::Obj(a) = v {
                for (ak, av) in a.iter_mut() {
                    if ak == "tail_from_ms" {
                        *av = Json::Num(ms * 0.6);
                    }
                }
            }
        }
    }
    let text = doc.dump();
    parse_scene(&text).expect("patched scene still validates");
    text
}

fn spool_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("phantom-serve-test-{}-{tag}", std::process::id()))
}

fn start(workers: usize, queue_cap: usize, tag: &str) -> (Server, String) {
    let spool = spool_dir(tag);
    let server = Server::start(ServerConfig {
        listen: "127.0.0.1:0".into(),
        workers,
        queue_cap,
        spool: Some(spool),
    })
    .expect("server starts");
    let addr = server.addr().to_string();
    (server, addr)
}

fn submit_ok(addr: &str, scene: &str, seed: u64) -> String {
    let resp = client::submit(addr, scene, Some(seed)).expect("submit round trip");
    assert_eq!(
        resp.status,
        202,
        "submission admitted: {}",
        String::from_utf8_lossy(&resp.body)
    );
    let record = Json::parse(String::from_utf8_lossy(&resp.body).trim()).expect("job record");
    assert_eq!(
        record.get("schema").and_then(Json::as_str),
        Some("phantom-serve/1")
    );
    record
        .get("id")
        .and_then(Json::as_str)
        .expect("record has id")
        .to_string()
}

fn job_state(addr: &str, id: &str) -> (String, u64) {
    let resp = client::job_record(addr, id).expect("record round trip");
    assert_eq!(resp.status, 200, "job {id} found");
    let record = Json::parse(String::from_utf8_lossy(&resp.body).trim()).expect("job record");
    (
        record
            .get("state")
            .and_then(Json::as_str)
            .expect("record has state")
            .to_string(),
        record.get("events").and_then(Json::as_f64).unwrap_or(0.0) as u64,
    )
}

fn wait_for(addr: &str, id: &str, pred: impl Fn(&str, u64) -> bool) -> (String, u64) {
    let t0 = Instant::now();
    loop {
        let (state, events) = job_state(addr, id);
        if pred(&state, events) {
            return (state, events);
        }
        assert!(
            t0.elapsed() < WAIT,
            "job {id} stuck in `{state}` after {:?}",
            t0.elapsed()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn is_terminal(state: &str) -> bool {
    matches!(state, "done" | "failed" | "cancelled")
}

/// The server's `phantom_serve_http_requests_total`, scraped from
/// `/metrics` (the scrape counts itself).
fn requests_read(addr: &str) -> u64 {
    let resp = client::request(addr, "GET", "/metrics", None).expect("metrics round trip");
    let text = String::from_utf8_lossy(&resp.body).into_owned();
    text.lines()
        .find_map(|l| l.strip_prefix("phantom_serve_http_requests_total "))
        .and_then(|v| v.trim().parse().ok())
        .expect("request counter exported")
}

type TraceFetch = (mpsc::Receiver<Result<Vec<u8>, String>>, JoinHandle<()>);

/// Open `GET /v1/jobs/{id}/trace` on a thread and return once the
/// server has read that request: its request counter has moved one past
/// the scrapes that watch it. The fetch's result arrives on the channel.
fn open_trace_stream(addr: &str, id: &str) -> TraceFetch {
    let base = requests_read(addr);
    let (tx, rx) = mpsc::channel();
    let (server, job) = (addr.to_string(), id.to_string());
    let fetch = std::thread::spawn(move || {
        let _ = tx.send(client::fetch_trace(&server, &job));
    });
    let t0 = Instant::now();
    for scrapes in 1u64.. {
        if requests_read(addr) > base + scrapes {
            break;
        }
        assert!(t0.elapsed() < WAIT, "trace request for {id} never arrived");
        std::thread::sleep(Duration::from_millis(5));
    }
    (rx, fetch)
}

/// `phantom run <scene> --seed N --trace` bytes for `scene`.
fn direct_trace(scene: &phantom_repro::scene::Scene, seed: u64, tag: &str) -> Vec<u8> {
    let reference = std::env::temp_dir().join(format!(
        "phantom-serve-test-{}-ref-{tag}-{seed}.jsonl",
        std::process::id()
    ));
    let opts = RunOptions {
        trace: Some(reference.clone()),
        ..RunOptions::default()
    };
    run_scene_opts(scene, seed, None, &opts).expect("direct run succeeds");
    let direct = std::fs::read(&reference).expect("reference trace written");
    let _ = std::fs::remove_file(&reference);
    direct
}

/// The headline determinism contract: traces streamed from a 2-worker
/// server running three concurrent fig2 submissions are byte-identical
/// to `phantom run` (`run_scene_opts` + `--trace`) on the same text, and
/// to `repro <id> --scenes DIR --trace-dir` (`register_scene` +
/// `run_sweep_with`) for the same scene and seed.
#[test]
fn streamed_traces_match_phantom_run_bytes_under_concurrency() {
    let text = with_duration_ms(&scene_text("scenes/fig2.json"), SHORT_MS);
    let scene = parse_scene(&text).expect("scene parses");
    let (server, addr) = start(2, 8, "identity");

    let seeds = [11u64, 12, 13];
    let ids: Vec<String> = seeds.iter().map(|&s| submit_ok(&addr, &text, s)).collect();

    let sweep_dir =
        std::env::temp_dir().join(format!("phantom-serve-test-{}-sweep", std::process::id()));
    register_scene(scene.clone());
    let jobs: Vec<SweepJob> = seeds
        .iter()
        .map(|&seed| SweepJob {
            id: scene.id.clone(),
            seed,
        })
        .collect();
    let opts = SweepOptions {
        trace_dir: Some(sweep_dir.clone()),
        ..SweepOptions::default()
    };
    run_sweep_with(&jobs, 1, &opts);

    for (id, &seed) in ids.iter().zip(&seeds) {
        // Blocks server-side until the job is terminal, then yields the
        // complete spool bytes.
        let streamed = client::fetch_trace(&addr, id).expect("trace streams");
        let (state, _) = job_state(&addr, id);
        assert_eq!(state, "done", "job {id} completed");

        let direct = direct_trace(&scene, seed, "identity");

        assert!(
            streamed == direct,
            "seed {seed}: streamed trace ({} bytes) != phantom run trace ({} bytes)",
            streamed.len(),
            direct.len()
        );
        let swept = std::fs::read(sweep_dir.join(format!("{}-{seed}.jsonl", scene.id)))
            .expect("sweep trace written");
        assert!(
            swept == direct,
            "seed {seed}: repro --scenes trace ({} bytes) != phantom run trace ({} bytes)",
            swept.len(),
            direct.len()
        );
        assert!(
            lint_trace_str(&String::from_utf8(streamed).expect("utf8 trace")).is_ok(),
            "streamed trace lints"
        );
    }
    let _ = std::fs::remove_dir_all(&sweep_dir);

    server.drain();
    server.wait().expect("clean shutdown");
}

/// A full bounded queue answers 429 and reports its depth; the job that
/// caused it is not lost from the admitted set.
#[test]
fn full_queue_answers_429_with_depth() {
    // One worker, one queue slot: job A runs, job B fills the queue,
    // job C must bounce.
    let long = with_duration_ms(&scene_text("scenes/fig2.json"), 60_000.0);
    let (server, addr) = start(1, 1, "backpressure");

    let a = submit_ok(&addr, &long, 1);
    wait_for(&addr, &a, |s, _| s == "running");
    let b = submit_ok(&addr, &long, 2);

    let resp = client::submit(&addr, &long, Some(3)).expect("submit round trip");
    assert_eq!(resp.status, 429, "third submission bounces");
    let body = Json::parse(String::from_utf8_lossy(&resp.body).trim()).expect("429 body is JSON");
    assert_eq!(body.get("queue_depth").and_then(Json::as_f64), Some(1.0));
    assert_eq!(body.get("queue_cap").and_then(Json::as_f64), Some(1.0));

    // Cancel both long jobs so the drain below is quick.
    for id in [&a, &b] {
        let resp = client::cancel(&addr, id).expect("cancel round trip");
        assert_eq!(resp.status, 200);
        wait_for(&addr, id, |s, _| is_terminal(s));
    }
    server.drain();
    server.wait().expect("clean shutdown");
}

/// Invalid submissions answer 400 carrying the same `phantom-check/1`
/// document `phantom check --json` prints, with the error text intact.
#[test]
fn invalid_scene_answers_400_with_check_body() {
    let (server, addr) = start(1, 4, "badscene");

    for bad in [
        "this is not json",
        r#"{"schema":"phantom-scene/1","id":"x"}"#,
    ] {
        let resp = client::submit(&addr, bad, None).expect("submit round trip");
        assert_eq!(resp.status, 400, "invalid scene rejected: {bad}");
        assert_eq!(resp.content_type, "application/json");
        let body =
            Json::parse(String::from_utf8_lossy(&resp.body).trim()).expect("400 body is JSON");
        assert_eq!(
            body.get("schema").and_then(Json::as_str),
            Some("phantom-check/1")
        );
        assert_eq!(body.get("ok").and_then(Json::as_bool), Some(false));
        let err = body.get("error").and_then(Json::as_str).unwrap_or("");
        assert!(!err.is_empty(), "error text present");
    }

    server.drain();
    server.wait().expect("clean shutdown");
}

/// Cooperative cancellation: a metro-chain-10k job cancelled mid-run
/// goes `cancelled`, promptly frees its worker for the next job, and
/// leaves a truncated-but-lintable trace.
#[test]
fn midrun_cancel_frees_worker_and_trace_lints() {
    // Long duration so the job is reliably mid-run when the DELETE
    // lands; cancellation means it never runs to that horizon.
    let metro = with_duration_ms(&scene_text("scenes/metro/metro-chain-10k.json"), 60_000.0);
    let short = with_duration_ms(&scene_text("scenes/fig2.json"), SHORT_MS);
    let (server, addr) = start(1, 4, "cancel");

    let id = submit_ok(&addr, &metro, 5);
    // Mid-run = running with events already dispatched.
    wait_for(&addr, &id, |s, ev| s == "running" && ev > 0);

    let resp = client::cancel(&addr, &id).expect("cancel round trip");
    assert_eq!(resp.status, 200);
    let t0 = Instant::now();
    let (state, events) = wait_for(&addr, &id, |s, _| is_terminal(s));
    assert_eq!(state, "cancelled");
    assert!(events > 0, "job was genuinely mid-run");
    // The engine honours the token at calendar-slice granularity; even
    // a debug build crosses a slice boundary well inside this bound.
    assert!(
        t0.elapsed() < Duration::from_secs(60),
        "cancel honoured promptly, took {:?}",
        t0.elapsed()
    );

    // Truncated-but-complete-lines trace still lints (exit-0 contract).
    let trace = client::fetch_trace(&addr, &id).expect("cancelled trace streams");
    let lines = lint_trace_str(&String::from_utf8(trace).expect("utf8 trace"))
        .expect("cancelled trace lints");
    assert!(lines > 0, "trace has content");

    // The worker is free again: a follow-up job runs to completion.
    let next = submit_ok(&addr, &short, 6);
    let (state, _) = wait_for(&addr, &next, |s, _| is_terminal(s));
    assert_eq!(state, "done", "worker released for the next job");

    server.drain();
    server.wait().expect("clean shutdown");
}

/// A trace stream waiting on a queued job is woken by the job's end,
/// not by a timer: with the only worker held by a long job, a stream on
/// a queued job answers 404 promptly once that job is cancelled, and a
/// stream on another queued job delivers exactly the `phantom run`
/// bytes once the long job is cancelled and the queued one runs. Each
/// fetch reports on a channel with a deadline, so a lost wake-up fails
/// here instead of hanging. (Streamers share one condvar, so the long
/// job's heartbeats also wake the first stream; the second has no other
/// job to wake it once its own run ends.)
#[test]
fn queued_trace_streams_wake_on_cancel_and_on_completion() {
    let long = with_duration_ms(&scene_text("scenes/fig2.json"), 60_000.0);
    let short = with_duration_ms(&scene_text("scenes/fig2.json"), SHORT_MS);
    let scene = parse_scene(&short).expect("scene parses");
    let (server, addr) = start(1, 4, "wake");

    let holder = submit_ok(&addr, &long, 30);
    wait_for(&addr, &holder, |s, _| s == "running");

    let cancelled = submit_ok(&addr, &short, 31);
    let (rx, fetch) = open_trace_stream(&addr, &cancelled);
    let resp = client::cancel(&addr, &cancelled).expect("cancel round trip");
    assert_eq!(resp.status, 200);
    let err = rx
        .recv_timeout(Duration::from_secs(10))
        .expect("stream on a cancelled queued job ends promptly")
        .expect_err("a job cancelled while queued has no trace");
    assert!(
        err.contains("404") && err.contains("no trace (state: cancelled)"),
        "404 names the terminal state: {err}"
    );
    fetch.join().expect("fetch thread");

    let queued = submit_ok(&addr, &short, 32);
    let (rx, fetch) = open_trace_stream(&addr, &queued);
    let resp = client::cancel(&addr, &holder).expect("cancel round trip");
    assert_eq!(resp.status, 200);
    // A debug build runs the short job in well under this bound.
    let streamed = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("stream on a queued job ends once it has run")
        .expect("trace streams");
    fetch.join().expect("fetch thread");
    assert_eq!(job_state(&addr, &queued).0, "done");
    let direct = direct_trace(&scene, 32, "wake");
    assert!(
        streamed == direct,
        "streamed trace ({} bytes) != phantom run trace ({} bytes)",
        streamed.len(),
        direct.len()
    );

    server.drain();
    server.wait().expect("clean shutdown");
}

/// A job that fails before its spool file exists answers the trace
/// request with a 404 naming `failed`. The spool path is a dangling
/// symlink, so creating the trace file fails.
#[cfg(unix)]
#[test]
fn failed_job_without_spool_answers_404_naming_its_state() {
    let short = with_duration_ms(&scene_text("scenes/fig2.json"), SHORT_MS);
    let (server, addr) = start(1, 4, "nospool");
    let spool = spool_dir("nospool");
    let trace = spool.join("job-0001.trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    std::os::unix::fs::symlink(spool.join("missing").join("trace.jsonl"), &trace)
        .expect("symlink in the spool");

    let id = submit_ok(&addr, &short, 41);
    assert_eq!(id, "job-0001");
    let (state, _) = wait_for(&addr, &id, |s, _| is_terminal(s));
    assert_eq!(state, "failed", "the trace file could not be created");
    let err = client::fetch_trace(&addr, &id).expect_err("a failed job has no trace");
    assert!(
        err.contains("404") && err.contains("no trace (state: failed)"),
        "404 names the terminal state: {err}"
    );

    server.drain();
    server.wait().expect("clean shutdown");
}

/// Graceful drain: admission stops with 503, queued and running jobs
/// still finish, `wait()` returns cleanly.
#[test]
fn drain_finishes_queued_jobs_and_rejects_new_work() {
    let short = with_duration_ms(&scene_text("scenes/fig2.json"), SHORT_MS);
    let (server, addr) = start(1, 4, "drain");

    // One running, one queued.
    let a = submit_ok(&addr, &short, 21);
    let b = submit_ok(&addr, &short, 22);
    server.drain();

    let resp = client::submit(&addr, &short, Some(23)).expect("submit round trip");
    assert_eq!(resp.status, 503, "admission is off while draining");

    // Both pre-drain jobs run to completion (GETs keep working during
    // the drain).
    for id in [&a, &b] {
        let (state, _) = wait_for(&addr, id, |s, _| is_terminal(s));
        assert_eq!(state, "done", "job {id} finished during drain");
    }
    server.wait().expect("drained shutdown is clean");
}

/// Load smoke: `--storm`-style flood of fig2 jobs through a small
/// bounded queue. Nothing is dropped, nothing 5xxs, every job lands
/// `done`, and the queue depth drains monotonically once the last
/// submission is admitted.
#[test]
fn storm_smoke_drops_nothing_and_queue_drains_monotonically() {
    let n: usize = std::env::var("PHANTOM_STORM_N")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200);
    // Tiny per-job slice: the point is admission churn, not sim depth.
    let ms = if cfg!(debug_assertions) { 4.0 } else { 25.0 };
    let text = with_duration_ms(&scene_text("scenes/fig2.json"), ms);
    let (server, addr) = start(2, 16, "storm");

    let report = client::storm(&addr, &text, n, 1000).expect("storm completes");

    assert_eq!(report.admitted.len(), n, "every submission admitted");
    assert_eq!(report.dropped, 0, "zero dropped jobs");
    assert_eq!(report.server_errors, 0, "zero 5xx responses");
    for (id, state) in &report.final_states {
        assert_eq!(state, "done", "job {id} completed");
    }
    // Post-admission the queue can only drain: samples never rise.
    assert!(
        report.depth_samples.windows(2).all(|w| w[1] <= w[0]),
        "queue depth drains monotonically: {:?}",
        report.depth_samples
    );

    server.drain();
    server.wait().expect("clean shutdown");
}
