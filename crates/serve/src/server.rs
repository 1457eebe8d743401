//! The daemon: admission queue, worker pool, HTTP dispatch, metrics
//! and graceful drain.
//!
//! One [`Server`] owns a bounded FIFO admission queue and `workers`
//! OS threads that pull jobs off it in admission order. Every HTTP
//! connection is handled on its own short-lived thread (one request
//! per connection, `Connection: close`), so a long-lived trace stream
//! never blocks admission. All shared state sits behind one mutex —
//! job heartbeats update it a few times per second, which is far below
//! contention territory.
//!
//! Graceful drain (SIGTERM or [`Server::drain`]): admission flips to
//! `503`, queued and running jobs finish, workers exit, the listener
//! closes, and [`Server::wait`] returns `Ok` — the CLI then exits 0.

use crate::http::{self, Request};
use crate::job::{Job, JobState, SERVE_SCHEMA};
use phantom_analyze::{analyze_trace_str, DEFAULT_WINDOW_SECS};
use phantom_metrics::manifest::{Manifest, METRICS_SCHEMA};
use phantom_metrics::{Registry, PROMETHEUS_CONTENT_TYPE};
use phantom_scenarios::probes::ProbeSpec;
use phantom_scene::{analysis_targets, check_error_json, parse_scene, RunPlan};
use phantom_sim::{CancelGuard, SimTime};
use std::collections::VecDeque;
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// JSON content type for job records and error bodies.
const JSON_TYPE: &str = "application/json";
/// Content type for streamed JSONL traces.
const NDJSON_TYPE: &str = "application/x-ndjson";
/// Poll cadence of the live trace/analysis streamers.
const STREAM_POLL: Duration = Duration::from_millis(20);
/// Heartbeat slices per job: the engine is pre-driven to the horizon in
/// this many pieces so the job table can report live progress. The
/// results are identical to one big `run_until`.
const HEARTBEAT_SLICES: u64 = 20;
/// Cap on the sim-time width of one heartbeat slice (10 ms). Without
/// it a long-horizon job on a big scene would report no progress for
/// minutes of wall time between beats.
const MAX_HEARTBEAT_STEP_NS: u64 = 10_000_000;

/// Configuration for one daemon instance.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:8790`. Port 0 picks a free one.
    pub listen: String,
    /// Worker threads running jobs.
    pub workers: usize,
    /// Maximum *queued* (not yet running) jobs before admission
    /// answers 429.
    pub queue_cap: usize,
    /// Spool directory for trace/analysis artifacts; a per-process
    /// temp directory when `None`.
    pub spool: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            listen: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 64,
            spool: None,
        }
    }
}

/// Counters the daemon exports at `/metrics`, all monotonic except the
/// gauges sampled at scrape time.
#[derive(Default)]
struct ServerMetrics {
    http_requests: AtomicU64,
    submitted: AtomicU64,
    rejected_full: AtomicU64,
    rejected_invalid: AtomicU64,
    rejected_draining: AtomicU64,
    done: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    /// Completed-job `(wall_secs, events)` pairs, rendered as the
    /// run-time and event-throughput histograms per scrape.
    finished_runs: Mutex<Vec<(f64, u64)>>,
}

/// Mutable server state: the job table and the admission queue of
/// indices into it.
struct State {
    jobs: Vec<Job>,
    queue: VecDeque<usize>,
    busy_workers: usize,
}

struct Shared {
    cfg: ServerConfig,
    addr: SocketAddr,
    spool: PathBuf,
    state: Mutex<State>,
    work_ready: Condvar,
    /// Admission off; workers exit once the queue empties.
    draining: AtomicBool,
    /// Accept loop should stop (set after workers finish draining).
    shutdown: AtomicBool,
    metrics: ServerMetrics,
}

/// A running daemon. Obtain with [`Server::start`]; stop with
/// [`Server::drain`] + [`Server::wait`] (or a SIGTERM when the signal
/// watcher is installed, as `phantom serve` does).
pub struct Server {
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind the listener, spawn the worker pool and the accept loop.
    pub fn start(cfg: ServerConfig) -> Result<Server, String> {
        let listener = TcpListener::bind(&cfg.listen)
            .map_err(|e| format!("cannot listen on {}: {e}", cfg.listen))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let spool = cfg.spool.clone().unwrap_or_else(|| {
            std::env::temp_dir().join(format!("phantom-serve-{}", std::process::id()))
        });
        std::fs::create_dir_all(&spool)
            .map_err(|e| format!("cannot create spool {}: {e}", spool.display()))?;
        let shared = Arc::new(Shared {
            addr,
            spool,
            state: Mutex::new(State {
                jobs: Vec::new(),
                queue: VecDeque::new(),
                busy_workers: 0,
            }),
            work_ready: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            metrics: ServerMetrics::default(),
            cfg,
        });
        let workers = (0..shared.cfg.workers.max(1))
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("phantom-serve-worker-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .map_err(|e| format!("cannot spawn worker: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("phantom-serve-accept".into())
            .spawn(move || accept_loop(&accept_shared, listener))
            .map_err(|e| format!("cannot spawn accept loop: {e}"))?;
        Ok(Server {
            shared,
            accept_thread: Some(accept_thread),
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Begin a graceful drain: stop admitting, let queued and running
    /// jobs finish. Non-blocking; follow with [`Server::wait`].
    pub fn drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        // Wake idle workers so they can observe the drain and exit.
        self.shared.work_ready.notify_all();
    }

    /// Block until a drain completes (workers idle, queue empty), then
    /// stop the accept loop and join every thread.
    pub fn wait(mut self) -> Result<(), String> {
        for w in self.workers.drain(..) {
            w.join().map_err(|_| "worker panicked".to_string())?;
        }
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.shared.addr);
        if let Some(t) = self.accept_thread.take() {
            t.join().map_err(|_| "accept loop panicked".to_string())?;
        }
        Ok(())
    }

    /// Is a drain in progress (or finished)?
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }
}

/// Run the daemon in the foreground until a drain completes. When
/// `watch_sigterm` is set, a SIGTERM initiates the drain (the
/// `phantom serve` path); [`Server::drain`] works either way.
pub fn serve(cfg: ServerConfig, watch_sigterm: bool) -> Result<(), String> {
    let server = Server::start(cfg)?;
    eprintln!(
        "phantom-serve listening on {} ({} workers, queue {})",
        server.addr(),
        server.shared.cfg.workers.max(1),
        server.shared.cfg.queue_cap
    );
    if watch_sigterm {
        crate::signal::install_sigterm_flag();
    }
    while !server.draining() {
        if watch_sigterm && crate::signal::sigterm_seen() {
            eprintln!("phantom-serve: SIGTERM — draining");
            server.drain();
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    server.wait()
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener) {
    for conn in listener.incoming() {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        let Ok(stream) = conn else { continue };
        // Every response and chunk is one whole write; Nagle would hold
        // its last partial segment until the peer ACKs the rest.
        let _ = stream.set_nodelay(true);
        let shared = Arc::clone(shared);
        // One thread per connection; trace streams hold theirs open
        // for the lifetime of the job they follow.
        let _ = std::thread::Builder::new()
            .name("phantom-serve-conn".into())
            .spawn(move || handle_connection(&shared, stream));
    }
}

fn handle_connection(shared: &Arc<Shared>, mut stream: TcpStream) {
    let req = match http::read_request(&mut stream) {
        Ok(Some(req)) => req,
        Ok(None) => return,
        Err(e) => {
            let body = format!(
                "{{\"error\":{}}}\n",
                phantom_metrics::json::json_str(&e.to_string())
            );
            let _ = http::respond(&mut stream, 400, JSON_TYPE, body.as_bytes());
            return;
        }
    };
    shared.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
    let path = req.path.clone();
    let segs: Vec<&str> = path.split('/').filter(|s| !s.is_empty()).collect();
    let result = match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["v1", "jobs"]) => submit(shared, &mut stream, &req),
        ("GET", ["v1", "jobs"]) => list_jobs(shared, &mut stream),
        ("GET", ["v1", "jobs", id]) => job_record(shared, &mut stream, id),
        ("GET", ["v1", "jobs", id, "trace"]) => stream_trace(shared, &mut stream, id),
        ("GET", ["v1", "jobs", id, "analysis"]) => analysis(shared, &mut stream, id),
        ("DELETE", ["v1", "jobs", id]) => cancel_job(shared, &mut stream, id),
        ("GET", ["metrics"]) => metrics(shared, &mut stream),
        ("GET", ["healthz"]) => http::respond(&mut stream, 200, "text/plain", b"ok\n"),
        _ => {
            let body = b"{\"error\":\"no such endpoint\"}\n";
            http::respond(&mut stream, 404, JSON_TYPE, body)
        }
    };
    let _ = result; // peer hangups mid-stream are routine, not errors
}

/// `POST /v1/jobs`: validate, admit, enqueue. 400 carries the same
/// `phantom-check/1` body `phantom check --json` prints; 429 carries
/// the queue depth; 503 during drain.
fn submit(shared: &Arc<Shared>, stream: &mut TcpStream, req: &Request) -> std::io::Result<()> {
    if shared.draining.load(Ordering::SeqCst) {
        shared
            .metrics
            .rejected_draining
            .fetch_add(1, Ordering::Relaxed);
        let body = b"{\"error\":\"draining: not admitting new jobs\"}\n";
        return http::respond(stream, 503, JSON_TYPE, body);
    }
    let seed = match req.query_param("seed") {
        Some(v) => match v.parse::<u64>() {
            Ok(s) => s,
            Err(_) => {
                let body = format!("{{\"error\":\"bad seed: {v}\"}}\n");
                return http::respond(stream, 400, JSON_TYPE, body.as_bytes());
            }
        },
        None => crate::DEFAULT_SEED,
    };
    let text = match std::str::from_utf8(&req.body) {
        Ok(t) => t,
        Err(_) => {
            shared
                .metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            let body = check_error_json("request body", "scene document is not UTF-8");
            return http::respond(stream, 400, JSON_TYPE, format!("{body}\n").as_bytes());
        }
    };
    let scene = match parse_scene(text) {
        Ok(s) => s,
        Err(e) => {
            shared
                .metrics
                .rejected_invalid
                .fetch_add(1, Ordering::Relaxed);
            let body = check_error_json("request body", &e);
            return http::respond(stream, 400, JSON_TYPE, format!("{body}\n").as_bytes());
        }
    };
    let mut state = shared.state.lock().expect("state poisoned");
    if state.queue.len() >= shared.cfg.queue_cap {
        shared.metrics.rejected_full.fetch_add(1, Ordering::Relaxed);
        let body = format!(
            "{{\"error\":\"queue full\",\"queue_depth\":{},\"queue_cap\":{}}}\n",
            state.queue.len(),
            shared.cfg.queue_cap
        );
        drop(state);
        return http::respond(stream, 429, JSON_TYPE, body.as_bytes());
    }
    let idx = state.jobs.len();
    let id = format!("job-{:04}", idx + 1);
    let job = Job::new(id, scene, seed, &shared.spool);
    let record = job.record_json();
    state.jobs.push(job);
    state.queue.push_back(idx);
    drop(state);
    shared.metrics.submitted.fetch_add(1, Ordering::Relaxed);
    shared.work_ready.notify_one();
    http::respond(stream, 202, JSON_TYPE, format!("{record}\n").as_bytes())
}

/// `GET /v1/jobs`: every record plus the live queue depth.
fn list_jobs(shared: &Arc<Shared>, stream: &mut TcpStream) -> std::io::Result<()> {
    let state = shared.state.lock().expect("state poisoned");
    let records: Vec<String> = state.jobs.iter().map(Job::record_json).collect();
    let body = format!(
        "{{\"schema\":\"{SERVE_SCHEMA}\",\"queue_depth\":{},\"draining\":{},\"jobs\":[{}]}}\n",
        state.queue.len(),
        shared.draining.load(Ordering::SeqCst),
        records.join(",")
    );
    drop(state);
    http::respond(stream, 200, JSON_TYPE, body.as_bytes())
}

/// Resolve a job id under the state lock, or answer 404 with an
/// edit-distance hint (the same `suggest_from` the scenario registry
/// uses for unknown experiment ids).
fn lookup(shared: &Shared, id: &str) -> Result<usize, String> {
    let state = shared.state.lock().expect("state poisoned");
    if let Some(i) = state.jobs.iter().position(|j| j.id == id) {
        return Ok(i);
    }
    let ids = state.jobs.iter().map(|j| j.id.clone()).collect::<Vec<_>>();
    drop(state);
    let hint = phantom_scenarios::registry::suggest_from(ids, id).map_or(String::new(), |s| {
        format!(",\"hint\":{}", phantom_metrics::json::json_str(&s))
    });
    Err(format!("{{\"error\":\"unknown job id: {id}\"{hint}}}\n"))
}

fn job_record(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    match lookup(shared, id) {
        Ok(i) => {
            let state = shared.state.lock().expect("state poisoned");
            let record = state.jobs[i].record_json();
            drop(state);
            http::respond(stream, 200, JSON_TYPE, format!("{record}\n").as_bytes())
        }
        Err(body) => http::respond(stream, 404, JSON_TYPE, body.as_bytes()),
    }
}

/// `DELETE /v1/jobs/{id}`: cooperative cancel. A queued job flips to
/// `cancelled` immediately; a running one gets its token cancelled and
/// flips when the engine observes it (within one calendar slice).
fn cancel_job(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    match lookup(shared, id) {
        Ok(i) => {
            let mut state = shared.state.lock().expect("state poisoned");
            let job = &mut state.jobs[i];
            job.cancel.cancel();
            if job.state == JobState::Queued {
                job.state = JobState::Cancelled;
                shared.metrics.cancelled.fetch_add(1, Ordering::Relaxed);
                state.queue.retain(|&q| q != i);
            }
            let record = state.jobs[i].record_json();
            drop(state);
            http::respond(stream, 200, JSON_TYPE, format!("{record}\n").as_bytes())
        }
        Err(body) => http::respond(stream, 404, JSON_TYPE, body.as_bytes()),
    }
}

/// The `(state, trace file exists)` pair the streamers poll.
fn job_state(shared: &Shared, i: usize) -> (JobState, PathBuf) {
    let state = shared.state.lock().expect("state poisoned");
    (state.jobs[i].state, state.jobs[i].trace_path.clone())
}

/// `GET /v1/jobs/{id}/trace`: chunked live tail of the spool file.
/// Bytes appear as the worker's `BufWriter` flushes; the stream ends
/// when the job is terminal and the file fully sent, at which point
/// the client holds exactly the bytes `phantom run --trace` writes.
fn stream_trace(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    let i = match lookup(shared, id) {
        Ok(i) => i,
        Err(body) => return http::respond(stream, 404, JSON_TYPE, body.as_bytes()),
    };
    // Wait for the spool to exist (job may still be queued) — unless
    // the job ends without ever starting (cancelled while queued).
    let path = loop {
        let (state, path) = job_state(shared, i);
        if path.exists() {
            break path;
        }
        if state.is_terminal() {
            let body = b"{\"error\":\"job produced no trace (cancelled before start)\"}\n";
            return http::respond(stream, 404, JSON_TYPE, body);
        }
        std::thread::sleep(STREAM_POLL);
    };
    http::start_chunked(stream, 200, NDJSON_TYPE)?;
    // Reads are sequential: a read at EOF returns 0 and leaves the
    // offset in place, so the next poll resumes where this one stopped.
    let mut file = std::fs::File::open(&path)?;
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        let (state, _) = job_state(shared, i);
        let terminal = state.is_terminal();
        loop {
            let n = file.read(&mut buf)?;
            if n == 0 {
                break;
            }
            http::write_chunk(stream, &buf[..n])?;
        }
        if terminal {
            // State flips only after the worker flushed and dropped
            // the probe, so this read-to-EOF saw every byte.
            return http::end_chunks(stream);
        }
        std::thread::sleep(STREAM_POLL);
    }
}

/// `GET /v1/jobs/{id}/analysis`: the final `phantom-analysis/1` report
/// once the job is terminal; while running, an incremental report
/// computed from the complete lines spooled so far (marked with an
/// `X-Phantom-Partial` header via the body's transport — the report
/// itself is schema-complete either way).
fn analysis(shared: &Arc<Shared>, stream: &mut TcpStream, id: &str) -> std::io::Result<()> {
    let i = match lookup(shared, id) {
        Ok(i) => i,
        Err(body) => return http::respond(stream, 404, JSON_TYPE, body.as_bytes()),
    };
    let (state, trace_path, analysis_path, scene_targets, window) = {
        let state = shared.state.lock().expect("state poisoned");
        let j = &state.jobs[i];
        (
            j.state,
            j.trace_path.clone(),
            j.analysis_path.clone(),
            analysis_targets(&j.scene),
            phantom_analyze::DEFAULT_WINDOW_SECS,
        )
    };
    if state.is_terminal() {
        return match std::fs::read(&analysis_path) {
            Ok(body) => http::respond(stream, 200, JSON_TYPE, &body),
            Err(_) => {
                let body = b"{\"error\":\"no analysis report for this job\"}\n";
                http::respond(stream, 404, JSON_TYPE, body)
            }
        };
    }
    // Live: analyze the complete spooled lines (drop a trailing
    // partial line — the writer appends whole records but the reader
    // can race a buffered flush).
    let text = std::fs::read_to_string(&trace_path).unwrap_or_default();
    let complete = match text.rfind('\n') {
        Some(end) => &text[..=end],
        None => "",
    };
    if complete.is_empty() {
        let body = b"{\"error\":\"no trace data yet; retry shortly\"}\n";
        return http::respond(stream, 404, JSON_TYPE, body);
    }
    match analyze_trace_str(complete, scene_targets, window) {
        Ok(report) => http::respond(stream, 200, JSON_TYPE, report.to_json().as_bytes()),
        Err(e) => {
            let body = format!(
                "{{\"error\":{}}}\n",
                phantom_metrics::json::json_str(&format!("partial analysis failed: {e}"))
            );
            http::respond(stream, 500, JSON_TYPE, body.as_bytes())
        }
    }
}

/// `GET /metrics`: the standard registry renderer over the daemon's
/// counters and gauges, served with the Prometheus text content-type.
fn metrics(shared: &Arc<Shared>, stream: &mut TcpStream) -> std::io::Result<()> {
    let m = &shared.metrics;
    let (queue_depth, busy, jobs_total) = {
        let state = shared.state.lock().expect("state poisoned");
        (state.queue.len(), state.busy_workers, state.jobs.len())
    };
    let reg = Registry::new();
    reg.set_help("phantom_serve_http_requests_total", "HTTP requests handled");
    reg.counter("phantom_serve_http_requests_total", &[])
        .add(m.http_requests.load(Ordering::Relaxed));
    reg.set_help(
        "phantom_serve_jobs_submitted_total",
        "jobs admitted to the queue",
    );
    reg.counter("phantom_serve_jobs_submitted_total", &[])
        .add(m.submitted.load(Ordering::Relaxed));
    reg.set_help(
        "phantom_serve_jobs_rejected_total",
        "jobs rejected at admission, by reason",
    );
    for (reason, v) in [
        ("queue_full", &m.rejected_full),
        ("invalid", &m.rejected_invalid),
        ("draining", &m.rejected_draining),
    ] {
        reg.counter("phantom_serve_jobs_rejected_total", &[("reason", reason)])
            .add(v.load(Ordering::Relaxed));
    }
    reg.set_help(
        "phantom_serve_jobs_completed_total",
        "jobs finished, by terminal state",
    );
    for (state, v) in [
        ("done", &m.done),
        ("failed", &m.failed),
        ("cancelled", &m.cancelled),
    ] {
        reg.counter("phantom_serve_jobs_completed_total", &[("state", state)])
            .add(v.load(Ordering::Relaxed));
    }
    reg.set_help("phantom_serve_queue_depth", "jobs waiting for a worker");
    reg.gauge("phantom_serve_queue_depth", &[])
        .set(phantom_sim::SimTime::ZERO, queue_depth as f64);
    reg.set_help(
        "phantom_serve_workers_busy",
        "workers currently running a job",
    );
    reg.gauge("phantom_serve_workers_busy", &[])
        .set(phantom_sim::SimTime::ZERO, busy as f64);
    reg.set_help("phantom_serve_jobs_known", "jobs in the table, any state");
    reg.gauge("phantom_serve_jobs_known", &[])
        .set(phantom_sim::SimTime::ZERO, jobs_total as f64);
    reg.set_help(
        "phantom_serve_job_run_seconds",
        "wall-clock run time of finished jobs",
    );
    reg.set_help(
        "phantom_serve_job_events_per_sec",
        "per-job engine event throughput (events per wall-clock second)",
    );
    let run_hist = reg.histogram("phantom_serve_job_run_seconds", &[], 0.5, 40);
    // Wide decades: debug builds run ~100k ev/s, release tens of millions.
    let rate_hist = reg.histogram("phantom_serve_job_events_per_sec", &[], 1e6, 40);
    for (wall, events) in m.finished_runs.lock().expect("metrics poisoned").iter() {
        run_hist.record(*wall);
        if *wall > 0.0 {
            rate_hist.record(*events as f64 / wall);
        }
    }
    let manifest = Manifest::new(
        METRICS_SCHEMA,
        "phantom-serve",
        0,
        &format!(
            "workers={} queue_cap={}",
            shared.cfg.workers, shared.cfg.queue_cap
        ),
    );
    let body = reg.to_prometheus(&manifest);
    http::respond(stream, 200, PROMETHEUS_CONTENT_TYPE, body.as_bytes())
}

/// One worker: pull the next queued job, run it, record the outcome.
/// Exits when draining and the queue is empty.
fn worker_loop(shared: &Arc<Shared>, worker: usize) {
    loop {
        let idx = {
            let mut state = shared.state.lock().expect("state poisoned");
            loop {
                if let Some(i) = state.queue.pop_front() {
                    break Some(i);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    break None;
                }
                state = shared
                    .work_ready
                    .wait_timeout(state, Duration::from_millis(100))
                    .expect("state poisoned")
                    .0;
            }
        };
        let Some(idx) = idx else { return };
        let (scene, seed, cancel, trace_path, analysis_path) = {
            let mut state = shared.state.lock().expect("state poisoned");
            let job = &mut state.jobs[idx];
            if job.state != JobState::Queued {
                continue; // cancelled while queued, raced the dequeue
            }
            job.state = JobState::Running;
            job.worker = Some(worker);
            state.busy_workers += 1;
            let job = &state.jobs[idx];
            (
                job.scene.clone(),
                job.seed,
                job.cancel.clone(),
                job.trace_path.clone(),
                job.analysis_path.clone(),
            )
        };
        // The job runs the plan `phantom run` uses, so its spool equals
        // `phantom run <scene> --seed N --trace` byte for byte. The
        // daemon adds only the spool paths, the cancel token (checked by
        // the engine once per calendar slice) and the heartbeat.
        let wall_start = std::time::Instant::now();
        let cancel_guard = CancelGuard::new(cancel);
        let plan = RunPlan {
            probes: ProbeSpec {
                analysis: Some((analysis_targets(&scene), DEFAULT_WINDOW_SECS)),
                trace: Some(trace_path),
                ..ProbeSpec::default()
            },
            ..RunPlan::new(&scene, seed)
        };
        let outcome = plan
            .run(|d| {
                let events_before = phantom_sim::thread_events_dispatched();
                let until = d.until.0;
                let step = (until / HEARTBEAT_SLICES).clamp(1, MAX_HEARTBEAT_STEP_NS);
                let mut target = 0u64;
                while target < until && !d.engine.cancelled() {
                    target = (target + step).min(until);
                    d.engine.run_until(SimTime(target));
                    let mut state = shared.state.lock().expect("state poisoned");
                    state.jobs[idx].events =
                        phantom_sim::thread_events_dispatched() - events_before;
                    state.jobs[idx].sim_secs = d.engine.now().as_secs_f64();
                }
                Ok(())
            })
            // Only the counts outlive the run; the engine and network
            // drop here.
            .and_then(|out| {
                if let Some(report) = &out.analysis {
                    std::fs::write(&analysis_path, report.to_json()).map_err(|e| {
                        format!("cannot write analysis {}: {e}", analysis_path.display())
                    })?;
                }
                Ok((out.events, out.engine.cancelled()))
            });
        drop(cancel_guard);
        let wall_secs = wall_start.elapsed().as_secs_f64();
        let mut state = shared.state.lock().expect("state poisoned");
        state.busy_workers -= 1;
        let job = &mut state.jobs[idx];
        job.worker = None;
        match outcome {
            Ok((events, cancelled)) => {
                job.events = events;
                job.wall_secs = Some(wall_secs);
                job.state = if cancelled {
                    JobState::Cancelled
                } else {
                    job.sim_secs = job.sim_end_secs;
                    JobState::Done
                };
                let counter = if cancelled {
                    &shared.metrics.cancelled
                } else {
                    &shared.metrics.done
                };
                counter.fetch_add(1, Ordering::Relaxed);
                shared
                    .metrics
                    .finished_runs
                    .lock()
                    .expect("metrics poisoned")
                    .push((wall_secs, events));
            }
            Err(e) => {
                job.state = JobState::Failed;
                job.error = Some(e);
                shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}
