//! The `serve` workload: `phantom serve --workers 2` as a child process,
//! driven in a closed loop over two connections.
//!
//! Each connection repeats: submit the next scene of the seeded mix,
//! stream `GET /v1/jobs/{id}/trace` to its end, fetch `/analysis`. The
//! loop is closed because `phantom submit` callers wait for their trace;
//! an open loop near saturation on two shared cores would turn a
//! neighbour's noise into queue blow-ups. After a warm-up, a fixed batch
//! is timed: every scene of the mix is submitted twice, in two rounds,
//! and each scene's latency is the faster of its two jobs, because the
//! host's slow phases, which last seconds, only ever add time.
//!
//! The batch runs on a relay of daemons, all spawned before it: each
//! takes the next [`SEGMENT_JOBS`] jobs of the loop, and a connection
//! that finishes the last job of one moves straight on to the next, so
//! the loop never drains. `peak_rss_mb` is the median of the relay's
//! VmHWMs. One daemon's VmHWM over the whole batch is the single worst
//! moment of hundreds of jobs: it moved by a quarter between runs with
//! which two jobs happened to run side by side.
//!
//! Set-up is daemon spawn to the first 200 from `/healthz`, a few
//! milliseconds, so it is taken fifteen times and the median kept.
//! Every daemon starts on port 0 with a fresh spool under
//! `.bench_work/`, and is killed, reaped and its spool deleted on every
//! exit path ([`Daemon`]'s `Drop`).
//!
//! The output checks run after the timed batch: every streamed trace
//! equals the spooled file (length and hash, taken while streaming);
//! both submissions of a scene stream the same bytes, and one of them
//! passes `lint_trace_str`; every job record reads `done`; one sampled
//! job per batch is byte-identical, trace and analysis, to an in-process
//! `phantom run --trace --analyze` of the same scene and seed.

use crate::host;
use crate::layers::{self, timed};
use crate::mix::{self, MixJob};
use crate::spans::Tracer;
use crate::stats::{median, quantile};
use crate::{Args, Outcome};
use phantom_analyze::{analyze_trace_str, lint_trace_str, DEFAULT_WINDOW_SECS};
use phantom_cli::exec::RunOptions;
use phantom_metrics::json::{json_f64, json_str};
use phantom_scene::{analysis_targets, parse_scene, Json};
use phantom_serve::client;
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Daemon worker threads, and client connections: both equal the
/// reference host's core count.
const WORKERS: usize = 2;
/// Concurrent client connections of the closed loop.
const CONNECTIONS: usize = 2;
/// Daemon spawns per group; `setup_s` is the median spawn-to-healthz
/// time over three groups, before the batch, after it and after the
/// checks, so the takes spread over the run.
const SPAWNS_PER_GROUP: usize = 5;
/// Jobs run before the timed batch.
const WARMUP_JOBS: usize = 4;
/// Distinct scenes in the timed batch per second of `--seconds`; the
/// batch submits each scene twice, about 25 s at `--seconds 20` on the
/// reference host.
const SCENES_PER_SECOND: f64 = 5.0;
/// Fewest distinct scenes: the p90 then has ten samples beyond it.
const MIN_SCENES: usize = 100;
/// Jobs per daemon of the batch relay.
const SEGMENT_JOBS: usize = 10;

/// A running daemon: killed, reaped and its spool deleted on drop.
struct Daemon {
    child: Child,
    addr: String,
    spool: PathBuf,
    stderr: Option<std::thread::JoinHandle<()>>,
}

impl Daemon {
    /// Start `phantom serve` on port 0 with a fresh spool; returns it
    /// once `/healthz` answered 200, with the seconds that took.
    fn spawn(phantom: &Path, spool: &Path) -> Result<(Daemon, f64), String> {
        let _ = std::fs::remove_dir_all(spool);
        let t0 = Instant::now();
        let mut child = Command::new(phantom)
            .args(["serve", "--listen", "127.0.0.1:0", "--workers"])
            .arg(WORKERS.to_string())
            .arg("--spool")
            .arg(spool)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", phantom.display()))?;
        let mut lines = BufReader::new(child.stderr.take().expect("stderr is piped")).lines();
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            spool: spool.to_path_buf(),
            stderr: None,
        };
        // `phantom-serve listening on ADDR (...)` once the port is bound.
        daemon.addr = loop {
            match lines.next() {
                Some(Ok(line)) => {
                    if let Some(rest) = line.split("listening on ").nth(1) {
                        break rest.split_whitespace().next().unwrap_or("").to_string();
                    }
                }
                _ => return Err("the daemon exited before listening".into()),
            }
        };
        let health = client::request(&daemon.addr, "GET", "/healthz", None)?;
        let secs = t0.elapsed().as_secs_f64();
        if health.status != 200 {
            return Err(format!("/healthz answered {}", health.status));
        }
        // Keep draining stderr so the daemon never blocks on a full pipe.
        daemon.stderr = Some(std::thread::spawn(move || lines.for_each(drop)));
        Ok((daemon, secs))
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
        let _ = std::fs::remove_dir_all(&self.spool);
    }
}

/// A 64-bit hash over a byte stream fed in arbitrary pieces, eight
/// bytes at a time.
#[derive(Default)]
struct StreamHash {
    h: u64,
    tail: Vec<u8>,
}

impl StreamHash {
    fn word(&mut self, w: u64) {
        self.h = (self.h ^ w)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .rotate_left(29);
    }

    fn update(&mut self, mut data: &[u8]) {
        if !self.tail.is_empty() {
            let take = (8 - self.tail.len()).min(data.len());
            self.tail.extend_from_slice(&data[..take]);
            data = &data[take..];
            if self.tail.len() < 8 {
                return;
            }
            let w = u64::from_le_bytes(self.tail[..8].try_into().expect("eight bytes"));
            self.word(w);
            self.tail.clear();
        }
        let mut chunks = data.chunks_exact(8);
        for c in &mut chunks {
            self.word(u64::from_le_bytes(c.try_into().expect("eight bytes")));
        }
        self.tail.extend_from_slice(chunks.remainder());
    }

    fn finish(mut self) -> u64 {
        let n = self.tail.len() as u64;
        let mut last = [0u8; 8];
        last[..self.tail.len()].copy_from_slice(&self.tail);
        self.word(u64::from_le_bytes(last) ^ (n << 56));
        self.h
    }
}

/// One job as the client saw it.
#[derive(Default)]
struct JobSample {
    /// Index into the mix.
    idx: usize,
    /// Index of the daemon that ran it.
    daemon: usize,
    /// Daemon job id.
    id: String,
    submit_s: f64,
    first_byte_s: f64,
    /// POST sent to the last trace byte received.
    latency_s: f64,
    bytes: u64,
    hash: u64,
    /// The `/analysis` body, kept for the sampled job only.
    analysis: Option<Vec<u8>>,
    error_5xx: bool,
    error: Option<String>,
}

/// Read `GET path` as a chunked stream; returns seconds from `t0` to the
/// first body byte, the body length and its hash.
fn stream_trace(addr: &str, path: &str, t0: Instant) -> Result<(f64, u64, u64), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send: {e}"))?;
    let mut r = BufReader::with_capacity(64 * 1024, stream);
    let mut line = String::new();
    r.read_line(&mut line).map_err(|e| e.to_string())?;
    let status = line.split(' ').nth(1).unwrap_or("");
    if status != "200" {
        return Err(format!("trace stream answered `{}`", line.trim()));
    }
    let mut chunked = false;
    loop {
        line.clear();
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        let l = line.trim_end();
        if l.is_empty() {
            break;
        }
        if l.to_ascii_lowercase().starts_with("transfer-encoding:") && l.contains("chunked") {
            chunked = true;
        }
    }
    if !chunked {
        return Err("trace stream is not chunked".into());
    }
    let mut first = None;
    let mut bytes = 0u64;
    let mut hash = StreamHash::default();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        line.clear();
        r.read_line(&mut line).map_err(|e| e.to_string())?;
        let size = usize::from_str_radix(line.trim(), 16)
            .map_err(|_| format!("bad chunk size `{}`", line.trim()))?;
        first.get_or_insert_with(|| t0.elapsed().as_secs_f64());
        if size == 0 {
            break;
        }
        let mut left = size;
        while left > 0 {
            let n = left.min(buf.len());
            r.read_exact(&mut buf[..n]).map_err(|e| e.to_string())?;
            hash.update(&buf[..n]);
            left -= n;
        }
        bytes += size as u64;
        let mut crlf = [0u8; 2];
        r.read_exact(&mut crlf).map_err(|e| e.to_string())?;
    }
    Ok((first.unwrap_or(0.0), bytes, hash.finish()))
}

/// Submit one job to daemon `daemon` at `addr`, stream its trace to the
/// end and fetch its analysis.
fn one_job(
    addr: &str,
    daemon: usize,
    job: &MixJob,
    idx: usize,
    keep_analysis: bool,
    tr: &mut Tracer,
) -> JobSample {
    let mut s = JobSample {
        idx,
        daemon,
        ..JobSample::default()
    };
    let req = format!("mix-{idx}");
    tr.span("bench", "job", &req, |tr| {
        let t0 = Instant::now();
        let resp = tr.span("serve", "POST /v1/jobs", &req, |_| {
            client::submit(addr, &job.scene, Some(job.seed))
        });
        s.submit_s = t0.elapsed().as_secs_f64();
        let resp = match resp {
            Ok(r) if r.status == 202 => r,
            Ok(r) => {
                s.error_5xx = r.status >= 500;
                s.error = Some(format!(
                    "submit answered {}: {}",
                    r.status,
                    String::from_utf8_lossy(&r.body).trim()
                ));
                return;
            }
            Err(e) => {
                s.error = Some(format!("submit: {e}"));
                return;
            }
        };
        let id = Json::parse(&String::from_utf8_lossy(&resp.body))
            .ok()
            .and_then(|j| j.get("id").and_then(Json::as_str).map(str::to_string));
        let Some(id) = id else {
            s.error = Some("submit answer carries no job id".into());
            return;
        };
        let path = format!("/v1/jobs/{id}/trace");
        match tr.span("serve", "GET /v1/jobs/{id}/trace", &id, |_| {
            stream_trace(addr, &path, t0)
        }) {
            Ok((first, bytes, hash)) => {
                s.first_byte_s = first;
                s.bytes = bytes;
                s.hash = hash;
                s.latency_s = t0.elapsed().as_secs_f64();
            }
            Err(e) => s.error = Some(format!("{id} trace: {e}")),
        }
        let analysis = tr.span("serve", "GET /v1/jobs/{id}/analysis", &id, |_| {
            client::fetch_analysis(addr, &id)
        });
        match analysis {
            Ok(r) if r.status == 200 => {
                let text = String::from_utf8_lossy(&r.body);
                let schema = Json::parse(&text)
                    .ok()
                    .and_then(|j| j.get("schema").and_then(Json::as_str).map(str::to_string));
                if schema.as_deref() != Some("phantom-analysis/1") {
                    s.error
                        .get_or_insert(format!("{id} analysis is not phantom-analysis/1"));
                }
                if keep_analysis {
                    s.analysis = Some(r.body);
                }
            }
            Ok(r) => {
                s.error_5xx |= r.status >= 500;
                s.error
                    .get_or_insert(format!("{id} analysis answered {}", r.status));
            }
            Err(e) => {
                s.error.get_or_insert(format!("{id} analysis: {e}"));
            }
        }
        s.id = id;
    });
    s
}

/// A closed loop over the mix entries `order` on [`CONNECTIONS`]
/// connections, entry `p` going to the daemon at `addrs[route[p]]`;
/// returns one sample per entry, in `order`'s order, and the seconds
/// from the first POST to the last answer.
fn drive(
    addrs: &[String],
    route: &[usize],
    mix: &[MixJob],
    order: &[usize],
    keep_analysis: usize,
    tr: &mut Tracer,
) -> (Vec<JobSample>, f64) {
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let results: Vec<(Vec<(usize, JobSample)>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mut t = tr.fork(c + 1);
                let cursor = &cursor;
                s.spawn(move || {
                    let mut done = Vec::new();
                    loop {
                        let pos = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(&i) = order.get(pos) else { break };
                        let d = route[pos];
                        let keep = i == keep_analysis;
                        done.push((pos, one_job(&addrs[d], d, &mix[i], i, keep, &mut t)));
                    }
                    (done, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = start.elapsed().as_secs_f64();
    let mut done: Vec<(usize, JobSample)> = Vec::new();
    for (d, t) in results {
        done.extend(d);
        tr.join(t);
    }
    done.sort_by_key(|(pos, _)| *pos);
    let samples = done.into_iter().map(|(_, s)| s).collect();
    (samples, secs)
}

/// Parse Prometheus text exposition into `(name, labels, value)`.
pub fn parse_prometheus(text: &str) -> Vec<(String, BTreeMap<String, String>, f64)> {
    let mut out = Vec::new();
    for line in text.lines().map(str::trim) {
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((series, value)) = line.rsplit_once(' ') else {
            continue;
        };
        let Ok(value) = value.parse::<f64>() else {
            continue;
        };
        let (name, labels) = match series.split_once('{') {
            Some((name, rest)) => {
                let body = rest.trim_end_matches('}');
                let labels = body
                    .split(',')
                    .filter_map(|kv| kv.split_once('='))
                    .map(|(k, v)| (k.trim().to_string(), v.trim().trim_matches('"').to_string()))
                    .collect();
                (name, labels)
            }
            None => (series, BTreeMap::new()),
        };
        out.push((name.to_string(), labels, value));
    }
    out
}

/// Sum of every series named `name` in a scrape.
fn scrape_sum(scrape: &[(String, BTreeMap<String, String>, f64)], name: &str) -> f64 {
    scrape
        .iter()
        .filter(|(n, _, _)| n == name)
        .map(|(_, _, v)| v)
        .sum()
}

/// The untimed checks of jobs against the spools of their daemons, in
/// two threads: the streamed bytes must equal the spooled file and, with
/// `lint`, pass `lint_trace_str`.
fn check_traces(
    spools: &[&Path],
    samples: &[JobSample],
    lint: bool,
    out: &mut Outcome,
    tr: &mut Tracer,
) {
    let next = AtomicUsize::new(0);
    let results: Vec<(Vec<String>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|c| {
                let mut t = tr.fork(10 + c);
                let next = &next;
                s.spawn(move || {
                    let mut bad = Vec::new();
                    while let Some(j) = samples.get(next.fetch_add(1, Ordering::Relaxed)) {
                        if j.error.is_some() {
                            continue;
                        }
                        let path = spools[j.daemon].join(format!("{}.trace.jsonl", j.id));
                        let text = match std::fs::read_to_string(&path) {
                            Ok(t) => t,
                            Err(e) => {
                                bad.push(format!("{}: {e}", path.display()));
                                continue;
                            }
                        };
                        let mut h = StreamHash::default();
                        h.update(text.as_bytes());
                        if text.len() as u64 != j.bytes || h.finish() != j.hash {
                            bad.push(format!(
                                "{}: the {} streamed bytes differ from the {} spooled",
                                j.id,
                                j.bytes,
                                text.len()
                            ));
                        } else if lint {
                            let linted = t.span("analyze", "lint_trace_str", &j.id, |_| {
                                lint_trace_str(&text)
                            });
                            if let Err(e) = linted {
                                bad.push(format!("{}: streamed trace fails lint: {e}", j.id));
                            }
                        }
                    }
                    (bad, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("check thread panicked"))
            .collect()
    });
    for (bad, t) in results {
        tr.join(t);
        for b in bad {
            out.fail(b);
        }
    }
}

/// The sampled job, run in-process as `phantom run --trace --analyze`
/// does; its trace and analysis must equal the daemon's byte for byte.
/// Returns the spooled trace text for the in-process layer rates.
fn check_sample(
    work: &Path,
    spool: &Path,
    job: &MixJob,
    s: &JobSample,
    out: &mut Outcome,
    tr: &mut Tracer,
) -> Result<String, String> {
    let scene = parse_scene(&job.scene)?;
    let path = work.join("sample.trace.jsonl");
    let opts = RunOptions {
        trace: Some(path.clone()),
        ..RunOptions::default()
    };
    let report = tr.span("cli", "run_scene_opts", &s.id, |_| {
        phantom_cli::run_scene_opts(&scene, job.seed, Some(DEFAULT_WINDOW_SECS), &opts)
    })?;
    let local = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let spooled = std::fs::read(spool.join(format!("{}.trace.jsonl", s.id)))
        .map_err(|e| format!("spooled trace of {}: {e}", s.id))?;
    if local != spooled {
        out.fail(format!(
            "{}: streamed trace ({} bytes) differs from the in-process run ({} bytes)",
            s.id,
            spooled.len(),
            local.len()
        ));
    }
    if report.analysis.map(|r| r.to_json().into_bytes()) != s.analysis {
        out.fail(format!(
            "{}: /analysis differs from the in-process report",
            s.id
        ));
    }
    String::from_utf8(spooled).map_err(|e| e.to_string())
}

/// Spawn [`SPAWNS_PER_GROUP`] daemons one after another, recording each
/// spawn-to-healthz time; all but the one returned are stopped again.
fn spawn_group(
    args: &Args,
    work: &Path,
    group: usize,
    takes: &mut Vec<f64>,
    tr: &mut Tracer,
) -> Result<Daemon, String> {
    let mut last = None;
    for k in 0..SPAWNS_PER_GROUP {
        drop(last.take());
        let spool = work.join(format!("spool-{group}-{k}"));
        let (d, secs) = tr.span("serve", "spawn to /healthz", "setup", |_| {
            Daemon::spawn(&args.phantom, &spool)
        })?;
        takes.push(secs);
        last = Some(d);
    }
    Ok(last.expect("at least one spawn"))
}

/// Run the workload.
pub fn run(args: &Args, tr: &mut Tracer) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = args
        .work_dir()
        .join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let result = run_in(args, &work, &mut out, tr);
    let _ = std::fs::remove_dir_all(&work);
    result.map(|()| out)
}

fn run_in(args: &Args, work: &Path, out: &mut Outcome, tr: &mut Tracer) -> Result<(), String> {
    let mut takes = Vec::new();
    // Daemon 0 runs the warm-up; the batch relay follows it.
    let mut daemons = vec![spawn_group(args, work, 0, &mut takes, tr)?];

    // The warm-up runs the first scenes of the mix; the batch then
    // submits every scene twice, round A then round B, each round on
    // its own daemons of the relay.
    let scenes = ((args.seconds * SCENES_PER_SECOND).round() as usize).max(MIN_SCENES);
    let mix = mix::generate(args.seed, scenes);
    let sample = args.seed as usize % scenes;
    let round: Vec<usize> = (0..scenes).collect();
    let per_round = scenes.div_ceil(SEGMENT_JOBS);
    for k in 0..2 * per_round {
        let spool = work.join(format!("relay-{k}"));
        daemons.push(Daemon::spawn(&args.phantom, &spool)?.0);
    }
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr.clone()).collect();
    let relay =
        |first: usize| -> Vec<usize> { (0..scenes).map(|p| first + p / SEGMENT_JOBS).collect() };
    let (route_a, route_b) = (relay(1), relay(1 + per_round));
    let mut off = Tracer::new(false);
    let warm_order: Vec<usize> = (0..WARMUP_JOBS).collect();
    let (warm, _) = drive(
        &addrs,
        &[0; WARMUP_JOBS],
        &mix,
        &warm_order,
        usize::MAX,
        &mut off,
    );
    let (a, b, secs) = if args.trace {
        // Round A untraced, round B traced: the span cost shows against
        // the same scenes.
        let (a, a_s) = drive(&addrs, &route_a, &mix, &round, sample, &mut off);
        let (b, b_s) = drive(&addrs, &route_b, &mix, &round, usize::MAX, tr);
        out.metrics.put(
            "bench.trace_overhead_frac",
            ok_count(&a) as f64 / a_s / (ok_count(&b) as f64 / b_s) - 1.0,
        );
        (a, b, b_s)
    } else {
        let twice: Vec<usize> = round.iter().chain(&round).copied().collect();
        let route: Vec<usize> = route_a.iter().chain(&route_b).copied().collect();
        let (mut s, secs) = drive(&addrs, &route, &mix, &twice, sample, tr);
        let b = s.split_off(scenes);
        (s, b, secs)
    };
    drop(spawn_group(args, work, 1, &mut takes, tr)?);

    // Untimed from here: the daemons' own view, then the output checks.
    let mut records: BTreeMap<(usize, String), (String, f64)> = BTreeMap::new();
    let mut refused = 0.0;
    let mut daemon_cpu = 0.0;
    let mut spool_bytes = 0u64;
    for (k, daemon) in daemons.iter().enumerate() {
        let listing = client::list(&daemon.addr)?;
        let listing = Json::parse(&String::from_utf8_lossy(&listing.body))?;
        for j in listing.get("jobs").and_then(Json::as_arr).unwrap_or(&[]) {
            let field = |k: &str| j.get(k).and_then(Json::as_str).unwrap_or("").to_string();
            let wall = j.get("wall_secs").and_then(Json::as_f64).unwrap_or(0.0);
            records.insert((k, field("id")), (field("state"), wall));
        }
        let scrape = client::request(&daemon.addr, "GET", "/metrics", None)?;
        let scrape = parse_prometheus(&String::from_utf8_lossy(&scrape.body));
        refused += scrape_sum(&scrape, "phantom_serve_jobs_rejected_total");
        daemon_cpu += host::cpu_secs(&daemon.pid(), false);
        spool_bytes += std::fs::read_dir(&daemon.spool)
            .map(|d| {
                d.filter_map(|e| e.ok()?.metadata().ok())
                    .map(|m| m.len())
                    .sum::<u64>()
            })
            .unwrap_or(0);
    }
    let relay_peaks: Vec<f64> = daemons[1..]
        .iter()
        .map(|d| layers::mib(host::peak_rss_bytes(&d.pid())))
        .collect();

    let all: Vec<&JobSample> = warm.iter().chain(&a).chain(&b).collect();
    out.attempted += all.len() as u64;
    for s in &all {
        match (&s.error, records.get(&(s.daemon, s.id.clone()))) {
            (Some(e), _) => out.fail(format!("mix job {}: {e}", s.idx)),
            (None, Some((state, _))) if state == "done" => {}
            (None, other) => out.fail(format!("{}: job record {other:?}", s.id)),
        }
    }
    for (x, y) in a.iter().zip(&b) {
        if x.error.is_none() && y.error.is_none() && (x.bytes, x.hash) != (y.bytes, y.hash) {
            out.fail(format!(
                "{} and {} ran one scene and seed but streamed different traces",
                x.id, y.id
            ));
        }
    }
    // Round B repeats round A byte for byte (checked above), so only
    // round A and the warm-up are linted; round B is checked against
    // its spool.
    let spools: Vec<&Path> = daemons.iter().map(|d| d.spool.as_path()).collect();
    check_traces(&spools, &warm, true, out, tr);
    check_traces(&spools, &a, true, out, tr);
    check_traces(&spools, &b, false, out, tr);
    let sampled = &a[sample];
    let sampled_text = match sampled.error {
        None => Some(check_sample(
            work,
            spools[sampled.daemon],
            &mix[sample],
            sampled,
            out,
            tr,
        )?),
        Some(_) => None,
    };
    drop(daemons);
    drop(spawn_group(args, work, 2, &mut takes, tr)?);

    // Each scene's latency is the faster of its two submissions: the
    // host's slow phases only ever add time.
    let best: Vec<f64> = a
        .iter()
        .zip(&b)
        .filter(|(x, y)| x.error.is_none() && y.error.is_none())
        .map(|(x, y)| x.latency_s.min(y.latency_s) * 1e3)
        .collect();
    let sizes: Vec<f64> = a
        .iter()
        .filter(|s| s.error.is_none())
        .map(|s| s.bytes as f64 / 1e6)
        .collect();
    out.detail("latency_samples", best.len().to_string());
    out.detail("batch_jobs", (a.len() + b.len()).to_string());
    out.detail("setup_takes", takes.len().to_string());
    out.detail(
        "trace_mb",
        format!(
            "{{\"p10\": {}, \"p50\": {}, \"p90\": {}, \"max\": {}, \"per_round\": {}}}",
            json_f64(quantile(&sizes, 0.1)),
            json_f64(quantile(&sizes, 0.5)),
            json_f64(quantile(&sizes, 0.9)),
            json_f64(quantile(&sizes, 1.0)),
            json_f64(sizes.iter().sum())
        ),
    );
    let mean = |f: fn(&MixJob) -> u64| {
        json_f64(mix.iter().map(|j| f(j) as f64).sum::<f64>() / scenes as f64)
    };
    out.detail(
        "mix_mean",
        format!(
            "{{\"scenes\": {scenes}, \"trunks\": {}, \"sessions\": {}, \"duration_ms\": {}}}",
            mean(|j| j.trunks),
            mean(|j| j.sessions),
            mean(|j| j.duration_ms)
        ),
    );
    out.detail("spool", json_str(&work.display().to_string()));
    out.detail("daemon_cpu_s", json_f64(daemon_cpu));
    out.detail(
        "relay_peak_rss_mb",
        format!(
            "{{\"daemons\": {}, \"jobs_each\": {SEGMENT_JOBS}, \"min\": {}, \"p50\": {}, \"max\": {}}}",
            relay_peaks.len(),
            json_f64(quantile(&relay_peaks, 0.0)),
            json_f64(median(&relay_peaks)),
            json_f64(quantile(&relay_peaks, 1.0))
        ),
    );
    let m = &mut out.metrics;
    m.put("setup_s", median(&takes));
    m.put("wall_s", secs);
    m.put("peak_rss_mb", median(&relay_peaks));
    m.put(
        "jobs_per_s",
        if args.trace {
            ok_count(&b)
        } else {
            ok_count(&a) + ok_count(&b)
        } as f64
            / secs,
    );
    m.put("latency_p50_ms", quantile(&best, 0.5));
    m.put("latency_p90_ms", quantile(&best, 0.9));
    if !args.trace {
        return Ok(());
    }

    // Per-layer figures from the traced round.
    let ok: Vec<&JobSample> = b.iter().filter(|s| s.error.is_none()).collect();
    let ms =
        |f: &dyn Fn(&JobSample) -> f64| -> Vec<f64> { ok.iter().map(|s| f(s) * 1e3).collect() };
    let run_s = |s: &JobSample| records.get(&(s.daemon, s.id.clone())).map_or(0.0, |r| r.1);
    let streamed: u64 = ok.iter().map(|s| s.bytes).sum();
    let stream_secs: f64 = ok.iter().map(|s| s.latency_s - s.submit_s).sum();
    m.put("serve.submit_ms", median(&ms(&|s| s.submit_s)));
    m.put("serve.first_byte_ms", median(&ms(&|s| s.first_byte_s)));
    m.put("serve.run_ms", median(&ms(&run_s)));
    m.put(
        "serve.overhead_ms",
        median(&ms(&|s| s.latency_s - run_s(s))),
    );
    m.put("serve.stream_mb_per_s", streamed as f64 / 1e6 / stream_secs);
    m.put("serve.refused", refused);
    m.put(
        "serve.errors_5xx",
        all.iter().filter(|s| s.error_5xx).count() as f64,
    );
    m.put("serve.spool_mb", layers::mib(spool_bytes));
    m.put("serve.jobs", ok.len() as f64);
    m.put(
        "trace.bytes_per_job",
        median(&ok.iter().map(|s| s.bytes as f64).collect::<Vec<_>>()),
    );

    // In-process rates on the sampled job's scene and streamed bytes.
    let job = &mix[sample];
    let scene_run = layers::run_scene(&job.scene, job.seed, 20, tr, "sample")?;
    let (report, _) = layers::profile_slices(&scene_run.scene, job.seed, 20, 0, 20, tr, "sample");
    let (_, write_rate) = layers::writer_rate(&scene_run.scene, job.seed, tr);
    let macr_ns = layers::macr_update_ns(args.seed, tr);
    let m = &mut out.metrics;
    layers::scene_metrics(&scene_run, m);
    layers::profile_metrics(&report, m);
    m.put("sim.drops", scene_run.counters.drops as f64);
    m.put("sim.retransmits", scene_run.counters.retransmits as f64);
    m.put("sim.queue_peak", scene_run.counters.queue_peak as f64);
    m.put("trace.write_mb_per_s", write_rate);
    m.put("core.macr_update_ns", macr_ns);
    if let Some(text) = sampled_text {
        let targets = analysis_targets(&scene_run.scene);
        let (report, secs) = timed(|| {
            tr.span("analyze", "analyze_trace_str", "sample", |_| {
                analyze_trace_str(&text, targets, DEFAULT_WINDOW_SECS)
            })
        });
        report?;
        let events = text.lines().count().saturating_sub(1);
        out.metrics
            .put("analyze.events_per_s", events as f64 / secs);
    }
    out.unexercised = &["scenarios.", "analyze."];
    Ok(())
}

fn ok_count(samples: &[JobSample]) -> usize {
    samples.iter().filter(|s| s.error.is_none()).count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_parser_reads_labels_and_values() {
        let text = "# HELP phantom_serve_jobs_rejected_total jobs rejected at admission\n\
                    # TYPE phantom_serve_jobs_rejected_total counter\n\
                    phantom_serve_jobs_rejected_total{reason=\"queue_full\"} 3\n\
                    phantom_serve_jobs_rejected_total{reason=\"invalid\"} 1\n\
                    phantom_serve_queue_depth 0\n\
                    phantom_serve_job_run_seconds_bucket{le=\"0.5\",x=\"y\"} 12\n\
                    garbage line\n";
        let s = parse_prometheus(text);
        assert_eq!(s.len(), 4);
        assert_eq!(scrape_sum(&s, "phantom_serve_jobs_rejected_total"), 4.0);
        assert_eq!(s[0].1["reason"], "queue_full");
        assert_eq!(s[2].0, "phantom_serve_queue_depth");
        assert_eq!(s[3].1["le"], "0.5");
        assert_eq!(s[3].1["x"], "y");
    }

    #[test]
    fn scrape_parser_reads_a_real_registry() {
        let reg = phantom_metrics::Registry::new();
        reg.counter(
            "phantom_serve_jobs_rejected_total",
            &[("reason", "draining")],
        )
        .add(2);
        let manifest = phantom_metrics::manifest::Manifest::new(
            phantom_metrics::manifest::METRICS_SCHEMA,
            "t",
            0,
            "",
        );
        let s = parse_prometheus(&reg.to_prometheus(&manifest));
        assert_eq!(scrape_sum(&s, "phantom_serve_jobs_rejected_total"), 2.0);
    }

    #[test]
    fn stream_hash_ignores_how_bytes_are_split() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i * 7 % 251) as u8).collect();
        let mut whole = StreamHash::default();
        whole.update(&data);
        let mut parts = StreamHash::default();
        for c in data.chunks(13) {
            parts.update(c);
        }
        let mut other = StreamHash::default();
        other.update(&data[1..]);
        let w = whole.finish();
        assert_eq!(w, parts.finish());
        assert_ne!(w, other.finish());
    }
}
