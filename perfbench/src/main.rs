//! `phantom-perfbench`: run one workload of the repository benchmark.
//!
//! ```text
//! phantom-perfbench --workload sweep|metro|serve --seed N --seconds S \
//!     --trace 0|1 [--root DIR] [--phantom PATH]
//! ```
//!
//! `perfbench/run.py` builds this binary and the `phantom` daemon and
//! runs it from the repository root. With `--trace 0` it reports the
//! end-to-end metrics of `BENCHMARK.json`; with `--trace 1` it reports
//! the per-layer metrics, recording spans around its calls into each
//! crate and writing them to `.bench_work/spans/`. The line before the
//! last on standard output is a detail record (host, sample counts,
//! input distribution); the last line is the result object. Output
//! checks run outside every timed phase; a failed check counts against
//! `ok_frac` and makes the exit code 1. See `perfbench/README.md`.

mod catalog;
mod host;
mod layers;
mod metro;
mod mix;
mod serve;
mod spans;
mod stats;
mod sweep;

use phantom_metrics::json::{json_f64, json_str};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line.
pub struct Args {
    /// `sweep`, `metro` or `serve`.
    pub workload: String,
    /// Workload seed: every input of the run derives from it.
    pub seed: u64,
    /// Target length of the measured phase.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Repository root (inputs and the committed records live here).
    pub root: PathBuf,
    /// The `phantom` binary the `serve` workload starts as its daemon.
    pub phantom: PathBuf,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut a = Args {
            workload: String::new(),
            seed: 1,
            seconds: 20.0,
            trace: false,
            root: PathBuf::from("."),
            phantom: PathBuf::from(".bench_build/release/phantom"),
        };
        while let Some(flag) = it.next() {
            let mut val = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => a.workload = val()?,
                "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
                "--trace" => a.trace = val()? == "1",
                "--root" => a.root = PathBuf::from(val()?),
                "--phantom" => a.phantom = PathBuf::from(val()?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if !matches!(a.workload.as_str(), "sweep" | "metro" | "serve") {
            return Err(format!("unknown workload `{}`", a.workload));
        }
        if a.seconds.is_nan() || a.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(a)
    }

    /// Scratch directory for this run's files, inside the checkout.
    pub fn work_dir(&self) -> PathBuf {
        self.root.join(".bench_work")
    }
}

/// Measured metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Record `name = value`.
    pub fn put(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// What a workload hands back.
#[derive(Default)]
pub struct Outcome {
    /// Measured metrics.
    pub metrics: Metrics,
    /// Operations attempted: experiment runs, metro runs, submitted jobs.
    pub attempted: u64,
    /// One message per failed operation or failed output check.
    pub failures: Vec<String>,
    /// Extra fields of the detail line, as `(key, JSON value)`.
    pub detail: Vec<(String, String)>,
    /// Prefixes of per-layer metrics this workload does not exercise;
    /// they read 0.
    pub unexercised: &'static [&'static str],
}

impl Outcome {
    /// Record a failed operation or check.
    pub fn fail(&mut self, msg: String) {
        eprintln!("perfbench: FAILED: {msg}");
        self.failures.push(msg);
    }

    /// Add a detail field holding a JSON value.
    pub fn detail(&mut self, key: &str, json: String) {
        self.detail.push((key.to_string(), json));
    }

    /// Successful share of attempted operations.
    pub fn ok_frac(&self) -> f64 {
        let failed = (self.failures.len() as u64).min(self.attempted);
        1.0 - failed as f64 / self.attempted.max(1) as f64
    }
}

fn run(args: &Args) -> Result<(Outcome, String), String> {
    let cat = catalog::Catalog::load(&args.root.join("BENCHMARK.json"))?;
    let host0 = host::HostSample::now();
    let mut tr = spans::Tracer::new(args.trace);
    let mut out = tr.span("bench", &args.workload, &args.workload, |tr| {
        match args.workload.as_str() {
            "sweep" => sweep::run(args, tr),
            "metro" => metro::run(args, tr),
            _ => serve::run(args, tr),
        }
    })?;
    let cpu_s = host::cpu_secs("self", true);
    let steal = host0.steal_frac();
    out.metrics.put("ok_frac", out.ok_frac());
    if !out.metrics.0.contains_key("peak_rss_mb") {
        out.metrics
            .put("peak_rss_mb", layers::mib(host::peak_rss_bytes("self")));
    }
    out.metrics.put("host.cpu_s", cpu_s);
    out.metrics.put("host.steal_frac", steal);
    if args.trace {
        for (layer, secs) in tr.self_secs() {
            out.metrics.put(&format!("self_s.{layer}"), secs);
        }
        let path = args
            .work_dir()
            .join("spans")
            .join(format!("{}-{}.jsonl", args.workload, args.seed));
        tr.write(&path)
            .map_err(|e| format!("cannot write spans {}: {e}", path.display()))?;
        out.detail("spans", json_str(&path.display().to_string()));
        out.detail("span_count", tr.len().to_string());
    }
    let wanted = if args.trace {
        &cat.per_layer
    } else {
        &cat.end_to_end
    };
    let mut fields = Vec::new();
    for m in wanted {
        let unexercised = out.unexercised.iter().any(|p| m.name.starts_with(p));
        let v = match out.metrics.0.get(&m.name) {
            Some(&v) => v,
            None if unexercised => 0.0,
            None => {
                return Err(format!(
                    "workload {} did not measure `{}`",
                    args.workload, m.name
                ))
            }
        };
        if !v.is_finite() {
            return Err(format!("metric `{}` is not finite: {v}", m.name));
        }
        fields.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(&m.name),
            json_f64(v),
            json_str(&m.unit)
        ));
    }
    let mut detail = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".into(), args.seed.to_string()),
        ("seconds".into(), json_f64(args.seconds)),
        ("trace".into(), args.trace.to_string()),
        (
            "host".into(),
            format!(
                "{{\"nproc\": {}, \"cpu_model\": {}, \"steal_frac\": {}, \"cpu_s\": {}, \"wall_s\": {}}}",
                host::nproc(),
                json_str(&host::cpu_model()),
                json_f64(steal),
                json_f64(cpu_s),
                json_f64(host0.elapsed())
            ),
        ),
    ];
    detail.append(&mut out.detail);
    if !out.failures.is_empty() {
        let msgs: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
        detail.push(("failures".into(), format!("[{}]", msgs.join(", "))));
    }
    let detail_line = detail
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(", ");
    println!("{{\"detail\": {{{detail_line}}}}}");
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        (out.failures.len() as u64).min(out.attempted.max(1)),
        fields.join(", ")
    );
    Ok((out, result))
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok((out, result)) => {
            println!("{result}");
            if out.failures.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
