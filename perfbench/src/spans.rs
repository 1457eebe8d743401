//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, the layer it times, start and end, the span that
//! encloses it on the same thread, and a request id (an experiment id or
//! a job id). Spans stay in memory and are written out when the workload
//! ends. A layer's self time is the duration of its spans minus the time
//! their child spans cover. With tracing off, [`Tracer::span`] only runs
//! the closure.

use phantom_metrics::json::json_str;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// The layers spans are attributed to: the repository's crates the
/// benchmark calls, plus `bench` for the benchmark's own code.
pub const LAYERS: [&str; 9] = [
    "bench",
    "scenarios",
    "scene",
    "sim",
    "trace",
    "analyze",
    "core",
    "serve",
    "cli",
];

struct Span {
    name: String,
    layer: &'static str,
    req: String,
    thread: usize,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// One thread's span recorder; [`Tracer::fork`] makes one per client
/// thread and [`Tracer::join`] merges it back.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    thread: usize,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; when `on` is false it records nothing.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            thread: 0,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's clock origin.
    pub fn fork(&self, thread: usize) -> Tracer {
        Tracer {
            on: self.on,
            epoch: self.epoch,
            thread,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Append the spans of a forked recorder.
    pub fn join(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Run `f` inside a span of `layer` named `name` for request `req`.
    pub fn span<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        req: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.on {
            return f(self);
        }
        debug_assert!(LAYERS.contains(&layer), "unknown layer {layer}");
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            req: req.to_string(),
            thread: self.thread,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Seconds of self time per layer, every layer of [`LAYERS`] present.
    pub fn self_secs(&self) -> BTreeMap<&'static str, f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
        for (s, kids) in self.spans.iter().zip(child_ns) {
            let own = (s.end_ns - s.start_ns).saturating_sub(kids);
            *out.entry(s.layer).or_default() += own as f64 / 1e9;
        }
        out
    }

    /// Spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\":{i},\"parent\":{parent},\"thread\":{},\"layer\":\"{}\",\"name\":{},\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.thread,
                s.layer,
                json_str(&s.name),
                json_str(&s.req),
                s.start_ns,
                s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.span("bench", "outer", "r", |t| {
            std::thread::sleep(std::time::Duration::from_millis(5));
            t.span("sim", "inner", "r", |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
        });
        let s = t.self_secs();
        assert!(s["sim"] >= 0.02, "{s:?}");
        assert!(s["bench"] >= 0.005 && s["bench"] < 0.02, "{s:?}");
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
    }

    #[test]
    fn off_records_nothing_and_join_rebases_parents() {
        let mut off = Tracer::new(false);
        assert_eq!(off.span("sim", "x", "", |_| 7), 7);
        assert_eq!(off.len(), 0);
        let mut main = Tracer::new(true);
        main.span("bench", "a", "", |_| ());
        let mut child = main.fork(1);
        child.span("bench", "job", "j", |t| t.span("serve", "GET", "j", |_| ()));
        main.join(child);
        assert_eq!(main.spans[2].parent, Some(1));
        assert_eq!(main.spans[2].thread, 1);
    }
}
