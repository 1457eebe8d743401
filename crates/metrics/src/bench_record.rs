//! Machine-readable benchmark records.
//!
//! The `repro` harness emits one [`BenchRecord`] per invocation as JSON
//! (`BENCH_phantom.json`), so performance can be tracked run-over-run by
//! scripts rather than by eyeballing terminal output. The writer is
//! hand-rolled — the workspace builds without serde — and emits a stable,
//! minimal schema (`phantom-bench/5`): overall runs/sec and events/sec,
//! a provenance manifest, the event-calendar tag, per-run wall time,
//! event counts and health telemetry (drops, retransmits, queue peak),
//! plus an optional [`ScaleRecord`] — a memory-and-throughput probe of
//! one large generated scene (sessions-per-GB, events/s at scale) — and
//! an optional `shard_scaling` array of [`ShardScalePoint`]s: the scale
//! scene's events/s re-measured at several `--shards` counts.

use crate::json::{json_f64, json_str};
use crate::manifest::Manifest;
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// Measurements for one experiment run.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Experiment id, e.g. `"fig9"`.
    pub id: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Wall-clock seconds on the worker thread.
    pub wall_secs: f64,
    /// Simulator events dispatched.
    pub events: u64,
    /// Cells/packets dropped during the run (tail + policy + wire).
    pub drops: u64,
    /// TCP segments retransmitted during the run.
    pub retransmits: u64,
    /// Deepest queue observed during the run, in items.
    pub queue_peak: u64,
}

impl RunRecord {
    /// Events per wall-clock second for this run.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }
}

/// Memory-and-throughput measurements for one large generated scene,
/// the `scale` object of `phantom-bench/4`.
///
/// Collected by building and running the scene once on a quiet thread:
/// resident-set growth over the whole build+run (`None` when `/proc`
/// is unreadable on this platform) alongside the engine's own
/// accounting of node state and of the event calendar, so the parts can
/// be compared — RSS also includes node-owned heap blocks (port queues,
/// recorded series) and allocator slack that neither count covers.
#[derive(Clone, Debug)]
pub struct ScaleRecord {
    /// Scene id, e.g. `"metro-100k"`.
    pub scene: String,
    /// Master seed of the probe run.
    pub seed: u64,
    /// Sessions in the compiled scene.
    pub sessions: u64,
    /// Engine nodes in the compiled scene.
    pub nodes: u64,
    /// Simulator events dispatched by the probe run.
    pub events: u64,
    /// Wall-clock seconds for the probe run (build excluded).
    pub wall_secs: f64,
    /// Resident-set growth across build + run, in bytes; `None` when
    /// RSS is unreadable on this platform (renders as JSON `null`).
    pub rss_delta_bytes: Option<u64>,
    /// The engine's own accounting of per-node state
    /// (`Engine::nodes_footprint_bytes`) after the run.
    pub arena_bytes: u64,
    /// Heap bytes held by the event calendar after the run
    /// (`Engine::calendar_bytes`).
    pub calendar_bytes: u64,
    /// Heap the nodes own beyond their arena slots after the run: queue
    /// buffers, recorded series, histograms, route tables (the sum of
    /// `ArenaStats::heap_bytes`).
    pub node_heap_bytes: u64,
    /// Cells/packets dropped during the probe run.
    pub drops: u64,
    /// Deepest queue observed during the probe run, in items.
    pub queue_peak: u64,
}

impl ScaleRecord {
    /// Memory charged to one session: RSS growth when measured, the
    /// arena accounting otherwise.
    pub fn bytes_per_session(&self) -> f64 {
        let bytes = match self.rss_delta_bytes {
            Some(rss) if rss > 0 => rss,
            _ => self.arena_bytes,
        };
        if self.sessions > 0 {
            bytes as f64 / self.sessions as f64
        } else {
            0.0
        }
    }

    /// Sessions that fit in a gigabyte at the measured per-session cost —
    /// the headline capacity number of the scale gate.
    pub fn sessions_per_gb(&self) -> f64 {
        let per = self.bytes_per_session();
        if per > 0.0 {
            1e9 / per
        } else {
            0.0
        }
    }

    /// Events per wall-clock second for the probe run.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Render as a single-line JSON object (the `scale` value).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"scene\": {}, \"seed\": {}, \"sessions\": {}, \"nodes\": {}, \"events\": {}, \"wall_secs\": {}, \"events_per_sec\": {}, \"rss_delta_bytes\": {}, \"arena_bytes\": {}, \"calendar_bytes\": {}, \"node_heap_bytes\": {}, \"bytes_per_session\": {}, \"sessions_per_gb\": {}, \"drops\": {}, \"queue_peak\": {}}}",
            json_str(&self.scene),
            self.seed,
            self.sessions,
            self.nodes,
            self.events,
            json_f64(self.wall_secs),
            json_f64(self.events_per_sec()),
            match self.rss_delta_bytes {
                Some(b) => b.to_string(),
                None => "null".to_string(),
            },
            self.arena_bytes,
            self.calendar_bytes,
            self.node_heap_bytes,
            json_f64(self.bytes_per_session()),
            json_f64(self.sessions_per_gb()),
            self.drops,
            self.queue_peak
        )
    }
}

/// One point of the intra-run shard-scaling probe: the scale scene run
/// once at a fixed `--shards` count. An element of the `shard_scaling`
/// array introduced by `phantom-bench/5`.
#[derive(Clone, Debug)]
pub struct ShardScalePoint {
    /// Shard count of this run (1 = sharded engine, one worker).
    pub shards: usize,
    /// Scene id, e.g. `"metro-100k"`.
    pub scene: String,
    /// Master seed of the probe run.
    pub seed: u64,
    /// Simulator events dispatched (identical at every shard count —
    /// anything else is a determinism bug).
    pub events: u64,
    /// Wall-clock seconds for the run (build excluded).
    pub wall_secs: f64,
}

impl ShardScalePoint {
    /// Events per wall-clock second at this shard count.
    pub fn events_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.events as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// Render as a single-line JSON object (one `shard_scaling` element).
    pub fn to_json_line(&self) -> String {
        format!(
            "{{\"shards\": {}, \"scene\": {}, \"seed\": {}, \"events\": {}, \"wall_secs\": {}, \"events_per_sec\": {}}}",
            self.shards,
            json_str(&self.scene),
            self.seed,
            self.events,
            json_f64(self.wall_secs),
            json_f64(self.events_per_sec())
        )
    }
}

/// One `repro` invocation's worth of measurements.
#[derive(Clone, Debug)]
pub struct BenchRecord {
    /// Provenance of the batch (scenario set, seed, config hash, rev).
    pub manifest: Manifest,
    /// Worker threads the batch ran on.
    pub jobs: usize,
    /// Event-calendar implementation tag (e.g.
    /// `"timer-wheel/4096x8192ns"`, from `phantom_sim::CALENDAR`), so a
    /// recorded number is never compared against one from a different
    /// calendar without noticing.
    pub calendar: String,
    /// Wall-clock seconds for the whole batch.
    pub total_wall_secs: f64,
    /// Per-run measurements, in invocation order.
    pub runs: Vec<RunRecord>,
    /// Scale probe of one large generated scene, when `--scale` ran.
    pub scale: Option<ScaleRecord>,
    /// Intra-run shard-scaling points (`--shard-scaling`): the scale
    /// scene re-run at each shard count. Empty when the probe didn't run.
    pub shard_scaling: Vec<ShardScalePoint>,
}

impl BenchRecord {
    /// Completed runs per wall-clock second across the batch.
    pub fn runs_per_sec(&self) -> f64 {
        if self.total_wall_secs > 0.0 {
            self.runs.len() as f64 / self.total_wall_secs
        } else {
            0.0
        }
    }

    /// Aggregate events per wall-clock second across the batch.
    pub fn events_per_sec(&self) -> f64 {
        if self.total_wall_secs > 0.0 {
            self.runs.iter().map(|r| r.events).sum::<u64>() as f64 / self.total_wall_secs
        } else {
            0.0
        }
    }

    /// Serialize as a JSON document.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": {},", json_str(&self.manifest.schema));
        let _ = writeln!(s, "  \"manifest\": {},", self.manifest.to_json());
        let _ = writeln!(s, "  \"jobs\": {},", self.jobs);
        let _ = writeln!(s, "  \"calendar\": {},", json_str(&self.calendar));
        let _ = writeln!(
            s,
            "  \"total_wall_secs\": {},",
            json_f64(self.total_wall_secs)
        );
        let _ = writeln!(s, "  \"runs_per_sec\": {},", json_f64(self.runs_per_sec()));
        let _ = writeln!(
            s,
            "  \"events_total\": {},",
            self.runs.iter().map(|r| r.events).sum::<u64>()
        );
        let _ = writeln!(
            s,
            "  \"events_per_sec\": {},",
            json_f64(self.events_per_sec())
        );
        s.push_str("  \"runs\": [\n");
        for (i, r) in self.runs.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"id\": {}, \"seed\": {}, \"wall_secs\": {}, \"events\": {}, \"events_per_sec\": {}, \"drops\": {}, \"retransmits\": {}, \"queue_peak\": {}}}",
                json_str(&r.id),
                r.seed,
                json_f64(r.wall_secs),
                r.events,
                json_f64(r.events_per_sec()),
                r.drops,
                r.retransmits,
                r.queue_peak
            );
            s.push_str(if i + 1 < self.runs.len() { ",\n" } else { "\n" });
        }
        // Close the runs array, then append the optional trailing
        // blocks in a fixed order: `scale`, then `shard_scaling`.
        let mut tail: Vec<String> = Vec::new();
        if let Some(scale) = &self.scale {
            tail.push(format!("  \"scale\": {}", scale.to_json_line()));
        }
        if !self.shard_scaling.is_empty() {
            let mut block = String::from("  \"shard_scaling\": [\n");
            for (i, p) in self.shard_scaling.iter().enumerate() {
                block.push_str("    ");
                block.push_str(&p.to_json_line());
                block.push_str(if i + 1 < self.shard_scaling.len() {
                    ",\n"
                } else {
                    "\n"
                });
            }
            block.push_str("  ]");
            tail.push(block);
        }
        if tail.is_empty() {
            s.push_str("  ]\n}\n");
        } else {
            s.push_str("  ],\n");
            s.push_str(&tail.join(",\n"));
            s.push_str("\n}\n");
        }
        s
    }

    /// Write the JSON document to `path`.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                std::fs::create_dir_all(dir)?;
            }
        }
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::manifest::BENCH_SCHEMA;

    fn sample() -> BenchRecord {
        BenchRecord {
            manifest: Manifest::new(BENCH_SCHEMA, "repro", 1996, "fig2,table1"),
            jobs: 4,
            calendar: "timer-wheel/test".into(),
            total_wall_secs: 2.0,
            runs: vec![
                RunRecord {
                    id: "fig2".into(),
                    seed: 1996,
                    wall_secs: 0.5,
                    events: 1_000_000,
                    drops: 12,
                    retransmits: 0,
                    queue_peak: 88,
                },
                RunRecord {
                    id: "table1".into(),
                    seed: 1996,
                    wall_secs: 1.5,
                    events: 3_000_000,
                    drops: 0,
                    retransmits: 7,
                    queue_peak: 40,
                },
            ],
            scale: None,
            shard_scaling: Vec::new(),
        }
    }

    fn sample_scale() -> ScaleRecord {
        ScaleRecord {
            scene: "metro-100k".into(),
            seed: 1996,
            sessions: 100_000,
            nodes: 300_052,
            events: 10_000_000,
            wall_secs: 4.0,
            rss_delta_bytes: Some(2_000_000_000),
            arena_bytes: 50_000_000,
            calendar_bytes: 30_000_000,
            node_heap_bytes: 50_000_000,
            drops: 123,
            queue_peak: 16_384,
        }
    }

    #[test]
    fn rates_are_derived_from_totals() {
        let r = sample();
        assert_eq!(r.runs_per_sec(), 1.0);
        assert_eq!(r.events_per_sec(), 2_000_000.0);
        assert_eq!(r.runs[0].events_per_sec(), 2_000_000.0);
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let j = sample().to_json();
        assert!(j.starts_with('{') && j.ends_with("}\n"));
        assert!(j.contains("\"schema\": \"phantom-bench/5\""));
        assert!(j.contains("\"manifest\": {\"schema\":\"phantom-bench/5\""));
        assert!(j.contains("\"jobs\": 4"));
        assert!(j.contains("\"calendar\": \"timer-wheel/test\""));
        assert!(j.contains("\"events_total\": 4000000"));
        assert!(j.contains("{\"id\": \"fig2\", \"seed\": 1996"));
        assert!(j.contains("\"drops\": 12"));
        assert!(j.contains("\"retransmits\": 7"));
        assert!(j.contains("\"queue_peak\": 88"));
        // crude balance check, good enough for a fixed schema
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        // no scale probe -> no scale key; no shard probe -> no array
        assert!(!j.contains("\"scale\""));
        assert!(!j.contains("\"shard_scaling\""));
    }

    #[test]
    fn scale_derives_capacity_from_rss_with_arena_fallback() {
        let mut s = sample_scale();
        // 2 GB across 100k sessions: 20 kB each, 50k sessions/GB.
        assert_eq!(s.bytes_per_session(), 20_000.0);
        assert_eq!(s.sessions_per_gb(), 50_000.0);
        assert_eq!(s.events_per_sec(), 2_500_000.0);
        // RSS unreadable -> fall back to the engine's own accounting,
        // whether the probe failed (None) or measured no growth (0).
        s.rss_delta_bytes = None;
        assert_eq!(s.bytes_per_session(), 500.0);
        assert_eq!(s.sessions_per_gb(), 2_000_000.0);
        s.rss_delta_bytes = Some(0);
        assert_eq!(s.bytes_per_session(), 500.0);
    }

    #[test]
    fn unreadable_rss_renders_as_null() {
        let mut s = sample_scale();
        s.rss_delta_bytes = None;
        let line = s.to_json_line();
        assert!(line.contains("\"rss_delta_bytes\": null"));
        assert!(line.contains("\"bytes_per_session\": 500"));
    }

    #[test]
    fn scale_json_is_a_single_line_with_derived_fields() {
        let line = sample_scale().to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"scene\": \"metro-100k\""));
        assert!(line.contains("\"sessions\": 100000"));
        assert!(line.contains("\"events_per_sec\": 2500000"));
        assert!(line.contains("\"bytes_per_session\": 20000"));
        assert!(line.contains("\"sessions_per_gb\": 50000"));
        assert!(line.contains("\"calendar_bytes\": 30000000"));
        assert!(line.contains("\"node_heap_bytes\": 50000000"));
        assert!(line.contains("\"queue_peak\": 16384"));

        let mut rec = sample();
        rec.scale = Some(sample_scale());
        let j = rec.to_json();
        assert!(j.contains("\n  \"scale\": {\"scene\": \"metro-100k\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());
    }

    #[test]
    fn shard_scaling_renders_one_point_per_line_after_scale() {
        let p1 = ShardScalePoint {
            shards: 1,
            scene: "metro-100k".into(),
            seed: 1996,
            events: 10_000_000,
            wall_secs: 5.0,
        };
        assert_eq!(p1.events_per_sec(), 2_000_000.0);
        let line = p1.to_json_line();
        assert!(!line.contains('\n'));
        assert!(line.starts_with("{\"shards\": 1, \"scene\": \"metro-100k\""));
        assert!(line.contains("\"events_per_sec\": 2000000"));

        let mut rec = sample();
        rec.scale = Some(sample_scale());
        rec.shard_scaling = vec![
            p1,
            ShardScalePoint {
                shards: 4,
                scene: "metro-100k".into(),
                seed: 1996,
                events: 10_000_000,
                wall_secs: 2.0,
            },
        ];
        let j = rec.to_json();
        assert!(j.contains("\n  \"scale\": {\"scene\": \"metro-100k\""));
        assert!(j.contains("\n  \"shard_scaling\": [\n"));
        assert!(j.contains("\n    {\"shards\": 1, "));
        assert!(j.contains("\n    {\"shards\": 4, "));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert_eq!(j.matches('[').count(), j.matches(']').count());

        // shard_scaling without a scale probe still closes cleanly
        let mut rec2 = sample();
        rec2.shard_scaling = vec![ShardScalePoint {
            shards: 2,
            scene: "metro-100k".into(),
            seed: 1,
            events: 100,
            wall_secs: 1.0,
        }];
        let j2 = rec2.to_json();
        assert!(!j2.contains("\"scale\""));
        assert!(j2.contains("  ],\n  \"shard_scaling\": [\n"));
        assert_eq!(j2.matches('{').count(), j2.matches('}').count());
        assert_eq!(j2.matches('[').count(), j2.matches(']').count());
    }

    #[test]
    fn write_creates_parent_directories() {
        let dir = std::env::temp_dir().join("phantom-bench-record-test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("BENCH_phantom.json");
        sample().write(&path).unwrap();
        let back = std::fs::read_to_string(&path).unwrap();
        assert_eq!(back, sample().to_json());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
