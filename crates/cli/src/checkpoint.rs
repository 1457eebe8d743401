//! `phantom-checkpoint/1`: periodic engine checkpoints and `phantom
//! resume`.
//!
//! A checkpoint is one JSONL file carrying everything needed to continue
//! a run as if it had never stopped: the run's provenance manifest, the
//! original input text (scene JSON or topology DSL) so the topology can
//! be rebuilt, the trace file's byte offset at the snapshot instant, the
//! telemetry counters so far, and the engine's complete dynamic state
//! (every node's fields + RNG stream, the clock, and every pending
//! calendar event with its `(time, seq)` ordering key).
//!
//! The hard contract: a resumed run's event sequence is byte-identical
//! to the suffix of the uninterrupted run. Everything here serves that —
//! all `u64` values are rendered as JSON *strings* (RNG state words
//! exceed 2^53, and [`Json`] holds every number as an `f64`), floats
//! inside node state use the engine's exact round-trip `key=value`
//! encoding, and checkpoint instants are aligned to absolute sim-time
//! boundaries so a resumed run re-checkpoints at the identical instants.

use crate::exec::{build_topology, collect_report, run_driver, CheckpointEvery, RunOptions};
use phantom_atm::AtmMsg;
use phantom_metrics::json::{json_str, Json};
use phantom_metrics::manifest::{fnv1a_64, Manifest, CHECKPOINT_SCHEMA, METRICS_SCHEMA};
use phantom_metrics::write_atomic;
use phantom_scenarios::probes::{ProbeSpec, ProbeStack};
use phantom_scene::{compile, parse_scene, RunPlan};
use phantom_sim::telemetry::{self, RunCounters, RunMarker};
use phantom_sim::{Engine, EngineSnapshot, EventSnapshot, NodeSnapshot, SimTime};
use std::path::{Path, PathBuf};

/// `kind` value for checkpoints of a `phantom-scene/1` run.
pub const KIND_SCENE: &str = "scene";
/// `kind` value for checkpoints of a topology-DSL run.
pub const KIND_TOPOLOGY: &str = "topology";

/// Everything read back from one checkpoint file.
#[derive(Debug)]
pub struct CheckpointDoc {
    /// Scenario id from the provenance manifest.
    pub scenario: String,
    /// Master seed of the checkpointed run.
    pub seed: u64,
    /// Config fingerprint of the checkpointed run (16 hex digits);
    /// verified against the rebuilt topology before restoring.
    pub config_hash: String,
    /// [`KIND_SCENE`] or [`KIND_TOPOLOGY`].
    pub kind: String,
    /// The original input text, verbatim.
    pub source: String,
    /// The original run's horizon, in sim-nanoseconds.
    pub until_ns: u64,
    /// Byte length of the run's trace file at the snapshot instant
    /// (0 when the run was untraced). A resumed suffix trace appended
    /// at this offset reproduces the uninterrupted trace exactly.
    pub trace_offset: u64,
    /// Telemetry counters accumulated up to the snapshot instant.
    pub counters: RunCounters,
    /// The engine's complete dynamic state.
    pub snap: EngineSnapshot,
}

fn u64s(v: u64) -> String {
    format!("\"{v}\"")
}

/// Render a checkpoint as `phantom-checkpoint/1` JSONL text.
pub fn render_checkpoint(
    manifest: &Manifest,
    kind: &str,
    source: &str,
    until: SimTime,
    trace_offset: u64,
    counters: &RunCounters,
    snap: &EngineSnapshot,
) -> String {
    let mut out = String::with_capacity(snap.nodes.len() * 128 + snap.events.len() * 64 + 256);
    out.push_str(&manifest.for_schema(CHECKPOINT_SCHEMA).to_json());
    out.push('\n');
    out.push_str(&format!(
        "{{\"record\":\"run\",\"kind\":{},\"seed\":{},\"until_ns\":{},\
         \"trace_offset\":{},\"drops\":{},\"retransmits\":{},\"queue_peak\":{},\
         \"schedule_past\":{},\"source\":{}}}\n",
        json_str(kind),
        u64s(manifest.seed),
        u64s(until.0),
        u64s(trace_offset),
        u64s(counters.drops),
        u64s(counters.retransmits),
        u64s(counters.queue_peak),
        u64s(counters.schedule_past),
        json_str(source),
    ));
    out.push_str(&format!(
        "{{\"record\":\"engine\",\"now_ns\":{},\"events_processed\":{},\"next_seq\":{}}}\n",
        u64s(snap.now.0),
        u64s(snap.events_processed),
        u64s(snap.next_seq),
    ));
    for n in &snap.nodes {
        out.push_str(&format!(
            "{{\"record\":\"node\",\"id\":{},\"type\":{},\"rng\":{},\"state\":{}}}\n",
            u64s(n.id as u64),
            json_str(&n.type_name),
            json_str(&format!(
                "{},{},{},{}",
                n.rng[0], n.rng[1], n.rng[2], n.rng[3]
            )),
            json_str(&n.state),
        ));
    }
    for e in &snap.events {
        out.push_str(&format!(
            "{{\"record\":\"event\",\"t_ns\":{},\"seq\":{},\"dst\":{},\"msg\":{}}}\n",
            u64s(e.time.0),
            u64s(e.seq),
            u64s(e.dst as u64),
            json_str(&e.msg),
        ));
    }
    out
}

fn get_str(obj: &Json, key: &str) -> Result<String, String> {
    match obj.get(key) {
        Some(Json::Str(s)) => Ok(s.clone()),
        Some(other) => Err(format!("field {key:?} is not a string: {}", other.dump())),
        None => Err(format!("missing field {key:?}")),
    }
}

/// Checkpoint `u64` fields are JSON strings (exact beyond 2^53).
fn get_u64(obj: &Json, key: &str) -> Result<u64, String> {
    let raw = get_str(obj, key)?;
    raw.parse()
        .map_err(|e| format!("field {key:?}={raw:?}: {e}"))
}

/// Parse one checkpoint file back into a [`CheckpointDoc`].
pub fn read_checkpoint(path: &Path) -> Result<CheckpointDoc, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read checkpoint {}: {e}", path.display()))?;
    let mut lines = text.lines().enumerate();
    let parse = |i: usize, line: &str| {
        Json::parse_line(line, i + 1).map_err(|e| format!("{}: {e}", path.display()))
    };

    let (i, line) = lines.next().ok_or("empty checkpoint")?;
    let head = parse(i, line)?;
    let schema = get_str(&head, "schema")?;
    if schema != CHECKPOINT_SCHEMA {
        return Err(format!(
            "{} is {schema:?}, not {CHECKPOINT_SCHEMA:?}",
            path.display()
        ));
    }
    let scenario = get_str(&head, "scenario")?;
    let config_hash = get_str(&head, "config_hash")?;

    let (i, line) = lines
        .next()
        .ok_or("checkpoint truncated before run record")?;
    let run = parse(i, line)?;
    if get_str(&run, "record")? != "run" {
        return Err("second checkpoint line must be the run record".into());
    }
    let kind = get_str(&run, "kind")?;
    let seed = get_u64(&run, "seed")?;
    let until_ns = get_u64(&run, "until_ns")?;
    let trace_offset = get_u64(&run, "trace_offset")?;
    let counters = RunCounters {
        drops: get_u64(&run, "drops")?,
        retransmits: get_u64(&run, "retransmits")?,
        queue_peak: get_u64(&run, "queue_peak")?,
        schedule_past: get_u64(&run, "schedule_past")?,
    };
    let source = get_str(&run, "source")?;

    let (i, line) = lines
        .next()
        .ok_or("checkpoint truncated before engine record")?;
    let eng = parse(i, line)?;
    if get_str(&eng, "record")? != "engine" {
        return Err("third checkpoint line must be the engine record".into());
    }
    let mut snap = EngineSnapshot {
        now: SimTime(get_u64(&eng, "now_ns")?),
        events_processed: get_u64(&eng, "events_processed")?,
        next_seq: get_u64(&eng, "next_seq")?,
        nodes: Vec::new(),
        events: Vec::new(),
    };
    for (i, line) in lines {
        let pairs = parse(i, line)?;
        match get_str(&pairs, "record")?.as_str() {
            "node" => {
                let rng_raw = get_str(&pairs, "rng")?;
                let words: Vec<u64> = rng_raw
                    .split(',')
                    .map(|t| t.parse().map_err(|e| format!("bad rng word {t:?}: {e}")))
                    .collect::<Result<_, String>>()?;
                let rng: [u64; 4] = words
                    .try_into()
                    .map_err(|_| format!("rng must have 4 words: {rng_raw:?}"))?;
                snap.nodes.push(NodeSnapshot {
                    id: get_u64(&pairs, "id")? as usize,
                    type_name: get_str(&pairs, "type")?,
                    rng,
                    state: get_str(&pairs, "state")?,
                });
            }
            "event" => snap.events.push(EventSnapshot {
                time: SimTime(get_u64(&pairs, "t_ns")?),
                seq: get_u64(&pairs, "seq")?,
                dst: get_u64(&pairs, "dst")? as usize,
                msg: get_str(&pairs, "msg")?,
            }),
            other => return Err(format!("unknown checkpoint record {other:?} on line {i}")),
        }
    }
    Ok(CheckpointDoc {
        scenario,
        seed,
        config_hash,
        kind,
        source,
        until_ns,
        trace_offset,
        counters,
        snap,
    })
}

/// Checkpoint file name: zero-padded `(now_ns, events)` so lexical order
/// is simulation order and the nearest-prior scan needs no file reads.
pub fn checkpoint_filename(snap: &EngineSnapshot) -> String {
    format!(
        "ckpt-{:020}-{:020}.jsonl",
        snap.now.0, snap.events_processed
    )
}

fn parse_filename_now_ns(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("ckpt-")?.strip_suffix(".jsonl")?;
    let (now, _events) = rest.split_once('-')?;
    now.parse().ok()
}

/// Find the checkpoint in `dir` with the greatest snapshot instant not
/// after `t_ns` — the natural restore point for replaying up to an event
/// at `t_ns`. Returns `None` when no checkpoint precedes it.
pub fn nearest_checkpoint(dir: &Path, t_ns: u64) -> Result<Option<PathBuf>, String> {
    let mut best: Option<(u64, PathBuf)> = None;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(now_ns) = parse_filename_now_ns(name) else {
            continue;
        };
        if now_ns <= t_ns && best.as_ref().is_none_or(|(b, _)| now_ns > *b) {
            best = Some((now_ns, entry.path()));
        }
    }
    Ok(best.map(|(_, p)| p))
}

/// Emits checkpoints at their cadence while driving the engine forward.
/// Owned by the run loop: `run_driver` calls [`CkptDriver::advance`]
/// instead of `run_until` so checkpoint instants land exactly on their
/// boundaries regardless of heartbeat slicing.
pub struct CkptDriver<'a> {
    every: CheckpointEvery,
    dir: PathBuf,
    manifest: Manifest,
    kind: &'static str,
    source: String,
    until: SimTime,
    trace_path: Option<PathBuf>,
    marker: &'a RunMarker,
    next_time_ns: Option<u64>,
    /// Checkpoint files written so far, in emission order.
    pub written: Vec<PathBuf>,
}

impl<'a> CkptDriver<'a> {
    /// Build a driver from the run options, or `None` when checkpointing
    /// was not requested. Errors on a half-configured request.
    pub fn from_opts(
        opts: &RunOptions,
        manifest: &Manifest,
        kind: &'static str,
        until: SimTime,
        marker: &'a RunMarker,
    ) -> Result<Option<Self>, String> {
        let (every, dir) = match (opts.checkpoint_every, &opts.checkpoint_dir) {
            (Some(e), Some(d)) => (e, d.clone()),
            (None, None) => return Ok(None),
            _ => {
                return Err(
                    "checkpointing needs both --checkpoint-every and --checkpoint-dir".into(),
                )
            }
        };
        if opts.checkpoint_source.is_empty() {
            return Err("checkpointing requires the original input text to embed; \
                 this entry point did not supply one"
                .into());
        }
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Some(CkptDriver {
            every,
            dir,
            manifest: manifest.clone(),
            kind,
            source: opts.checkpoint_source.clone(),
            until,
            trace_path: opts.trace.clone(),
            marker,
            next_time_ns: None,
            written: Vec::new(),
        }))
    }

    /// Drive the engine to `target`, emitting a checkpoint at every
    /// cadence boundary crossed on the way. Boundaries are absolute
    /// (multiples of the period since time zero / event zero), so a
    /// resumed run checkpoints at the identical instants the
    /// uninterrupted run would have.
    pub fn advance(&mut self, engine: &mut Engine<AtmMsg>, target: SimTime) -> Result<(), String> {
        match self.every {
            CheckpointEvery::SimSecs(secs) => {
                let step_ns = ((secs * 1e9).round() as u64).max(1);
                let mut next = self
                    .next_time_ns
                    .unwrap_or_else(|| (engine.now().0 / step_ns + 1) * step_ns);
                while next <= target.0 {
                    engine.run_until(SimTime(next));
                    self.emit(engine)?;
                    next += step_ns;
                }
                self.next_time_ns = Some(next);
                engine.run_until(target);
            }
            CheckpointEvery::Events(n) => loop {
                let done_so_far = engine.events_processed();
                let cap = (done_so_far / n + 1) * n - done_so_far;
                let done = engine.run_until_capped(target, cap);
                if done < cap {
                    break; // target reached before the next boundary
                }
                self.emit(engine)?;
            },
        }
        Ok(())
    }

    fn emit(&mut self, engine: &Engine<AtmMsg>) -> Result<(), String> {
        // The trace offset is only meaningful once every event up to this
        // instant has reached the file.
        phantom_sim::probe::flush_thread_probe();
        let trace_offset = match &self.trace_path {
            Some(p) => std::fs::metadata(p)
                .map_err(|e| format!("cannot stat trace {}: {e}", p.display()))?
                .len(),
            None => 0,
        };
        let snap = engine.snapshot()?;
        let counters = self.marker.so_far();
        let text = render_checkpoint(
            &self.manifest,
            self.kind,
            &self.source,
            self.until,
            trace_offset,
            &counters,
            &snap,
        );
        let path = self.dir.join(checkpoint_filename(&snap));
        write_atomic(&path, &text)
            .map_err(|e| format!("cannot write checkpoint {}: {e}", path.display()))?;
        self.written.push(path);
        Ok(())
    }
}

/// A topology rebuilt from a checkpoint's embedded source, ready for
/// [`Engine::restore`]. A topology-DSL run also carries what its report
/// collection needs; a scene run resumes through a `RunPlan` instead.
pub enum Rebuilt {
    /// A `phantom-scene/1` run.
    Scene {
        /// Freshly compiled engine (pre-restore), boxed to keep the
        /// variants near the same size.
        engine: Box<Engine<AtmMsg>>,
    },
    /// A topology-DSL run.
    Topology {
        /// The parsed spec.
        spec: crate::spec::TopologySpec,
        /// Freshly built engine (pre-restore), boxed like `Scene`'s.
        engine: Box<Engine<AtmMsg>>,
        /// Topology handles.
        net: phantom_atm::network::Network,
    },
}

/// Refuse to restore a checkpoint into any topology other than its own.
fn verify_config(doc: &CheckpointDoc, config: &str) -> Result<(), String> {
    let hash = format!("{:016x}", fnv1a_64(config.as_bytes()));
    if hash != doc.config_hash {
        return Err(format!(
            "config mismatch: checkpoint was taken under {} but the embedded \
             source rebuilds to {hash} — refusing to restore",
            doc.config_hash
        ));
    }
    Ok(())
}

/// The checkpoint's embedded scene, verified against its fingerprint.
fn scene_of(doc: &CheckpointDoc) -> Result<phantom_scene::Scene, String> {
    let scene = parse_scene(&doc.source)?;
    verify_config(doc, &scene.id)?;
    Ok(scene)
}

/// Rebuild the checkpoint's topology from its embedded source and verify
/// the config fingerprint — a checkpoint must never restore into a
/// topology other than its own.
pub fn rebuild(doc: &CheckpointDoc) -> Result<Rebuilt, String> {
    match doc.kind.as_str() {
        KIND_SCENE => {
            let engine = compile(&scene_of(doc)?, doc.seed).engine;
            Ok(Rebuilt::Scene {
                engine: Box::new(engine),
            })
        }
        KIND_TOPOLOGY => {
            let spec = crate::parse::parse_str(&doc.source).map_err(|e| e.to_string())?;
            verify_config(doc, &format!("{spec:?}"))?;
            let (engine, net) = build_topology(&spec);
            Ok(Rebuilt::Topology {
                spec,
                engine: Box::new(engine),
                net,
            })
        }
        other => Err(format!("unknown checkpoint kind {other:?}")),
    }
}

/// What `phantom resume` hands back for printing and testing.
pub struct ResumeOutcome {
    /// The finished run's report, rendered exactly as the uninterrupted
    /// run would have rendered it.
    pub rendered: String,
    /// Total events processed, checkpoint prefix included.
    pub events: u64,
    /// Whole-run telemetry counters (checkpoint prefix + resumed suffix).
    pub counters: RunCounters,
}

/// Restore a checkpoint and run it to completion (or to `until_override`).
///
/// The suffix trace (`opts.trace`) is written *headerless*: concatenating
/// the uninterrupted trace's first `trace_offset` bytes with this file
/// reproduces the uninterrupted trace byte-for-byte. Checkpointing during
/// a resume works too (the cadence boundaries are absolute, so the
/// emitted files match the uninterrupted run's).
pub fn resume(
    ckpt: &Path,
    until_override: Option<SimTime>,
    opts: &RunOptions,
) -> Result<ResumeOutcome, String> {
    let doc = read_checkpoint(ckpt)?;
    let until = until_override.unwrap_or(SimTime(doc.until_ns));
    if until < doc.snap.now {
        return Err(format!(
            "--until {:?} precedes the checkpoint instant {:?}",
            until, doc.snap.now
        ));
    }

    // Checkpoint-during-resume inherits the original source verbatim.
    let mut opts = opts.clone();
    if opts.checkpoint_source.is_empty() {
        opts.checkpoint_source = doc.source.clone();
    }
    // The suffix trace continues the original file, which already has
    // its manifest line.
    let probes = ProbeSpec {
        trace_headerless: true,
        ..opts.probe_spec(None)
    };
    // Restore the checkpointed dynamics into the freshly built topology,
    // then drive it on to the horizon.
    let drive = |engine: &mut Engine<AtmMsg>,
                 manifest: &Manifest,
                 marker: &RunMarker,
                 kind: &'static str,
                 scenario: &str| {
        engine.restore(&doc.snap)?;
        telemetry::preload(&doc.counters);
        let mut ckpt_driver = CkptDriver::from_opts(&opts, manifest, kind, until, marker)?;
        run_driver(
            engine,
            until,
            &opts,
            scenario,
            doc.seed,
            ckpt_driver.as_mut(),
        )
    };

    if doc.kind == KIND_SCENE {
        let scene = scene_of(&doc)?;
        let plan = RunPlan {
            probes,
            until: Some(until),
            ..RunPlan::new(&scene, doc.seed)
        };
        let out = plan.run(|d| drive(d.engine, d.manifest, d.marker, KIND_SCENE, &scene.id))?;
        return Ok(ResumeOutcome {
            rendered: out.result.render(0),
            events: doc.snap.events_processed + out.events,
            counters: out.counters,
        });
    }
    let Rebuilt::Topology {
        spec,
        mut engine,
        net,
    } = rebuild(&doc)?
    else {
        unreachable!("scene checkpoints resumed above")
    };
    // The artifact manifest matches the original run's, so flight dumps
    // and re-checkpoints carry the same provenance.
    let manifest = Manifest::new(
        METRICS_SCHEMA,
        &doc.scenario,
        doc.seed,
        &format!("{spec:?}"),
    );
    let stack = ProbeStack::install(&manifest, &probes)?;
    let marker = telemetry::begin_run();
    drive(
        &mut engine,
        &manifest,
        &marker,
        KIND_TOPOLOGY,
        &doc.scenario,
    )?;
    stack.finish();
    let counters = marker.finish();
    let report = collect_report(&spec, &engine, &net, counters);
    Ok(ResumeOutcome {
        rendered: report.render(&spec),
        events: report.events,
        counters,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_round_trips_through_the_reader() {
        let snap = EngineSnapshot {
            now: SimTime(123_456_789),
            events_processed: 42,
            next_seq: u64::MAX - 1, // exceeds 2^53: must survive as a string
            nodes: vec![NodeSnapshot {
                id: 0,
                type_name: "demo::Node<alloc::boxed::Box<dyn Thing>>".into(),
                rng: [u64::MAX, 1, 2, 3],
                state: "q=5 macr=13.64 name=a%20b%3Dc".into(),
            }],
            events: vec![EventSnapshot {
                time: SimTime(33_600_000_000), // beyond the wheel horizon
                seq: 7,
                dst: 0,
                msg: "Cell {\"x\"}".into(),
            }],
        };
        let counters = RunCounters {
            drops: 9,
            retransmits: 0,
            queue_peak: 1 << 60,
            schedule_past: 0,
        };
        let manifest = Manifest::new(CHECKPOINT_SCHEMA, "fig2", 1996, "fig2");
        let text = render_checkpoint(
            &manifest,
            KIND_SCENE,
            "{\"id\": \"fig2\",\n \"x\": 1}",
            SimTime(400_000_000),
            777,
            &counters,
            &snap,
        );

        let dir = std::env::temp_dir().join(format!("phantom-ckpt-rt-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join(checkpoint_filename(&snap));
        std::fs::write(&path, &text).unwrap();
        let doc = read_checkpoint(&path).unwrap();
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(doc.scenario, "fig2");
        assert_eq!(doc.seed, 1996);
        assert_eq!(doc.kind, KIND_SCENE);
        assert_eq!(doc.source, "{\"id\": \"fig2\",\n \"x\": 1}");
        assert_eq!(doc.until_ns, 400_000_000);
        assert_eq!(doc.trace_offset, 777);
        assert_eq!(doc.counters, counters);
        assert_eq!(doc.snap, snap);
    }

    #[test]
    fn filenames_sort_in_simulation_order_and_scan_finds_nearest_prior() {
        let dir = std::env::temp_dir().join(format!("phantom-ckpt-scan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mk = |now: u64, ev: u64| {
            let snap = EngineSnapshot {
                now: SimTime(now),
                events_processed: ev,
                next_seq: 0,
                nodes: vec![],
                events: vec![],
            };
            let name = checkpoint_filename(&snap);
            std::fs::write(dir.join(&name), "").unwrap();
            name
        };
        let a = mk(50_000_000, 10);
        let b = mk(100_000_000, 20);
        let c = mk(2_000_000_000, 30);
        let mut sorted = vec![c.clone(), a.clone(), b.clone()];
        sorted.sort();
        assert_eq!(sorted, vec![a, b.clone(), c]);

        let hit = nearest_checkpoint(&dir, 150_000_000).unwrap().unwrap();
        assert_eq!(hit.file_name().unwrap().to_str().unwrap(), b);
        assert!(nearest_checkpoint(&dir, 10).unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn half_configured_checkpointing_is_an_error() {
        let marker = telemetry::begin_run();
        let manifest = Manifest::new(CHECKPOINT_SCHEMA, "x", 1, "x");
        let opts = RunOptions {
            checkpoint_every: Some(CheckpointEvery::SimSecs(0.1)),
            ..RunOptions::default()
        };
        assert!(
            CkptDriver::from_opts(&opts, &manifest, KIND_SCENE, SimTime(1), &marker).is_err(),
            "--checkpoint-every without --checkpoint-dir"
        );
        let opts = RunOptions::default();
        assert!(
            CkptDriver::from_opts(&opts, &manifest, KIND_SCENE, SimTime(1), &marker)
                .unwrap()
                .is_none()
        );
    }
}
