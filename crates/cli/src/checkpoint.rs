//! `phantom-checkpoint/2`: periodic engine checkpoints and `phantom
//! resume`.
//!
//! A checkpoint is one JSONL file carrying everything needed to continue
//! a run as if it had never stopped: the run's provenance manifest, the
//! run's scene as canonical JSON (a topology file is embedded as the
//! scene it lowers to), the trace file's byte offset at the snapshot instant, the
//! telemetry counters so far, and the engine's complete dynamic state
//! (every node's fields, RNG stream and send count, the clock, and every
//! pending calendar event with its `(time, seq)` ordering key).
//!
//! The hard contract: a resumed run's event sequence is byte-identical
//! to the suffix of the uninterrupted run. Everything here serves that —
//! all `u64` values are rendered as JSON *strings* (RNG state words
//! exceed 2^53, and [`Json`] holds every number as an `f64`), floats
//! inside node state use the engine's exact round-trip `key=value`
//! encoding, and checkpoint instants are aligned to absolute sim-time
//! boundaries so a resumed run re-checkpoints at the identical instants.
//! The ordering keys do not depend on the shard count, so a checkpoint
//! taken at one `--shards` value resumes at any other.

use crate::exec::{run_driver, CheckpointEvery, RunArtifacts, RunOptions};
use phantom_atm::AtmMsg;
use phantom_metrics::json::{json_str, Json};
use phantom_metrics::manifest::{fnv1a_64, Manifest, CHECKPOINT_SCHEMA};
use phantom_metrics::write_atomic;
use phantom_scene::probes::ProbeSpec;
use phantom_scene::{parse_scene, RunPlan, Scene};
use phantom_sim::telemetry::{self, RunCounters, RunMarker};
use phantom_sim::{Engine, EngineSnapshot, EventSnapshot, NodeSnapshot, SimTime};
use std::path::{Path, PathBuf};

/// `kind` of every checkpoint: the run of a `phantom-scene/1` scene.
pub const KIND_SCENE: &str = "scene";

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
    /// The run's scene, as canonical `phantom-scene/1` JSON.
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

/// The retired checkpoint schema, refused by name: its event `seq`s are
/// insertion-order tie-breaks and its nodes carry no send counts.
const CHECKPOINT_SCHEMA_V1: &str = "phantom-checkpoint/1";

/// Render a checkpoint as `phantom-checkpoint/2` JSONL text.
pub fn render_checkpoint(
    manifest: &Manifest,
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
        json_str(KIND_SCENE),
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
            "{{\"record\":\"node\",\"id\":{},\"type\":{},\"rng\":{},\"send_seq\":{},\"state\":{}}}\n",
            u64s(n.id as u64),
            json_str(&n.type_name),
            json_str(&format!(
                "{},{},{},{}",
                n.rng[0], n.rng[1], n.rng[2], n.rng[3]
            )),
            u64s(n.send_seq),
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
    if schema == CHECKPOINT_SCHEMA_V1 {
        return Err(format!(
            "{} is {CHECKPOINT_SCHEMA_V1:?}, which this build no longer reads: its \
             events are ordered by insertion, not by the per-sender key; re-run to \
             take {CHECKPOINT_SCHEMA:?} checkpoints",
            path.display()
        ));
    }
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
    if kind != KIND_SCENE {
        return Err(format!(
            "{} is a {kind:?} checkpoint; this build reads only {KIND_SCENE:?} \
             checkpoints (every run, a topology file's included, is a scene run); \
             re-run the input to take new checkpoints",
            path.display()
        ));
    }
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
                    send_seq: get_u64(&pairs, "send_seq")?,
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
    source: String,
    until: SimTime,
    trace_path: Option<PathBuf>,
    marker: &'a RunMarker,
    next_time_ns: Option<u64>,
    /// Checkpoint files written so far, in emission order.
    pub written: Vec<PathBuf>,
}

impl<'a> CkptDriver<'a> {
    /// Build a driver for a run of `scene` from the run options, or
    /// `None` when checkpointing was not requested. Errors on a
    /// half-configured request.
    pub fn from_opts(
        opts: &RunOptions,
        scene: &Scene,
        manifest: &Manifest,
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
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Some(CkptDriver {
            every,
            dir,
            manifest: manifest.clone(),
            source: scene.to_json(),
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

/// The checkpoint's embedded scene, verified against its fingerprint —
/// a checkpoint must never restore into a topology other than its own.
pub(crate) fn scene_of(doc: &CheckpointDoc) -> Result<Scene, String> {
    let scene = parse_scene(&doc.source)?;
    verify_config(doc, &scene.id)?;
    Ok(scene)
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
/// emitted files match the uninterrupted run's). `--metrics` and
/// `--profile` are written as `phantom run` writes them; the metrics are
/// read from the finished network, so they hold whole-run values equal
/// to the uninterrupted run's.
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

    // The keys do not depend on the shard count, so the resumed run may
    // use another `--shards` than the checkpointed one.
    let _shard_guard = phantom_sim::ShardGuard::new(opts.shards);
    let scene = scene_of(&doc)?;
    let artifacts = RunArtifacts::begin(opts);
    let plan = RunPlan {
        // The suffix trace continues the original file, which already
        // has its manifest line.
        probes: ProbeSpec {
            trace_headerless: true,
            ..opts.probe_spec(None)
        },
        until: Some(until),
        ..RunPlan::new(&scene, doc.seed)
    };
    let manifest = plan.manifest();
    // Restore the checkpointed dynamics into the freshly compiled scene,
    // then drive it on to the horizon.
    let out = plan.run(|d| {
        d.engine.restore(&doc.snap)?;
        telemetry::preload(&doc.counters);
        let mut ckpt = CkptDriver::from_opts(opts, &scene, d.manifest, until, d.marker)?;
        run_driver(d.engine, until, opts, &scene.id, doc.seed, ckpt.as_mut())
    })?;
    artifacts.write(&manifest, &out)?;
    Ok(ResumeOutcome {
        rendered: out.result.render(0),
        events: doc.snap.events_processed + out.events,
        counters: out.counters,
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
                send_seq: (1 << 40) - 1,
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
        assert_eq!(doc.source, "{\"id\": \"fig2\",\n \"x\": 1}");
        assert_eq!(doc.until_ns, 400_000_000);
        assert_eq!(doc.trace_offset, 777);
        assert_eq!(doc.counters, counters);
        assert_eq!(doc.snap, snap);
    }

    #[test]
    fn refuses_a_v1_checkpoint_by_name() {
        let dir = std::env::temp_dir().join(format!("phantom-ckpt-v1-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("old.jsonl");
        std::fs::write(
            &path,
            "{\"schema\":\"phantom-checkpoint/1\",\"scenario\":\"fig2\",\"config_hash\":\"0\"}\n",
        )
        .unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.contains("\"phantom-checkpoint/1\""), "{err}");
        assert!(err.contains("no longer reads"), "{err}");
    }

    /// Checkpoints of topology files were once a kind of their own; this
    /// build embeds every run as a scene and refuses them by name.
    #[test]
    fn refuses_a_topology_checkpoint_by_name() {
        let dir = std::env::temp_dir().join(format!("phantom-ckpt-topo-{}", std::process::id()));
        let _ = std::fs::create_dir_all(&dir);
        let path = dir.join("old.jsonl");
        let manifest = Manifest::new(CHECKPOINT_SCHEMA, "t.phantom", 1996, "cfg");
        let text = render_checkpoint(
            &manifest,
            "switch a\n",
            SimTime(1),
            0,
            &RunCounters::default(),
            &EngineSnapshot {
                now: SimTime(0),
                events_processed: 0,
                next_seq: 0,
                nodes: vec![],
                events: vec![],
            },
        )
        .replace("\"kind\":\"scene\"", "\"kind\":\"topology\"");
        std::fs::write(&path, text).unwrap();
        let err = read_checkpoint(&path).unwrap_err();
        let _ = std::fs::remove_dir_all(&dir);
        assert!(err.contains("\"topology\" checkpoint"), "{err}");
        assert!(err.contains("reads only \"scene\""), "{err}");
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
        let (scene, _) =
            crate::parse_str("switch a\nswitch b\ntrunk a b 1mbps 1ms\nsession a b greedy\n")
                .unwrap();
        let opts = RunOptions {
            checkpoint_every: Some(CheckpointEvery::SimSecs(0.1)),
            ..RunOptions::default()
        };
        assert!(
            CkptDriver::from_opts(&opts, &scene, &manifest, SimTime(1), &marker).is_err(),
            "--checkpoint-every without --checkpoint-dir"
        );
        let opts = RunOptions::default();
        assert!(
            CkptDriver::from_opts(&opts, &scene, &manifest, SimTime(1), &marker)
                .unwrap()
                .is_none()
        );
    }
}
