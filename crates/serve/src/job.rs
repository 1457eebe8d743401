//! Job records and the `phantom-serve/1` JSON envelope.

use phantom_metrics::manifest::{Manifest, TRACE_SCHEMA};
use phantom_scene::{Json, Scene};
use phantom_sim::CancelToken;
use std::path::PathBuf;

/// Schema tag on every job record the daemon returns.
pub const SERVE_SCHEMA: &str = "phantom-serve/1";

/// The job state machine: `queued → running → done | failed |
/// cancelled`. A queued job cancelled before a worker picks it up goes
/// straight to `cancelled`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is driving the engine.
    Running,
    /// Finished normally; trace and analysis artifacts are complete.
    Done,
    /// Setup failed (e.g. the spool file could not be created).
    Failed,
    /// Cooperatively cancelled; the trace is truncated but lintable.
    Cancelled,
}

impl JobState {
    /// The wire name of this state.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// True for `done`/`failed`/`cancelled`.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

/// One admitted job, as the server's job table holds it.
pub struct Job {
    /// `job-0001`-style id (1-based admission order).
    pub id: String,
    /// The validated scene (kept for the worker to compile).
    pub scene: Scene,
    /// Seed the run uses.
    pub seed: u64,
    /// Current state.
    pub state: JobState,
    /// The run's provenance manifest (trace-schema flavor); its
    /// `config_hash` is the fnv1a fingerprint clients key caches on.
    pub manifest: Manifest,
    /// Failure detail when `state == Failed`.
    pub error: Option<String>,
    /// Cancel token shared with the engine thread.
    pub cancel: CancelToken,
    /// Spool file receiving the run's `phantom-trace/1` stream.
    pub trace_path: PathBuf,
    /// Final `phantom-analysis/1` report (written when the run ends).
    pub analysis_path: PathBuf,
    /// Index of the worker running the job, while running.
    pub worker: Option<usize>,
    /// Heartbeat: events dispatched so far (updated per drive slice).
    pub events: u64,
    /// Heartbeat: simulated seconds reached so far.
    pub sim_secs: f64,
    /// The run's simulated horizon, seconds.
    pub sim_end_secs: f64,
    /// Wall-clock seconds the run took (set when terminal).
    pub wall_secs: Option<f64>,
    /// Bumped, under the server's state lock, whenever the job's spool
    /// may have grown or its state changed; trace streamers wait for it
    /// to move.
    pub(crate) generation: u64,
}

impl Job {
    /// A freshly admitted job.
    pub fn new(id: String, scene: Scene, seed: u64, spool: &std::path::Path) -> Job {
        let manifest = Manifest::new(TRACE_SCHEMA, &scene.id, seed, &scene.id);
        let sim_end_secs = scene.duration_ms / 1e3;
        let trace_path = spool.join(format!("{id}.trace.jsonl"));
        let analysis_path = spool.join(format!("{id}.analysis.json"));
        Job {
            id,
            scene,
            seed,
            state: JobState::Queued,
            manifest,
            error: None,
            cancel: CancelToken::new(),
            trace_path,
            analysis_path,
            worker: None,
            events: 0,
            sim_secs: 0.0,
            sim_end_secs,
            wall_secs: None,
            generation: 0,
        }
    }

    /// The `phantom-serve/1` record clients see, as a one-line JSON
    /// document.
    pub fn record_json(&self) -> String {
        let opt_num = |v: Option<f64>| v.map_or(Json::Null, Json::Num);
        let manifest = Json::Obj(vec![
            ("schema".into(), Json::Str(self.manifest.schema.clone())),
            ("scenario".into(), Json::Str(self.manifest.scenario.clone())),
            ("seed".into(), Json::Num(self.manifest.seed as f64)),
            (
                "config_hash".into(),
                Json::Str(self.manifest.config_hash.clone()),
            ),
            ("git_rev".into(), Json::Str(self.manifest.git_rev.clone())),
        ]);
        let progress = if self.state.is_terminal() && self.state == JobState::Done {
            1.0
        } else if self.sim_end_secs > 0.0 {
            (self.sim_secs / self.sim_end_secs).clamp(0.0, 1.0)
        } else {
            0.0
        };
        Json::Obj(vec![
            ("schema".into(), Json::Str(SERVE_SCHEMA.into())),
            ("id".into(), Json::Str(self.id.clone())),
            ("scene".into(), Json::Str(self.scene.id.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("state".into(), Json::Str(self.state.as_str().into())),
            (
                "config_hash".into(),
                Json::Str(self.manifest.config_hash.clone()),
            ),
            ("manifest".into(), manifest),
            ("worker".into(), opt_num(self.worker.map(|w| w as f64))),
            ("events".into(), Json::Num(self.events as f64)),
            ("sim_secs".into(), Json::Num(self.sim_secs)),
            ("sim_end_secs".into(), Json::Num(self.sim_end_secs)),
            ("progress".into(), Json::Num(progress)),
            ("wall_secs".into(), opt_num(self.wall_secs)),
            (
                "error".into(),
                self.error
                    .as_ref()
                    .map_or(Json::Null, |e| Json::Str(e.clone())),
            ),
        ])
        .dump()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_scene() -> Scene {
        phantom_scene::parse_scene(
            r#"{
                "schema": "phantom-scene/1",
                "id": "record-test",
                "describe": "job record fixture",
                "algorithm": "phantom",
                "duration_ms": 250,
                "switches": ["s1", "s2"],
                "trunks": [{"a": "s1", "b": "s2", "mbps": 150, "prop_us": 10}],
                "sessions": [{"id": "g0", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}}],
                "bottleneck": 0
            }"#,
        )
        .expect("fixture validates")
    }

    #[test]
    fn record_carries_schema_hash_and_state_machine() {
        let dir = std::env::temp_dir();
        let mut job = Job::new("job-0001".into(), fixture_scene(), 1996, &dir);
        let j = Json::parse(&job.record_json()).unwrap();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(SERVE_SCHEMA));
        assert_eq!(j.get("id").unwrap().as_str(), Some("job-0001"));
        assert_eq!(j.get("state").unwrap().as_str(), Some("queued"));
        assert_eq!(j.get("seed").unwrap().as_f64(), Some(1996.0));
        assert_eq!(j.get("sim_end_secs").unwrap().as_f64(), Some(0.25));
        let hash = j.get("config_hash").unwrap().as_str().unwrap();
        assert_eq!(hash.len(), 16, "fnv1a config hash is 16 hex digits");
        assert!(hash.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(
            j.get("manifest").unwrap().get("schema").unwrap().as_str(),
            Some("phantom-trace/1")
        );
        // The manifest matches what `phantom run` stamps on its trace,
        // which is what makes server and CLI traces byte-identical.
        assert_eq!(
            j.get("manifest")
                .unwrap()
                .get("config_hash")
                .unwrap()
                .as_str(),
            Some(hash)
        );

        assert!(!JobState::Running.is_terminal());
        for s in [JobState::Done, JobState::Failed, JobState::Cancelled] {
            assert!(s.is_terminal());
        }
        job.state = JobState::Done;
        let j = Json::parse(&job.record_json()).unwrap();
        assert_eq!(j.get("progress").unwrap().as_f64(), Some(1.0));
    }
}
