//! Provenance manifests embedded in every run artifact.
//!
//! A figure CSV, a JSONL trace or a metrics snapshot is only evidence if
//! it says where it came from. A [`Manifest`] pins the scenario id, the
//! master seed, a hash of the effective configuration, the git revision
//! of the build, and the schema version of the artifact it is embedded
//! in. Deliberately absent: wall-clock timestamps — artifacts from the
//! same source state must be byte-identical so the determinism tests can
//! compare them.

use crate::json::json_str;

/// Schema tag for JSONL probe traces.
pub const TRACE_SCHEMA: &str = "phantom-trace/1";
/// Schema tag for metrics snapshots (Prometheus text + JSON summary).
pub const METRICS_SCHEMA: &str = "phantom-metrics/1";
/// Schema tag for `BENCH_phantom.json`.
///
/// `/4` adds the optional `scale` object (a memory-and-throughput probe
/// of one large generated scene: sessions-per-GB and events/s at scale);
/// `/5` adds the optional `shard_scaling` array (events/s at `--shards`
/// 1/2/4 on the scale scene). Every earlier field is unchanged, so `/3`
/// and `/4` baselines still parse.
pub const BENCH_SCHEMA: &str = "phantom-bench/5";
/// Schema tag for long-format figure CSVs.
pub const CSV_SCHEMA: &str = "phantom-csv/1";
/// Schema tag for `phantom analyze` reports.
pub const ANALYSIS_SCHEMA: &str = "phantom-analysis/1";
/// Schema tag for in-run profiler reports (`phantom run --profile`,
/// `repro --profile-dir`).
pub const PROFILE_SCHEMA: &str = "phantom-profile/1";
/// Schema tag for live run-status files (`--status-file`), one flat
/// JSON object rewritten atomically while a run is in flight.
pub const STATUS_SCHEMA: &str = "phantom-status/1";
/// Schema tag for panic flight-recorder dumps (post-mortem JSONL).
pub const POSTMORTEM_SCHEMA: &str = "phantom-postmortem/1";
/// Schema tag for engine checkpoints (`phantom run --checkpoint-every`),
/// a JSONL rendering of a complete mid-run engine snapshot plus the
/// provenance needed to rebuild the topology and resume byte-identically.
pub const CHECKPOINT_SCHEMA: &str = "phantom-checkpoint/2";
/// Schema tag for trace-divergence reports (`phantom diverge`): the
/// first divergent event between two traces, its context window, and —
/// when checkpoints are available — an engine-state diff localizing it.
pub const DIVERGE_SCHEMA: &str = "phantom-diverge/1";

/// The git revision this binary was built from ("unknown" outside a
/// checkout); embedded at compile time by the crate's build script.
pub fn git_rev() -> &'static str {
    option_env!("PHANTOM_GIT_REV").unwrap_or("unknown")
}

/// 64-bit FNV-1a — a small, dependency-free stable hash for fingerprinting
/// run configurations. Not cryptographic; collisions merely weaken the
/// provenance fingerprint, they can't corrupt results.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Provenance carried by every artifact a run writes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Artifact schema tag, e.g. [`TRACE_SCHEMA`].
    pub schema: String,
    /// Scenario/experiment id, e.g. `"fig4"` or a topology file stem.
    pub scenario: String,
    /// Master seed of the run.
    pub seed: u64,
    /// FNV-1a hash of the effective configuration, as 16 hex digits.
    pub config_hash: String,
    /// Git revision of the build.
    pub git_rev: String,
}

impl Manifest {
    /// A manifest for `scenario` run under `seed`, fingerprinting
    /// `config` (any stable rendering of the effective configuration).
    pub fn new(schema: &str, scenario: &str, seed: u64, config: &str) -> Self {
        Manifest {
            schema: schema.to_string(),
            scenario: scenario.to_string(),
            seed,
            config_hash: format!("{:016x}", fnv1a_64(config.as_bytes())),
            git_rev: git_rev().to_string(),
        }
    }

    /// The same provenance restamped for a different artifact schema
    /// (one run emits CSVs, traces and metrics snapshots).
    pub fn for_schema(&self, schema: &str) -> Self {
        let mut m = self.clone();
        m.schema = schema.to_string();
        m
    }

    /// Render as a single-line JSON object — the form embedded in JSONL
    /// headers, `# manifest:` CSV comments and metrics snapshots.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema\":{},\"scenario\":{},\"seed\":{},\"config_hash\":{},\"git_rev\":{}}}",
            json_str(&self.schema),
            json_str(&self.scenario),
            self.seed,
            json_str(&self.config_hash),
            json_str(&self.git_rev)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn manifest_json_is_single_line_and_stable() {
        let m = Manifest::new(TRACE_SCHEMA, "fig4", 1996, "u=5,n=4");
        let j = m.to_json();
        assert!(!j.contains('\n'));
        assert!(j.starts_with("{\"schema\":\"phantom-trace/1\""));
        assert!(j.contains("\"scenario\":\"fig4\""));
        assert!(j.contains("\"seed\":1996"));
        // same config -> same hash; different config -> different hash
        let m2 = Manifest::new(TRACE_SCHEMA, "fig4", 1996, "u=5,n=4");
        assert_eq!(m.config_hash, m2.config_hash);
        let m3 = Manifest::new(TRACE_SCHEMA, "fig4", 1996, "u=6,n=4");
        assert_ne!(m.config_hash, m3.config_hash);
    }

    #[test]
    fn for_schema_restamps_only_the_schema() {
        let m = Manifest::new(TRACE_SCHEMA, "fig2", 1, "cfg");
        let r = m.for_schema(METRICS_SCHEMA);
        assert_eq!(r.schema, METRICS_SCHEMA);
        assert_eq!(r.scenario, m.scenario);
        assert_eq!(r.config_hash, m.config_hash);
    }
}
