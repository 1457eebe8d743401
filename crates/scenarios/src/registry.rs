//! String-keyed access to every experiment, for the `repro` CLI and the
//! benchmark harness.
//!
//! The catalog lists every figure and table of the paper. The ATM
//! figures and extensions are an embedded scene plus a reading
//! ([`crate::catalog`]), except EXT5 (MCR); the TCP figures, EXT5 and
//! the five tables are Rust runners. An entry's analysis targets come
//! from its scene's `analysis` block; a Rust runner's analysis is
//! target-free. Every entry traces its first network run alone.
//! Scenes registered at run time
//! ([`phantom_scene::register_scene`]) come first: [`run_experiment`]
//! and [`targets_for`] look them up before the catalog, so a loaded
//! scene may reuse a catalog id (e.g. `fig2`) and shadow it.

use crate::catalog::{self, SceneFigure};
use phantom_analyze::AnalysisTargets;
use phantom_metrics::{ExperimentResult, Table};
use phantom_scene::{analysis_targets, registered_scene, registered_scenes, run_scene};

/// The outcome of running one registry entry.
pub enum ExperimentOutput {
    /// A figure: traces plus summary metrics.
    Figure(ExperimentResult),
    /// A table: rows of algorithm × metric.
    Table(Table),
}

impl ExperimentOutput {
    /// Render for the terminal; `steps` controls figure downsampling.
    pub fn render(&self, steps: usize) -> String {
        match self {
            ExperimentOutput::Figure(r) => r.render(steps),
            ExperimentOutput::Table(t) => t.render(),
        }
    }

    /// Write CSV artifacts into `dir`.
    pub fn write_csv(&self, dir: &std::path::Path) -> std::io::Result<()> {
        match self {
            ExperimentOutput::Figure(r) => r.write_csv(dir),
            ExperimentOutput::Table(t) => t.write_csv(dir),
        }
    }

    /// [`Self::write_csv`] with a `# manifest: {json}` provenance
    /// comment embedded as the first line.
    pub fn write_csv_with_manifest(
        &self,
        dir: &std::path::Path,
        manifest_json: &str,
    ) -> std::io::Result<()> {
        match self {
            ExperimentOutput::Figure(r) => r.write_csv_with_manifest(dir, Some(manifest_json)),
            ExperimentOutput::Table(t) => t.write_csv_with_manifest(dir, Some(manifest_json)),
        }
    }

    /// The experiment id.
    pub fn id(&self) -> &str {
        match self {
            ExperimentOutput::Figure(r) => &r.id,
            ExperimentOutput::Table(t) => &t.id,
        }
    }
}

/// One registry entry.
pub struct Experiment {
    /// Stable id, e.g. "fig9" or "table1".
    pub id: &'static str,
    /// One-line description (shown by `repro list`).
    pub describe: &'static str,
    /// The embedded scene and reading of a scene-backed entry; the
    /// scene's `analysis` block gives the entry's analysis targets.
    pub scene: Option<&'static SceneFigure>,
    /// The runner.
    pub run: fn(u64) -> ExperimentOutput,
}

macro_rules! scene {
    ($id:literal, $desc:literal, $fig:path) => {
        Experiment {
            id: $id,
            describe: $desc,
            scene: Some(&$fig),
            run: |seed| ExperimentOutput::Figure($fig.run(seed)),
        }
    };
}

macro_rules! fig {
    ($id:literal, $desc:literal, $path:path) => {
        Experiment {
            id: $id,
            describe: $desc,
            scene: None,
            run: |seed| ExperimentOutput::Figure($path(seed)),
        }
    };
}

macro_rules! tab {
    ($id:literal, $desc:literal, $path:path) => {
        Experiment {
            id: $id,
            describe: $desc,
            scene: None,
            run: |seed| ExperimentOutput::Table($path(seed)),
        }
    };
}

/// Every experiment in the reproduction, in paper order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        scene!(
            "fig2",
            "two greedy sessions converge (Phantom)",
            catalog::FIG2
        ),
        scene!("fig3", "staggered joins and leaves", catalog::FIG3),
        scene!("fig4", "on/off sessions under Phantom", catalog::FIG4),
        scene!("fig5", "heterogeneous RTT fairness", catalog::FIG5),
        scene!("fig6", "parking-lot max-min fairness", catalog::FIG6),
        scene!(
            "fig7",
            "session restricted by another bottleneck",
            catalog::FIG7
        ),
        scene!("fig8", "fifty sessions at scale", catalog::FIG8),
        scene!(
            "fig9",
            "canonical utilization-factor-5 panels",
            catalog::FIG9
        ),
        scene!("fig11", "NI/EFCI-bit variant of fig9", catalog::FIG11),
        scene!(
            "fig12",
            "adaptive vs fixed gains (oscillation)",
            catalog::FIG12
        ),
        fig!(
            "fig14",
            "TCP RTT bias: drop-tail vs Selective Discard",
            crate::tcp::unfair_rtt::run
        ),
        fig!("fig15", "Selective Source Quench", crate::tcp::quench::run),
        fig!(
            "fig16",
            "plain RED vs Selective RED",
            crate::tcp::sel_red::run
        ),
        fig!(
            "fig17",
            "TCP beat-down parking lot",
            crate::tcp::beatdown::run
        ),
        fig!(
            "fig18",
            "Selective Discard pseudo-code in execution",
            crate::tcp::seldiscard::run
        ),
        fig!(
            "ext1",
            "TCP Vegas unfairness and the Phantom remedy",
            crate::tcp::vegas::run
        ),
        scene!("fig19", "EPRCA on the basic scenario", catalog::FIG19),
        scene!("fig20", "EPRCA under on/off load", catalog::FIG20),
        scene!(
            "fig21",
            "APRC under on/off load (300-cell threshold)",
            catalog::FIG21
        ),
        scene!("fig22", "CAPC under on/off load vs Phantom", catalog::FIG22),
        fig!(
            "ext3",
            "TCP over an ABR-carried trunk (interconnection)",
            crate::tcp::over_abr::run
        ),
        scene!("ext7", "Phantom under injected link loss", catalog::EXT7),
        scene!(
            "ext6",
            "statistical multiplexing of stochastic on/off sessions",
            catalog::EXT6
        ),
        fig!("ext5", "MCR guarantees under Phantom", crate::atm::mcr::run),
        scene!(
            "ext4",
            "ABR under unresponsive CBR/VBR background",
            catalog::EXT4
        ),
        scene!(
            "ext2",
            "constant space vs per-VC state: Phantom vs ERICA",
            catalog::EXT2
        ),
        tab!(
            "table1",
            "ATM algorithm comparison",
            crate::compare::table_atm
        ),
        tab!(
            "table2",
            "TCP mechanism comparison",
            crate::compare::table_tcp
        ),
        tab!(
            "table3",
            "Phantom design ablations",
            crate::ablation::table_ablation
        ),
        tab!(
            "table4",
            "Phantom vs control-loop delay (LAN to WAN)",
            crate::wan::table_wan
        ),
        tab!(
            "table5",
            "TCP Selective Discard ablations",
            crate::tcp_ablation::table_tcp_ablation
        ),
    ]
}

/// Run one experiment by id — registered scenes first, then the
/// catalog. `None` if the id is unknown.
pub fn run_experiment(id: &str, seed: u64) -> Option<ExperimentOutput> {
    if let Some(scene) = registered_scene(id) {
        return Some(ExperimentOutput::Figure(run_scene(&scene, seed)));
    }
    all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .map(|e| (e.run)(seed))
}

/// The analysis targets `--analyze` checks a run of `id` against: the
/// registered scene's, else the catalog entry's embedded scene's, else
/// target-free analysis (tables, TCP figures, EXT5).
pub fn targets_for(id: &str) -> AnalysisTargets {
    if let Some(scene) = registered_scene(id) {
        return analysis_targets(&scene);
    }
    all_experiments()
        .into_iter()
        .find(|e| e.id == id)
        .and_then(|e| e.scene)
        .map(|fig| analysis_targets(&fig.parse()))
        .unwrap_or_default()
}

/// Every currently valid experiment id: the catalog plus registered scenes.
pub fn known_ids() -> Vec<String> {
    let mut ids: Vec<String> = all_experiments().iter().map(|e| e.id.to_string()).collect();
    for scene in registered_scenes() {
        if !ids.contains(&scene.id) {
            ids.push(scene.id.clone());
        }
    }
    ids
}

/// The closest valid id to `unknown` (for "did you mean" hints), or
/// `None` when nothing is plausibly close (edit distance > half the
/// longer length). Distance ties go to the candidate sharing the
/// longest common prefix (so `fig90` suggests `fig9`, not `fig20`),
/// then alphabetically.
pub fn suggest_id(unknown: &str) -> Option<String> {
    suggest_from(known_ids(), unknown)
}

/// [`suggest_id`] over an arbitrary candidate list — the same
/// edit-distance hint for id namespaces other than the experiment
/// registry (e.g. server job ids). Same tie-breaks: longest common
/// prefix, then alphabetical; same cutoff (distance > half the longer
/// length means no suggestion).
pub fn suggest_from<I>(ids: I, unknown: &str) -> Option<String>
where
    I: IntoIterator<Item = String>,
{
    let (dist, _, best) = ids
        .into_iter()
        .map(|id| {
            let prefix = unknown
                .chars()
                .zip(id.chars())
                .take_while(|(a, b)| a == b)
                .count();
            (edit_distance(unknown, &id), std::cmp::Reverse(prefix), id)
        })
        .min()?;
    let longer = unknown.chars().count().max(best.chars().count());
    if dist * 2 <= longer {
        Some(best)
    } else {
        None
    }
}

/// Levenshtein distance over chars — the id lists are tiny, so the
/// O(|a|·|b|) two-row DP is plenty.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use phantom_scene::parse_scene;

    #[test]
    fn registry_ids_are_unique_and_complete() {
        let exps = all_experiments();
        let mut ids: Vec<_> = exps.iter().map(|e| e.id).collect();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "duplicate experiment ids");
        // the DESIGN.md index: 19 paper figures + 7 extensions + 5 tables
        assert_eq!(n, 31);
        for required in [
            "fig2", "fig9", "fig14", "fig18", "fig22", "table1", "table2", "table3",
        ] {
            assert!(ids.binary_search(&required).is_ok(), "missing {required}");
        }
    }

    #[test]
    fn unknown_id_returns_none() {
        assert!(run_experiment("fig999", 0).is_none());
    }

    #[test]
    fn suggest_id_finds_near_misses() {
        assert_eq!(suggest_id("fig90").as_deref(), Some("fig9"));
        assert_eq!(suggest_id("tabel1").as_deref(), Some("table1"));
        assert_eq!(suggest_id("Fig2").as_deref(), Some("fig2"));
        assert!(suggest_id("completely-unrelated-xyz").is_none());
    }

    #[test]
    fn suggest_id_handles_unicode_ids() {
        // Multi-byte input must be measured in characters, not bytes:
        // an accented typo is one substitution away from "fig2", and
        // the distance/length math must neither panic on char
        // boundaries nor inflate the miss length via UTF-8 byte counts.
        assert_eq!(suggest_id("fíg2").as_deref(), Some("fig2"));
        assert!(suggest_id("日本語の実験名😀").is_none());

        // A unicode id is itself suggestible from an ASCII near-miss
        // (scene ids are ASCII, but other id namespaces need not be).
        let ids = known_ids().into_iter().chain(["métro-test".to_string()]);
        assert_eq!(
            suggest_from(ids, "metro-test").as_deref(),
            Some("métro-test")
        );
    }

    #[test]
    fn dynamic_entries_dispatch_and_list() {
        let scene = |describe: &str| {
            parse_scene(&format!(
                r#"{{"schema":"phantom-scene/1","id":"dyn-test","describe":"{describe}",
                "algorithm":"phantom","duration_ms":5,"switches":["a","b"],
                "trunks":[{{"a":"a","b":"b","mbps":150,"prop_us":10}}],
                "sessions":[{{"id":"s","path":["a","b"],"traffic":{{"kind":"greedy"}}}}],
                "bottleneck":0}}"#
            ))
            .unwrap()
        };
        phantom_scene::register_scene(scene("a runtime-registered scene"));
        let out = run_experiment("dyn-test", 7).expect("registered id dispatches");
        assert_eq!(out.id(), "dyn-test");
        assert!(known_ids().iter().any(|id| id == "dyn-test"));
        assert_eq!(targets_for("dyn-test").tail_from_secs, 0.0025);
        // replacement by id, not duplication
        phantom_scene::register_scene(scene("replaced"));
        let n = registered_scenes()
            .iter()
            .filter(|s| s.id == "dyn-test")
            .count();
        assert_eq!(n, 1);
    }

    #[test]
    fn run_experiment_dispatches() {
        let out = run_experiment("fig2", 42).unwrap();
        assert_eq!(out.id(), "fig2");
        assert!(out.render(0).contains("fig2"));
    }
}
