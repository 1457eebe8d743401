//! The metric catalog: names and units read from `BENCHMARK.json` at the
//! repository root, so that file is the single list of what a run
//! reports.

use phantom_scene::Json;
use std::path::Path;

/// One metric the benchmark reports.
#[derive(Debug)]
pub struct Metric {
    /// Name, e.g. `latency_p50_ms`.
    pub name: String,
    /// Unit, e.g. `ms`.
    pub unit: String,
}

/// The end-to-end and per-layer metric lists.
pub struct Catalog {
    /// Reported with tracing off.
    pub end_to_end: Vec<Metric>,
    /// Reported by the traced run.
    pub per_layer: Vec<Metric>,
}

/// A name of letters, digits, `_`, `.` and `-`, starting with a letter
/// or digit, at most 64 long.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit of letters, digits, `_`, `/`, `%`, `.` and `-`, at most 16 long.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

impl Catalog {
    /// Read and check `BENCHMARK.json`.
    pub fn load(path: &Path) -> Result<Catalog, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Catalog::parse(&text)
    }

    /// Parse and check the text of `BENCHMARK.json`: every metric has a
    /// valid name and unit, and no name repeats.
    pub fn parse(text: &str) -> Result<Catalog, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| -> Result<Vec<Metric>, String> {
            let arr = doc
                .get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: missing array `{key}`"))?;
            arr.iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("BENCHMARK.json: `{key}` entry without `{f}`"))
                    };
                    Ok(Metric {
                        name: field("name")?,
                        unit: field("unit")?,
                    })
                })
                .collect()
        };
        let cat = Catalog {
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in cat.end_to_end.iter().chain(&cat.per_layer) {
            if !valid_name(&m.name) {
                return Err(format!("bad metric name `{}`", m.name));
            }
            if !valid_unit(&m.unit) {
                return Err(format!("metric `{}` has bad unit `{}`", m.name, m.unit));
            }
            if !seen.insert(m.name.clone()) {
                return Err(format!("metric `{}` listed twice", m.name));
            }
        }
        Ok(cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Catalog {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Catalog::load(&path).expect("BENCHMARK.json parses and every metric is valid")
    }

    #[test]
    fn committed_catalog_names_and_units_are_valid() {
        let cat = committed();
        assert!(!cat.end_to_end.is_empty() && !cat.per_layer.is_empty());
        for m in cat.end_to_end.iter().chain(&cat.per_layer) {
            assert!(valid_name(&m.name), "{}", m.name);
            assert!(valid_unit(&m.unit), "{} has unit {}", m.name, m.unit);
        }
        assert!(cat
            .end_to_end
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_catalog_id_has_a_scenarios_metric() {
        let cat = committed();
        for e in phantom_scenarios::registry::all_experiments() {
            let name = format!("scenarios.run_s.{}", e.id);
            assert!(
                cat.per_layer.iter().any(|m| m.name == name),
                "missing {name}"
            );
        }
    }

    #[test]
    fn names_and_units_are_checked() {
        assert!(valid_name("sim.events_per_s"));
        assert!(valid_name("scenarios.run_s.fig2"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("a b"));
        assert!(!valid_name(""));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("MiB"));
        assert!(!valid_unit("") && !valid_unit("m s"));
        let dup =
            r#"{"end_to_end":[{"name":"a","unit":"s"}],"per_layer":[{"name":"a","unit":"s"}]}"#;
        assert!(Catalog::parse(dup).is_err());
        let no_unit = r#"{"end_to_end":[{"name":"a"}],"per_layer":[]}"#;
        assert!(Catalog::parse(no_unit).is_err());
    }
}
