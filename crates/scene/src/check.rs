//! Machine-readable validation results (`phantom-check/1`).
//!
//! `phantom check --json` and the serve daemon's `400 Bad Request`
//! bodies share these renderers, so a client sees exactly the text a
//! human sees on stderr — wrapped in a stable one-line JSON envelope
//! instead of a prose prefix.

use crate::model::Scene;
use phantom_metrics::json::Json;

/// Schema tag on every check document.
pub const CHECK_SCHEMA: &str = "phantom-check/1";

/// The leading `scene.foo[3].bar`-style qualifier of a validation
/// error, when the error carries one. Parser errors ("line 4, column
/// 2: …") and IO errors have no path and return `None`.
fn error_path(err: &str) -> Option<&str> {
    let (head, _) = err.split_once(": ")?;
    let pathish =
        |b: u8| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'[' | b']' | b'-');
    (!head.is_empty() && !head.contains(' ') && head.bytes().all(pathish)).then_some(head)
}

/// A failed validation as a one-line `phantom-check/1` document. The
/// `error` member is the exact string `phantom check` prints to
/// stderr (minus the `error: <file>: ` prefix); `path` is its leading
/// qualifier when the error names one, else `null`.
pub fn check_error_json(file: &str, err: &str) -> String {
    Json::Obj(vec![
        ("schema".into(), Json::Str(CHECK_SCHEMA.into())),
        ("ok".into(), Json::Bool(false)),
        ("file".into(), Json::Str(file.into())),
        (
            "path".into(),
            match error_path(err) {
                Some(p) => Json::Str(p.into()),
                None => Json::Null,
            },
        ),
        ("error".into(), Json::Str(err.into())),
    ])
    .dump()
}

/// A successful validation as a one-line `phantom-check/1` document,
/// carrying the same shape summary the human output prints. Generated
/// scenes report the expanded trunk/session counts and a `null`
/// switch count, exactly as the text form omits it.
pub fn check_ok_json(file: &str, scene: &Scene) -> String {
    let (switches, trunks, sessions) = match &scene.generate {
        Some(g) => (Json::Null, g.n_trunks(), g.n_sessions()),
        None => (
            Json::Num(scene.switches.len() as f64),
            scene.trunks.len(),
            scene.sessions.len(),
        ),
    };
    Json::Obj(vec![
        ("schema".into(), Json::Str(CHECK_SCHEMA.into())),
        ("ok".into(), Json::Bool(true)),
        ("file".into(), Json::Str(file.into())),
        ("scene".into(), Json::Str(scene.id.clone())),
        ("generated".into(), Json::Bool(scene.generate.is_some())),
        ("switches".into(), switches),
        ("trunks".into(), Json::Num(trunks as f64)),
        ("sessions".into(), Json::Num(sessions as f64)),
        (
            "timeline_events".into(),
            Json::Num(scene.timeline.len() as f64),
        ),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_qualified_errors_expose_their_path() {
        let doc = check_error_json(
            "bad.json",
            "scene.switches[0].buffer_cells: must be positive and finite, got 0",
        );
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("schema").unwrap().as_str(), Some(CHECK_SCHEMA));
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("file").unwrap().as_str(), Some("bad.json"));
        assert_eq!(
            j.get("path").unwrap().as_str(),
            Some("scene.switches[0].buffer_cells")
        );
        assert_eq!(
            j.get("error").unwrap().as_str(),
            Some("scene.switches[0].buffer_cells: must be positive and finite, got 0")
        );
    }

    #[test]
    fn parser_errors_have_a_null_path() {
        let doc = check_error_json("bad.json", "line 3, column 7: expected `:` after key");
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("path"), Some(&Json::Null));
        assert_eq!(
            j.get("error").unwrap().as_str(),
            Some("line 3, column 7: expected `:` after key")
        );
    }

    #[test]
    fn ok_document_mirrors_the_human_summary() {
        let scene = crate::parse_scene(
            r#"{
                "schema": "phantom-scene/1",
                "id": "check-json",
                "describe": "check --json fixture",
                "algorithm": "phantom",
                "duration_ms": 1.0,
                "switches": ["s1", "s2"],
                "trunks": [{"a": "s1", "b": "s2", "mbps": 150, "prop_us": 10}],
                "sessions": [{"id": "g0", "path": ["s1", "s2"], "traffic": {"kind": "greedy"}}],
                "bottleneck": 0
            }"#,
        )
        .expect("fixture scene validates");
        let doc = check_ok_json("check-json.json", &scene);
        let j = Json::parse(&doc).unwrap();
        assert_eq!(j.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("scene").unwrap().as_str(), Some("check-json"));
        assert_eq!(j.get("generated").unwrap().as_bool(), Some(false));
        assert_eq!(j.get("switches").unwrap().as_f64(), Some(2.0));
        assert_eq!(j.get("sessions").unwrap().as_f64(), Some(1.0));
        assert_eq!(j.get("timeline_events").unwrap().as_f64(), Some(0.0));
    }
}
