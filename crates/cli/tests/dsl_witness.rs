//! The topology DSL's behaviour, pinned: for each committed example in
//! `examples/topologies/`, the FNV-1a digest of the trace body (every
//! line below the manifest) at the file's declared seed, and every line
//! of the rendered report except the header. A change that moves any
//! of them changes what a DSL file simulates.

use phantom_cli::{collect_report, parse_str, run_scene_opts, RunOptions};
use phantom_metrics::fnv1a_64;
use std::path::Path;

/// Trace-body digest and report lines (header excluded) of one example.
fn witness(file: &str) -> (u64, Vec<String>) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/topologies");
    let text = std::fs::read_to_string(dir.join(file)).unwrap();
    let (scene, seed) = parse_str(&text).unwrap();
    let tmp = std::env::temp_dir().join(format!("phantom-dsl-witness-{}", std::process::id()));
    std::fs::create_dir_all(&tmp).unwrap();
    let trace = tmp.join(format!("{file}.jsonl"));
    let out = run_scene_opts(
        &scene,
        seed,
        None,
        &RunOptions {
            trace: Some(trace.clone()),
            ..RunOptions::default()
        },
    )
    .unwrap();
    let bytes = std::fs::read(&trace).unwrap();
    let _ = std::fs::remove_file(&trace);
    let body = &bytes[bytes.iter().position(|&b| b == b'\n').unwrap() + 1..];
    let lines = collect_report(&scene, &out)
        .render(&scene, seed)
        .lines()
        .skip(1)
        .map(String::from)
        .collect();
    (fnv1a_64(body), lines)
}

fn assert_witness(file: &str, digest: u64, lines: &[&str]) {
    let (got_digest, got_lines) = witness(file);
    assert_eq!(got_lines, lines, "{file}: report");
    assert_eq!(
        got_digest, digest,
        "{file}: trace body digest {got_digest:#018x}"
    );
}

#[test]
fn dumbbell_witness() {
    assert_witness(
        "dumbbell.phantom",
        0x4e64_fe28_e0a1_f1bc,
        &[
            "  session 0 [s1→s2]:    66.05 Mb/s",
            "  session 1 [s1→s2]:    66.05 Mb/s",
            "  jain index: 1.0000",
            "  telemetry: 0 drops, peak queue 257 cells",
            "  trunk s1–s2: macr  13.64 Mb/s, util 0.909, queue mean    1.0 / peak 257 cells",
        ],
    );
}

#[test]
fn kitchen_sink_witness() {
    assert_witness(
        "kitchen_sink.phantom",
        0xec71_57cb_72cc_fc1d,
        &[
            "  session 0 [edge→core→far]:    44.78 Mb/s",
            "  session 1 [edge→core]:     7.69 Mb/s",
            "  session 2 [core→far]:    24.07 Mb/s",
            "  session 3 [edge→core]:    57.99 Mb/s",
            "  session 4 [edge→core]:    19.98 Mb/s",
            "  session 5 [core→far]:     4.94 Mb/s",
            "  jain index: 0.6590",
            "  telemetry: 234 drops, peak queue 847 cells",
            "  trunk edge–core: macr  12.30 Mb/s, util 0.895, queue mean  105.7 / peak 848 cells",
            "  trunk core–far: macr  18.72 Mb/s, util 0.762, queue mean   33.1 / peak 282 cells",
        ],
    );
}

#[test]
fn onoff_eprca_witness() {
    assert_witness(
        "onoff_eprca.phantom",
        0x00ea_90a6_5bce_db47,
        &[
            "  session 0 [s1→s2]:    79.57 Mb/s",
            "  session 1 [s1→s2]:    30.45 Mb/s",
            "  session 2 [s1→s2]:    28.39 Mb/s",
            "  jain index: 0.7918",
            "  telemetry: 0 drops, peak queue 809 cells",
            "  trunk s1–s2: macr  79.57 Mb/s, util 0.952, queue mean  221.2 / peak 809 cells",
        ],
    );
}

#[test]
fn parking_lot_witness() {
    assert_witness(
        "parking_lot.phantom",
        0xf755_55c8_6c6b_cc4e,
        &[
            "  session 0 [s1→s2→s3]:    66.04 Mb/s",
            "  session 1 [s1→s2]:    66.06 Mb/s",
            "  session 2 [s2→s3]:    66.06 Mb/s",
            "  jain index: 1.0000",
            "  telemetry: 0 drops, peak queue 256 cells",
            "  trunk s1–s2: macr  13.64 Mb/s, util 0.909, queue mean    1.1 / peak 256 cells",
            "  trunk s2–s3: macr  13.64 Mb/s, util 0.909, queue mean    1.1 / peak 195 cells",
        ],
    );
}
