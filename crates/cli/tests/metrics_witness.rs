//! The `--metrics` snapshot, pinned: for each committed example topology
//! at its declared seed, for `scenes/linkflap.json` (wire losses from a
//! downed link) and for kitchen_sink on two shards, the FNV-1a digests
//! of the `.prom` and `.prom.json` bodies. Manifest lines are left out,
//! since they carry the build's `git_rev`. A change that moves either
//! digest changes a counter or gauge the snapshot reports.

use phantom_cli::parse::DEFAULT_SEED;
use phantom_cli::{parse_str, run_scene_opts, RunOptions};
use phantom_metrics::fnv1a_64;
use phantom_scene::{parse_scene, Scene};
use std::path::{Path, PathBuf};

fn repo() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Digest of a snapshot file with its manifest line removed.
fn body_digest(path: &Path) -> u64 {
    let text = std::fs::read_to_string(path).unwrap();
    let body: String = text
        .lines()
        .filter(|l| !l.starts_with("# manifest: ") && !l.starts_with("  \"manifest\": "))
        .map(|l| format!("{l}\n"))
        .collect();
    fnv1a_64(body.as_bytes())
}

/// `.prom` and `.prom.json` body digests of one run of `scene`.
fn witness(tag: &str, scene: &Scene, seed: u64, shards: usize) -> (u64, u64) {
    let dir = std::env::temp_dir().join(format!("phantom-metrics-witness-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let prom = dir.join(format!("{tag}.prom"));
    let json = dir.join(format!("{tag}.prom.json"));
    run_scene_opts(
        scene,
        seed,
        None,
        &RunOptions {
            metrics: Some(prom.clone()),
            shards,
            ..RunOptions::default()
        },
    )
    .unwrap();
    let digests = (body_digest(&prom), body_digest(&json));
    let _ = std::fs::remove_file(&prom);
    let _ = std::fs::remove_file(&json);
    digests
}

fn topology(file: &str) -> (Scene, u64) {
    let text = std::fs::read_to_string(repo().join("examples/topologies").join(file)).unwrap();
    parse_str(&text).unwrap()
}

fn assert_digests(tag: &str, got: (u64, u64), want: (u64, u64)) {
    assert_eq!(
        got, want,
        "{tag}: (.prom, .prom.json) body digests ({:#018x}, {:#018x})",
        got.0, got.1
    );
}

fn assert_topology(file: &str, shards: usize, want: (u64, u64)) {
    let (scene, seed) = topology(file);
    let tag = format!("{file}-s{shards}");
    assert_digests(&tag, witness(&tag, &scene, seed, shards), want);
}

#[test]
fn dumbbell_metrics_witness() {
    assert_topology(
        "dumbbell.phantom",
        1,
        (0xc8a0_6327_ab3b_4326, 0x2d21_ec11_50a6_b744),
    );
}

#[test]
fn kitchen_sink_metrics_witness() {
    assert_topology(
        "kitchen_sink.phantom",
        1,
        (0x35f7_8dbd_e12d_be9a, 0x1910_2dd6_7916_6470),
    );
}

#[test]
fn kitchen_sink_two_shard_metrics_witness() {
    assert_topology(
        "kitchen_sink.phantom",
        2,
        (0x35f7_8dbd_e12d_be9a, 0x1910_2dd6_7916_6470),
    );
}

#[test]
fn onoff_eprca_metrics_witness() {
    assert_topology(
        "onoff_eprca.phantom",
        1,
        (0x7704_510c_a1a1_6609, 0xcb98_3a5a_73d1_065b),
    );
}

#[test]
fn parking_lot_metrics_witness() {
    assert_topology(
        "parking_lot.phantom",
        1,
        (0x1b90_fe05_ec25_1a6a, 0xd896_a37d_7213_8eb5),
    );
}

#[test]
fn linkflap_metrics_witness() {
    let text = std::fs::read_to_string(repo().join("scenes/linkflap.json")).unwrap();
    let scene = parse_scene(&text).unwrap();
    assert_digests(
        "linkflap",
        witness("linkflap", &scene, DEFAULT_SEED, 1),
        (0xb63a_eae7_ce0b_eb68, 0x3c3d_a861_d0d8_4ed7),
    );
}
