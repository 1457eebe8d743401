//! Generated-topology (metro) scenes: determinism and shape.
//!
//! The `generate` block expands a seeded parametric topology at
//! compile time. These tests pin the contract the scale harness
//! depends on: compilation is a pure function of `(scene, seed)` —
//! same event stream, same session/node counts, run after run — and
//! both generator kinds produce the declared shape.

use phantom_atm::dest::AbrDest;
use phantom_atm::switch::Switch;
use phantom_scene::{compile, parse_scene, run_scene, scale_scene};

fn fan_in(id: &str, leaves: usize, per_leaf: usize) -> String {
    format!(
        r#"{{
  "schema": "phantom-scene/1",
  "id": "{id}",
  "describe": "test fan-in",
  "algorithm": "phantom",
  "duration_ms": 20,
  "generate": {{
    "kind": "fan_in",
    "seed": 7,
    "leaves": {leaves},
    "sessions_per_leaf": {per_leaf},
    "leaf_mbps": 155.0,
    "root_mbps": 622.0,
    "prop_us": 10.0,
    "start_spread_ms": 5.0,
    "rate_sample_ms": 5.0,
    "acr_stride": 4,
    "icr_mbps": 0.5
  }},
  "analysis": {{ "n_sessions": {} }}
}}"#,
        leaves * per_leaf
    )
}

const PARKING_LOT: &str = r#"{
  "schema": "phantom-scene/1",
  "id": "pl-test",
  "describe": "test parking lot",
  "algorithm": "phantom",
  "duration_ms": 20,
  "generate": {
    "kind": "parking_lot",
    "seed": 11,
    "hops": 3,
    "long_sessions": 4,
    "cross_per_hop": 2,
    "hop_mbps": 155.0,
    "prop_us": 10.0,
    "start_spread_ms": 5.0,
    "rate_sample_ms": 5.0,
    "acr_stride": 4,
    "icr_mbps": 0.5
  },
  "analysis": { "n_sessions": 6 }
}"#;

#[test]
fn fan_in_expands_to_the_declared_shape() {
    let scene = parse_scene(&fan_in("fi-shape", 3, 5)).unwrap();
    let c = compile(&scene, 1996);
    // 3 leaves + 1 core + 1 sink switch; 15 sources + 15 dests.
    assert_eq!(c.net.sessions.len(), 15);
    assert_eq!(c.net.switches.len(), 5);
    // Root trunk (trunk 0) is the declared bottleneck.
    assert_eq!(scene.bottleneck_mbps(), 622.0);
}

#[test]
fn parking_lot_expands_to_the_declared_shape() {
    let scene = parse_scene(PARKING_LOT).unwrap();
    let c = compile(&scene, 1996);
    // 4 long + 3 hops x 2 cross sessions; hops + 1 switches... plus sink.
    assert_eq!(c.net.sessions.len(), 10);
    assert!(c.net.switches.len() >= 4);
    assert_eq!(scene.bottleneck_mbps(), 155.0);
}

#[test]
fn generated_scenes_are_deterministic_per_seed() {
    let scene = parse_scene(&fan_in("fi-det", 2, 8)).unwrap();
    let (a, arenas_a) = scale_scene(&scene, 1996);
    let (b, arenas_b) = scale_scene(&scene, 1996);
    // Same seed: identical event stream and telemetry, bit for bit.
    assert_eq!(a.events, b.events);
    assert_eq!(a.sessions, b.sessions);
    assert_eq!(a.nodes, b.nodes);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.queue_peak, b.queue_peak);
    assert_eq!(a.calendar_bytes, b.calendar_bytes);
    assert_eq!(a.node_heap_bytes, b.node_heap_bytes);
    assert!(a.events > 0, "the generated scene must actually run");
    assert!(a.calendar_bytes > 0, "the probe must account the calendar");
    assert!(
        a.node_heap_bytes > 0,
        "the probe must account the nodes' heap"
    );
    let counts_a: Vec<_> = arenas_a.iter().map(|s| (s.type_name, s.nodes)).collect();
    let counts_b: Vec<_> = arenas_b.iter().map(|s| (s.type_name, s.nodes)).collect();
    assert_eq!(counts_a, counts_b);

    // A different master seed keeps the topology but may reshuffle the
    // event interleaving; the *shape* stays fixed.
    let (c, _) = scale_scene(&scene, 7);
    assert_eq!(c.sessions, a.sessions);
    assert_eq!(c.nodes, a.nodes);
}

/// FNV-1a over every series' name and sample bits.
fn series_digest(r: &phantom_metrics::ExperimentResult) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (name, ts) in &r.series {
        let sample_bytes = ts
            .iter()
            .flat_map(|(t, v)| [t.to_bits(), v.to_bits()])
            .flat_map(u64::to_le_bytes);
        for b in name.bytes().chain(sample_bytes) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn lean_scenes_keep_observability_state_only_where_it_is_read() {
    let scene = parse_scene(&fan_in("fi-lean", 2, 50)).unwrap();
    let c = compile(&scene, 1996);
    // Only the traced sample (first/middle/last) records cell delays.
    for (i, s) in c.net.sessions.iter().enumerate() {
        let traced = c.traced.iter().any(|t| t.0 == i);
        let dest = c.engine.node::<AbrDest>(s.dest);
        assert_eq!(dest.delay_hist.is_some(), traced, "session {i}");
    }
    assert_eq!(c.traced.len(), 3);
    // Only trunk ports record series.
    let trunk_ports: Vec<_> = c
        .net
        .trunks
        .iter()
        .flat_map(|t| [(t.a_switch, t.a_port), (t.b_switch, t.b_port)])
        .collect();
    for sh in &c.net.switches {
        let sw = c.engine.node::<Switch>(sh.node);
        for p in 0..sw.port_count() {
            let trunk = trunk_ports.contains(&(sh.node, p));
            assert_eq!(sw.port(p).series().is_some(), trunk, "{} port {p}", sh.name);
        }
    }

    // The figure output equals what the build that kept every
    // histogram and series produced.
    let r = run_scene(&scene, 1996);
    let want = [
        ("utilization", 0.4694241449868459),
        ("mean_queue_cells", 0.45454545454545453),
        ("max_queue_cells", 2.0),
        ("cell_drops", 0.0),
        ("jain_index", 0.9822201196376035),
        ("cell_delay_mean_ms", 0.34509483505154637),
        ("cell_delay_p99_ms", 1.6),
    ];
    let got: Vec<(&str, f64)> = r.metrics.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    assert_eq!(got, want);
    assert_eq!(series_digest(&r), 0x7154_0d91_c8f4_9d5e);
}

#[test]
fn generate_round_trips_through_to_json() {
    for text in [fan_in("fi-rt", 2, 3), PARKING_LOT.to_string()] {
        let scene = parse_scene(&text).unwrap();
        let back = parse_scene(&scene.to_json()).unwrap();
        assert_eq!(scene, back);
    }
}

#[test]
fn generate_rejects_out_of_range_parameters() {
    // Start spread must fit inside the run.
    let bad =
        fan_in("fi-bad", 2, 3).replace(r#""start_spread_ms": 5.0"#, r#""start_spread_ms": 50.0"#);
    let e = parse_scene(&bad).unwrap_err();
    assert!(e.contains("start_spread_ms"), "{e}");

    // The accidental-typo session cap.
    let huge = fan_in("fi-huge", 4096, 2_000_000);
    let e = parse_scene(&huge).unwrap_err();
    assert!(e.contains("sessions"), "{e}");
}
