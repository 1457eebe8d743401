//! Property-based tests of the fairness mathematics — the max-min
//! water-filler must produce feasible, cap-respecting, bottlenecked
//! allocations on arbitrary topologies, the reference every experiment
//! is judged against — and of the JSON reader under hostile input.

use phantom_metrics::fairness::Session;
use phantom_metrics::json::{Json, MAX_DEPTH};
use phantom_metrics::{jain_index, phantom_prediction, weighted_max_min};
use proptest::prelude::*;

/// Random topology: up to 5 links, up to 8 sessions with random paths,
/// weights and caps.
fn arb_topology() -> impl Strategy<Value = (Vec<f64>, Vec<Session>)> {
    let caps = proptest::collection::vec(1.0f64..100.0, 1..5);
    caps.prop_flat_map(|caps| {
        let nlinks = caps.len();
        let session = (
            proptest::collection::btree_set(0..nlinks, 1..=nlinks),
            0.5f64..4.0,
            prop_oneof![Just(f64::INFINITY), 0.5f64..50.0],
        )
            .prop_map(|(path, w, cap)| Session::on(path.into_iter().collect()).weight(w).cap(cap));
        (Just(caps), proptest::collection::vec(session, 1..8))
    })
}

proptest! {
    /// Feasibility: no link carries more than its capacity; no session
    /// exceeds its cap; all rates are non-negative.
    #[test]
    fn max_min_is_feasible((caps, sessions) in arb_topology()) {
        let rates = weighted_max_min(&caps, &sessions);
        prop_assert_eq!(rates.len(), sessions.len());
        let mut load = vec![0.0; caps.len()];
        for (r, s) in rates.iter().zip(&sessions) {
            prop_assert!(*r >= -1e-9);
            prop_assert!(*r <= s.cap + 1e-6 * s.cap.min(1e12));
            for &l in &s.path {
                load[l] += r;
            }
        }
        for (l, (&used, &cap)) in load.iter().zip(&caps).enumerate() {
            prop_assert!(used <= cap + 1e-6 * cap.max(1.0), "link {l} overloaded: {used} > {cap}");
        }
    }

    /// Bottleneck property: every session is either at its cap or
    /// crosses at least one (approximately) saturated link.
    #[test]
    fn every_session_is_bottlenecked((caps, sessions) in arb_topology()) {
        let rates = weighted_max_min(&caps, &sessions);
        let mut load = vec![0.0; caps.len()];
        for (r, s) in rates.iter().zip(&sessions) {
            for &l in &s.path {
                load[l] += r;
            }
        }
        for (i, s) in sessions.iter().enumerate() {
            let at_cap = s.cap.is_finite() && rates[i] >= s.cap - 1e-6 * s.cap;
            let at_link = s
                .path
                .iter()
                .any(|&l| load[l] >= caps[l] - 1e-6 * caps[l].max(1.0));
            prop_assert!(
                at_cap || at_link,
                "session {i} (rate {}) has slack everywhere",
                rates[i]
            );
        }
    }

    /// Scale invariance: multiplying all capacities and caps by k scales
    /// every rate by k.
    #[test]
    fn max_min_scales_linearly((caps, sessions) in arb_topology(), k in 0.1f64..10.0) {
        let base = weighted_max_min(&caps, &sessions);
        let caps2: Vec<f64> = caps.iter().map(|c| c * k).collect();
        let sessions2: Vec<Session> = sessions
            .iter()
            .map(|s| {
                Session::on(s.path.clone())
                    .weight(s.weight)
                    .cap(s.cap * k)
            })
            .collect();
        let scaled = weighted_max_min(&caps2, &sessions2);
        for (a, b) in base.iter().zip(&scaled) {
            prop_assert!((a * k - b).abs() < 1e-6 * (a * k).max(1.0));
        }
    }

    /// The phantom prediction is itself feasible and never allocates the
    /// real sessions more than the plain (uncapped) max-min total.
    #[test]
    fn phantom_prediction_feasible((caps, sessions) in arb_topology(), u in 1.0f64..20.0) {
        let (rates, macrs) = phantom_prediction(&caps, &sessions, u);
        prop_assert_eq!(rates.len(), sessions.len());
        prop_assert_eq!(macrs.len(), caps.len());
        let mut load = vec![0.0; caps.len()];
        for (r, s) in rates.iter().zip(&sessions) {
            for &l in &s.path {
                load[l] += r;
            }
        }
        for (l, &m) in macrs.iter().enumerate() {
            prop_assert!(m >= -1e-9);
            // real load + this link's phantom never exceeds capacity
            prop_assert!(load[l] + m <= caps[l] + 1e-6 * caps[l].max(1.0));
        }
    }

    /// Jain's index is always in [0, 1] and exactly 1 for equal rates.
    #[test]
    fn jain_in_unit_interval(rates in proptest::collection::vec(0.0f64..1e6, 1..50)) {
        let j = jain_index(&rates);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&j));
    }

    #[test]
    fn jain_of_equal_rates_is_one(n in 1usize..50, v in 0.1f64..1e6) {
        let rates = vec![v; n];
        prop_assert!((jain_index(&rates) - 1.0).abs() < 1e-9);
    }
}

/// Bytes that are mostly JSON punctuation, so generated documents get
/// past the first byte into the reader's nesting, string, escape and
/// number paths (plus one two-byte UTF-8 scalar and a control byte).
const JSONISH: &[u8] = b"{}[]\":,-+.0123456789eEtrufalsn\\/ \n\tu\x01\xc3\xa9";

/// An error from the JSON reader names where it stopped.
fn has_line_col(err: &str) -> bool {
    let Some(rest) = err.strip_prefix("line ") else {
        return false;
    };
    let (line, rest) = rest.split_once(" col ").unwrap_or(("", ""));
    let col = rest.split_once(':').map_or("", |(c, _)| c);
    line.parse::<usize>().is_ok() && col.parse::<usize>().is_ok()
}

proptest! {
    /// Hostile input: the one JSON reader takes scenes, bench records,
    /// checkpoints, baselines, profiles, status files and daemon bodies
    /// from outside the program. Arbitrary bytes (lossy UTF-8) never
    /// panic it, and every rejection carries `line N col M`.
    #[test]
    fn json_reader_never_panics_and_locates_errors(
        bytes in prop_oneof![
            proptest::collection::vec(any::<u8>(), 0..512),
            proptest::collection::vec((0..JSONISH.len()).prop_map(|i| JSONISH[i]), 0..512),
        ]
    ) {
        let text = String::from_utf8_lossy(&bytes);
        if let Err(e) = Json::parse(&text) {
            prop_assert!(has_line_col(&e), "no line:col in {e:?} for {text:?}");
        }
    }

    /// Nesting past `MAX_DEPTH` is refused with a located error before
    /// the recursive descent can exhaust the stack.
    #[test]
    fn json_reader_caps_nesting(extra in 1usize..2000, arrays in any::<bool>()) {
        let depth = MAX_DEPTH + extra;
        let (open, close) = if arrays { ("[", "]") } else { ("{\"k\":", "}") };
        let text = format!("{}0{}", open.repeat(depth), close.repeat(depth));
        let err = Json::parse(&text).expect_err("too deep");
        prop_assert!(err.contains("nesting too deep"), "{err}");
        prop_assert!(has_line_col(&err), "{err}");
    }
}
