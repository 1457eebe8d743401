//! The topology-file parser: a front end for `phantom-scene/1`.
//!
//! Line-oriented: `#` starts a comment, blank lines are skipped, each
//! line is `keyword arg…` with optional `key=value` options at the end.
//! Durations accept `us|ms|s` suffixes; rates accept `mbps|kbps`.
//!
//! A topology file lowers to a [`Scene`] plus the seed of its `run`
//! line, and runs, checkpoints and resumes as that scene. Durations are
//! parsed to whole nanoseconds first and handed to the scene as exact
//! `ns / 10^3` microseconds or `ns / 10^6` milliseconds, which the scene
//! compiler rounds back to the same nanosecond.

use phantom_scene::model::ALGORITHMS;
use phantom_scene::{
    AnalysisDecl, EventKind, Scene, SessionDecl, TimelineEvent, TrafficDecl, TrunkDecl,
};
use phantom_sim::SimDuration;
use std::fmt;

/// Seed of a run whose input names none: a scene file, or a topology
/// file whose `run` line has no `seed=`.
pub const DEFAULT_SEED: u64 = 1996;

/// A parse failure with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line of the offending input.
    pub line: usize,
    /// What went wrong.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// Attach a line number to a token-level error.
fn at<T>(line: usize, r: Result<T, String>) -> Result<T, ParseError> {
    r.map_err(|msg| ParseError { line, msg })
}

fn ms(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e6
}

fn us(d: SimDuration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Parse a duration token: `10us`, `30ms`, `2s`, `0.5s`.
pub fn parse_duration(tok: &str) -> Result<SimDuration, String> {
    let (num, unit) = split_unit(tok)?;
    let secs = match unit {
        "us" => num * 1e-6,
        "ms" => num * 1e-3,
        "s" => num,
        other => return Err(format!("unknown time unit '{other}' (use us/ms/s)")),
    };
    if secs < 0.0 {
        return Err("durations cannot be negative".into());
    }
    Ok(SimDuration::from_secs_f64(secs))
}

/// Parse a rate token: `150mbps`, `64kbps`.
#[allow(clippy::neg_cmp_op_on_partial_ord)] // rejects NaN too
pub fn parse_rate_mbps(tok: &str) -> Result<f64, String> {
    let (num, unit) = split_unit(tok)?;
    let mbps = match unit {
        "mbps" => num,
        "kbps" => num / 1e3,
        "gbps" => num * 1e3,
        other => return Err(format!("unknown rate unit '{other}' (use kbps/mbps/gbps)")),
    };
    if !(mbps > 0.0) {
        return Err("rates must be positive".into());
    }
    Ok(mbps)
}

fn split_unit(tok: &str) -> Result<(f64, &str), String> {
    let split = tok
        .char_indices()
        .find(|&(_, c)| c.is_ascii_alphabetic())
        .map(|(i, _)| i)
        .ok_or_else(|| format!("'{tok}' is missing a unit"))?;
    let (num, unit) = tok.split_at(split);
    let value: f64 = num
        .parse()
        .map_err(|_| format!("'{num}' is not a number"))?;
    Ok((value, unit))
}

/// Split trailing `key=value` options off an argument list.
fn split_opts<'a>(args: &'a [&'a str]) -> (&'a [&'a str], Vec<(&'a str, &'a str)>) {
    let first_opt = args
        .iter()
        .position(|a| a.contains('='))
        .unwrap_or(args.len());
    let opts = args[first_opt..]
        .iter()
        .filter_map(|a| a.split_once('='))
        .collect();
    (&args[..first_opt], opts)
}

/// Parse a whole topology file into a validated scene and its seed.
///
/// ```
/// let (scene, seed) = phantom_cli::parse_str(
///     "switch a\nswitch b\ntrunk a b 150mbps 10us\nsession a b greedy\n",
/// )
/// .unwrap();
/// assert_eq!(scene.switches.len(), 2);
/// assert_eq!(scene.sessions.len(), 1);
/// assert_eq!(seed, phantom_cli::parse::DEFAULT_SEED);
/// ```
pub fn parse_str(input: &str) -> Result<(Scene, u64), ParseError> {
    let mut scene = Scene {
        id: "topology".into(),
        describe: "topology file".into(),
        algorithm: "phantom".into(),
        duration_ms: 500.0,
        u: None,
        cbr_priority: false,
        generate: None,
        switches: Vec::new(),
        trunks: Vec::new(),
        sessions: Vec::new(),
        bottleneck: 0,
        timeline: Vec::new(),
        analysis: AnalysisDecl::default(),
    };
    let mut seed = DEFAULT_SEED;

    for (i, raw) in input.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let toks: Vec<&str> = line.split_whitespace().collect();
        let (kw, rest) = (toks[0], &toks[1..]);
        let (pos, opts) = split_opts(rest);
        match kw {
            "switch" => {
                if pos.len() != 1 || !opts.is_empty() {
                    return err(lineno, "usage: switch <name>");
                }
                scene.switches.push(pos[0].to_string());
            }
            "trunk" => {
                if pos.len() != 4 {
                    return err(lineno, "usage: trunk <a> <b> <rate> <prop> [loss=0.01]");
                }
                let mut loss = None;
                for (k, v) in &opts {
                    match *k {
                        "loss" => {
                            let p: f64 = at(
                                lineno,
                                v.parse().map_err(|_| format!("'{v}' is not a probability")),
                            )?;
                            loss = (p != 0.0).then_some(p);
                        }
                        other => return err(lineno, format!("unknown option '{other}'")),
                    }
                }
                scene.trunks.push(TrunkDecl {
                    a: pos[0].to_string(),
                    b: pos[1].to_string(),
                    mbps: at(lineno, parse_rate_mbps(pos[2]))?,
                    prop_us: us(at(lineno, parse_duration(pos[3]))?),
                    u: None,
                    alpha_inc: None,
                    alpha_dec: None,
                    loss,
                });
            }
            "priority" => {
                if pos != ["cbr"] || !opts.is_empty() {
                    return err(lineno, "usage: priority cbr");
                }
                scene.cbr_priority = true;
            }
            "cbr" | "session" => {
                let cbr = kw == "cbr";
                if pos.len() < 3 {
                    return err(
                        lineno,
                        if cbr {
                            "usage: cbr <sw>... <rate> [on=|off=|start=|rtt=]"
                        } else {
                            "usage: session <sw>... <greedy|window|onoff|random> [key=value...]"
                        },
                    );
                }
                let last = pos[pos.len() - 1];
                let path: Vec<String> =
                    pos[..pos.len() - 1].iter().map(|s| s.to_string()).collect();
                let mut start = 0.0;
                let mut stop = None;
                let mut on = None;
                let mut off = None;
                let mut access_prop_us = None;
                for (k, v) in &opts {
                    let d = at(lineno, parse_duration(v))?;
                    match *k {
                        "start" => start = ms(d),
                        "stop" if !cbr => stop = Some(ms(d)),
                        "on" => on = Some(ms(d)),
                        "off" => off = Some(ms(d)),
                        "rtt" => access_prop_us = Some(us(d)),
                        other => return err(lineno, format!("unknown option '{other}'")),
                    }
                }
                let id = format!("s{}", scene.sessions.len());
                let (traffic, cbr_mbps) = if cbr {
                    let traffic = match (on, off) {
                        (Some(on_ms), Some(off_ms)) => TrafficDecl::OnOff {
                            start_ms: start,
                            on_ms,
                            off_ms,
                        },
                        (None, None) => TrafficDecl::Greedy,
                        _ => return err(lineno, "cbr needs both on= and off= (or neither)"),
                    };
                    (traffic, Some(at(lineno, parse_rate_mbps(last))?))
                } else {
                    let traffic = match (last, stop) {
                        ("greedy", _) => TrafficDecl::Greedy,
                        ("window", Some(stop_ms)) => TrafficDecl::Window {
                            start_ms: start,
                            stop_ms,
                        },
                        // An open-ended window is a greedy session that
                        // starts at `start`.
                        ("window", None) => {
                            scene.timeline.push(TimelineEvent {
                                at_ms: start,
                                kind: EventKind::SessionStart {
                                    session: id.clone(),
                                },
                            });
                            TrafficDecl::Greedy
                        }
                        ("onoff", _) => TrafficDecl::OnOff {
                            start_ms: start,
                            on_ms: on.unwrap_or(30.0),
                            off_ms: off.unwrap_or(30.0),
                        },
                        ("random", _) => TrafficDecl::Random {
                            mean_on_ms: on.unwrap_or(30.0),
                            mean_off_ms: off.unwrap_or(30.0),
                        },
                        (other, _) => {
                            return err(
                                lineno,
                                format!(
                                    "unknown traffic model '{other}' (greedy/window/onoff/random)"
                                ),
                            )
                        }
                    };
                    (traffic, None)
                };
                scene.sessions.push(SessionDecl {
                    id,
                    path,
                    traffic,
                    cbr_mbps,
                    access_prop_us,
                });
            }
            "algorithm" => {
                if pos.len() != 1 {
                    return err(lineno, "usage: algorithm <name> [u=<factor>]");
                }
                if !ALGORITHMS.contains(&pos[0]) {
                    return err(
                        lineno,
                        format!(
                            "unknown algorithm '{}' (one of {})",
                            pos[0],
                            ALGORITHMS.join("|")
                        ),
                    );
                }
                scene.algorithm = pos[0].to_string();
                scene.u = None;
                for (k, v) in &opts {
                    match *k {
                        "u" if pos[0] == "phantom" => {
                            scene.u = Some(at(
                                lineno,
                                v.parse().map_err(|_| format!("'{v}' is not a number")),
                            )?)
                        }
                        "u" => return err(lineno, "u= applies only to algorithm phantom"),
                        other => return err(lineno, format!("unknown option '{other}'")),
                    }
                }
            }
            "run" => {
                if pos.len() != 1 {
                    return err(lineno, "usage: run <duration> [seed=<n>]");
                }
                scene.duration_ms = ms(at(lineno, parse_duration(pos[0]))?);
                for (k, v) in &opts {
                    match *k {
                        "seed" => {
                            seed = at(
                                lineno,
                                v.parse().map_err(|_| format!("'{v}' is not a seed")),
                            )?
                        }
                        other => return err(lineno, format!("unknown option '{other}'")),
                    }
                }
            }
            other => return err(lineno, format!("unknown keyword '{other}'")),
        }
    }
    at(0, scene.validate())?;
    Ok((scene, seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const GOOD: &str = "\
# a dumbbell
switch s1
switch s2
trunk s1 s2 150mbps 10us
session s1 s2 greedy
session s1 s2 onoff start=100ms on=30ms off=30ms
session s1 s2 greedy rtt=5ms
algorithm phantom u=8
run 500ms seed=7
";

    /// Parse and keep the scene only.
    fn scene(src: &str) -> Result<Scene, ParseError> {
        parse_str(src).map(|(scene, _)| scene)
    }

    #[test]
    fn parses_the_full_grammar() {
        let (scene, seed) = parse_str(GOOD).unwrap();
        assert_eq!(scene.switches, vec!["s1", "s2"]);
        assert_eq!(scene.trunks.len(), 1);
        assert_eq!(scene.trunks[0].mbps, 150.0);
        assert_eq!(scene.trunks[0].prop_us, 10.0);
        assert_eq!(scene.sessions.len(), 3);
        assert_eq!(scene.sessions[0].traffic, TrafficDecl::Greedy);
        assert_eq!(
            scene.sessions[1].traffic,
            TrafficDecl::OnOff {
                start_ms: 100.0,
                on_ms: 30.0,
                off_ms: 30.0,
            }
        );
        assert_eq!(scene.sessions[2].access_prop_us, Some(5000.0));
        assert_eq!(scene.algorithm, "phantom");
        assert_eq!(scene.u, Some(8.0));
        assert_eq!(scene.duration_ms, 500.0);
        assert_eq!(seed, 7);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let scene = scene(
            "switch a\n\n# comment\nswitch b\ntrunk a b 1mbps 1ms # inline\nsession a b greedy\n",
        )
        .unwrap();
        assert_eq!(scene.switches.len(), 2);
    }

    #[test]
    fn error_carries_line_number() {
        let e = parse_str("switch a\nbogus line here\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.msg.contains("unknown keyword"));
    }

    #[test]
    fn bad_units_are_rejected() {
        assert!(parse_duration("10parsecs").is_err());
        assert!(parse_duration("ms").is_err());
        assert!(parse_rate_mbps("100").is_err());
        assert!(parse_rate_mbps("-5mbps").is_err());
        assert!(parse_duration("10us").unwrap() == SimDuration::from_micros(10));
        assert!((parse_rate_mbps("64kbps").unwrap() - 0.064).abs() < 1e-12);
        assert!((parse_rate_mbps("1gbps").unwrap() - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn unknown_algorithm_or_model_rejected() {
        let e =
            parse_str("switch a\nswitch b\ntrunk a b 1mbps 1ms\nsession a b tcp\n").unwrap_err();
        assert!(e.msg.contains("unknown traffic model"));
        let e = parse_str(
            "switch a\nswitch b\ntrunk a b 1mbps 1ms\nsession a b greedy\nalgorithm bgp\n",
        )
        .unwrap_err();
        assert!(e.msg.contains("unknown algorithm"));
    }

    #[test]
    fn validation_failures_surface() {
        let e =
            parse_str("switch a\nswitch b\nswitch c\ntrunk a c 1mbps 1ms\nsession a b greedy\n")
                .unwrap_err();
        assert!(e.msg.contains("no trunk"), "{e}");
    }

    #[test]
    fn unknown_switch_in_trunk_rejected() {
        let e = parse_str("switch a\nswitch b\ntrunk a zzz 1mbps 1ms\nsession a b greedy\n")
            .unwrap_err();
        assert!(e.msg.contains("unknown switch"), "{e}");
    }

    #[test]
    fn duplicate_switch_rejected() {
        let e =
            parse_str("switch a\nswitch b\nswitch a\ntrunk a b 1mbps 1ms\nsession a b greedy\n")
                .unwrap_err();
        assert!(e.msg.contains("duplicate"), "{e}");
    }

    #[test]
    fn empty_pieces_rejected() {
        assert!(parse_str("switch a\nswitch b\ntrunk a b 1mbps 1ms\n").is_err());
        assert!(parse_str(
            "switch a\nswitch b\ntrunk a b 1mbps 1ms\nsession a b greedy\nrun 0ms\n"
        )
        .is_err());
    }

    #[test]
    fn u_applies_only_to_phantom() {
        let e = parse_str(
            "switch a\nswitch b\ntrunk a b 1mbps 1ms\nsession a b greedy\nalgorithm eprca u=3\n",
        )
        .unwrap_err();
        assert_eq!(e.line, 5);
        assert!(e.msg.contains("u= applies only"), "{e}");
    }

    #[test]
    fn all_algorithms_parse() {
        for alg in ALGORITHMS {
            let src = format!(
                "switch a\nswitch b\ntrunk a b 1mbps 1ms\nsession a b greedy\nalgorithm {alg}\n"
            );
            assert!(parse_str(&src).is_ok(), "{alg} failed to parse");
        }
    }

    #[test]
    fn open_ended_window_starts_a_greedy_session() {
        let scene = scene(
            "switch a\nswitch b\ntrunk a b 1mbps 1ms\n\
             session a b window start=100ms\nsession a b window start=50ms stop=200ms\n",
        )
        .unwrap();
        assert_eq!(scene.sessions[0].traffic, TrafficDecl::Greedy);
        assert_eq!(
            scene.timeline,
            vec![TimelineEvent {
                at_ms: 100.0,
                kind: EventKind::SessionStart {
                    session: "s0".into()
                },
            }]
        );
        assert_eq!(
            scene.sessions[1].traffic,
            TrafficDecl::Window {
                start_ms: 50.0,
                stop_ms: 200.0
            }
        );
    }

    proptest! {
        /// A duration lowered to microseconds or milliseconds rounds back
        /// to the same nanosecond, as the scene compiler rounds it.
        #[test]
        fn lowered_durations_round_back_exactly(ns in 0u64..(1 << 50)) {
            let d = SimDuration(ns);
            prop_assert_eq!((us(d) * 1e3).round() as u64, ns);
            prop_assert_eq!(phantom_scene::compile::ms_to_time(ms(d)).0, ns);
        }
    }
}

#[cfg(test)]
mod extended_grammar_tests {
    use super::*;

    const FULL: &str = "\
switch s1
switch s2
trunk s1 s2 150mbps 10us loss=0.01
session s1 s2 random on=20ms off=60ms
cbr s1 s2 20mbps
cbr s1 s2 10mbps on=100ms off=100ms
priority cbr
algorithm phantom
run 300ms seed=9
";

    #[test]
    fn parses_cbr_loss_priority_and_random() {
        let (scene, _) = parse_str(FULL).unwrap();
        assert_eq!(scene.trunks[0].loss, Some(0.01));
        assert!(scene.cbr_priority);
        assert_eq!(scene.sessions.len(), 3);
        assert!(matches!(
            scene.sessions[0].traffic,
            TrafficDecl::Random { .. }
        ));
        assert_eq!(scene.sessions[1].cbr_mbps, Some(20.0));
        assert!(matches!(
            scene.sessions[2].traffic,
            TrafficDecl::OnOff { .. }
        ));
    }

    #[test]
    fn cbr_needs_matching_on_off() {
        let bad = "switch a\nswitch b\ntrunk a b 1mbps 1ms\ncbr a b 1mbps on=5ms\n";
        let e = parse_str(bad).unwrap_err();
        assert!(e.msg.contains("both on= and off="));
    }

    #[test]
    fn full_grammar_file_actually_runs() {
        let (scene, seed) = parse_str(FULL).unwrap();
        let out = phantom_scene::RunPlan::new(&scene, seed)
            .run(|_| Ok(()))
            .unwrap();
        let report = crate::exec::collect_report(&scene, &out);
        // 3 sessions (1 ABR random + 2 CBR): everyone reported.
        assert_eq!(report.session_rates_mbps.len(), 3);
        // The greedy CBR delivers close to its configured 20 Mb/s minus
        // the 1% wire loss.
        assert!(
            (report.session_rates_mbps[1] - 20.0).abs() < 2.0,
            "cbr rate {:.1}",
            report.session_rates_mbps[1]
        );
    }
}
