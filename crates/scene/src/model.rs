//! The `phantom-scene/1` scene model: parsing, validation, serialization.
//!
//! A scene is a declarative description of one experiment — an arbitrary
//! switch/trunk topology, a session mix (greedy/windowed/bursty ABR plus
//! unresponsive CBR), optional per-trunk Phantom parameter overrides —
//! plus a *timeline* of mid-run events (session churn, link capacity
//! changes, link failure/recovery) and the analysis targets the scenario
//! predicts (fixed-point MACR, perturbation epochs).
//!
//! Parsing is strict: unknown keys, dangling route hops, zero-capacity
//! links, duplicate session ids and ill-formed timelines are all
//! rejected with an error naming the offending key (e.g.
//! `sessions[2].path[1]: no trunk between ...`), so a typo in a scene
//! file can never silently change the experiment.

use phantom_metrics::json::Json;
use phantom_metrics::json::{json_f64, json_str};
use std::fmt::Write as _;

/// Schema tag of scene files.
pub const SCENE_SCHEMA: &str = "phantom-scene/1";

/// The algorithm names a scene may request (the registry's catalog).
pub const ALGORITHMS: [&str; 9] = [
    "phantom",
    "phantom-fixed-alpha",
    "phantom-departures",
    "phantom-ni",
    "eprca",
    "aprc",
    "capc",
    "erica",
    "osu",
];

/// A parsed scene.
#[derive(Clone, Debug, PartialEq)]
pub struct Scene {
    /// Experiment id the scene registers under (may shadow a built-in).
    pub id: String,
    /// One-line description.
    pub describe: String,
    /// Rate-control algorithm name (one of [`ALGORITHMS`]).
    pub algorithm: String,
    /// Run length in milliseconds.
    pub duration_ms: f64,
    /// Scene-wide Phantom utilization factor override (`u`).
    pub u: Option<f64>,
    /// Strict-priority CBR queueing at every port.
    pub cbr_priority: bool,
    /// Generated (parametric) topology. Mutually exclusive with
    /// explicit `switches`/`trunks`/`sessions`.
    pub generate: Option<GenerateDecl>,
    /// Switch names, in declaration order.
    pub switches: Vec<String>,
    /// Trunks, in declaration order.
    pub trunks: Vec<TrunkDecl>,
    /// Sessions, in declaration order.
    pub sessions: Vec<SessionDecl>,
    /// Index of the trunk the standard panels and the analyzer watch.
    pub bottleneck: usize,
    /// Mid-run events, applied in declaration order.
    pub timeline: Vec<TimelineEvent>,
    /// Analysis targets (fixed point, epochs).
    pub analysis: AnalysisDecl,
}

/// One bidirectional trunk.
#[derive(Clone, Debug, PartialEq)]
pub struct TrunkDecl {
    /// Endpoint switch names.
    pub a: String,
    /// See [`TrunkDecl::a`].
    pub b: String,
    /// Capacity, Mb/s.
    pub mbps: f64,
    /// One-way propagation delay, microseconds.
    pub prop_us: f64,
    /// Per-trunk Phantom utilization factor override.
    pub u: Option<f64>,
    /// Per-trunk MACR increase-gain override (`alpha_inc`).
    pub alpha_inc: Option<f64>,
    /// Per-trunk MACR decrease-gain override (`alpha_dec`).
    pub alpha_dec: Option<f64>,
    /// Per-cell wire loss probability in `[0, 1)` (failure injection).
    pub loss: Option<f64>,
}

/// One session.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionDecl {
    /// Unique session id (referenced by timeline churn events).
    pub id: String,
    /// Switch names along the route, in order.
    pub path: Vec<String>,
    /// Offered-load pattern.
    pub traffic: TrafficDecl,
    /// `Some(rate)` makes this an unresponsive CBR source at `rate` Mb/s.
    pub cbr_mbps: Option<f64>,
    /// One-way propagation delay of the session's access links,
    /// microseconds (default 10).
    pub access_prop_us: Option<f64>,
}

/// A seeded parametric topology: the "metro" scene class. Instead of
/// declaring every switch/trunk/session, the scene names a generator
/// shape and its parameters, and [`crate::compile::compile`] drives the
/// `NetworkBuilder` directly — no per-session strings are ever
/// materialized, so 10^5–10^6-session scenes compile in O(sessions)
/// with small constants.
#[derive(Clone, Debug, PartialEq)]
pub struct GenerateDecl {
    /// Topology shape.
    pub kind: GenerateKind,
    /// Generation seed: per-session start jitter is a pure function of
    /// `(seed, session index)`, independent of the run seed.
    pub seed: u64,
    /// Session activation times are spread uniformly over
    /// `[0, start_spread_ms)` so 10^5 sources don't fire their initial
    /// cell in the same nanosecond (0 = all greedy from t=0).
    pub start_spread_ms: f64,
    /// Destination goodput sampling period, ms (coarser than the 5 ms
    /// figure default — per-session series dominate memory at scale).
    pub rate_sample_ms: f64,
    /// Record every `acr_stride`-th ACR update per source (1 = all).
    pub acr_stride: u64,
    /// Initial Cell Rate override, Mb/s. The paper's 8.5 Mb/s default
    /// is per-figure realistic but catastrophic at metro scale (10^5
    /// sources would offer 850 Gb/s at t=0); metro scenes set this near
    /// the per-session fair share.
    pub icr_mbps: Option<f64>,
}

/// The generator shapes.
#[derive(Clone, Debug, PartialEq)]
pub enum GenerateKind {
    /// `leaves` access switches each feeding `sessions_per_leaf`
    /// sessions over a private trunk into one core switch, which drains
    /// into a sink over the shared root trunk (trunk 0 — the natural
    /// bottleneck). Trunks `1..=leaves` are the leaf uplinks.
    FanIn {
        /// Access switch count.
        leaves: usize,
        /// Sessions homed on each leaf.
        sessions_per_leaf: usize,
        /// Leaf → core uplink capacity, Mb/s.
        leaf_mbps: f64,
        /// Core → sink root capacity, Mb/s.
        root_mbps: f64,
        /// One-way propagation per trunk, microseconds.
        prop_us: f64,
    },
    /// A chain of `hops + 1` switches. `long_sessions` sessions cross
    /// every hop; `cross_per_hop` sessions ride each single hop. Trunk
    /// `i` is hop `i` (bottleneck defaults to trunk 0).
    ParkingLot {
        /// Hop (trunk) count.
        hops: usize,
        /// Sessions crossing the whole chain.
        long_sessions: usize,
        /// Single-hop sessions per hop.
        cross_per_hop: usize,
        /// Per-hop capacity, Mb/s.
        hop_mbps: f64,
        /// One-way propagation per hop, microseconds.
        prop_us: f64,
    },
}

impl GenerateDecl {
    /// Total sessions the generator will create.
    pub fn n_sessions(&self) -> usize {
        match self.kind {
            GenerateKind::FanIn {
                leaves,
                sessions_per_leaf,
                ..
            } => leaves.saturating_mul(sessions_per_leaf),
            GenerateKind::ParkingLot {
                hops,
                long_sessions,
                cross_per_hop,
                ..
            } => long_sessions.saturating_add(hops.saturating_mul(cross_per_hop)),
        }
    }

    /// Trunks the generator will create (indexable by `bottleneck` and
    /// timeline trunk events).
    pub fn n_trunks(&self) -> usize {
        match self.kind {
            GenerateKind::FanIn { leaves, .. } => leaves + 1,
            GenerateKind::ParkingLot { hops, .. } => hops,
        }
    }

    /// Capacity of generated trunk `t`, Mb/s.
    pub fn trunk_mbps(&self, t: usize) -> f64 {
        match self.kind {
            GenerateKind::FanIn {
                leaf_mbps,
                root_mbps,
                ..
            } => {
                if t == 0 {
                    root_mbps
                } else {
                    leaf_mbps
                }
            }
            GenerateKind::ParkingLot { hop_mbps, .. } => hop_mbps,
        }
    }
}

/// The offered-load patterns a scene can declare.
#[derive(Clone, Debug, PartialEq)]
pub enum TrafficDecl {
    /// Always has cells to send.
    Greedy,
    /// Greedy inside `[start, stop)`, idle outside.
    Window {
        /// Activation time, ms.
        start_ms: f64,
        /// Deactivation time, ms.
        stop_ms: f64,
    },
    /// Deterministic on/off bursts.
    OnOff {
        /// First burst start, ms.
        start_ms: f64,
        /// Burst length, ms.
        on_ms: f64,
        /// Silence length, ms.
        off_ms: f64,
    },
    /// Exponentially distributed on/off bursts (seeded, deterministic).
    Random {
        /// Mean burst length, ms.
        mean_on_ms: f64,
        /// Mean silence length, ms.
        mean_off_ms: f64,
    },
}

/// One timeline entry.
#[derive(Clone, Debug, PartialEq)]
pub struct TimelineEvent {
    /// When the event fires, ms into the run.
    pub at_ms: f64,
    /// What happens.
    pub kind: EventKind,
}

/// The mid-run events a timeline can schedule.
#[derive(Clone, Debug, PartialEq)]
pub enum EventKind {
    /// Re-rate both directions of a trunk.
    SetCapacity {
        /// Trunk index.
        trunk: usize,
        /// New capacity, Mb/s.
        mbps: f64,
    },
    /// Fail a trunk (both directions drop every cell).
    LinkDown {
        /// Trunk index.
        trunk: usize,
    },
    /// Recover a failed trunk.
    LinkUp {
        /// Trunk index.
        trunk: usize,
    },
    /// Start a (declared-greedy) session at this time.
    SessionStart {
        /// Session id.
        session: String,
    },
    /// Stop a session at this time.
    SessionStop {
        /// Session id.
        session: String,
    },
}

/// Analysis targets the scene predicts for its bottleneck trunk.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct AnalysisDecl {
    /// Tail start for the whole-run aggregates, ms (default: half the run).
    pub tail_from_ms: Option<f64>,
    /// Convergence band as a fraction of the target (default 0.15).
    pub conv_tol: Option<f64>,
    /// Explicit whole-run MACR fixed-point target, Mb/s.
    pub macr_mbps: Option<f64>,
    /// Alternative: derive the target as `C/(1+n·u)` from this `n`.
    pub n_sessions: Option<usize>,
    /// Perturbation epochs, ascending and non-overlapping.
    pub epochs: Vec<EpochDecl>,
}

/// One perturbation epoch: the analyzer measures re-convergence time and
/// fixed-point error against the epoch's own MACR target, with the tail
/// being the second half of the epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct EpochDecl {
    /// Epoch start, ms.
    pub from_ms: f64,
    /// Epoch end (exclusive), ms.
    pub to_ms: f64,
    /// Explicit MACR target, Mb/s.
    pub macr_mbps: Option<f64>,
    /// Alternative: derive the target as `C/(1+n·u)` from this `n`.
    pub n_sessions: Option<usize>,
    /// Capacity `C` used with `n_sessions`, Mb/s (default: the
    /// bottleneck trunk's declared capacity).
    pub capacity_mbps: Option<f64>,
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

fn expect_obj<'a>(
    j: &'a Json,
    path: &str,
    allowed: &[&str],
) -> Result<&'a [(String, Json)], String> {
    let pairs = j
        .as_obj()
        .ok_or_else(|| format!("{path}: expected an object"))?;
    for (k, _) in pairs {
        if !allowed.contains(&k.as_str()) {
            return Err(format!("{path}: unknown key `{k}`"));
        }
    }
    Ok(pairs)
}

fn get<'a>(pairs: &'a [(String, Json)], key: &str) -> Option<&'a Json> {
    pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn req<'a>(pairs: &'a [(String, Json)], key: &str, path: &str) -> Result<&'a Json, String> {
    get(pairs, key).ok_or_else(|| format!("{path}: missing key `{key}`"))
}

fn num(j: &Json, path: &str, key: &str) -> Result<f64, String> {
    j.as_f64()
        .ok_or_else(|| format!("{path}.{key}: expected a number"))
}

fn opt_num(pairs: &[(String, Json)], key: &str, path: &str) -> Result<Option<f64>, String> {
    get(pairs, key).map(|j| num(j, path, key)).transpose()
}

fn string(j: &Json, path: &str, key: &str) -> Result<String, String> {
    j.as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("{path}.{key}: expected a string"))
}

fn uint(j: &Json, path: &str, key: &str) -> Result<usize, String> {
    let v = num(j, path, key)?;
    if v.fract() != 0.0 || !(0.0..=u32::MAX as f64).contains(&v) {
        return Err(format!("{path}.{key}: expected a non-negative integer"));
    }
    Ok(v as usize)
}

fn opt_uint(pairs: &[(String, Json)], key: &str, path: &str) -> Result<Option<usize>, String> {
    get(pairs, key).map(|j| uint(j, path, key)).transpose()
}

impl GenerateDecl {
    fn from_json(j: &Json, path: &str) -> Result<GenerateDecl, String> {
        let common = [
            "kind",
            "seed",
            "start_spread_ms",
            "rate_sample_ms",
            "acr_stride",
            "icr_mbps",
        ];
        let probe = j
            .as_obj()
            .ok_or_else(|| format!("{path}: expected an object"))?;
        let kind_name = string(req(probe, "kind", path)?, path, "kind")?;
        let kind = match kind_name.as_str() {
            "fan_in" => {
                let allowed: Vec<&str> = common
                    .iter()
                    .chain(&[
                        "leaves",
                        "sessions_per_leaf",
                        "leaf_mbps",
                        "root_mbps",
                        "prop_us",
                    ])
                    .copied()
                    .collect();
                let p = expect_obj(j, path, &allowed)?;
                GenerateKind::FanIn {
                    leaves: uint(req(p, "leaves", path)?, path, "leaves")?,
                    sessions_per_leaf: uint(
                        req(p, "sessions_per_leaf", path)?,
                        path,
                        "sessions_per_leaf",
                    )?,
                    leaf_mbps: num(req(p, "leaf_mbps", path)?, path, "leaf_mbps")?,
                    root_mbps: num(req(p, "root_mbps", path)?, path, "root_mbps")?,
                    prop_us: num(req(p, "prop_us", path)?, path, "prop_us")?,
                }
            }
            "parking_lot" => {
                let allowed: Vec<&str> = common
                    .iter()
                    .chain(&[
                        "hops",
                        "long_sessions",
                        "cross_per_hop",
                        "hop_mbps",
                        "prop_us",
                    ])
                    .copied()
                    .collect();
                let p = expect_obj(j, path, &allowed)?;
                GenerateKind::ParkingLot {
                    hops: uint(req(p, "hops", path)?, path, "hops")?,
                    long_sessions: uint(req(p, "long_sessions", path)?, path, "long_sessions")?,
                    cross_per_hop: uint(req(p, "cross_per_hop", path)?, path, "cross_per_hop")?,
                    hop_mbps: num(req(p, "hop_mbps", path)?, path, "hop_mbps")?,
                    prop_us: num(req(p, "prop_us", path)?, path, "prop_us")?,
                }
            }
            other => {
                return Err(format!(
                    "{path}.kind: unknown generator `{other}` (fan_in|parking_lot)"
                ))
            }
        };
        Ok(GenerateDecl {
            kind,
            seed: uint(req(probe, "seed", path)?, path, "seed")? as u64,
            start_spread_ms: opt_num(probe, "start_spread_ms", path)?.unwrap_or(0.0),
            rate_sample_ms: opt_num(probe, "rate_sample_ms", path)?.unwrap_or(5.0),
            acr_stride: opt_uint(probe, "acr_stride", path)?.unwrap_or(1) as u64,
            icr_mbps: opt_num(probe, "icr_mbps", path)?,
        })
    }

    fn write(&self, out: &mut String) {
        match self.kind {
            GenerateKind::FanIn {
                leaves,
                sessions_per_leaf,
                leaf_mbps,
                root_mbps,
                prop_us,
            } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"fan_in","seed":{},"leaves":{leaves},"sessions_per_leaf":{sessions_per_leaf},"leaf_mbps":{},"root_mbps":{},"prop_us":{}"#,
                    self.seed,
                    json_f64(leaf_mbps),
                    json_f64(root_mbps),
                    json_f64(prop_us)
                );
            }
            GenerateKind::ParkingLot {
                hops,
                long_sessions,
                cross_per_hop,
                hop_mbps,
                prop_us,
            } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"parking_lot","seed":{},"hops":{hops},"long_sessions":{long_sessions},"cross_per_hop":{cross_per_hop},"hop_mbps":{},"prop_us":{}"#,
                    self.seed,
                    json_f64(hop_mbps),
                    json_f64(prop_us)
                );
            }
        }
        if self.start_spread_ms != 0.0 {
            let _ = write!(
                out,
                r#","start_spread_ms":{}"#,
                json_f64(self.start_spread_ms)
            );
        }
        if self.rate_sample_ms != 5.0 {
            let _ = write!(
                out,
                r#","rate_sample_ms":{}"#,
                json_f64(self.rate_sample_ms)
            );
        }
        if self.acr_stride != 1 {
            let _ = write!(out, r#","acr_stride":{}"#, self.acr_stride);
        }
        if let Some(icr) = self.icr_mbps {
            let _ = write!(out, r#","icr_mbps":{}"#, json_f64(icr));
        }
        out.push('}');
    }
}

impl TrafficDecl {
    fn from_json(j: &Json, path: &str) -> Result<TrafficDecl, String> {
        let pairs = expect_obj(
            j,
            path,
            &[
                "kind",
                "start_ms",
                "stop_ms",
                "on_ms",
                "off_ms",
                "mean_on_ms",
                "mean_off_ms",
            ],
        )?;
        let kind = string(req(pairs, "kind", path)?, path, "kind")?;
        let field = |key: &str| num(req(pairs, key, path)?, path, key);
        match kind.as_str() {
            "greedy" => Ok(TrafficDecl::Greedy),
            "window" => Ok(TrafficDecl::Window {
                start_ms: field("start_ms")?,
                stop_ms: field("stop_ms")?,
            }),
            "on_off" => Ok(TrafficDecl::OnOff {
                start_ms: field("start_ms")?,
                on_ms: field("on_ms")?,
                off_ms: field("off_ms")?,
            }),
            "random" => Ok(TrafficDecl::Random {
                mean_on_ms: field("mean_on_ms")?,
                mean_off_ms: field("mean_off_ms")?,
            }),
            other => Err(format!(
                "{path}.kind: unknown traffic kind `{other}` \
                 (greedy|window|on_off|random)"
            )),
        }
    }

    fn write(&self, out: &mut String) {
        match self {
            TrafficDecl::Greedy => out.push_str(r#"{"kind":"greedy"}"#),
            TrafficDecl::Window { start_ms, stop_ms } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"window","start_ms":{},"stop_ms":{}}}"#,
                    json_f64(*start_ms),
                    json_f64(*stop_ms)
                );
            }
            TrafficDecl::OnOff {
                start_ms,
                on_ms,
                off_ms,
            } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"on_off","start_ms":{},"on_ms":{},"off_ms":{}}}"#,
                    json_f64(*start_ms),
                    json_f64(*on_ms),
                    json_f64(*off_ms)
                );
            }
            TrafficDecl::Random {
                mean_on_ms,
                mean_off_ms,
            } => {
                let _ = write!(
                    out,
                    r#"{{"kind":"random","mean_on_ms":{},"mean_off_ms":{}}}"#,
                    json_f64(*mean_on_ms),
                    json_f64(*mean_off_ms)
                );
            }
        }
    }
}

impl TimelineEvent {
    fn from_json(j: &Json, path: &str) -> Result<TimelineEvent, String> {
        let pairs = expect_obj(j, path, &["at_ms", "event", "trunk", "mbps", "session"])?;
        let at_ms = num(req(pairs, "at_ms", path)?, path, "at_ms")?;
        let event = string(req(pairs, "event", path)?, path, "event")?;
        let trunk = || uint(req(pairs, "trunk", path)?, path, "trunk");
        let session = || string(req(pairs, "session", path)?, path, "session");
        let kind = match event.as_str() {
            "set_capacity" => EventKind::SetCapacity {
                trunk: trunk()?,
                mbps: num(req(pairs, "mbps", path)?, path, "mbps")?,
            },
            "link_down" => EventKind::LinkDown { trunk: trunk()? },
            "link_up" => EventKind::LinkUp { trunk: trunk()? },
            "session_start" => EventKind::SessionStart {
                session: session()?,
            },
            "session_stop" => EventKind::SessionStop {
                session: session()?,
            },
            other => {
                return Err(format!(
                    "{path}.event: unknown event `{other}` (set_capacity|\
                     link_down|link_up|session_start|session_stop)"
                ))
            }
        };
        Ok(TimelineEvent { at_ms, kind })
    }

    fn write(&self, out: &mut String) {
        let at = json_f64(self.at_ms);
        match &self.kind {
            EventKind::SetCapacity { trunk, mbps } => {
                let _ = write!(
                    out,
                    r#"{{"at_ms":{at},"event":"set_capacity","trunk":{trunk},"mbps":{}}}"#,
                    json_f64(*mbps)
                );
            }
            EventKind::LinkDown { trunk } => {
                let _ = write!(
                    out,
                    r#"{{"at_ms":{at},"event":"link_down","trunk":{trunk}}}"#
                );
            }
            EventKind::LinkUp { trunk } => {
                let _ = write!(out, r#"{{"at_ms":{at},"event":"link_up","trunk":{trunk}}}"#);
            }
            EventKind::SessionStart { session } => {
                let _ = write!(
                    out,
                    r#"{{"at_ms":{at},"event":"session_start","session":{}}}"#,
                    json_str(session)
                );
            }
            EventKind::SessionStop { session } => {
                let _ = write!(
                    out,
                    r#"{{"at_ms":{at},"event":"session_stop","session":{}}}"#,
                    json_str(session)
                );
            }
        }
    }
}

impl Scene {
    /// Parse and validate a scene document.
    pub fn parse(text: &str) -> Result<Scene, String> {
        let scene = Scene::from_json(&Json::parse(text)?)?;
        scene.validate()?;
        Ok(scene)
    }

    /// Structural decode (no semantic validation — see [`Scene::validate`]).
    pub fn from_json(j: &Json) -> Result<Scene, String> {
        let pairs = expect_obj(
            j,
            "scene",
            &[
                "schema",
                "id",
                "describe",
                "algorithm",
                "duration_ms",
                "u",
                "cbr_priority",
                "generate",
                "switches",
                "trunks",
                "sessions",
                "bottleneck",
                "timeline",
                "analysis",
            ],
        )?;
        match req(pairs, "schema", "scene")?.as_str() {
            Some(SCENE_SCHEMA) => {}
            _ => return Err(format!("scene.schema: expected \"{SCENE_SCHEMA}\"")),
        }
        let generate = get(pairs, "generate")
            .map(|g| GenerateDecl::from_json(g, "generate"))
            .transpose()?;
        // Generated scenes may omit the explicit topology keys entirely;
        // declarative scenes keep the strict missing-key errors.
        let topo_key = |key: &'static str| -> Result<Option<&Json>, String> {
            match (get(pairs, key), &generate) {
                (Some(j), _) => Ok(Some(j)),
                (None, Some(_)) => Ok(None),
                (None, None) => Err(format!("scene: missing key `{key}`")),
            }
        };
        let switches = match topo_key("switches")? {
            None => Vec::new(),
            Some(j) => j
                .as_arr()
                .ok_or("scene.switches: expected an array")?
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("switches[{i}]: expected a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
        };

        let mut trunks = Vec::new();
        for (i, t) in topo_key("trunks")?
            .map(|j| j.as_arr().ok_or("scene.trunks: expected an array"))
            .transpose()?
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let path = format!("trunks[{i}]");
            let tp = expect_obj(
                t,
                &path,
                &[
                    "a",
                    "b",
                    "mbps",
                    "prop_us",
                    "u",
                    "alpha_inc",
                    "alpha_dec",
                    "loss",
                ],
            )?;
            trunks.push(TrunkDecl {
                a: string(req(tp, "a", &path)?, &path, "a")?,
                b: string(req(tp, "b", &path)?, &path, "b")?,
                mbps: num(req(tp, "mbps", &path)?, &path, "mbps")?,
                prop_us: num(req(tp, "prop_us", &path)?, &path, "prop_us")?,
                u: opt_num(tp, "u", &path)?,
                alpha_inc: opt_num(tp, "alpha_inc", &path)?,
                alpha_dec: opt_num(tp, "alpha_dec", &path)?,
                loss: opt_num(tp, "loss", &path)?,
            });
        }

        let mut sessions = Vec::new();
        for (i, s) in topo_key("sessions")?
            .map(|j| j.as_arr().ok_or("scene.sessions: expected an array"))
            .transpose()?
            .unwrap_or(&[])
            .iter()
            .enumerate()
        {
            let path = format!("sessions[{i}]");
            let sp = expect_obj(
                s,
                &path,
                &["id", "path", "traffic", "cbr_mbps", "access_prop_us"],
            )?;
            let hops = req(sp, "path", &path)?
                .as_arr()
                .ok_or_else(|| format!("{path}.path: expected an array"))?
                .iter()
                .enumerate()
                .map(|(h, j)| {
                    j.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| format!("{path}.path[{h}]: expected a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let traffic = match get(sp, "traffic") {
                Some(t) => TrafficDecl::from_json(t, &format!("{path}.traffic"))?,
                None => TrafficDecl::Greedy,
            };
            sessions.push(SessionDecl {
                id: string(req(sp, "id", &path)?, &path, "id")?,
                path: hops,
                traffic,
                cbr_mbps: opt_num(sp, "cbr_mbps", &path)?,
                access_prop_us: opt_num(sp, "access_prop_us", &path)?,
            });
        }

        let mut timeline = Vec::new();
        if let Some(tl) = get(pairs, "timeline") {
            for (i, e) in tl
                .as_arr()
                .ok_or("scene.timeline: expected an array")?
                .iter()
                .enumerate()
            {
                timeline.push(TimelineEvent::from_json(e, &format!("timeline[{i}]"))?);
            }
        }

        let mut analysis = AnalysisDecl::default();
        if let Some(a) = get(pairs, "analysis") {
            let ap = expect_obj(
                a,
                "analysis",
                &[
                    "tail_from_ms",
                    "conv_tol",
                    "macr_mbps",
                    "n_sessions",
                    "epochs",
                ],
            )?;
            analysis.tail_from_ms = opt_num(ap, "tail_from_ms", "analysis")?;
            analysis.conv_tol = opt_num(ap, "conv_tol", "analysis")?;
            analysis.macr_mbps = opt_num(ap, "macr_mbps", "analysis")?;
            analysis.n_sessions = opt_uint(ap, "n_sessions", "analysis")?;
            if let Some(eps) = get(ap, "epochs") {
                for (i, e) in eps
                    .as_arr()
                    .ok_or("analysis.epochs: expected an array")?
                    .iter()
                    .enumerate()
                {
                    let path = format!("analysis.epochs[{i}]");
                    let ep = expect_obj(
                        e,
                        &path,
                        &[
                            "from_ms",
                            "to_ms",
                            "macr_mbps",
                            "n_sessions",
                            "capacity_mbps",
                        ],
                    )?;
                    analysis.epochs.push(EpochDecl {
                        from_ms: num(req(ep, "from_ms", &path)?, &path, "from_ms")?,
                        to_ms: num(req(ep, "to_ms", &path)?, &path, "to_ms")?,
                        macr_mbps: opt_num(ep, "macr_mbps", &path)?,
                        n_sessions: opt_uint(ep, "n_sessions", &path)?,
                        capacity_mbps: opt_num(ep, "capacity_mbps", &path)?,
                    });
                }
            }
        }

        Ok(Scene {
            id: string(req(pairs, "id", "scene")?, "scene", "id")?,
            describe: string(req(pairs, "describe", "scene")?, "scene", "describe")?,
            algorithm: string(req(pairs, "algorithm", "scene")?, "scene", "algorithm")?,
            duration_ms: num(req(pairs, "duration_ms", "scene")?, "scene", "duration_ms")?,
            u: opt_num(pairs, "u", "scene")?,
            cbr_priority: match get(pairs, "cbr_priority") {
                Some(b) => b
                    .as_bool()
                    .ok_or("scene.cbr_priority: expected a boolean")?,
                None => false,
            },
            generate,
            switches,
            trunks,
            sessions,
            bottleneck: match get(pairs, "bottleneck") {
                Some(b) => uint(b, "scene", "bottleneck")?,
                None => 0,
            },
            timeline,
            analysis,
        })
    }

    /// Canonical compact serialization: `Scene::parse(s.to_json()) == s`
    /// for every valid scene (the round-trip property test).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            r#"{{"schema":{},"id":{},"describe":{},"algorithm":{},"duration_ms":{}"#,
            json_str(SCENE_SCHEMA),
            json_str(&self.id),
            json_str(&self.describe),
            json_str(&self.algorithm),
            json_f64(self.duration_ms)
        );
        if let Some(u) = self.u {
            let _ = write!(out, r#","u":{}"#, json_f64(u));
        }
        if self.cbr_priority {
            out.push_str(r#","cbr_priority":true"#);
        }
        if let Some(g) = &self.generate {
            out.push_str(",\"generate\":");
            g.write(&mut out);
            // Generated scenes omit the (empty) explicit-topology keys:
            // `Scene::parse(s.to_json()) == s` still holds because the
            // decoder defaults them to empty when `generate` is present.
            let _ = write!(out, r#","bottleneck":{}"#, self.bottleneck);
            self.write_timeline_and_analysis(&mut out);
            out.push('}');
            return out;
        }
        out.push_str(",\"switches\":[");
        for (i, s) in self.switches.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&json_str(s));
        }
        out.push_str("],\"trunks\":[");
        for (i, t) in self.trunks.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                r#"{{"a":{},"b":{},"mbps":{},"prop_us":{}"#,
                json_str(&t.a),
                json_str(&t.b),
                json_f64(t.mbps),
                json_f64(t.prop_us)
            );
            for (key, v) in [
                ("u", t.u),
                ("alpha_inc", t.alpha_inc),
                ("alpha_dec", t.alpha_dec),
                ("loss", t.loss),
            ] {
                if let Some(v) = v {
                    let _ = write!(out, r#","{key}":{}"#, json_f64(v));
                }
            }
            out.push('}');
        }
        out.push_str("],\"sessions\":[");
        for (i, s) in self.sessions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, r#"{{"id":{},"path":["#, json_str(&s.id));
            for (h, hop) in s.path.iter().enumerate() {
                if h > 0 {
                    out.push(',');
                }
                out.push_str(&json_str(hop));
            }
            out.push_str("],\"traffic\":");
            s.traffic.write(&mut out);
            for (key, v) in [
                ("cbr_mbps", s.cbr_mbps),
                ("access_prop_us", s.access_prop_us),
            ] {
                if let Some(v) = v {
                    let _ = write!(out, r#","{key}":{}"#, json_f64(v));
                }
            }
            out.push('}');
        }
        let _ = write!(out, r#"],"bottleneck":{}"#, self.bottleneck);
        self.write_timeline_and_analysis(&mut out);
        out.push('}');
        out
    }

    /// The shared `to_json` tail: timeline and analysis blocks.
    fn write_timeline_and_analysis(&self, out: &mut String) {
        if !self.timeline.is_empty() {
            out.push_str(",\"timeline\":[");
            for (i, e) in self.timeline.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                e.write(out);
            }
            out.push(']');
        }
        let a = &self.analysis;
        if *a != AnalysisDecl::default() {
            out.push_str(",\"analysis\":{");
            let mut first = true;
            let mut sep = |out: &mut String| {
                if !first {
                    out.push(',');
                }
                first = false;
            };
            for (key, v) in [
                ("tail_from_ms", a.tail_from_ms),
                ("conv_tol", a.conv_tol),
                ("macr_mbps", a.macr_mbps),
            ] {
                if let Some(v) = v {
                    sep(out);
                    let _ = write!(out, r#""{key}":{}"#, json_f64(v));
                }
            }
            if let Some(n) = a.n_sessions {
                sep(out);
                let _ = write!(out, r#""n_sessions":{n}"#);
            }
            if !a.epochs.is_empty() {
                sep(out);
                out.push_str("\"epochs\":[");
                for (i, e) in a.epochs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(
                        out,
                        r#"{{"from_ms":{},"to_ms":{}"#,
                        json_f64(e.from_ms),
                        json_f64(e.to_ms)
                    );
                    if let Some(m) = e.macr_mbps {
                        let _ = write!(out, r#","macr_mbps":{}"#, json_f64(m));
                    }
                    if let Some(n) = e.n_sessions {
                        let _ = write!(out, r#","n_sessions":{n}"#);
                    }
                    if let Some(c) = e.capacity_mbps {
                        let _ = write!(out, r#","capacity_mbps":{}"#, json_f64(c));
                    }
                    out.push('}');
                }
                out.push(']');
            }
            out.push('}');
        }
    }

    fn switch_index(&self, name: &str) -> Option<usize> {
        self.switches.iter().position(|s| s == name)
    }

    /// Find the trunk connecting two named switches (either direction).
    pub fn trunk_between(&self, a: &str, b: &str) -> Option<usize> {
        self.trunks
            .iter()
            .position(|t| (t.a == a && t.b == b) || (t.a == b && t.b == a))
    }

    fn session_index(&self, id: &str) -> Option<usize> {
        self.sessions.iter().position(|s| s.id == id)
    }

    /// True when any Phantom parameter is overridden (scene-level `u` or
    /// any per-trunk `u`/`alpha_*`).
    pub fn has_overrides(&self) -> bool {
        self.u.is_some()
            || self
                .trunks
                .iter()
                .any(|t| t.u.is_some() || t.alpha_inc.is_some() || t.alpha_dec.is_some())
    }

    /// Declared capacity of the bottleneck trunk, Mb/s — works for both
    /// explicit and generated topologies (call after [`Scene::validate`]).
    pub fn bottleneck_mbps(&self) -> f64 {
        match &self.generate {
            Some(g) => g.trunk_mbps(self.bottleneck),
            None => self.trunks[self.bottleneck].mbps,
        }
    }

    /// Parameter-range checks for a generated topology. The session cap
    /// bounds accidental `sessions_per_leaf: 1e9` typos, not the design
    /// scale — 2×10^6 sessions is ~4×10^6 end-system nodes.
    fn validate_generate(&self, g: &GenerateDecl) -> Result<(), String> {
        const MAX_SESSIONS: usize = 2_000_000;
        let pos = |v: f64, key: &str| -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{key}: must be positive and finite, got {v}"))
            }
        };
        let count = |v: usize, key: &str, max: usize| -> Result<(), String> {
            if (1..=max).contains(&v) {
                Ok(())
            } else {
                Err(format!("{key}: must be in 1..={max}, got {v}"))
            }
        };
        match g.kind {
            GenerateKind::FanIn {
                leaves,
                sessions_per_leaf,
                leaf_mbps,
                root_mbps,
                prop_us,
            } => {
                count(leaves, "generate.leaves", 4096)?;
                count(
                    sessions_per_leaf,
                    "generate.sessions_per_leaf",
                    MAX_SESSIONS,
                )?;
                pos(leaf_mbps, "generate.leaf_mbps")?;
                pos(root_mbps, "generate.root_mbps")?;
                if !prop_us.is_finite() || prop_us < 0.0 {
                    return Err("generate.prop_us: must be non-negative and finite".into());
                }
            }
            GenerateKind::ParkingLot {
                hops,
                long_sessions,
                cross_per_hop,
                hop_mbps,
                prop_us,
            } => {
                count(hops, "generate.hops", 1024)?;
                if long_sessions == 0 && cross_per_hop == 0 {
                    return Err(
                        "generate: at least one of long_sessions/cross_per_hop must be nonzero"
                            .into(),
                    );
                }
                pos(hop_mbps, "generate.hop_mbps")?;
                if !prop_us.is_finite() || prop_us < 0.0 {
                    return Err("generate.prop_us: must be non-negative and finite".into());
                }
            }
        }
        if g.n_sessions() > MAX_SESSIONS {
            return Err(format!(
                "generate: {} sessions exceeds the {MAX_SESSIONS} cap",
                g.n_sessions()
            ));
        }
        if !g.start_spread_ms.is_finite()
            || g.start_spread_ms < 0.0
            || g.start_spread_ms > self.duration_ms
        {
            return Err(format!(
                "generate.start_spread_ms: must lie within the run [0, {}] ms, got {}",
                self.duration_ms, g.start_spread_ms
            ));
        }
        pos(g.rate_sample_ms, "generate.rate_sample_ms")?;
        if g.acr_stride == 0 {
            return Err("generate.acr_stride: must be at least 1".into());
        }
        if let Some(icr) = g.icr_mbps {
            // The end-system invariants (ICR in (0, PCR], above the MCR
            // floor) are checked by the same validator the builder uses.
            phantom_atm::params::AtmParams::paper()
                .with_icr_mbps(icr)
                .validate()
                .map_err(|e| format!("generate.icr_mbps: {e}"))?;
        }
        Ok(())
    }

    /// Semantic validation. Every error names the offending key.
    pub fn validate(&self) -> Result<(), String> {
        let pos = |v: f64, key: &str| -> Result<(), String> {
            if v.is_finite() && v > 0.0 {
                Ok(())
            } else {
                Err(format!("{key}: must be positive and finite, got {v}"))
            }
        };
        let time_in_run = |v: f64, key: &str| -> Result<(), String> {
            if v.is_finite() && (0.0..=self.duration_ms).contains(&v) {
                Ok(())
            } else {
                Err(format!(
                    "{key}: must lie within the run [0, {}] ms, got {v}",
                    self.duration_ms
                ))
            }
        };

        if self.id.is_empty()
            || !self
                .id
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(format!(
                "id: must be non-empty [A-Za-z0-9_-]+, got `{}`",
                self.id
            ));
        }
        if !ALGORITHMS.contains(&self.algorithm.as_str()) {
            return Err(format!(
                "algorithm: unknown `{}` (one of {})",
                self.algorithm,
                ALGORITHMS.join("|")
            ));
        }
        pos(self.duration_ms, "duration_ms")?;
        if let Some(u) = self.u {
            pos(u, "u")?;
        }
        if self.has_overrides() && self.algorithm != "phantom" {
            return Err(format!(
                "u/alpha overrides require algorithm \"phantom\", got \"{}\"",
                self.algorithm
            ));
        }

        if let Some(g) = &self.generate {
            if !self.switches.is_empty() || !self.trunks.is_empty() || !self.sessions.is_empty() {
                return Err(
                    "generate: mutually exclusive with explicit switches/trunks/sessions".into(),
                );
            }
            self.validate_generate(g)?;
        }

        if self.switches.is_empty() && self.generate.is_none() {
            return Err("switches: at least one switch is required".into());
        }
        for (i, s) in self.switches.iter().enumerate() {
            if s.is_empty() {
                return Err(format!("switches[{i}]: empty name"));
            }
            if self.switches[..i].contains(s) {
                return Err(format!("switches[{i}]: duplicate switch `{s}`"));
            }
        }

        if self.trunks.is_empty() && self.generate.is_none() {
            return Err("trunks: at least one trunk is required".into());
        }
        for (i, t) in self.trunks.iter().enumerate() {
            for (end, name) in [("a", &t.a), ("b", &t.b)] {
                if self.switch_index(name).is_none() {
                    return Err(format!("trunks[{i}].{end}: unknown switch `{name}`"));
                }
            }
            if t.a == t.b {
                return Err(format!("trunks[{i}]: both ends are `{}`", t.a));
            }
            pos(t.mbps, &format!("trunks[{i}].mbps"))?;
            if !t.prop_us.is_finite() || t.prop_us < 0.0 {
                return Err(format!(
                    "trunks[{i}].prop_us: must be non-negative and finite"
                ));
            }
            if let Some(p) = t.loss {
                if !(0.0..1.0).contains(&p) {
                    return Err(format!("trunks[{i}].loss: must be in [0, 1), got {p}"));
                }
            }
            for (key, v) in [
                ("u", t.u),
                ("alpha_inc", t.alpha_inc),
                ("alpha_dec", t.alpha_dec),
            ] {
                if let Some(v) = v {
                    pos(v, &format!("trunks[{i}].{key}"))?;
                }
            }
            if self.trunks[..i]
                .iter()
                .any(|p| (p.a == t.a && p.b == t.b) || (p.a == t.b && p.b == t.a))
            {
                return Err(format!(
                    "trunks[{i}]: duplicate trunk between `{}` and `{}`",
                    t.a, t.b
                ));
            }
        }
        // Generated scenes are indexed against the trunks the generator
        // *will* create.
        let n_trunks = self
            .generate
            .as_ref()
            .map(|g| g.n_trunks())
            .unwrap_or(self.trunks.len());
        if self.bottleneck >= n_trunks {
            return Err(format!(
                "bottleneck: index {} out of range ({} trunks)",
                self.bottleneck, n_trunks
            ));
        }

        if self.sessions.is_empty() && self.generate.is_none() {
            return Err("sessions: at least one session is required".into());
        }
        for (i, s) in self.sessions.iter().enumerate() {
            if s.id.is_empty() {
                return Err(format!("sessions[{i}].id: empty id"));
            }
            if self.sessions[..i].iter().any(|p| p.id == s.id) {
                return Err(format!("sessions[{i}].id: duplicate session id `{}`", s.id));
            }
            if s.path.len() < 2 {
                return Err(format!("sessions[{i}].path: needs at least two hops"));
            }
            for (h, hop) in s.path.iter().enumerate() {
                if self.switch_index(hop).is_none() {
                    return Err(format!("sessions[{i}].path[{h}]: unknown switch `{hop}`"));
                }
            }
            for (h, w) in s.path.windows(2).enumerate() {
                if self.trunk_between(&w[0], &w[1]).is_none() {
                    return Err(format!(
                        "sessions[{i}].path[{}]: no trunk between `{}` and `{}`",
                        h + 1,
                        w[0],
                        w[1]
                    ));
                }
            }
            if let Some(r) = s.cbr_mbps {
                pos(r, &format!("sessions[{i}].cbr_mbps"))?;
            }
            if let Some(us) = s.access_prop_us {
                if !us.is_finite() || us < 0.0 {
                    return Err(format!(
                        "sessions[{i}].access_prop_us: must be non-negative and finite"
                    ));
                }
            }
            let tpath = format!("sessions[{i}].traffic");
            match s.traffic {
                TrafficDecl::Greedy => {}
                TrafficDecl::Window { start_ms, stop_ms } => {
                    time_in_run(start_ms, &format!("{tpath}.start_ms"))?;
                    if !stop_ms.is_finite() || stop_ms <= start_ms {
                        return Err(format!("{tpath}.stop_ms: must come after start_ms"));
                    }
                }
                TrafficDecl::OnOff {
                    start_ms,
                    on_ms,
                    off_ms,
                } => {
                    time_in_run(start_ms, &format!("{tpath}.start_ms"))?;
                    pos(on_ms, &format!("{tpath}.on_ms"))?;
                    pos(off_ms, &format!("{tpath}.off_ms"))?;
                }
                TrafficDecl::Random {
                    mean_on_ms,
                    mean_off_ms,
                } => {
                    pos(mean_on_ms, &format!("{tpath}.mean_on_ms"))?;
                    pos(mean_off_ms, &format!("{tpath}.mean_off_ms"))?;
                }
            }
        }

        // Timeline: valid references, plausible times, well-formed
        // churn windows and down/up alternation per trunk.
        let mut windows: Vec<(Option<f64>, Option<f64>)> = vec![(None, None); self.sessions.len()];
        let mut flaps: Vec<Vec<(f64, bool)>> = vec![Vec::new(); n_trunks];
        for (i, e) in self.timeline.iter().enumerate() {
            let path = format!("timeline[{i}]");
            time_in_run(e.at_ms, &format!("{path}.at_ms"))?;
            match &e.kind {
                EventKind::SetCapacity { trunk, mbps } => {
                    if *trunk >= n_trunks {
                        return Err(format!("{path}.trunk: index {trunk} out of range"));
                    }
                    pos(*mbps, &format!("{path}.mbps"))?;
                }
                EventKind::LinkDown { trunk } | EventKind::LinkUp { trunk } => {
                    if *trunk >= n_trunks {
                        return Err(format!("{path}.trunk: index {trunk} out of range"));
                    }
                    flaps[*trunk].push((e.at_ms, matches!(e.kind, EventKind::LinkDown { .. })));
                }
                EventKind::SessionStart { session } | EventKind::SessionStop { session } => {
                    let Some(s) = self.session_index(session) else {
                        return Err(format!("{path}.session: unknown session `{session}`"));
                    };
                    if self.sessions[s].traffic != TrafficDecl::Greedy {
                        return Err(format!(
                            "{path}: session churn requires `{session}` to declare \
                             greedy traffic (its window is derived from the timeline)"
                        ));
                    }
                    let w = &mut windows[s];
                    let starting = matches!(e.kind, EventKind::SessionStart { .. });
                    let slot = if starting { &mut w.0 } else { &mut w.1 };
                    if slot.is_some() {
                        return Err(format!(
                            "{path}: second session_{} for `{session}`",
                            if starting { "start" } else { "stop" }
                        ));
                    }
                    *slot = Some(e.at_ms);
                }
            }
        }
        for (s, (start, stop)) in windows.iter().enumerate() {
            if let (Some(a), Some(b)) = (start, stop) {
                if b <= a {
                    return Err(format!(
                        "timeline: session_stop for `{}` at {b} ms does not come \
                         after its session_start at {a} ms",
                        self.sessions[s].id
                    ));
                }
            }
        }
        for (t, mut events) in flaps.into_iter().enumerate() {
            events.sort_by(|x, y| x.0.total_cmp(&y.0));
            let mut want_down = true;
            for (at, is_down) in events {
                if is_down != want_down {
                    return Err(format!(
                        "timeline: trunk {t} link_{} at {at} ms out of order \
                         (down/up must alternate, starting with link_down)",
                        if is_down { "down" } else { "up" }
                    ));
                }
                want_down = !want_down;
            }
        }

        // Analysis targets.
        let a = &self.analysis;
        if let Some(t) = a.tail_from_ms {
            time_in_run(t, "analysis.tail_from_ms")?;
        }
        if let Some(tol) = a.conv_tol {
            if !tol.is_finite() || !(0.0..=1.0).contains(&tol) || tol == 0.0 {
                return Err(format!("analysis.conv_tol: must be in (0, 1], got {tol}"));
            }
        }
        if a.macr_mbps.is_some() && a.n_sessions.is_some() {
            return Err("analysis: give either macr_mbps or n_sessions, not both".into());
        }
        if let Some(m) = a.macr_mbps {
            pos(m, "analysis.macr_mbps")?;
        }
        let mut prev_to = f64::NEG_INFINITY;
        for (i, e) in a.epochs.iter().enumerate() {
            let path = format!("analysis.epochs[{i}]");
            time_in_run(e.from_ms, &format!("{path}.from_ms"))?;
            time_in_run(e.to_ms, &format!("{path}.to_ms"))?;
            if e.to_ms <= e.from_ms {
                return Err(format!("{path}.to_ms: must come after from_ms"));
            }
            if e.from_ms < prev_to {
                return Err(format!("{path}: overlaps epoch {}", i.saturating_sub(1)));
            }
            prev_to = e.to_ms;
            match (e.macr_mbps, e.n_sessions) {
                (Some(m), None) => pos(m, &format!("{path}.macr_mbps"))?,
                (None, Some(_)) => {}
                _ => {
                    return Err(format!(
                        "{path}: give exactly one of macr_mbps or n_sessions"
                    ))
                }
            }
            if let Some(c) = e.capacity_mbps {
                if e.n_sessions.is_none() {
                    return Err(format!(
                        "{path}.capacity_mbps: only meaningful with n_sessions"
                    ));
                }
                pos(c, &format!("{path}.capacity_mbps"))?;
            }
        }
        Ok(())
    }
}
