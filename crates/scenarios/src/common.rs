//! Shared scenario plumbing: algorithm catalogs and standard topologies.

use phantom_atm::allocator::RateAllocator;
use phantom_atm::network::{Network, NetworkBuilder};
use phantom_atm::units::mbps_to_cps;
use phantom_atm::{AtmMsg, Traffic};
use phantom_baselines::{Aprc, Capc, Eprca, Erica, Osu};
use phantom_core::{MacrConfig, PhantomAllocator, PhantomConfig, PhantomNi, ResidualMode};
use phantom_sim::{Engine, SimDuration, SimTime};
use phantom_tcp::qdisc::{
    DropTail, EfciMark, QueueDiscipline, Red, SelectiveDiscard, SelectiveQuench, SelectiveRed,
};
use phantom_tcp::{TcpMsg, TcpNetwork, TcpNetworkBuilder};

/// The ATM rate-control algorithms under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AtmAlgorithm {
    /// Phantom, explicit-rate mode (the paper's default).
    Phantom,
    /// Phantom with fixed (non-adaptive) gains — the Fig. 12 ablation.
    PhantomFixedAlpha,
    /// Phantom measuring departures instead of arrivals — ablation.
    PhantomDepartures,
    /// Phantom, binary NI/CI mode (Fig. 11).
    PhantomNi,
    /// EPRCA \[Rob94\].
    Eprca,
    /// APRC \[ST94\].
    Aprc,
    /// CAPC \[Bar94\].
    Capc,
    /// ERICA \[JKV94\] — the unbounded-space (per-VC state) comparator.
    Erica,
    /// OSU \[JKV94\] — basic load-factor scaling, constant space.
    Osu,
}

impl AtmAlgorithm {
    /// Instantiate one per-port allocator.
    pub fn boxed(self) -> Box<dyn RateAllocator> {
        match self {
            AtmAlgorithm::Phantom => Box::new(PhantomAllocator::paper()),
            AtmAlgorithm::PhantomFixedAlpha => Box::new(PhantomAllocator::new(
                PhantomConfig::paper().with_macr(MacrConfig::default().fixed_gains()),
            )),
            AtmAlgorithm::PhantomDepartures => {
                let macr = MacrConfig {
                    residual: ResidualMode::Departures,
                    ..MacrConfig::default()
                };
                Box::new(PhantomAllocator::new(
                    PhantomConfig::paper().with_macr(macr),
                ))
            }
            AtmAlgorithm::PhantomNi => Box::new(PhantomNi::paper()),
            AtmAlgorithm::Eprca => Box::new(Eprca::recommended()),
            AtmAlgorithm::Aprc => Box::new(Aprc::recommended()),
            AtmAlgorithm::Capc => Box::new(Capc::recommended()),
            AtmAlgorithm::Erica => Box::new(Erica::recommended()),
            AtmAlgorithm::Osu => Box::new(Osu::recommended()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            AtmAlgorithm::Phantom => "phantom",
            AtmAlgorithm::PhantomFixedAlpha => "phantom-fixed-alpha",
            AtmAlgorithm::PhantomDepartures => "phantom-departures",
            AtmAlgorithm::PhantomNi => "phantom-ni",
            AtmAlgorithm::Eprca => "eprca",
            AtmAlgorithm::Aprc => "aprc",
            AtmAlgorithm::Capc => "capc",
            AtmAlgorithm::Erica => "erica",
            AtmAlgorithm::Osu => "osu",
        }
    }
}

/// The TCP router mechanisms under comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TcpMechanism {
    /// Plain FIFO.
    DropTail,
    /// Random Early Detection \[FJ93\].
    Red,
    /// The paper's Selective Discard (Fig. 18).
    SelectiveDiscard,
    /// The paper's Selective Source Quench.
    SelectiveQuench,
    /// The paper's Selective RED.
    SelectiveRed,
    /// The paper's EFCI/ECN marking.
    EfciMark,
}

impl TcpMechanism {
    /// Instantiate one per-port discipline.
    pub fn boxed(self) -> Box<dyn QueueDiscipline> {
        match self {
            TcpMechanism::DropTail => Box::new(DropTail),
            TcpMechanism::Red => Box::new(Red::recommended()),
            TcpMechanism::SelectiveDiscard => Box::new(SelectiveDiscard::paper()),
            TcpMechanism::SelectiveQuench => Box::new(SelectiveQuench::paper()),
            TcpMechanism::SelectiveRed => Box::new(SelectiveRed::paper()),
            TcpMechanism::EfciMark => Box::new(EfciMark::paper()),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TcpMechanism::DropTail => "drop-tail",
            TcpMechanism::Red => "red",
            TcpMechanism::SelectiveDiscard => "selective-discard",
            TcpMechanism::SelectiveQuench => "selective-quench",
            TcpMechanism::SelectiveRed => "selective-red",
            TcpMechanism::EfciMark => "efci-mark",
        }
    }
}

/// The paper's standard single-bottleneck ATM configuration: sources on
/// switch `s1`, destinations behind switch `s2`, one 150 Mb/s trunk with
/// negligible (0.01 ms) propagation.
pub fn single_bottleneck(
    traffics: &[Traffic],
    alg: AtmAlgorithm,
    seed: u64,
) -> (Engine<AtmMsg>, Network) {
    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    for &t in traffics {
        b.session(&[s1, s2], t);
    }
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || alg.boxed());
    (engine, net)
}

/// `n` greedy sessions over the standard single bottleneck.
pub fn greedy_bottleneck(n: usize, alg: AtmAlgorithm, seed: u64) -> (Engine<AtmMsg>, Network) {
    single_bottleneck(&vec![Traffic::greedy(); n], alg, seed)
}

/// The paper's on/off configuration ("analogous to that in Fig. 4"):
/// one greedy background session plus two bursty sessions alternating
/// 30 ms on / 30 ms off. The second burster is offset by *half* an
/// on-period so the active-session count keeps stepping through
/// 1 → 3 → 2 → 1 …, exercising the transient every 15 ms.
pub fn onoff_bottleneck(alg: AtmAlgorithm, seed: u64) -> (Engine<AtmMsg>, Network) {
    let on = SimDuration::from_millis(30);
    let off = SimDuration::from_millis(30);
    single_bottleneck(
        &[
            Traffic::greedy(),
            Traffic::on_off(SimTime::from_millis(100), on, off),
            Traffic::on_off(SimTime::from_millis(115), on, off),
        ],
        alg,
        seed,
    )
}

/// Three-switch parking lot: one long session across both trunks plus one
/// cross session per trunk.
pub fn parking_lot(alg: AtmAlgorithm, seed: u64) -> (Engine<AtmMsg>, Network) {
    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    let s3 = b.switch("s3");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    b.trunk(s2, s3, 150.0, SimDuration::from_micros(10));
    b.session(&[s1, s2, s3], Traffic::greedy()); // long
    b.session(&[s1, s2], Traffic::greedy()); // cross 1
    b.session(&[s2, s3], Traffic::greedy()); // cross 2
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || alg.boxed());
    (engine, net)
}

/// The path indices (`SwIdx`) used by [`parking_lot`], for building the
/// max-min reference.
pub fn parking_lot_paths() -> (Vec<f64>, Vec<Vec<usize>>) {
    let c = mbps_to_cps(150.0);
    (vec![c, c], vec![vec![0, 1], vec![0], vec![1]])
}

/// Standard 10 Mb/s TCP dumbbell with `n` flows, all starting at 0.
pub fn tcp_dumbbell(n: usize, mech: TcpMechanism, seed: u64) -> (Engine<TcpMsg>, TcpNetwork) {
    let mut b = TcpNetworkBuilder::new();
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    b.trunk(r1, r2, 10.0, SimDuration::from_millis(1));
    for _ in 0..n {
        b.flow(&[r1, r2], SimTime::ZERO);
    }
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || mech.boxed());
    (engine, net)
}

/// The heterogeneous-RTT TCP dumbbell (paper Fig. 14): flow 0 with a
/// short access delay, flow 1 with `long_access` one-way delay.
pub fn tcp_rtt_dumbbell(
    long_access: SimDuration,
    mech: TcpMechanism,
    seed: u64,
) -> (Engine<TcpMsg>, TcpNetwork) {
    tcp_rtt_dumbbell_cap(long_access, mech, seed, 100)
}

/// [`tcp_rtt_dumbbell`] with an explicit router buffer size. The RED
/// comparison (F16) uses a 200-packet buffer so that early detection,
/// not tail overflow, is the operative mechanism.
pub fn tcp_rtt_dumbbell_cap(
    long_access: SimDuration,
    mech: TcpMechanism,
    seed: u64,
    queue_cap: usize,
) -> (Engine<TcpMsg>, TcpNetwork) {
    let mut b = TcpNetworkBuilder::new().queue_cap(queue_cap);
    let r1 = b.router("r1");
    let r2 = b.router("r2");
    b.trunk(r1, r2, 10.0, SimDuration::from_millis(1));
    b.flow(&[r1, r2], SimTime::ZERO);
    b.flow(&[r1, r2], SimTime::ZERO);
    b.last_flow_access_prop(long_access);
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || mech.boxed());
    (engine, net)
}

/// The TCP beat-down parking lot (paper Fig. 17): a long flow crossing
/// four 10 Mb/s trunks, with one cross flow per trunk. Small (50-packet)
/// buffers keep the loss rate high enough that the multi-hop loss
/// product — the beat-down mechanism — is visible within a short run.
pub fn tcp_parking_lot(mech: TcpMechanism, seed: u64) -> (Engine<TcpMsg>, TcpNetwork) {
    let mut b = TcpNetworkBuilder::new().queue_cap(50);
    let routers: Vec<_> = (0..5).map(|i| b.router(&format!("r{i}"))).collect();
    for w in routers.windows(2) {
        b.trunk(w[0], w[1], 10.0, SimDuration::from_millis(1));
    }
    b.flow(&routers, SimTime::ZERO); // long flow, 4 hops
    for w in routers.windows(2) {
        b.flow(w, SimTime::ZERO); // one cross flow per trunk
    }
    let mut engine = Engine::new(seed);
    let net = b.build(&mut engine, &mut || mech.boxed());
    (engine, net)
}

/// Utility: utilization of an ATM trunk over the tail of the run.
pub fn trunk_utilization(
    engine: &Engine<AtmMsg>,
    net: &Network,
    trunk: phantom_atm::network::TrunkIdx,
    from: f64,
) -> f64 {
    let tp = net.trunk_throughput(engine, trunk).mean_after(from);
    tp / net.trunk_port(engine, trunk).capacity()
}
