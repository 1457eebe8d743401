//! Shared scenario plumbing: algorithm catalogs, the TCP topologies and
//! the one-run rule of multi-run entries.

use phantom_atm::network::Network;
use phantom_atm::AtmMsg;
pub use phantom_scene::AtmAlgorithm;
use phantom_sim::probe::without_thread_probe;
use phantom_sim::{Engine, SimDuration, SimTime};
use phantom_tcp::qdisc::{
    DropTail, EfciMark, QueueDiscipline, Red, SelectiveDiscard, SelectiveQuench, SelectiveRed,
};
use phantom_tcp::{TcpMsg, TcpNetwork, TcpNetworkBuilder};

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

/// Run `f` as run `i` of an entry that runs several networks. Run 0
/// feeds this thread's probe, so it is the entry's trace and live
/// analysis; every later run goes without the probe.
pub fn nth_run<R>(i: usize, f: impl FnOnce() -> R) -> R {
    if i == 0 {
        f()
    } else {
        without_thread_probe(f)
    }
}
