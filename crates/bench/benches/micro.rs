//! Micro-benches of the hot paths: per-interval and per-RM-cell cost of
//! every rate allocator, per-packet decision cost of every queue
//! discipline (the paper's Fig. 18 pseudo-code among them — bench target
//! `fig_seldiscard_cost` of DESIGN.md), the raw event throughput of
//! the simulation kernel (and its cost per dispatch as the node working
//! set outgrows the caches), and the trace writer's cost per line.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use phantom_atm::allocator::{PortMeasurement, RateAllocator};
use phantom_atm::cell::{RmCell, VcId};
use phantom_baselines::{Aprc, Capc, Eprca, Erica};
use phantom_core::{PhantomAllocator, PhantomNi};
use phantom_sim::event::EventQueue;
use phantom_sim::probe::{event_to_json, JsonlProbe, Probe, ProbeEvent};
use phantom_sim::{Ctx, Engine, Node, NodeId, SimDuration, SimTime};
use phantom_tcp::packet::{FlowId, Packet};
use phantom_tcp::qdisc::{DropTail, QueueDiscipline, Red, SelectiveDiscard, SelectiveQuench};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::time::Instant;

fn meas() -> PortMeasurement {
    PortMeasurement {
        dt: 0.001,
        arrivals: 300,
        departures: 290,
        queue: 42,
        capacity: 353_773.6,
    }
}

fn bench_allocators(c: &mut Criterion) {
    let mut group = c.benchmark_group("allocator");
    let m = meas();
    let allocators: Vec<(&str, Box<dyn RateAllocator>)> = vec![
        ("phantom", Box::new(PhantomAllocator::paper())),
        ("phantom-ni", Box::new(PhantomNi::paper())),
        ("eprca", Box::new(Eprca::recommended())),
        ("aprc", Box::new(Aprc::recommended())),
        ("capc", Box::new(Capc::recommended())),
        ("erica", Box::new(Erica::recommended())),
    ];
    for (name, mut alloc) in allocators {
        alloc.on_interval(&m);
        group.bench_function(format!("{name}/on_interval"), |b| {
            b.iter(|| alloc.on_interval(criterion::black_box(&m)))
        });
        group.bench_function(format!("{name}/backward_rm"), |b| {
            b.iter_batched(
                || RmCell::forward(100_000.0, 353_773.6).turned_around(),
                |mut rm| {
                    alloc.backward_rm(VcId(0), &mut rm, 42);
                    rm.er
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_qdiscs(c: &mut Criterion) {
    let mut group = c.benchmark_group("qdisc");
    let m = phantom_tcp::qdisc::RouterMeasurement {
        dt: 0.01,
        arrival_bytes: 10_000,
        departure_bytes: 10_000,
        queue_pkts: 20,
        queue_bytes: 11_040,
        capacity: 1.25e6,
    };
    let qdiscs: Vec<(&str, Box<dyn QueueDiscipline>)> = vec![
        ("drop-tail", Box::new(DropTail)),
        ("red", Box::new(Red::recommended())),
        // fig_seldiscard_cost: the per-packet price of the paper's
        // Fig. 18 predicate.
        ("selective-discard", Box::new(SelectiveDiscard::paper())),
        ("selective-quench", Box::new(SelectiveQuench::paper())),
    ];
    for (name, mut q) in qdiscs {
        q.on_interval(&m);
        let pkt = Packet::data(FlowId(0), 0, 512, 900_000.0);
        let mut rng = SmallRng::seed_from_u64(1);
        group.bench_function(format!("{name}/on_arrival"), |b| {
            b.iter(|| q.on_arrival(criterion::black_box(&pkt), 20, 11_040, &mut rng))
        });
    }
    group.finish();
}

/// A node that forwards an event to its peer forever; measures raw
/// engine dispatch throughput.
struct PingPong {
    peer: phantom_sim::NodeId,
}

impl Node<u32> for PingPong {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, msg: u32) {
        ctx.send(self.peer, SimDuration::from_nanos(100), msg);
    }
}

/// A payload the size of a realistic ATM/TCP message enum. With a deep
/// calendar this stresses how the wheel moves entries between slices:
/// the payload is written once at push and read once at delivery.
#[derive(Clone, Copy)]
struct FatMsg([u64; 4]);

/// A node that re-arms itself forever at a fixed period, touching the
/// payload so delivery is not dead code.
struct Timer {
    period: SimDuration,
    acc: u64,
}

impl Node<FatMsg> for Timer {
    fn on_event(&mut self, ctx: &mut Ctx<'_, FatMsg>, msg: FatMsg) {
        self.acc ^= msg.0[0];
        ctx.send_self(self.period, msg);
    }
}

fn bench_engine(c: &mut Criterion) {
    c.bench_function("engine/dispatch_100k_events", |b| {
        b.iter_batched(
            || {
                let mut e = Engine::<u32>::new(1);
                let a = e.add_node(PingPong {
                    peer: phantom_sim::NodeId(1),
                });
                let p = e.add_node(PingPong { peer: a });
                e.schedule(SimTime::ZERO, p, 0);
                e
            },
            |mut e| e.run_to_completion(100_000),
            BatchSize::SmallInput,
        )
    });
    // The profiler's *disabled* overhead is guarded by the benchmark
    // above: profiling is always compiled, so `dispatch_100k_events`
    // pays the one thread-local check per run call that every
    // unprofiled run pays, and the bench regression gate
    // (`repro bench --compare`) would catch it growing into the hot
    // loop. This variant measures the *enabled* cost for contrast —
    // two monotonic-clock readings per dispatch plus the attribution
    // bookkeeping — so profile-guided sessions know the observer tax.
    c.bench_function("engine/dispatch_100k_events_profiled", |b| {
        b.iter_batched(
            || {
                let mut e = Engine::<u32>::new(1);
                let a = e.add_node(PingPong {
                    peer: phantom_sim::NodeId(1),
                });
                let p = e.add_node(PingPong { peer: a });
                e.schedule(SimTime::ZERO, p, 0);
                e
            },
            |mut e| {
                let marker = phantom_sim::profile::begin_profile();
                e.run_to_completion(100_000);
                marker.finish()
            },
            BatchSize::SmallInput,
        )
    });
    // 256 staggered timers keep the calendar 256 deep with 32-byte
    // payloads — the regime every multi-source scenario runs in.
    c.bench_function("engine/dispatch_100k_events_deep_calendar", |b| {
        b.iter_batched(
            || {
                let mut e = Engine::<FatMsg>::new(1);
                for i in 0..256u64 {
                    let id = e.add_node(Timer {
                        period: SimDuration::from_nanos(101 + 7 * i),
                        acc: 0,
                    });
                    e.schedule(SimTime(i), id, FatMsg([i; 4]));
                }
                e
            },
            |mut e| e.run_to_completion(100_000),
            BatchSize::SmallInput,
        )
    });
}

/// A node the size of an `AbrSource` (264 B) that re-arms itself at a
/// fixed period. Each dispatch writes one word in each of its slot's
/// first four cache lines, as a pacing dispatch touches the gate, the
/// rates and the counters.
struct ColdNode {
    state: [u64; 32],
    period: SimDuration,
}

impl Node<u64> for ColdNode {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u64>, msg: u64) {
        for line in 0..4 {
            self.state[line * 8] = self.state[line * 8].wrapping_add(msg);
        }
        ctx.send_self(self.period, msg + 1);
    }
}

/// Dispatch cost against node count: N self-re-arming [`ColdNode`]s
/// with staggered periods of about 100·N ns, so one event is due every
/// ~100 ns whatever N, the calendar holds N events, and the order in
/// which nodes come due drifts, as metro's sources do. From N = 10
/// (every node in L1) to N = 10^5 (26 MB of nodes, as metro-100k's
/// sources) only the node working set grows. One iteration is 100,000
/// dispatches on a warm engine; the measurement pass prints ns/dispatch.
fn bench_cold_nodes(c: &mut Criterion) {
    const DISPATCHES: u64 = 100_000;
    let mut group = c.benchmark_group("engine/dispatch_cold_nodes");
    for n in [10u64, 1_000, 10_000, 100_000] {
        let mut e = Engine::<u64>::new(1);
        for i in 0..n {
            let id = e.add_node(ColdNode {
                state: [i; 32],
                period: SimDuration::from_nanos(100 * n + (i * 7_919) % 997),
            });
            e.schedule(SimTime((i * 7_919) % (100 * n)), id, i);
        }
        // Every node has run at least once before timing starts.
        e.run_to_completion(4 * n);
        let mut pass = 0;
        group.bench_function(n.to_string(), |b| {
            pass += 1;
            let start = Instant::now();
            let before = e.events_processed();
            b.iter(|| e.run_to_completion(DISPATCHES));
            let secs = start.elapsed().as_secs_f64();
            // The first pass is the warm-up.
            if pass == 2 {
                println!(
                    "bench: {:50} {:.1} ns/dispatch",
                    format!("engine/dispatch_cold_nodes/{n}"),
                    secs * 1e9 / (e.events_processed() - before) as f64
                );
            }
        });
    }
    group.finish();
}

/// The timer wheel's three scheduling regimes, measured on the bare
/// [`EventQueue`] (no node dispatch, no probes): a hold of 256 pending
/// events where each op pops the head and re-arms it one delay later.
///
/// * `dense-cell-times` — ACR-paced cell sends a few µs apart: pushes
///   land in the current slice or the first wheel slots (the regime that
///   dominates every saturated ATM scenario).
/// * `bimodal-wire` — a TCP router's two serialization times (MSS data
///   vs 40-byte ACK): alternating near/nearer pushes.
/// * `far-rtt-timers` — RTO-style arms hundreds of ms out, interleaved
///   with µs-scale work: exercises the far-future slab and its overflow
///   heap, and the slice-advance scan that pulls timers back in.
fn bench_wheel(c: &mut Criterion) {
    let mut group = c.benchmark_group("wheel");
    let dists: Vec<(&str, Vec<u64>)> = vec![
        ("dense-cell-times", vec![2_827, 2_827, 2_829, 2_831]),
        ("bimodal-wire", vec![9_920, 320]),
        (
            "far-rtt-timers",
            vec![3_000, 200_000_000, 3_100, 500_000_000],
        ),
    ];
    for (name, delays) in dists {
        group.bench_function(format!("{name}/100k_ops_hold_256"), |b| {
            b.iter_batched(
                || {
                    let mut q = EventQueue::<[u64; 4]>::new();
                    for i in 0..256u64 {
                        q.push(SimTime(i * 37), phantom_sim::NodeId(0), [i; 4]);
                    }
                    q
                },
                |mut q| {
                    let mut di = 0usize;
                    let mut acc = 0u64;
                    for _ in 0..100_000 {
                        let ev = q.pop().expect("hold never drains");
                        acc ^= ev.msg[0];
                        q.push(
                            ev.time + SimDuration::from_nanos(delays[di]),
                            ev.dst,
                            ev.msg,
                        );
                        di += 1;
                        if di == delays.len() {
                            di = 0;
                        }
                    }
                    acc
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

/// 2,000 trace events in the proportions of fig2's trace: per 1,000
/// lines, 991 enqueue/dequeue, 7.5 RM turnarounds and 1.5 MACR updates,
/// with fig2-like times, nodes and values.
fn fig2_like_mix() -> Vec<(SimTime, NodeId, ProbeEvent)> {
    let mut mix = Vec::with_capacity(2_000);
    let mut qlen = 20u32;
    for i in 0..2_000u64 {
        let t = SimTime(159_798_158 + i * 797);
        let node = NodeId((i % 3) as usize);
        let ev = if i % 667 == 333 {
            ProbeEvent::MacrUpdate {
                port: 0,
                macr: 176_886.792_452_830_2,
                delta: -293_691.132_075_471_7,
                dev: 129_803.679_245_283_01,
                gain: 0.014_249_866_666_666_666,
            }
        } else if i % 133 == 7 {
            ProbeEvent::RmTurnaround {
                vc: (i % 2) as u32,
                er: 353_773.584_905_660_36,
                ci: false,
            }
        } else if i % 2 == 0 {
            qlen += 1;
            ProbeEvent::Enqueue { port: 0, qlen }
        } else {
            qlen -= 1;
            ProbeEvent::Dequeue { port: 1, qlen }
        };
        mix.push((t, node, ev));
    }
    mix
}

/// The trace-writer layer: [`fig2_like_mix`] through a `JsonlProbe`
/// into `io::sink()`. One iteration encodes the 2,000-line mix; the
/// measurement pass also prints ns/line and bytes/s.
fn bench_trace(c: &mut Criterion) {
    let mix = fig2_like_mix();
    let mix_bytes: usize = mix
        .iter()
        .map(|(t, node, ev)| event_to_json(*t, *node, ev).len() + 1)
        .sum();
    let mut group = c.benchmark_group("trace");
    let mut pass = 0;
    group.bench_function("jsonl_encode", |b| {
        pass += 1;
        let mut probe = JsonlProbe::new(std::io::sink());
        let start = Instant::now();
        b.iter(|| {
            for (t, node, ev) in &mix {
                probe.on_event(*t, *node, criterion::black_box(ev));
            }
        });
        let secs = start.elapsed().as_secs_f64();
        let lines = probe.written() as f64;
        // The first pass is the warm-up.
        if pass == 2 {
            let bytes = lines / mix.len() as f64 * mix_bytes as f64;
            println!(
                "bench: {:50} {:.1} ns/line, {:.0} MB/s ({:.1} bytes/line)",
                "trace/jsonl_encode",
                secs * 1e9 / lines,
                bytes / secs / 1e6,
                mix_bytes as f64 / mix.len() as f64
            );
        }
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_allocators,
    bench_qdiscs,
    bench_engine,
    bench_cold_nodes,
    bench_wheel,
    bench_trace
);
criterion_main!(benches);
