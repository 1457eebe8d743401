//! Property test for the intra-run sharding contract: on random
//! topologies with random (lookahead-respecting) link delays and random
//! partition-affinity hints, a run without a shard request and runs at
//! `--shards 1`, `2` and `3` must produce the identical probe event
//! sequence — same events, same order, same RNG draws — because the
//! merged event order is a pure function of `(topology, seed)`,
//! independent of where the cut falls.

use phantom_sim::probe::{install_thread_probe, take_thread_probe, Probe, ProbeEvent};
use phantom_sim::{Ctx, Engine, Node, NodeId, ShardGuard, ShardHints, SimDuration, SimTime};
use proptest::prelude::*;
use rand::RngCore;
use std::cell::RefCell;
use std::rc::Rc;

/// A node that mixes every received message into its state with its own
/// RNG stream, reports the state through the probe tap, and relays the
/// message (TTL-decremented) across one or two of its outgoing links.
struct Relay {
    links: Vec<(NodeId, SimDuration)>,
    state: u64,
}

impl Node<u32> for Relay {
    fn on_event(&mut self, ctx: &mut Ctx<'_, u32>, ttl: u32) {
        let draw = ctx.rng().next_u64();
        self.state = self
            .state
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(draw ^ u64::from(ttl));
        let node = ctx.self_id();
        phantom_sim::probe::emit(ctx.now(), node, || ProbeEvent::Enqueue {
            port: (self.state >> 32) as u32,
            qlen: self.state as u32,
        });
        if ttl == 0 || self.links.is_empty() {
            return;
        }
        let fanout = 1 + (draw as usize % 2).min(self.links.len() - 1);
        for i in 0..fanout {
            let pick = (draw.rotate_right(13 * i as u32) as usize) % self.links.len();
            let (dst, prop) = self.links[pick];
            ctx.send(dst, prop, ttl - 1);
        }
    }
}

/// Records the full probe stream as rendered lines, on the run's
/// driving thread (shard workers buffer internally and the coordinator
/// replays into this probe in merged order).
struct CollectProbe {
    out: Rc<RefCell<Vec<String>>>,
}

impl Probe for CollectProbe {
    fn on_event(&mut self, t: SimTime, node: NodeId, ev: &ProbeEvent) {
        self.out
            .borrow_mut()
            .push(format!("{} {} {ev:?}", t.0, node.0));
    }
}

/// A random topology: node count, directed links as (from, to, extra
/// delay beyond the lookahead), affinity edges, and per-node kick TTLs.
#[derive(Debug, Clone)]
struct Topo {
    n: usize,
    lookahead_ns: u64,
    links: Vec<(usize, usize, u64)>,
    affinity: Vec<(usize, usize)>,
    ttls: Vec<u32>,
}

fn topo_strategy() -> impl Strategy<Value = Topo> {
    (2usize..12, 1u64..5_000).prop_flat_map(|(n, lookahead_ns)| {
        let links = proptest::collection::vec(
            (0..n, 0..n, 0u64..10_000).prop_filter("no self links", |(a, b, _)| a != b),
            1..24,
        );
        let affinity = proptest::collection::vec((0..n, 0..n), 0..6);
        let ttls = proptest::collection::vec(0u32..6, n..=n);
        (Just(n), Just(lookahead_ns), links, affinity, ttls).prop_map(
            |(n, lookahead_ns, links, affinity, ttls)| Topo {
                n,
                lookahead_ns,
                links,
                affinity,
                ttls,
            },
        )
    })
}

/// Build the engine for `topo` and run it to `until` at the given shard
/// count, returning the collected probe stream.
fn run_topo(topo: &Topo, seed: u64, shards: usize) -> Vec<String> {
    let _guard = ShardGuard::new(shards);
    let mut engine = Engine::<u32>::new(seed);
    let ids: Vec<NodeId> = (0..topo.n)
        .map(|_| {
            engine.add_node(Relay {
                links: Vec::new(),
                state: 0,
            })
        })
        .collect();
    for &(a, b, extra) in &topo.links {
        let prop = SimDuration(topo.lookahead_ns + extra);
        engine.node_mut::<Relay>(ids[a]).links.push((ids[b], prop));
    }
    engine.set_shard_hints(ShardHints {
        lookahead: SimDuration(topo.lookahead_ns),
        affinity: topo
            .affinity
            .iter()
            .map(|&(a, b)| (ids[a], ids[b]))
            .collect(),
    });
    for (i, &ttl) in topo.ttls.iter().enumerate() {
        engine.schedule(SimTime(i as u64), ids[i], ttl);
    }
    let out = Rc::new(RefCell::new(Vec::new()));
    let prev = install_thread_probe(Box::new(CollectProbe {
        out: Rc::clone(&out),
    }));
    debug_assert!(prev.is_none());
    // Two slices, to cover epoch state carried across `run_until` calls.
    engine.run_until(SimTime(40_000));
    engine.run_until(SimTime(200_000));
    drop(take_thread_probe());
    assert_eq!(
        engine.pending_events(),
        0,
        "all TTL-bounded traffic must finish within the horizon"
    );
    Rc::try_unwrap(out).expect("probe dropped").into_inner()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_topologies_identical_at_shards_1_vs_2(topo in topo_strategy(), seed in 0u64..1_000) {
        let one = run_topo(&topo, seed, 1);
        prop_assert_eq!(&run_topo(&topo, seed, 0), &one, "no request vs shards 1 diverged");
        let two = run_topo(&topo, seed, 2);
        prop_assert_eq!(&one, &two, "shards 1 vs 2 diverged");
        // And an uneven cut: more shards than most of these topologies
        // have clusters, leaving some shards empty.
        let three = run_topo(&topo, seed, 3);
        prop_assert_eq!(&one, &three, "shards 1 vs 3 diverged");
        prop_assert!(!one.is_empty(), "runs must emit probe events");
    }
}
