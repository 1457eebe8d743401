//! End-to-end tests of the ATM substrate with trivial allocators: these
//! pin the TM 4.0 end-system behavior and the feedback plumbing before any
//! real flow-control algorithm enters the picture.

use phantom_atm::allocator::FixedEr;
use phantom_atm::dest::AbrDest;
use phantom_atm::network::SessionId;
use phantom_atm::network::TrunkIdx;
use phantom_atm::source::AbrSource;
use phantom_atm::switch::Switch;
use phantom_atm::units::{cps_to_mbps, mbps_to_cps};
use phantom_atm::{AtmMsg, AtmParams, NetworkBuilder, RateAllocator, Traffic};
use phantom_sim::{Engine, SimDuration, SimTime};

fn one_link(
    n_sessions: usize,
    alloc: &mut dyn FnMut() -> Box<dyn RateAllocator>,
) -> (Engine<AtmMsg>, phantom_atm::Network) {
    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    for _ in 0..n_sessions {
        b.session(&[s1, s2], Traffic::greedy());
    }
    let mut engine = Engine::new(7);
    let net = b.build(&mut engine, alloc);
    (engine, net)
}

#[test]
fn no_control_lets_a_single_source_reach_pcr() {
    let (mut engine, net) = one_link(1, &mut || Box::new(phantom_atm::allocator::NoControl));
    engine.run_until(SimTime::from_millis(200));
    let src = engine.node::<AbrSource>(net.sessions[0].source);
    // Additive increase with no ER restriction marches ACR to PCR.
    assert!(
        cps_to_mbps(src.acr()) > 149.0,
        "ACR should reach PCR, got {} Mb/s",
        cps_to_mbps(src.acr())
    );
    // And the source actually delivers near line rate at steady state.
    let rate = net.session_rate(&engine, SessionId(0)).mean_after(0.1);
    assert!(
        cps_to_mbps(rate) > 130.0,
        "delivered rate too low: {} Mb/s",
        cps_to_mbps(rate)
    );
}

#[test]
fn fixed_er_caps_acr_exactly() {
    let cap = mbps_to_cps(40.0);
    let (mut engine, net) = one_link(1, &mut || Box::new(FixedEr(cap)));
    engine.run_until(SimTime::from_millis(200));
    let src = engine.node::<AbrSource>(net.sessions[0].source);
    assert!(
        (src.acr() - cap).abs() < 1e-6,
        "ACR should sit exactly at the stamped ER"
    );
}

#[test]
fn rm_cells_are_one_per_nrm_cells() {
    let (mut engine, net) = one_link(1, &mut || Box::new(phantom_atm::allocator::NoControl));
    engine.run_until(SimTime::from_millis(100));
    let src = engine.node::<AbrSource>(net.sessions[0].source);
    let nrm = AtmParams::paper().nrm as u64;
    // cells_sent = rm_sent + data; every Nrm-th cell is RM.
    assert!(src.cells_sent > 1000, "source barely sent anything");
    let expected_rm = src.cells_sent / nrm + u64::from(src.cells_sent % nrm != 0);
    assert_eq!(src.rm_sent, expected_rm);
}

#[test]
fn destination_turns_every_rm_around() {
    let (mut engine, net) = one_link(2, &mut || Box::new(phantom_atm::allocator::NoControl));
    engine.run_until(SimTime::from_millis(100));
    for s in &net.sessions {
        let dest = engine.node::<AbrDest>(s.dest);
        let src = engine.node::<AbrSource>(s.source);
        assert!(dest.rm_turned > 0);
        // Every backward RM the source got was turned by the dest; allow
        // for cells still in flight.
        assert!(src.rm_received <= dest.rm_turned);
        assert!(dest.rm_turned - src.rm_received < 20);
    }
}

#[test]
fn conservation_no_cells_created_or_lost() {
    let (mut engine, net) = one_link(3, &mut || Box::new(phantom_atm::allocator::NoControl));
    engine.run_until(SimTime::from_millis(150));
    let mut sent = 0;
    let mut received = 0;
    for s in &net.sessions {
        sent += engine.node::<AbrSource>(s.source).cells_sent;
        received += engine.node::<AbrDest>(s.dest).cells_received;
    }
    let trunk = net.trunk_port(&engine, TrunkIdx(0));
    let dropped = trunk.drops();
    let queued = trunk.queue_len() as u64;
    // received + dropped + queued + in-flight == sent; in-flight is small.
    assert!(received + dropped + queued <= sent);
    assert!(
        sent - received - dropped - queued < 3 * 50,
        "too many cells unaccounted: sent={sent} received={received} \
         dropped={dropped} queued={queued}"
    );
}

#[test]
fn uncontrolled_overload_builds_queue_and_drops() {
    // 3 greedy sources at PCR onto one 150 Mb/s trunk with no control:
    // the port queue must grow and eventually tail-drop.
    let mut b = NetworkBuilder::new().queue_cap(2000);
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    for _ in 0..3 {
        b.session(&[s1, s2], Traffic::greedy());
    }
    let mut engine = Engine::new(11);
    let net = b.build(&mut engine, &mut || {
        Box::new(phantom_atm::allocator::NoControl)
    });
    engine.run_until(SimTime::from_millis(300));
    let port = net.trunk_port(&engine, TrunkIdx(0));
    assert_eq!(port.queue_high_water(), 2000, "queue should hit its cap");
    assert!(port.drops() > 0, "overload must drop cells");
}

#[test]
fn on_off_source_is_silent_during_off_periods() {
    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    b.session(
        &[s1, s2],
        Traffic::on_off(
            SimTime::ZERO,
            SimDuration::from_millis(20),
            SimDuration::from_millis(20),
        ),
    );
    let mut engine = Engine::new(3);
    let net = b.build(&mut engine, &mut || {
        Box::new(phantom_atm::allocator::NoControl)
    });
    // run to the middle of the first off period
    engine.run_until(SimTime::from_millis(25));
    let sent_mid_off = engine.node::<AbrSource>(net.sessions[0].source).cells_sent;
    engine.run_until(SimTime::from_millis(39));
    let sent_end_off = engine.node::<AbrSource>(net.sessions[0].source).cells_sent;
    assert_eq!(
        sent_mid_off, sent_end_off,
        "source transmitted during its off period"
    );
    engine.run_until(SimTime::from_millis(60));
    let sent_second_on = engine.node::<AbrSource>(net.sessions[0].source).cells_sent;
    assert!(sent_second_on > sent_end_off, "source never woke up again");
}

#[test]
fn two_sessions_share_a_fixed_er_equally() {
    let cap = mbps_to_cps(30.0);
    let (mut engine, net) = one_link(2, &mut || Box::new(FixedEr(cap)));
    engine.run_until(SimTime::from_millis(300));
    for s in 0..2 {
        let rate = net.session_rate(&engine, SessionId(s)).mean_after(0.2);
        // each source sits at ER; delivered rate ≈ 30 Mb/s each
        assert!(
            (cps_to_mbps(rate) - 30.0).abs() < 2.0,
            "session {s} rate {} Mb/s",
            cps_to_mbps(rate)
        );
    }
}

#[test]
fn deterministic_runs_produce_identical_traces() {
    let run = || {
        let (mut engine, net) = one_link(2, &mut || Box::new(FixedEr(mbps_to_cps(50.0))));
        engine.run_until(SimTime::from_millis(100));
        let acr: Vec<f64> = net.session_acr(&engine, SessionId(0)).values().to_vec();
        let q: Vec<f64> = net.trunk_queue(&engine, TrunkIdx(0)).values().to_vec();
        (acr, q, engine.events_processed())
    };
    let (a1, q1, e1) = run();
    let (a2, q2, e2) = run();
    assert_eq!(a1, a2);
    assert_eq!(q1, q2);
    assert_eq!(e1, e2);
}

#[test]
fn switch_port_traces_are_recorded_each_interval() {
    let (mut engine, net) = one_link(1, &mut || Box::new(FixedEr(mbps_to_cps(50.0))));
    engine.run_until(SimTime::from_millis(50));
    let q = net.trunk_queue(&engine, TrunkIdx(0));
    // 1 ms interval for 50 ms -> ~50 samples
    assert!((45..=55).contains(&q.len()), "got {} samples", q.len());
    let sw = engine.node::<Switch>(net.trunks[0].a_switch);
    assert_eq!(sw.name(), "s1");
}

/// A node that swallows everything — used to test the CRM rule.
struct BlackHole;
impl phantom_sim::Node<AtmMsg> for BlackHole {
    fn on_event(&mut self, _ctx: &mut phantom_sim::Ctx<'_, AtmMsg>, _msg: AtmMsg) {}
}

#[test]
fn crm_rule_decays_acr_when_feedback_stops() {
    use phantom_atm::cell::VcId;
    use phantom_atm::source::AbrSource;
    let mut engine: Engine<AtmMsg> = Engine::new(1);
    let hole = engine.add_node(BlackHole);
    let params = AtmParams::paper();
    let src = engine.add_node(AbrSource::new(
        VcId(0),
        params,
        Traffic::greedy(),
        hole,
        SimDuration::from_micros(10),
    ));
    engine.schedule(
        SimTime::ZERO,
        src,
        AtmMsg::Timer(phantom_atm::msg::Timer::SourceTx),
    );
    engine.run_until(SimTime::from_secs(3));
    let s = engine.node::<AbrSource>(src);
    // With no backward RM cells ever arriving, the CRM rule must have
    // driven ACR well below ICR (a source without the rule would coast
    // at ICR forever, blasting a dead path).
    assert!(
        s.acr() < params.icr * 0.5,
        "ACR should decay without feedback: {} vs ICR {}",
        s.acr(),
        params.icr
    );
    assert!(s.acr() >= params.mcr, "ACR must respect the MCR floor");
}

#[test]
fn destination_records_cell_delays() {
    let (mut engine, net) = one_link(2, &mut || Box::new(phantom_atm::allocator::NoControl));
    engine.run_until(SimTime::from_millis(200));
    let dest = engine.node::<AbrDest>(net.sessions[0].dest);
    let hist = dest
        .delay_hist
        .as_deref()
        .expect("a non-lean network records every session's delays");
    assert!(hist.count() > 1000, "no delays recorded");
    // Minimum possible delay: source pacing + access prop + trunk
    // serialization + trunk prop + access prop ≈ 25-30 us. Under overload
    // the mean is dominated by trunk queueing, but must stay below the
    // 16k-cell buffer's drain time (~46 ms).
    assert!(hist.mean() > 0.02, "mean delay suspiciously low");
    assert!(
        hist.mean() < 60.0,
        "mean delay {} ms exceeds the buffer bound",
        hist.mean()
    );
    assert!(hist.quantile(0.99) >= hist.quantile(0.5));
}

#[test]
fn injected_link_loss_does_not_wedge_the_control_loop() {
    // 1% cell loss on the bottleneck (both directions): data and RM
    // cells die at random. The TM 4.0 rules (CRM missing-RM decrease +
    // additive re-increase) must keep both sessions alive and the
    // allocation roughly fair, with throughput close to the lossless
    // fixed point.
    // FixedEr as the controller: loss resilience is an end-system
    // property, not an allocator property.
    let mut b = NetworkBuilder::new();
    let s1 = b.switch("s1");
    let s2 = b.switch("s2");
    b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
    b.last_trunk_loss(0.01);
    for _ in 0..2 {
        b.session(&[s1, s2], Traffic::greedy());
    }
    let mut engine = Engine::new(77);
    let er = mbps_to_cps(60.0);
    let net = b.build(&mut engine, &mut || Box::new(FixedEr(er)));
    engine.run_until(SimTime::from_millis(800));

    let port = net.trunk_port(&engine, TrunkIdx(0));
    assert!(port.wire_losses > 100, "loss injection never fired");
    for s in 0..2 {
        let rate = net.session_rate(&engine, SessionId(s)).mean_after(0.4);
        // ~60 Mb/s ER minus ~1% wire loss and CRM-induced dips.
        assert!(
            cps_to_mbps(rate) > 40.0,
            "session {s} starved under 1% loss: {:.1} Mb/s",
            cps_to_mbps(rate)
        );
    }
    // Sources survived: they are still sending at a healthy ACR.
    for s in &net.sessions {
        let src = engine.node::<AbrSource>(s.source);
        assert!(
            cps_to_mbps(src.acr()) > 10.0,
            "ACR collapsed under loss: {:.2} Mb/s",
            cps_to_mbps(src.acr())
        );
    }
}

#[test]
fn loss_injection_is_deterministic_per_seed() {
    let run = |seed: u64| {
        let mut b = NetworkBuilder::new();
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
        b.last_trunk_loss(0.05);
        b.session(&[s1, s2], Traffic::greedy());
        let mut engine = Engine::new(seed);
        let net = b.build(&mut engine, &mut || {
            Box::new(phantom_atm::allocator::NoControl)
        });
        engine.run_until(SimTime::from_millis(100));
        net.trunk_port(&engine, TrunkIdx(0)).wire_losses
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn cbr_priority_isolates_reserved_traffic_from_abr_queueing() {
    // An uncontrolled ABR flood builds a deep queue. A 10 Mb/s CBR
    // circuit shares the trunk. FIFO: the CBR cells wade through the
    // ABR backlog. Priority: their delay collapses to near-propagation.
    let run = |priority: bool| -> f64 {
        let mut b = NetworkBuilder::new().queue_cap(4000).cbr_priority(priority);
        let s1 = b.switch("s1");
        let s2 = b.switch("s2");
        b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
        for _ in 0..2 {
            b.session(&[s1, s2], Traffic::greedy()); // uncontrolled flood
        }
        b.cbr_session(&[s1, s2], 10.0, Traffic::greedy());
        let mut engine = Engine::new(13);
        let net = b.build(&mut engine, &mut || {
            Box::new(phantom_atm::allocator::NoControl)
        });
        engine.run_until(SimTime::from_millis(300));
        engine
            .node::<AbrDest>(net.sessions[2].dest)
            .delay_hist
            .as_deref()
            .expect("a non-lean network records every session's delays")
            .quantile(0.99)
    };
    let fifo_p99 = run(false);
    let prio_p99 = run(true);
    // FIFO: queue of thousands of cells at 2.8 us each => several ms.
    assert!(fifo_p99 > 1.0, "FIFO CBR p99 {fifo_p99:.3} ms too low");
    // Priority: only in-flight ABR cell ahead => well under a millisecond.
    assert!(
        prio_p99 < 0.3,
        "priority CBR p99 {prio_p99:.3} ms should be near-propagation"
    );
    assert!(prio_p99 < fifo_p99 / 10.0);
}
