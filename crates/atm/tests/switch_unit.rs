//! Direct tests of the switch/port machinery: routing, stamping hooks,
//! serialization pacing, and the EFCI data-path marking with destination
//! echo (the binary-feedback plumbing of TM 4.0).

use phantom_atm::allocator::{PortMeasurement, RateAllocator};
use phantom_atm::cell::{Cell, RmCell, VcId};
use phantom_atm::msg::{AtmMsg, Timer};
use phantom_atm::port::Port;
use phantom_atm::switch::{Switch, VcRoute};
use phantom_sim::{Ctx, Engine, Node, NodeId, SimDuration, SimTime};

/// Collects every message it receives, with timestamps.
#[derive(Default)]
struct Collector {
    cells: Vec<(SimTime, Cell)>,
}

impl Node<AtmMsg> for Collector {
    fn on_event(&mut self, ctx: &mut Ctx<'_, AtmMsg>, msg: AtmMsg) {
        if let AtmMsg::Cell(c) = msg {
            self.cells.push((ctx.now(), c));
        }
    }
}

/// An allocator that marks every data cell's EFCI bit and counts hook
/// invocations.
#[derive(Default)]
struct MarkAll {
    forward_seen: u64,
    backward_seen: u64,
}

impl RateAllocator for MarkAll {
    fn on_interval(&mut self, _m: &PortMeasurement) {}
    fn forward_rm(&mut self, _vc: VcId, _rm: &mut RmCell, _q: usize) {
        self.forward_seen += 1;
    }
    fn backward_rm(&mut self, _vc: VcId, rm: &mut RmCell, _q: usize) {
        self.backward_seen += 1;
        rm.limit_er(12_345.0);
    }
    fn mark_efci(&self, _q: usize) -> bool {
        true
    }
    fn fair_share(&self) -> f64 {
        0.0
    }
    fn name(&self) -> &'static str {
        "mark-all"
    }
}

/// One switch with a forward port (to `dst`) and a backward port (to
/// `src`), routing VC 1 between them.
fn build(
    alloc: Box<dyn RateAllocator>,
) -> (
    Engine<AtmMsg>,
    NodeId, /*switch*/
    NodeId, /*fwd*/
    NodeId, /*bwd*/
) {
    let mut engine = Engine::new(3);
    let fwd_sink = engine.add_node(Collector::default());
    let bwd_sink = engine.add_node(Collector::default());
    let mut sw = Switch::new("sw");
    let mut fwd = Port::new(
        fwd_sink,
        100_000.0, // cells/s -> 10 us per cell
        SimDuration::from_micros(5),
        64,
        alloc,
        SimDuration::from_millis(1),
    );
    fwd.record_series();
    let fwd_port = sw.add_port(fwd);
    let bwd_port = sw.add_port(Port::new(
        bwd_sink,
        100_000.0,
        SimDuration::from_micros(5),
        64,
        Box::new(phantom_atm::allocator::NoControl),
        SimDuration::from_millis(1),
    ));
    sw.add_route(VcId(1), VcRoute { fwd_port, bwd_port });
    let sw_id = engine.add_node(sw);
    (engine, sw_id, fwd_sink, bwd_sink)
}

#[test]
fn data_cells_route_forward_and_get_efci_marked() {
    let (mut engine, sw, fwd, bwd) = build(Box::new(MarkAll::default()));
    engine.schedule(
        SimTime::ZERO,
        sw,
        AtmMsg::Cell(Cell::data(VcId(1), SimTime::ZERO)),
    );
    engine.run_until(SimTime::from_millis(1));
    let fwd_cells = &engine.node::<Collector>(fwd).cells;
    assert_eq!(fwd_cells.len(), 1);
    assert!(fwd_cells[0].1.efci, "MarkAll must set EFCI on data cells");
    assert!(engine.node::<Collector>(bwd).cells.is_empty());
}

#[test]
fn backward_rm_is_stamped_by_the_forward_ports_allocator() {
    let (mut engine, sw, fwd, bwd) = build(Box::new(MarkAll::default()));
    let rm = RmCell::forward(1.0, 1e9).turned_around();
    engine.schedule(
        SimTime::ZERO,
        sw,
        AtmMsg::Cell(Cell::rm(VcId(1), rm, SimTime::ZERO)),
    );
    engine.run_until(SimTime::from_millis(1));
    // The cell leaves through the *backward* port…
    let bwd_cells = &engine.node::<Collector>(bwd).cells;
    assert_eq!(bwd_cells.len(), 1);
    assert!(engine.node::<Collector>(fwd).cells.is_empty());
    // …stamped by the *forward* port's allocator.
    let er = bwd_cells[0].1.as_rm().unwrap().er;
    assert_eq!(er, 12_345.0);
}

#[test]
fn serialization_paces_back_to_back_cells_at_cell_time() {
    let (mut engine, sw, fwd, _) = build(Box::new(phantom_atm::allocator::NoControl));
    // Three cells arriving simultaneously serialize 10 us apart.
    for _ in 0..3 {
        engine.schedule(
            SimTime::ZERO,
            sw,
            AtmMsg::Cell(Cell::data(VcId(1), SimTime::ZERO)),
        );
    }
    engine.run_until(SimTime::from_millis(1));
    let t: Vec<u64> = engine
        .node::<Collector>(fwd)
        .cells
        .iter()
        .map(|(t, _)| t.as_nanos())
        .collect();
    assert_eq!(t.len(), 3);
    assert_eq!(t[1] - t[0], 10_000, "cell spacing must equal 1/capacity");
    assert_eq!(t[2] - t[1], 10_000);
    // First cell: 10 us serialization + 5 us propagation.
    assert_eq!(t[0], 15_000);
}

#[test]
fn forward_rm_hook_fires_once_per_forward_rm_cell() {
    let (mut engine, sw, _, _) = build(Box::new(MarkAll::default()));
    for i in 0..4 {
        let rm = RmCell::forward(i as f64, 1e9);
        engine.schedule(
            SimTime::from_micros(i),
            sw,
            AtmMsg::Cell(Cell::rm(VcId(1), rm, SimTime::ZERO)),
        );
    }
    engine.run_until(SimTime::from_millis(1));
    let sw_ref = engine.node::<Switch>(sw);
    let any: &dyn std::any::Any = sw_ref.port(0).allocator();
    let alloc = any.downcast_ref::<MarkAll>().unwrap();
    assert_eq!(alloc.forward_seen, 4);
    assert_eq!(alloc.backward_seen, 0);
}

#[test]
fn measurement_timer_reschedules_itself() {
    let (mut engine, sw, _, _) = build(Box::new(phantom_atm::allocator::NoControl));
    engine.schedule(
        SimTime::from_millis(1),
        sw,
        AtmMsg::Timer(Timer::Measure { port: 0 }),
    );
    engine.run_until(SimTime::from_millis(10));
    let series = &engine
        .node::<Switch>(sw)
        .port(0)
        .series()
        .expect("the forward port records series")
        .macr;
    assert!(
        (9..=11).contains(&series.len()),
        "expected ~10 interval samples, got {}",
        series.len()
    );
}

#[test]
#[should_panic(expected = "no route")]
fn unrouted_vc_panics_loudly() {
    let (mut engine, sw, _, _) = build(Box::new(phantom_atm::allocator::NoControl));
    engine.schedule(
        SimTime::ZERO,
        sw,
        AtmMsg::Cell(Cell::data(VcId(99), SimTime::ZERO)),
    );
    engine.run_until(SimTime::from_millis(1));
}

#[test]
fn destination_echoes_efci_into_backward_ci() {
    use phantom_atm::dest::AbrDest;
    // dest <- marked data cell, then a forward RM: the turned-around RM
    // must carry CI=1 exactly once.
    let mut engine = Engine::new(4);
    let sink = engine.add_node(Collector::default());
    let dest = engine.add_node(AbrDest::new(
        VcId(1),
        sink,
        SimDuration::from_micros(1),
        SimDuration::from_millis(5),
    ));
    let mut marked = Cell::data(VcId(1), SimTime::ZERO);
    marked.efci = true;
    engine.schedule(SimTime::ZERO, dest, AtmMsg::Cell(marked));
    let rm = || Cell::rm(VcId(1), RmCell::forward(1.0, 1e9), SimTime::ZERO);
    engine.schedule(SimTime::from_micros(10), dest, AtmMsg::Cell(rm()));
    engine.schedule(SimTime::from_micros(20), dest, AtmMsg::Cell(rm()));
    engine.run_until(SimTime::from_millis(1));
    let got = &engine.node::<Collector>(sink).cells;
    assert_eq!(got.len(), 2);
    assert!(
        got[0].1.as_rm().unwrap().ci,
        "first RM after a marked data cell echoes CI"
    );
    assert!(
        !got[1].1.as_rm().unwrap().ci,
        "the echo clears after one RM"
    );
}

/// Metro scale holds 200,000 ports and 100,000 destinations, so their
/// inline sizes are per-session memory. Bounds at the sizes the boxed
/// series, priority queue and delay histogram landed at (464 and 184
/// bytes before).
#[test]
fn port_and_destination_stay_small() {
    let port = std::mem::size_of::<Port>();
    let dest = std::mem::size_of::<phantom_atm::dest::AbrDest>();
    assert!(port <= 184, "Port is {port} bytes");
    assert!(dest <= 120, "AbrDest is {dest} bytes");
}
