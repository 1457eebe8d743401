//! An output-queued ATM switch.
//!
//! The switch is algorithm-agnostic: it routes cells by VC, queues them on
//! output ports, and calls the port allocator's hooks. Backward RM cells
//! are stamped by the allocator of the session's **forward-direction**
//! output port — the queueing point whose congestion the feedback must
//! reflect — and then forwarded through the backward-direction port.

use crate::cell::{Cell, VcId};
use crate::msg::{AdminCmd, AtmMsg, Timer};
use crate::port::Port;
use phantom_sim::{Ctx, Node};

/// Per-VC routing state: which output port the forward and backward
/// directions of the session use.
#[derive(Clone, Copy, Debug)]
pub struct VcRoute {
    /// Output port for source→destination cells.
    pub fwd_port: usize,
    /// Output port for destination→source (backward RM) cells.
    pub bwd_port: usize,
}

/// An output-queued switch with per-port allocators.
pub struct Switch {
    name: String,
    ports: Vec<Port>,
    /// Routing table indexed by `vc - route_base`. Session VCs are dense
    /// integers, so a flat vector turns the per-cell route lookup — half
    /// of all dispatches in a saturated run — into one bounds-checked
    /// load instead of a hash. The base offset keeps the table sized to
    /// the switch's *own* VC range: a metro leaf switch carrying VCs
    /// 90 000–91 562 stores ~1.5 k entries, not 91 563.
    routes: Vec<Option<VcRoute>>,
    route_base: u32,
}

impl Switch {
    /// An empty switch (ports and routes are added by the builder).
    pub fn new(name: &str) -> Self {
        Switch {
            name: name.to_string(),
            ports: Vec::new(),
            routes: Vec::new(),
            route_base: 0,
        }
    }

    /// Switch name (for reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add an output port, returning its index.
    pub fn add_port(&mut self, port: Port) -> usize {
        self.ports.push(port);
        self.ports.len() - 1
    }

    /// Install the route for `vc`.
    pub fn add_route(&mut self, vc: VcId, route: VcRoute) {
        assert!(route.fwd_port < self.ports.len(), "fwd port out of range");
        assert!(route.bwd_port < self.ports.len(), "bwd port out of range");
        if self.routes.is_empty() {
            self.route_base = vc.0;
        } else if vc.0 < self.route_base {
            let shift = (self.route_base - vc.0) as usize;
            self.routes.splice(0..0, std::iter::repeat_n(None, shift));
            self.route_base = vc.0;
        }
        let idx = (vc.0 - self.route_base) as usize;
        if idx >= self.routes.len() {
            self.routes.resize(idx + 1, None);
        }
        assert!(self.routes[idx].is_none(), "duplicate route for {vc:?}");
        self.routes[idx] = Some(route);
    }

    /// Release the route table's growth tail once every route is in.
    pub(crate) fn shrink_routes(&mut self) {
        self.routes.shrink_to_fit();
    }

    /// Number of ports.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Access a port's state (traces, counters).
    pub fn port(&self, idx: usize) -> &Port {
        &self.ports[idx]
    }

    fn handle_cell(&mut self, ctx: &mut Ctx<'_, AtmMsg>, mut cell: Cell) {
        // `wrapping_sub` sends a below-base VC to a huge index, which
        // `get` rejects like any other unrouted VC — the hot path stays
        // one subtract and one bounds-checked load.
        let route = self
            .routes
            .get(cell.vc.0.wrapping_sub(self.route_base) as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("switch {}: no route for {:?}", self.name, cell.vc));
        let vc = cell.vc;
        if cell.is_backward_rm() {
            // Feedback for the forward direction: stamp at the forward
            // port, transmit through the backward port.
            if let Some(rm) = cell.as_rm_mut() {
                self.ports[route.fwd_port].stamp_backward(vc, rm);
            }
            self.ports[route.bwd_port].enqueue(ctx, route.bwd_port, cell);
        } else {
            if cell.is_forward_rm() {
                if let Some(rm) = cell.as_rm_mut() {
                    self.ports[route.fwd_port].observe_forward(vc, rm);
                }
            }
            self.ports[route.fwd_port].enqueue(ctx, route.fwd_port, cell);
        }
    }
}

impl Node<AtmMsg> for Switch {
    fn on_event(&mut self, ctx: &mut Ctx<'_, AtmMsg>, msg: AtmMsg) {
        match msg {
            AtmMsg::Cell(cell) => self.handle_cell(ctx, cell),
            AtmMsg::Timer(Timer::TxDone { port }) => self.ports[port].tx_done(ctx, port),
            AtmMsg::Timer(Timer::Measure { port }) => self.ports[port].measure(ctx, port),
            AtmMsg::Timer(Timer::SourceTx) => {
                unreachable!("switch received a source timer")
            }
            AtmMsg::Admin(cmd) => match cmd {
                AdminCmd::SetCapacity { port, cps } => self.ports[port].set_capacity(cps),
                AdminCmd::SetLoss { port, loss } => self.ports[port].set_loss_prob(loss),
            },
        }
    }

    fn heap_bytes(&self) -> usize {
        self.name.capacity()
            + self.ports.capacity() * std::mem::size_of::<Port>()
            + self.ports.iter().map(Port::heap_bytes).sum::<usize>()
            + self.routes.capacity() * std::mem::size_of::<Option<VcRoute>>()
    }

    fn save_state(&self, w: &mut phantom_sim::KvWriter) -> Result<(), String> {
        // Routes, name and the route base are topology: rebuilt, not saved.
        w.u64("ports", self.ports.len() as u64);
        let mut res = Ok(());
        for (i, p) in self.ports.iter().enumerate() {
            if res.is_ok() {
                w.scope(&format!("p{i}"), |w| res = p.save_state(w));
            }
        }
        res
    }

    fn restore_state(&mut self, r: &mut phantom_sim::KvReader) -> Result<(), String> {
        let n = r.u64("ports")? as usize;
        if n != self.ports.len() {
            return Err(format!(
                "checkpoint has {n} ports but switch {} was rebuilt with {}",
                self.name,
                self.ports.len()
            ));
        }
        for (i, p) in self.ports.iter_mut().enumerate() {
            r.scope(&format!("p{i}"), |r| p.restore_state(r))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetworkBuilder;
    use crate::traffic::Traffic;
    use phantom_sim::{Engine, SimDuration};

    /// A built switch holds its route table at its length, so its deep
    /// byte count carries no never-touched growth tail.
    #[test]
    fn built_switch_counts_its_routes_at_their_length() {
        let mut b = NetworkBuilder::new();
        let (s1, s2) = (b.switch("s1"), b.switch("s2"));
        b.trunk(s1, s2, 150.0, SimDuration::from_micros(10));
        for _ in 0..5 {
            b.session(&[s1, s2], Traffic::greedy());
        }
        let mut engine = Engine::new(1);
        let net = b.build(&mut engine, &mut || Box::new(crate::allocator::NoControl));
        for h in &net.switches {
            let sw = engine.node::<Switch>(h.node);
            assert_eq!(sw.routes.len(), 5);
            let others = sw.name.capacity()
                + sw.ports.capacity() * std::mem::size_of::<Port>()
                + sw.ports.iter().map(Port::heap_bytes).sum::<usize>();
            assert_eq!(
                sw.heap_bytes() - others,
                5 * std::mem::size_of::<Option<VcRoute>>(),
                "switch {}",
                h.name
            );
        }
    }
}
