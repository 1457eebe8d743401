//! A switch output port: bounded FIFO, cell-by-cell transmission at link
//! rate, periodic measurement intervals, and the per-port allocator.
//!
//! The port is where everything the paper plots lives: the queue-length
//! trace, the MACR trace (the allocator's fair-share estimate) and the
//! utilization counters. The traces live in a boxed [`PortSeries`] that
//! only observed ports carry (the builder gives one to every trunk port);
//! an access port keeps the hot fields alone.

use crate::allocator::{PortMeasurement, RateAllocator};
use crate::cell::{Cell, CellKind, ServiceClass};
use crate::msg::{AtmMsg, Timer};
use crate::units::cell_time;
use phantom_sim::probe::{self, DropReason, ProbeEvent};
use phantom_sim::stats::TimeSeries;
use phantom_sim::{telemetry, BoundedFifo, Ctx, NodeId, SimDuration};
use std::sync::atomic::{AtomicU32, Ordering};

/// Cells a busy port may transmit per `TxDone` dispatch (see
/// [`set_tx_batch_limit`]). Global rather than per-port or thread-local so
/// sweep worker threads at any `--jobs` level see the same knob.
static BATCH_LIMIT: AtomicU32 = AtomicU32::new(64);

/// Set the maximum number of cells a busy port transmits per `TxDone`
/// event. `1` disables batching (one cell per dispatch, the pre-batching
/// behaviour); values are clamped to at least 1. Batching never changes
/// simulation results — cells beyond the first are only coalesced while
/// no other event could intervene — so this is purely a performance knob.
pub fn set_tx_batch_limit(limit: u32) {
    BATCH_LIMIT.store(limit.max(1), Ordering::Relaxed);
}

/// The current busy-port batch limit.
pub fn tx_batch_limit() -> u32 {
    BATCH_LIMIT.load(Ordering::Relaxed)
}

/// The per-interval traces of an observed port. Boxed so unobserved
/// ports pay one pointer for them.
#[derive(Default)]
pub struct PortSeries {
    /// Fair-share (MACR) samples, one per measurement interval.
    pub macr: TimeSeries,
    /// Queue-length samples, one per measurement interval.
    pub queue: TimeSeries,
    /// Departure-rate samples (cells/s), one per measurement interval —
    /// the utilization trace.
    pub throughput: TimeSeries,
}

impl PortSeries {
    fn heap_bytes(&self) -> usize {
        self.macr.heap_bytes() + self.queue.heap_bytes() + self.throughput.heap_bytes()
    }
}

/// One output port of a switch.
pub struct Port {
    queue: BoundedFifo<Cell>,
    /// High-priority queue for CBR-class cells (None = single FIFO).
    high: Option<Box<BoundedFifo<Cell>>>,
    link_to: NodeId,
    prop: SimDuration,
    capacity: f64,
    cell_time: SimDuration,
    busy: bool,
    allocator: Box<dyn RateAllocator>,
    measure_interval: SimDuration,
    arrivals: u64,
    departures: u64,
    /// Probability that a departing cell is lost on the wire (models
    /// link-level corruption; 0 = perfect link). Uses the owning
    /// switch's deterministic RNG stream.
    loss_prob: f64,
    /// Cells lost to injected link errors.
    pub wire_losses: u64,
    /// Traces; `None` on a port nobody observes.
    series: Option<Box<PortSeries>>,
}

impl Port {
    /// A port transmitting to `link_to` at `capacity` cells/s with
    /// propagation delay `prop`, queue bound `queue_cap` cells, running
    /// `allocator` every `measure_interval`. It records no series until
    /// [`Port::record_series`] asks for them.
    pub fn new(
        link_to: NodeId,
        capacity: f64,
        prop: SimDuration,
        queue_cap: usize,
        allocator: Box<dyn RateAllocator>,
        measure_interval: SimDuration,
    ) -> Self {
        assert!(capacity > 0.0, "port capacity must be positive");
        Port {
            queue: BoundedFifo::new(queue_cap),
            high: None,
            link_to,
            prop,
            capacity,
            cell_time: cell_time(capacity),
            busy: false,
            allocator,
            measure_interval,
            arrivals: 0,
            departures: 0,
            loss_prob: 0.0,
            wire_losses: 0,
            series: None,
        }
    }

    /// Record the per-interval MACR, queue and throughput series from
    /// now on (a no-op if the port already records them).
    pub fn record_series(&mut self) {
        self.series.get_or_insert_with(Box::default);
    }

    /// This port's traces, if it records them.
    pub fn series(&self) -> Option<&PortSeries> {
        self.series.as_deref()
    }

    /// Heap bytes this port owns: queue buffers, the boxed priority
    /// queue, the allocator and the traces.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.queue.heap_bytes()
            + self
                .high
                .as_ref()
                .map_or(0, |h| std::mem::size_of_val(&**h) + h.heap_bytes())
            + std::mem::size_of_val(&*self.allocator)
            + self
                .series
                .as_ref()
                .map_or(0, |s| std::mem::size_of_val(&**s) + s.heap_bytes())
    }

    /// Serve CBR-class cells from a separate strict-priority queue
    /// (capacity `cap` cells). Real switches isolate reserved traffic
    /// from ABR queueing this way.
    pub fn enable_cbr_priority(&mut self, cap: usize) {
        self.high = Some(Box::new(BoundedFifo::new(cap)));
    }

    /// Inject link-level loss: each departing cell is dropped with
    /// probability `p` (failure injection for resilience tests).
    /// `1.0` models a failed link: the port keeps serializing, but
    /// every cell is lost on the wire.
    pub fn set_loss_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability in [0, 1]");
        self.loss_prob = p;
    }

    /// Re-rate the link to `cps` cells/s mid-run (scene timeline
    /// capacity changes). A cell already serializing keeps its old
    /// departure time; the allocator picks up the new capacity at its
    /// next measurement interval.
    pub fn set_capacity(&mut self, cps: f64) {
        assert!(cps > 0.0, "port capacity must be positive");
        self.capacity = cps;
        self.cell_time = cell_time(cps);
    }

    /// Current queue length in cells (both classes).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.high.as_ref().map_or(0, |h| h.len())
    }

    /// Cells dropped at this port (queue overflow, both classes).
    pub fn drops(&self) -> u64 {
        self.queue.drops() + self.high.as_ref().map_or(0, |h| h.drops())
    }

    /// Cells transmitted (both classes), wire losses included.
    pub fn total_departures(&self) -> u64 {
        self.queue.departures() + self.high.as_ref().map_or(0, |h| h.departures())
    }

    /// Link capacity in cells/s.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The allocator's current fair-share estimate.
    pub fn fair_share(&self) -> f64 {
        self.allocator.fair_share()
    }

    /// Immutable access to the allocator (downcast with `Any` if needed).
    pub fn allocator(&self) -> &dyn RateAllocator {
        self.allocator.as_ref()
    }

    /// Largest (combined) queue length seen.
    pub fn queue_high_water(&self) -> usize {
        self.queue.high_water() + self.high.as_ref().map_or(0, |h| h.high_water())
    }

    /// Enqueue `cell` for transmission; `me` is this port's index within
    /// the owning switch, used to address the TxDone timer.
    pub fn enqueue(&mut self, ctx: &mut Ctx<'_, AtmMsg>, me: usize, mut cell: Cell) {
        self.arrivals += 1;
        if matches!(cell.kind, CellKind::Data) && self.allocator.mark_efci(self.queue.len()) {
            cell.efci = true;
        }
        let accepted = match (&mut self.high, cell.class) {
            (Some(high), ServiceClass::Cbr) => high.push(cell),
            _ => self.queue.push(cell),
        };
        if accepted == phantom_sim::fifo::EnqueueResult::Accepted {
            ctx.emit(|| ProbeEvent::Enqueue {
                port: me as u32,
                qlen: self.queue_len() as u32,
            });
            if !self.busy {
                self.busy = true;
                ctx.send_self(self.cell_time, AtmMsg::Timer(Timer::TxDone { port: me }));
            }
        } else {
            ctx.emit(|| ProbeEvent::Drop {
                port: me as u32,
                qlen: self.queue_len() as u32,
                reason: DropReason::Overflow,
            });
        }
    }

    /// The head-of-line cell finished serializing: deliver it — and, while
    /// the line stays busy and nothing else can happen, the next ones too.
    ///
    /// Batching argument: between `now` and the calendar's next pending
    /// event ([`Ctx::quiet_until`]) no dispatch occurs, so no arrival,
    /// measurement or control action can observe or perturb this port.
    /// Every cell whose departure instant falls strictly inside that quiet
    /// window — narrowed by the arrivals this batch itself schedules — is
    /// transmitted in this dispatch, with probes and the RNG loss draws
    /// stamped at the exact per-cell departure times the
    /// one-cell-per-`TxDone` code produced. Traces, telemetry
    /// and series are byte-identical with batching on or off; only the
    /// number of engine round-trips changes (reported via
    /// [`Ctx::note_coalesced`] so event counts stay comparable).
    pub fn tx_done(&mut self, ctx: &mut Ctx<'_, AtmMsg>, me: usize) {
        let limit = tx_batch_limit();
        let mut quiet = ctx.quiet_until();
        let mut depart = ctx.now();
        let mut sent: u32 = 0;
        loop {
            // Strict priority: CBR-class cells first.
            let cell = match &mut self.high {
                Some(high) if !high.is_empty() => high.pop(),
                _ => self.queue.pop(),
            }
            .expect("TxDone fired with an empty queue");
            sent += 1;
            self.departures += 1;
            probe::emit(depart, ctx.self_id(), || ProbeEvent::Dequeue {
                port: me as u32,
                qlen: self.queue_len() as u32,
            });
            let lost = self.loss_prob > 0.0 && {
                use rand::Rng;
                ctx.rng().gen::<f64>() < self.loss_prob
            };
            if lost {
                self.wire_losses += 1;
                telemetry::note_drop();
                probe::emit(depart, ctx.self_id(), || ProbeEvent::Drop {
                    port: me as u32,
                    qlen: self.queue_len() as u32,
                    reason: DropReason::Wire,
                });
            } else {
                let arrive = depart + self.prop;
                ctx.send_at(self.link_to, arrive, AtmMsg::Cell(cell));
                // The scheduled arrival is itself a future dispatch; the
                // quiet window must not extend past it.
                if arrive < quiet {
                    quiet = arrive;
                }
            }
            if self.queue_len() == 0 {
                self.busy = false;
                break;
            }
            let next = depart + self.cell_time;
            if sent < limit && next < quiet {
                depart = next;
            } else {
                let id = ctx.self_id();
                ctx.send_at(id, next, AtmMsg::Timer(Timer::TxDone { port: me }));
                break;
            }
        }
        ctx.note_coalesced(u64::from(sent) - 1);
    }

    /// End of a measurement interval: feed the allocator, record traces,
    /// reschedule.
    pub fn measure(&mut self, ctx: &mut Ctx<'_, AtmMsg>, me: usize) {
        let m = PortMeasurement {
            dt: self.measure_interval.as_secs_f64(),
            arrivals: self.arrivals,
            departures: self.departures,
            queue: self.queue_len(),
            capacity: self.capacity,
        };
        self.allocator.on_interval(&m);
        let fair_share = self.allocator.fair_share();
        let qlen = self.queue_len() as f64;
        if let Some(s) = &mut self.series {
            s.macr.push(ctx.now(), fair_share);
            s.queue.push(ctx.now(), qlen);
            s.throughput.push(ctx.now(), m.departure_rate());
        }
        if fair_share.is_finite() {
            ctx.emit(|| {
                let t = self.allocator.telemetry();
                ProbeEvent::MacrUpdate {
                    port: me as u32,
                    macr: fair_share,
                    delta: t.delta,
                    dev: t.dev,
                    gain: t.gain,
                }
            });
        }
        self.arrivals = 0;
        self.departures = 0;
        ctx.send_self(
            self.measure_interval,
            AtmMsg::Timer(Timer::Measure { port: me }),
        );
    }

    /// Stamp a backward RM cell of a session whose forward path crosses
    /// this port (ER reduction happens against *this* port's congestion
    /// state, per the standard ATM practice the paper follows).
    pub fn stamp_backward(&mut self, vc: crate::cell::VcId, rm: &mut crate::cell::RmCell) {
        let q = self.queue.len();
        self.allocator.backward_rm(vc, rm, q);
    }

    /// Observe a forward RM cell about to be queued on this port.
    pub fn observe_forward(&mut self, vc: crate::cell::VcId, rm: &mut crate::cell::RmCell) {
        let q = self.queue.len();
        self.allocator.forward_rm(vc, rm, q);
    }

    /// The measurement interval this port was built with.
    pub fn measure_interval(&self) -> SimDuration {
        self.measure_interval
    }

    /// Serialize the port's evolving state for a checkpoint. Static
    /// configuration (link target, propagation delay, queue bounds,
    /// measurement interval) is not written — it comes back when the
    /// scenario is rebuilt. Capacity and loss probability *are* written:
    /// scene timelines mutate them mid-run. The `macr`/`qs`/`tp` scopes
    /// are written only by a port that records series.
    pub fn save_state(&self, w: &mut phantom_sim::KvWriter) -> Result<(), String> {
        w.scope("q", |w| self.queue.save(w, Cell::encode_str));
        if let Some(high) = &self.high {
            w.scope("hq", |w| high.save(w, Cell::encode_str));
        }
        w.f64("capacity", self.capacity);
        w.bool("busy", self.busy);
        w.f64("loss_prob", self.loss_prob);
        w.u64("arrivals", self.arrivals);
        w.u64("departures", self.departures);
        w.u64("wire_losses", self.wire_losses);
        if let Some(s) = &self.series {
            w.scope("macr", |w| s.macr.save(w));
            w.scope("qs", |w| s.queue.save(w));
            w.scope("tp", |w| s.throughput.save(w));
        }
        let mut alloc = Ok(());
        w.scope("alloc", |w| alloc = self.allocator.save_state(w));
        alloc
    }

    /// Overwrite the port's evolving state from a [`Port::save_state`]
    /// record. The port must have been rebuilt with the original static
    /// configuration (including CBR priority, which decides whether the
    /// high queue exists, and whether it records series). Keys for state
    /// this port does not hold — the `tw` scope of older checkpoints, or
    /// series scopes on an unobserved port — are ignored.
    pub fn restore_state(&mut self, r: &mut phantom_sim::KvReader) -> Result<(), String> {
        r.scope("q", |r| self.queue.restore(r, Cell::decode_str))?;
        if let Some(high) = &mut self.high {
            r.scope("hq", |r| high.restore(r, Cell::decode_str))?;
        }
        // Route through the setter so cell_time is recomputed in lock-step.
        self.set_capacity(r.f64("capacity")?);
        self.busy = r.bool("busy")?;
        self.loss_prob = r.f64("loss_prob")?;
        self.arrivals = r.u64("arrivals")?;
        self.departures = r.u64("departures")?;
        self.wire_losses = r.u64("wire_losses")?;
        if let Some(s) = &mut self.series {
            r.scope("macr", |r| s.macr.restore(r))?;
            r.scope("qs", |r| s.queue.restore(r))?;
            r.scope("tp", |r| s.throughput.restore(r))?;
        }
        r.scope("alloc", |r| self.allocator.restore_state(r))
    }
}
