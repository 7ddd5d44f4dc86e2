//! The traced engine: a forwarding [`App`] wrapper around [`PierNode`]
//! that counts and times every handler call by message variant or timer
//! kind, plus spans around the benchmark's own calls into the layers.
//!
//! Counters live in one thread-local [`Tracer`]: the simulator is
//! sequential, so every handler of a run executes on the thread that
//! drives it, and failed nodes keep their share of the counts. The
//! wrapper changes nothing a node sees — it forwards the same `Ctx` —
//! which the trace-fidelity test checks against the untraced engine.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use pier_core::item::PierMsg;
use pier_core::testkit::{PierCtx, PierEngine};
use pier_core::PierNode;
use pier_dht::msg::{CanMsg, DhtMsg};
use pier_dht::DHT_TICK_TOKEN;
use pier_simnet::app::{App, Ctx};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NetStats, NodeId, Sim};

/// What one handler call worked on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `on_timer(DHT_TICK_TOKEN)`: storage sweep, retries, maintenance.
    Tick,
    /// Any other timer: query-processor deferred work (epoch flushes,
    /// renewals, Bloom deadlines).
    QpTimer,
    /// One overlay routing hop of `CanMsg::Lookup`.
    Lookup,
    /// `LookupReply` at the origin: a completed lookup, which fires the
    /// pending put/get.
    LookupReply,
    /// `CanMsg::Mcast`: query install/cancel dissemination.
    Mcast,
    /// Overlay upkeep: heartbeats, neighbour updates, takeover, joins.
    Maint,
    /// Provider data: `Put`, `Get`, `GetReply`, `MoveItems`, including
    /// the query-processor `newData` work they trigger.
    Data,
    /// Replica fan-out and anti-entropy repair.
    Repl,
    /// A result tuple arriving at the initiator.
    Result,
    /// A partial aggregate climbing the aggregation tree.
    AggUp,
}

const KINDS: usize = 10;

impl Kind {
    fn of_msg(msg: &PierMsg) -> Kind {
        match msg {
            PierMsg::Dht(m) => match m {
                DhtMsg::Can(CanMsg::Lookup { .. }) => Kind::Lookup,
                DhtMsg::Can(CanMsg::Mcast { .. }) => Kind::Mcast,
                DhtMsg::Can(_) | DhtMsg::Chord(_) => Kind::Maint,
                DhtMsg::LookupReply { .. } => Kind::LookupReply,
                DhtMsg::Put { .. }
                | DhtMsg::Get { .. }
                | DhtMsg::GetReply { .. }
                | DhtMsg::MoveItems { .. } => Kind::Data,
                DhtMsg::Replicate { .. }
                | DhtMsg::RepairRequest { .. }
                | DhtMsg::RepairReply { .. } => Kind::Repl,
            },
            PierMsg::Result { .. } => Kind::Result,
            PierMsg::AggUp { .. } => Kind::AggUp,
        }
    }
}

/// Handler counts and busy time per [`Kind`], time spent inside the
/// engine's run loop, and named spans around the benchmark's own calls.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    on: bool,
    calls: [u64; KINDS],
    busy_ns: [u64; KINDS],
    run_ns: u64,
    spans: Vec<(&'static str, u64, u64)>,
}

impl Tracer {
    pub fn calls(&self, k: Kind) -> u64 {
        self.calls[k as usize]
    }

    pub fn busy_s(&self, k: Kind) -> f64 {
        self.busy_ns[k as usize] as f64 / 1e9
    }

    /// Total handler busy time over every kind.
    pub fn handler_busy_s(&self) -> f64 {
        self.busy_ns.iter().sum::<u64>() as f64 / 1e9
    }

    /// Wall time spent inside the engine's run loop (handlers included).
    pub fn run_s(&self) -> f64 {
        self.run_ns as f64 / 1e9
    }

    /// `(calls, total seconds)` of a named span.
    pub fn span(&self, name: &str) -> (u64, f64) {
        self.spans
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or((0, 0.0), |&(_, c, ns)| (c, ns as f64 / 1e9))
    }
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer::default());
}

/// Start a fresh trace on this thread (`on = false` disables spans).
pub fn reset(on: bool) {
    TRACER.with(|t| {
        *t.borrow_mut() = Tracer {
            on,
            ..Tracer::default()
        }
    });
}

/// Zero the handler counters, keeping spans (the timed phase starts).
pub fn reset_handlers() {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.calls = [0; KINDS];
        t.busy_ns = [0; KINDS];
        t.run_ns = 0;
    });
}

/// The trace so far.
pub fn snapshot() -> Tracer {
    TRACER.with(|t| t.borrow().clone())
}

fn record(k: Kind, d: Duration) {
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        t.calls[k as usize] += 1;
        t.busy_ns[k as usize] += d.as_nanos() as u64;
    });
}

fn record_run(d: Duration) {
    TRACER.with(|t| t.borrow_mut().run_ns += d.as_nanos() as u64);
}

/// Time `f` under the span `name` when tracing is on.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !TRACER.with(|t| t.borrow().on) {
        return f();
    }
    let t0 = Instant::now();
    let out = f();
    let ns = t0.elapsed().as_nanos() as u64;
    TRACER.with(|t| {
        let mut t = t.borrow_mut();
        match t.spans.iter_mut().find(|(n, _, _)| *n == name) {
            Some(s) => {
                s.1 += 1;
                s.2 += ns;
            }
            None => t.spans.push((name, 1, ns)),
        }
    });
    out
}

/// A [`PierNode`] whose handlers are counted and timed.
pub struct Traced(pub PierNode);

impl App for Traced {
    type Msg = PierMsg;

    fn on_start(&mut self, ctx: &mut Ctx<PierMsg>) {
        self.0.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<PierMsg>, from: NodeId, msg: PierMsg) {
        let k = Kind::of_msg(&msg);
        let t0 = Instant::now();
        self.0.on_message(ctx, from, msg);
        record(k, t0.elapsed());
    }

    fn on_timer(&mut self, ctx: &mut Ctx<PierMsg>, token: u64) {
        let k = if token == DHT_TICK_TOKEN {
            Kind::Tick
        } else {
            Kind::QpTimer
        };
        let t0 = Instant::now();
        self.0.on_timer(ctx, token);
        record(k, t0.elapsed());
    }
}

/// The sequential simulator over traced nodes.
pub struct TracedSim(pub Sim<Traced>);

impl PierEngine for TracedSim {
    fn node_count(&self) -> usize {
        self.0.node_count()
    }
    fn now(&self) -> Time {
        self.0.now()
    }
    fn run_for(&mut self, d: Dur) {
        let at = self.0.now() + d;
        self.run_to(at);
    }
    fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut PierNode, &mut PierCtx) -> R,
    ) -> Option<R> {
        self.0.with_app(id, |t, ctx| f(&mut t.0, ctx))
    }
    fn node(&self, id: NodeId) -> Option<&PierNode> {
        self.0.app(id).map(|t| &t.0)
    }
    fn net_stats(&self) -> NetStats {
        self.0.stats().clone()
    }
    fn events_processed(&self) -> u64 {
        self.0.events_processed()
    }
}

/// What a workload needs from an engine beyond [`PierEngine`]: building
/// from pre-stabilized nodes, running to an instant, and failing a node.
/// Implemented by the plain `Sim<PierNode>` and by [`TracedSim`].
pub trait Drive: PierEngine + Sized {
    const TRACED: bool;
    fn build(nodes: Vec<PierNode>, net: NetConfig) -> Self;
    fn run_to(&mut self, at: Time);
    fn kill(&mut self, id: NodeId);
}

impl Drive for Sim<PierNode> {
    const TRACED: bool = false;
    fn build(nodes: Vec<PierNode>, net: NetConfig) -> Self {
        let mut sim = Sim::new(net);
        for node in nodes {
            sim.add_node(node);
        }
        sim
    }
    fn run_to(&mut self, at: Time) {
        self.run_until(at);
    }
    fn kill(&mut self, id: NodeId) {
        self.fail_node(id);
    }
}

impl Drive for TracedSim {
    const TRACED: bool = true;
    fn build(nodes: Vec<PierNode>, net: NetConfig) -> Self {
        let mut sim = Sim::new(net);
        for node in nodes {
            sim.add_node(Traced(node));
        }
        TracedSim(sim)
    }
    fn run_to(&mut self, at: Time) {
        let t0 = Instant::now();
        self.0.run_until(at);
        record_run(t0.elapsed());
    }
    fn kill(&mut self, id: NodeId) {
        self.0.fail_node(id);
    }
}
