//! The repository benchmark: three workloads that load different PIER
//! layers, each run through the public surfaces only (`testkit`,
//! `PierNode` methods, `Sim`, `FaultScript`), checked against an oracle,
//! and measured end to end; a traced run of the same workload
//! ([`trace`]) attributes the cost to layers.
//!
//! One process runs one workload once (`perfbench` binary); `run.py`
//! repeats runs for medians and prints the benchmark's result line.

pub mod churn_scan;
pub mod measure;
pub mod scaleup_join;
pub mod standing_mix;
pub mod trace;

use pier_core::testkit::{publish_round_robin, PierEngine};
use pier_core::Tuple;
use pier_simnet::time::Dur;
use pier_simnet::{NodeId, Sim};

use measure::Outcome;
use trace::TracedSim;

/// Base-table lifetime: far past any run, so expiry never bites.
fn life() -> Dur {
    Dur::from_secs(100_000)
}

pub const WORKLOADS: [&str; 3] = ["scaleup_join", "standing_mix", "churn_scan"];

/// Workload size: `Full` is the benchmark; `Small` keeps the same shape
/// at test-suite cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    Full,
    Small,
}

/// Run `workload` once on the plain or the traced engine.
pub fn run(workload: &str, seed: u64, traced: bool, scale: Scale) -> Option<Outcome> {
    trace::reset(traced);
    Some(match (workload, traced) {
        ("scaleup_join", false) => scaleup_join::run::<Sim<_>>(seed, scale),
        ("scaleup_join", true) => scaleup_join::run::<TracedSim>(seed, scale),
        ("standing_mix", false) => standing_mix::run::<Sim<_>>(seed, scale),
        ("standing_mix", true) => standing_mix::run::<TracedSim>(seed, scale),
        ("churn_scan", false) => churn_scan::run::<Sim<_>>(seed, scale),
        ("churn_scan", true) => churn_scan::run::<TracedSim>(seed, scale),
        _ => return None,
    })
}

/// `testkit::publish_round_robin` of a base table (key column 0), timed
/// as one span.
pub fn publish(e: &mut impl PierEngine, table: &str, rows: &[Tuple]) {
    trace::span("qp.publish", || {
        publish_round_robin(e, table, rows, 0, life())
    });
}

/// Publish `rows` of a base table (key column 0) from `node`, timed as
/// one span.
pub fn publish_from(e: &mut impl PierEngine, node: NodeId, table: &str, rows: Vec<Tuple>) {
    trace::span("qp.publish", || {
        e.with_node(node, |n, ctx| n.publish_rows(ctx, table, rows, 0, life()))
    });
}
