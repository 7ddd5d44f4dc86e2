//! `churn_scan`: one-shot scans over a replicated CAN (k = 2) with
//! maintenance on, while a seeded `FaultScript` kills nodes between
//! scan slots (the shape of `exp_churn_slo`). Ticks do real work here —
//! heartbeats, failure detection, takeover, anti-entropy — and writes
//! are replica fan-out rather than query state.

use std::collections::BTreeSet;

use pier_core::expr::Expr;
use pier_core::plan::{QueryDesc, QueryOp, ScanSpec};
use pier_core::{Tuple, Value};
use pier_dht::geom::hash2;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::{Fault, FaultDriver, FaultScript, NetConfig, NodeId, Scheduled};

use crate::measure::{
    repeated_setup, results_hash, run_sliced, stabilized_nodes, Oracle, Outcome, Window,
};
use crate::trace::{self, Drive};
use crate::{publish_from, Scale};

/// Seed of the fixed victim list (the `exp_churn_slo` high tier's).
const VICTIM_SEED: u64 = 73;

pub fn run<E: Drive>(seed: u64, scale: Scale) -> Outcome {
    // Nine set-ups per process at full scale: one takes tens of ms.
    let (n, items, kills, setups) = match scale {
        Scale::Full => (128usize, 20usize, 24usize, 9),
        Scale::Small => (32, 5, 4, 2),
    };
    let slot = Dur::from_secs(24);
    let span = slot.saturating_mul(kills as u64 + 1);
    let cfg = DhtConfig {
        keepalive: Dur::from_secs(1),
        fail_after: Dur::from_secs(5),
        ..DhtConfig::default()
    }
    .with_replication(2);

    let ((mut sim, truth), setup_laps) = repeated_setup::<E, _>(setups, |laps| {
        let per_node: Vec<Vec<Tuple>> = trace::span("workload.gen", || {
            (0..n)
                .map(|i| {
                    (0..items)
                        .map(|j| {
                            let key = hash2(seed, (i * 1_000_000 + j) as u64) >> 1;
                            Tuple::new(vec![Value::I64(key as i64)])
                        })
                        .collect()
                })
                .collect()
        });
        let truth: BTreeSet<i64> = per_node
            .iter()
            .flatten()
            .filter_map(|t| t.get(0).as_i64())
            .collect();
        laps.lap();
        let mut sim = E::build(stabilized_nodes(n, &cfg), NetConfig::latency_only(seed));
        laps.lap();
        for (i, rows) in per_node.into_iter().enumerate() {
            publish_from(&mut sim, i as NodeId, "T", rows);
        }
        laps.lap();
        let t = sim.now();
        run_sliced(&mut sim, laps, t, Dur::from_secs(1), t + Dur::from_secs(8));
        (sim, truth)
    });

    // Kills are centred at slot·(i+1) with ±slot/5 jitter; each scan
    // runs 10 s before a centre, plus a final one after the last repair.
    // Which nodes fail is part of the workload (a fixed script); when
    // they fail, like the item keys, comes from the seed. Drawing the
    // victims from the seed as well makes the hottest node's inbound
    // bytes and the worst scan swing by a quarter between seeds.
    let candidates: Vec<NodeId> = (1..n as NodeId).collect();
    let victims = FaultScript::churn(VICTIM_SEED, span, kills, &candidates);
    let timing = FaultScript::churn(seed, span, kills, &candidates);
    let script = FaultScript::new(
        victims
            .events()
            .iter()
            .zip(timing.events())
            .map(|(v, t)| Scheduled {
                at: t.at,
                fault: v.fault,
            })
            .collect(),
    );
    let mut drv = FaultDriver::new(script);
    let mut scan_at: Vec<Dur> = (0..kills as u64)
        .map(|i| slot.saturating_mul(i + 1) - Dur::from_secs(10))
        .collect();
    scan_at.push(span + Dur::from_secs(6));
    let mut scans = scan_at.into_iter().peekable();

    let mut w = Window::open(&sim, Dur::from_secs(2));
    let t0 = sim.now();
    let mut submitted = Vec::new();
    let mut qid = 5000u64;
    loop {
        let target = match (drv.next_at(), scans.peek().copied()) {
            (Some(f), Some(s)) => f.min(s),
            (Some(f), None) => f,
            (None, Some(s)) => s,
            (None, None) => break,
        };
        w.run_to(&mut sim, t0 + target);
        let elapsed = sim.now().since(t0);
        drv.advance(elapsed, |f| {
            if let Fault::Kill { node } = *f {
                sim.kill(node);
            }
        });
        if scans.peek().is_some_and(|&s| elapsed >= s) {
            scans.next();
            qid += 1;
            let op = QueryOp::Scan {
                scan: ScanSpec::new("T", 1, 0),
                project: vec![Expr::col(0)],
            };
            let at = sim.now();
            sim.with_node(0, |node, ctx| {
                node.submit(ctx, QueryDesc::one_shot(qid, 0, op))
            });
            submitted.push((qid, at));
            w.run_to(&mut sim, at + Dur::from_secs(4));
            w.sample(&sim);
        }
    }
    let phase = w.close(&sim);

    let node0 = sim.node(0).expect("node 0 is never a kill candidate");
    let mut oracle = Oracle::default();
    let mut min_recall = f64::INFINITY;
    let mut latencies = Vec::new();
    for &(qid, at) in &submitted {
        let rows = node0.query_results(qid);
        let keys: Vec<Option<i64>> = rows.iter().map(|(_, t)| t.get(0).as_i64()).collect();
        let distinct: BTreeSet<i64> = keys.iter().flatten().copied().collect();
        let dups = (keys.len() - distinct.len()) as u64;
        let extra = distinct.iter().filter(|k| !truth.contains(k)).count() as u64;
        oracle.check(rows.len() as u64, dups + extra, || {
            format!("scan {qid}: {dups} duplicate, {extra} unpublished rows")
        });
        let hits = distinct.len() as u64 - extra;
        min_recall = min_recall.min(hits as f64 / truth.len() as f64);
        latencies.extend(rows.iter().map(|(t, _)| t.since(at).as_secs_f64()));
    }
    Outcome {
        workload: "churn_scan",
        seed,
        traced: E::TRACED,
        setup_laps,
        phase,
        min_recall,
        oracle,
        latencies,
        rows_hash: results_hash(node0),
    }
}
