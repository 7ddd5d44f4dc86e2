//! `scaleup_join`: the §5 Fig-3 symmetric-hash join at 10⁴ nodes on a
//! static CAN (the shape of `exp_scaleup`'s top rung). Most of its cost
//! sits below the query processor: the O(n²) overlay build in set-up,
//! idle DHT ticks and overlay routing in the timed phase.

use pier_core::plan::JoinStrategy;
use pier_core::semantics::recall;
use pier_dht::DhtConfig;
use pier_simnet::time::Dur;
use pier_simnet::NetConfig;
use pier_workload::{RsParams, RsWorkload};

use crate::measure::{
    repeated_setup, results_hash, row_diff, run_sliced, stabilized_nodes, Oracle, Outcome, Window,
};
use crate::trace::{self, Drive};
use crate::{publish, Scale};

const QID: u64 = 1;

pub fn run<E: Drive>(seed: u64, scale: Scale) -> Outcome {
    // One set-up per process at full scale: the overlay build alone
    // takes about a second.
    let (n, setups) = match scale {
        Scale::Full => (10_000, 1),
        Scale::Small => (400, 2),
    };
    let ((mut sim, wl), setup_laps) = repeated_setup::<E, _>(setups, |laps| {
        let wl = trace::span("workload.gen", || {
            RsWorkload::generate(RsParams {
                s_rows: (n as u64 / 10).max(40),
                seed,
                ..Default::default()
            })
        });
        laps.lap();
        let nodes = stabilized_nodes(n, &DhtConfig::static_network());
        let mut sim = E::build(nodes, NetConfig::latency_only(seed));
        laps.lap();
        publish(&mut sim, "R", &wl.r);
        publish(&mut sim, "S", &wl.s);
        laps.lap();
        // Puts land (8 s), then the network idles as in exp_scaleup.
        let t = sim.now();
        run_sliced(&mut sim, laps, t, Dur::from_secs(1), t + Dur::from_secs(38));
        (sim, wl)
    });

    let mut w = Window::open(&sim, Dur::from_secs(1));
    let mut desc = wl.query(QID, 0, JoinStrategy::SymmetricHash);
    desc.n_nodes = n as u32;
    let t0 = sim.now();
    sim.with_node(0, |node, ctx| node.submit(ctx, desc));
    for k in 1..=12u64 {
        w.run_to(&mut sim, t0 + Dur::from_secs(10 * k));
        w.sample(&sim);
    }
    let phase = w.close(&sim);

    let node0 = sim.node(0).expect("initiator is never failed");
    let got: Vec<_> = node0
        .query_results(QID)
        .iter()
        .map(|(_, r)| r.clone())
        .collect();
    let expected = wl.expected(JoinStrategy::SymmetricHash);
    let (missing, extra) = row_diff(&expected, &got);
    let mut oracle = Oracle::default();
    oracle.check(expected.len() as u64 + extra, missing + extra, || {
        format!("join: {missing} missing, {extra} extra rows")
    });
    Outcome {
        workload: "scaleup_join",
        seed,
        traced: E::TRACED,
        setup_laps,
        phase,
        min_recall: recall(&expected, &got),
        oracle,
        latencies: node0
            .query_results(QID)
            .iter()
            .map(|(at, _)| at.since(t0).as_secs_f64())
            .collect(),
        rows_hash: results_hash(node0),
    }
}
