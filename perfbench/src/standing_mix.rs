//! `standing_mix`: a 64-node static CAN under a steady intrusion-report
//! stream with renewals on. One long-lived 3-way triage join-aggregate
//! runs throughout; beside it, waves of quota-governed tenant standing
//! queries (flat / 2-way / 3-way, the `exp_multitenant` class mix) are
//! installed through `try_submit` and cancelled, one greedy tenant is
//! refused, and one hot tenant's flood is shed. The query processor, the
//! data path, renewals, admission and reclamation do the work.

use std::collections::HashMap;

use pier_core::plan::{qns, JoinStrategy, QueryDesc};
use pier_core::semantics::{recall, reference_epochs, reference_epochs_at, TimedRows};
use pier_core::sql::parse_continuous_query;
use pier_core::tenant::{AdmissionError, Quota};
use pier_core::{Catalog, PublishReport, TableRate, Tuple, Value};
use pier_dht::{ns_of, DhtConfig, Ns};
use pier_simnet::time::{Dur, Time};
use pier_simnet::{NetConfig, NodeId};
use pier_workload::intrusion;

use crate::measure::{
    repeated_setup, results_hash, row_diff, run_sliced, snapshot, stabilized_nodes, Laps, Oracle,
    Outcome, Window,
};
use crate::trace::{self, Drive};
use crate::{publish, Scale};

/// The long-lived triage query (tenant 0, unmetered).
const TRIAGE: u64 = 1010;
const TRIAGE_EPOCH_S: u64 = 120;
const TENANT_EPOCH_S: u64 = 30;
/// Per-query renewal of the join tenants: horizon 3 × 40 s = 120 s.
const TENANT_RENEW_S: u64 = 40;
/// Audit one tenant horizon (plus sweep margin) after its uninstall.
const RECLAIM_S: u64 = 130;
const DISTINCT_FP: u64 = 10;
const DISTINCT_ADDR: u64 = 64;

struct Params {
    n: usize,
    triage_epochs: usize,
    reports_per_batch: usize,
    tenants_per_wave: usize,
    /// Set-ups per plain run: one takes a few ms, so a run's
    /// `setup_s` needs many.
    setups: usize,
}

fn params(scale: Scale) -> Params {
    match scale {
        Scale::Full => Params {
            n: 64,
            triage_epochs: 6,
            reports_per_batch: 250,
            tenants_per_wave: 6,
            setups: 40,
        },
        Scale::Small => Params {
            n: 16,
            triage_epochs: 4,
            reports_per_batch: 24,
            tenants_per_wave: 2,
            setups: 2,
        },
    }
}

/// Tenant `i`: one in twenty runs the 3-way triage, two in twenty the
/// 2-way severity join, the rest the flat per-address count.
fn class_of(i: usize) -> usize {
    match i % 20 {
        0 => 0,
        1 | 2 => 1,
        _ => 2,
    }
}

fn sql_of(i: usize) -> String {
    let fp = i as u64 % DISTINCT_FP;
    match class_of(i) {
        0 => intrusion::tenant_triage_sql(fp, TENANT_EPOCH_S, TENANT_RENEW_S),
        1 => intrusion::tenant_severity_sql(fp, TENANT_EPOCH_S, TENANT_RENEW_S),
        _ => intrusion::tenant_count_sql(fp, TENANT_EPOCH_S),
    }
}

fn parse(sql: &str, qid: u64) -> QueryDesc {
    trace::span("sql.parse", || {
        parse_continuous_query(
            sql,
            &Catalog::intrusion(),
            JoinStrategy::SymmetricHash,
            qid,
            0,
        )
    })
    .expect("workload SQL parses")
}

fn tenant_qid(i: usize) -> u64 {
    5000 + i as u64
}

/// Tenant ids are 1-based: tenant 0 is the unmetered default.
fn tenant_id(i: usize) -> u32 {
    i as u32 + 1
}

/// Lifetimes of 3, 4 or 5 epochs, staggered across waves.
fn epochs_of(i: usize) -> usize {
    3 + i % 3
}

fn report_batch(b: usize, p: &Params, seed: u64) -> Vec<Tuple> {
    trace::span("workload.gen", || {
        intrusion::intrusions_from(
            (b * p.reports_per_batch) as i64,
            p.reports_per_batch,
            DISTINCT_FP,
            DISTINCT_ADDR,
            seed ^ b as u64,
        )
    })
}

/// Timeline entries; at one instant they apply in this order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Publish,
    Uninstall(usize),
    Install(usize),
    Audit(usize),
    Flood,
}

struct World<E> {
    sim: E,
    advisories: Vec<Tuple>,
    reputation: Vec<Tuple>,
    batch0: Vec<Tuple>,
    greedy: u32,
    flood: u32,
}

fn setup<E: Drive>(p: &Params, n_tenants: usize, seed: u64, laps: &mut Laps) -> World<E> {
    let mut sim = E::build(
        stabilized_nodes(p.n, &DhtConfig::static_network()),
        NetConfig::latency_only(seed),
    );
    laps.lap();
    for id in 0..p.n as NodeId {
        sim.with_node(id, |node, ctx| {
            node.start_renewals(ctx, Dur::from_secs(150))
        });
    }
    let (advisories, reputation) = trace::span("workload.gen", || {
        (
            intrusion::advisories(DISTINCT_FP, seed),
            intrusion::reputations(DISTINCT_ADDR, seed),
        )
    });
    let batch0 = report_batch(0, p, seed);
    publish(&mut sim, "advisories", &advisories);
    publish(&mut sim, "reputation", &reputation);
    publish(&mut sim, "intrusions", &batch0);
    laps.lap();
    let t = sim.now();
    run_sliced(&mut sim, laps, t, Dur::from_secs(1), t + Dur::from_secs(8));

    // Governance: every node gets the same table rates and quota book,
    // so the install multicast reaches the same verdict overlay-wide.
    let avg_bytes =
        |rows: &[Tuple]| rows.iter().map(|r| r.wire_size() as f64).sum::<f64>() / rows.len() as f64;
    let rates = [
        (
            "intrusions",
            TableRate {
                rows_per_sec: p.reports_per_batch as f64 / TENANT_EPOCH_S as f64,
                avg_tuple_bytes: avg_bytes(&batch0),
            },
        ),
        (
            "advisories",
            TableRate {
                rows_per_sec: 0.05,
                avg_tuple_bytes: avg_bytes(&advisories),
            },
        ),
        (
            "reputation",
            TableRate {
                rows_per_sec: 0.05,
                avg_tuple_bytes: avg_bytes(&reputation),
            },
        ),
    ];
    for id in 0..p.n as NodeId {
        sim.with_node(id, |node, _| {
            for (table, rate) in rates {
                node.governor.set_table_rate(ns_of(table), rate);
            }
        });
    }
    // Each class is priced once; every tenant gets ~30% headroom.
    let class_price: Vec<f64> = [0, 1, 3]
        .iter()
        .map(|&i| {
            let desc = parse(&sql_of(i), 4000);
            sim.node(0).expect("node 0 is live").governor.price(&desc)
        })
        .collect();
    let greedy = n_tenants as u32 + 1;
    let flood = n_tenants as u32 + 2;
    for id in 0..p.n as NodeId {
        sim.with_node(id, |node, _| {
            for i in 0..n_tenants {
                node.governor.set_quota(
                    tenant_id(i),
                    Quota {
                        max_standing: 2,
                        max_priced_bytes_per_sec: class_price[class_of(i)] * 1.3,
                        ..Quota::unlimited()
                    },
                );
            }
            // The greedy tenant's budget undercuts the cheapest class.
            node.governor.set_quota(
                greedy,
                Quota {
                    max_priced_bytes_per_sec: class_price[2] * 0.5,
                    ..Quota::unlimited()
                },
            );
            // The flood tenant may publish 200 B/s sustained, 2 KB burst.
            node.governor.set_quota(
                flood,
                Quota {
                    publish_bytes_per_sec: 200.0,
                    publish_burst_bytes: 2_000.0,
                    ..Quota::unlimited()
                },
            );
        });
    }
    World {
        sim,
        advisories,
        reputation,
        batch0,
        greedy,
        flood,
    }
}

pub fn run<E: Drive>(seed: u64, scale: Scale) -> Outcome {
    let p = params(scale);
    let triage_epoch = Dur::from_secs(TRIAGE_EPOCH_S);
    let tenant_epoch = Dur::from_secs(TENANT_EPOCH_S);
    let reclaim = Dur::from_secs(RECLAIM_S);
    let end = triage_epoch.saturating_mul(p.triage_epochs as u64);
    // Waves every tenant epoch, while a tenant of the longest lifetime
    // can still be uninstalled and audited before the run ends.
    let last_install = end - tenant_epoch.saturating_mul(5) - Dur::from_secs(10) - reclaim;
    let waves = (last_install.as_micros() / tenant_epoch.as_micros()) as usize + 1;
    let n_tenants = waves * p.tenants_per_wave;

    let (world, setup_laps) =
        repeated_setup::<E, _>(p.setups, |laps| setup::<E>(&p, n_tenants, seed, laps));
    let World {
        mut sim,
        advisories,
        reputation,
        batch0,
        greedy,
        flood,
    } = world;
    let mut oracle = Oracle::default();

    let mut w = Window::open(&sim, Dur::from_secs(2));
    let t0 = sim.now();
    let triage = parse(
        &intrusion::triage_standing_sql(None, TRIAGE_EPOCH_S),
        TRIAGE,
    );
    let triage_op = triage.op.clone();
    sim.with_node(0, |node, ctx| node.submit(ctx, triage));
    // Admission refuses the greedy tenant up front: nothing is multicast.
    let greedy_desc = parse(&sql_of(3), 4999).with_tenant(greedy);
    let verdict = trace::span("tenant.admit", || {
        sim.with_node(0, |node, ctx| node.try_submit(ctx, greedy_desc))
    });
    oracle.expect(
        matches!(verdict, Some(Err(AdmissionError::PricedTraffic { tenant, .. })) if tenant == greedy),
        || format!("greedy tenant not refused on price: {verdict:?}"),
    );

    let install_at = |i: usize| t0 + tenant_epoch.saturating_mul((i / p.tenants_per_wave) as u64);
    let uninstall_at = |i: usize| {
        install_at(i) + tenant_epoch.saturating_mul(epochs_of(i) as u64) + Dur::from_secs(10)
    };
    let mut events: Vec<(Time, Ev)> = (0..n_tenants)
        .flat_map(|i| {
            [
                (install_at(i), Ev::Install(i)),
                (uninstall_at(i), Ev::Uninstall(i)),
                (uninstall_at(i) + reclaim, Ev::Audit(i)),
            ]
        })
        .collect();
    // Reports land 10 s past every tenant-epoch boundary, clear of every
    // flush instant; the flood lands between boundary and publish.
    let mut at = Dur::from_secs(10);
    while at < end {
        events.push((t0 + at, Ev::Publish));
        at = at + tenant_epoch;
    }
    events.push((
        t0 + tenant_epoch.saturating_mul(2) + Dur::from_secs(18),
        Ev::Flood,
    ));
    events.sort();

    let mut timed: TimedRows = batch0.iter().map(|r| (Time::ZERO, r.clone())).collect();
    let mut next_batch = 1usize;
    let mut flood_report = PublishReport::default();
    for (at, ev) in events {
        w.run_to(&mut sim, at);
        w.sample(&sim);
        match ev {
            Ev::Install(i) => {
                let desc = parse(&sql_of(i), tenant_qid(i)).with_tenant(tenant_id(i));
                let verdict = trace::span("tenant.admit", || {
                    sim.with_node(0, |node, ctx| node.try_submit(ctx, desc))
                });
                oracle.expect(matches!(verdict, Some(Ok(price)) if price > 0.0), || {
                    format!("tenant {i} refused: {verdict:?}")
                });
            }
            Ev::Uninstall(i) => {
                sim.with_node(0, |node, ctx| node.cancel(ctx, tenant_qid(i)));
            }
            Ev::Publish => {
                let batch = report_batch(next_batch, &p, seed);
                next_batch += 1;
                publish(&mut sim, "intrusions", &batch);
                let rel = sim.now().since(t0);
                timed.extend(batch.into_iter().map(|r| (Time::ZERO + rel, r)));
            }
            Ev::Flood => {
                // 600 rows against a 2 KB burst and 200 B/s: the bucket
                // admits a sliver and sheds the rest at ingress.
                let rows: Vec<Tuple> = (0..600)
                    .map(|j| Tuple::new(vec![Value::I64(j), Value::I64(j * 7)]))
                    .collect();
                flood_report = trace::span("qp.publish", || {
                    sim.with_node(0, |node, ctx| {
                        node.publish_rows_from(
                            ctx,
                            flood,
                            "floodnoise",
                            rows,
                            0,
                            Dur::from_secs(60),
                        )
                    })
                })
                .unwrap_or_default();
                oracle.expect(flood_report.accepted > 0 && flood_report.shed > 400, || {
                    format!("flood not clipped at ingress: {flood_report:?}")
                });
            }
            Ev::Audit(i) => {
                // The tenant must have left no live soft state behind.
                w.pause();
                let now = sim.now();
                let left: usize = (0..p.n as NodeId)
                    .filter_map(|id| sim.node(id))
                    .map(|node| node.query_soft_state(now, tenant_qid(i), 2))
                    .sum();
                oracle.expect(left == 0, || {
                    format!("tenant {i} left {left} items one horizon after uninstall")
                });
                w.resume();
            }
        }
    }
    w.run_to(&mut sim, t0 + end);
    let phase = w.close(&sim);

    // The snapshot's counters against what the run observed on its own:
    // every result row the registries say was shipped arrived at node 0
    // (the initiator of every query here); one refused install; exactly
    // the flood's shed rows.
    let snap = snapshot(&sim);
    let shipped = snap.total(|q| q.results_shipped);
    let arrived: u64 = sim
        .node(0)
        .expect("node 0 is live")
        .results
        .values()
        .map(|rows| rows.len() as u64)
        .sum();
    oracle.expect(shipped == arrived, || {
        format!("snapshot: {shipped} results shipped, {arrived} arrived at the initiator")
    });
    oracle.expect(
        snap.rejected_installs() == 1 && snap.shed_publishes() == flood_report.shed as u64,
        || {
            format!(
                "governance counters: {} rejected, {} shed (flood shed {})",
                snap.rejected_installs(),
                snap.shed_publishes(),
                flood_report.shed
            )
        },
    );
    // With every tenant gone, only base tables (the flood's admitted
    // sliver included: the renewal loop keeps republishing it) and the
    // live triage query's derived namespaces may hold items anywhere.
    let mut allowed: Vec<Ns> = ["intrusions", "advisories", "reputation", "floodnoise"]
        .iter()
        .map(|t| ns_of(t))
        .collect();
    allowed.extend([qns::rehash(TRIAGE), qns::agg(TRIAGE)]);
    allowed.extend((0..2).map(|k| qns::stage(TRIAGE, k)));
    let now = sim.now();
    let stray: usize = (0..p.n as NodeId)
        .filter_map(|id| sim.node(id))
        .flat_map(|node| node.dht.store.occupancy(now))
        .filter(|(ns, _)| !allowed.contains(ns))
        .map(|(_, c)| c)
        .sum();
    oracle.expect(stray == 0, || {
        format!("{stray} live items in stray namespaces")
    });

    let mut tables: HashMap<String, TimedRows> = HashMap::new();
    tables.insert("intrusions".into(), timed);
    for (name, rows) in [("advisories", &advisories), ("reputation", &reputation)] {
        tables.insert(
            name.into(),
            rows.iter().map(|r| (Time::ZERO, r.clone())).collect(),
        );
    }
    let node0 = sim.node(0).expect("node 0 is live");
    let mut min_recall = f64::INFINITY;
    let mut latencies = Vec::new();
    let mut check_epochs =
        |label: &str, expected: Vec<Vec<Tuple>>, qid: u64, from: Time, epoch: Dur| {
            let k = expected.len();
            let mut got: Vec<Vec<Tuple>> = vec![Vec::new(); k];
            for (at, row) in node0.query_results(qid) {
                if *at < from {
                    continue;
                }
                let e = (at.since(from).as_micros() / epoch.as_micros()) as usize;
                if e < k {
                    got[e].push(row.clone());
                    let boundary = from + epoch.saturating_mul(e as u64);
                    latencies.push(at.since(boundary).as_secs_f64());
                }
            }
            for (e, (exp, got)) in expected.iter().zip(&got).enumerate() {
                let (missing, extra) = row_diff(exp, got);
                oracle.check(exp.len() as u64 + extra, missing + extra, || {
                    format!("{label} epoch {e}: {missing} missing, {extra} extra rows")
                });
                min_recall = min_recall.min(recall(exp, got));
            }
        };
    let expected = reference_epochs(&triage_op, &tables, None, triage_epoch, p.triage_epochs);
    check_epochs("triage", expected, TRIAGE, t0, triage_epoch);
    for i in 0..n_tenants {
        // The tenant's ground truth over its own live span: row times
        // relative to its install, epochs from its install on.
        let install = install_at(i);
        let shift = install.since(t0);
        let rel: HashMap<String, TimedRows> = tables
            .iter()
            .map(|(name, rows)| {
                let shifted = rows
                    .iter()
                    .map(|(t, r)| (Time::ZERO + t.since(Time::ZERO + shift), r.clone()))
                    .collect();
                (name.clone(), shifted)
            })
            .collect();
        let instants: Vec<Time> = (0..epochs_of(i))
            .map(|e| Time::ZERO + tenant_epoch.saturating_mul(e as u64))
            .collect();
        let op = parse(&sql_of(i), tenant_qid(i)).op;
        let expected = reference_epochs_at(&op, &rel, None, &instants);
        check_epochs(
            &format!("tenant {i}"),
            expected,
            tenant_qid(i),
            install,
            tenant_epoch,
        );
    }

    Outcome {
        workload: "standing_mix",
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
