//! Trace fidelity: the traced engine (every handler wrapped, counted
//! and timed) must perturb nothing. On each workload, at test-suite
//! scale, a traced run's event count, `NetStats`, `TrafficMeter` totals,
//! result rows and oracle tallies equal the plain run's. `run.py` makes
//! the same comparison at full scale on every `--trace 1` run.

use pier_perfbench::{run, Scale};

fn check(workload: &str) {
    let plain = run(workload, 7, false, Scale::Small).expect("known workload");
    assert_eq!(
        plain.oracle.failed, 0,
        "{workload}: {:?}",
        plain.oracle.notes
    );
    assert!(
        plain.oracle.attempted > 0,
        "{workload}: nothing was checked"
    );
    let traced = run(workload, 7, true, Scale::Small).expect("known workload");
    assert_eq!(plain.fingerprint(), traced.fingerprint(), "{workload}");
    let again = run(workload, 7, false, Scale::Small).expect("known workload");
    assert_eq!(
        plain.fingerprint(),
        again.fingerprint(),
        "{workload}: not repeatable"
    );
    assert!(!traced.per_layer().is_empty());
}

#[test]
fn scaleup_join_traced_equals_plain() {
    check("scaleup_join");
}

#[test]
fn standing_mix_traced_equals_plain() {
    check("standing_mix");
}

#[test]
fn churn_scan_traced_equals_plain() {
    check("churn_scan");
}

#[test]
fn seed_changes_the_inputs() {
    for workload in pier_perfbench::WORKLOADS {
        let a = run(workload, 1, false, Scale::Small).expect("known workload");
        let b = run(workload, 2, false, Scale::Small).expect("known workload");
        assert_ne!(a.fingerprint(), b.fingerprint(), "{workload}");
    }
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("no_such_workload", 1, false, Scale::Small).is_none());
}
