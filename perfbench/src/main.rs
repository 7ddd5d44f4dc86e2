//! Run one workload once and print the run as one JSON line:
//!
//! ```text
//! perfbench --workload <scaleup_join|standing_mix|churn_scan> --seed <n>
//!           [--trace 0|1]
//! ```
//!
//! Exits 1 if an oracle check failed, 2 on a usage error.

use pier_perfbench::{run, Scale, WORKLOADS};

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut traced = false;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{a} needs a value")))
        };
        match a.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => seed = Some(value().parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--trace" => traced = value() == "1",
            _ => usage(&format!("unknown argument {a}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let seed = seed.unwrap_or_else(|| usage("--seed is required"));
    let out = run(&workload, seed, traced, Scale::Full)
        .unwrap_or_else(|| usage(&format!("unknown workload {workload}")));
    println!("{}", out.to_json());
    if out.oracle.failed > 0 {
        for note in &out.oracle.notes {
            eprintln!("oracle: {note}");
        }
        std::process::exit(1);
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}
