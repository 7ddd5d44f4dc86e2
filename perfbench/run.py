#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The script builds the `perfbench` binary
(its own cargo package in this directory, into `$CARGO_TARGET_DIR`,
default `.bench_build`), then runs the workload in fresh processes, one
run per process. How many runs is fixed by the workload and `--seconds`
alone (see `runs_for`), never by how fast the runs go, so that a change
that shortens a run does not also buy itself more samples:

* `--trace 0` runs the plain engine and reports every end-to-end metric
  as the median over runs, but `setup_s` and `wall_s` as the sum over
  laps of each lap's fastest time across the runs (see `lap_time`);
* `--trace 1` alternates plain and traced runs and reports every
  per-layer metric as the median over traced runs, plus
  `trace.overhead_s` (traced minus plain `wall_s`).

Every run checks its outputs against the workload's oracle. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`. Exit status: 0 when every check held, 1 when an
oracle check failed, the engine was not deterministic, the traced run
diverged from the plain one, or the build failed (then no result line
is printed).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# Wall seconds of one plain run, set-up and oracle included, on a
# shared 2-vCPU host (set-ups per run are fixed in each workload's code).
RUN_COST_S = {"scaleup_join": 4.5, "standing_mix": 4.0, "churn_scan": 2.5}
MIN_PLAIN_RUNS = 3
MIN_TRACED_PAIRS = 2
RUN_TIMEOUT_S = 150
# Stop starting runs past this point, to end well inside 180 s. Only a
# much slower program reaches it; its fewer samples can then only make
# the fastest-lap times read slower, never faster.
DEADLINE_S = 120


def runs_for(workload, seconds, traced):
    """Plain runs, or plain/traced pairs, that fill `seconds` at the
    workload's nominal cost."""
    if traced:
        return max(MIN_TRACED_PAIRS, int(seconds / (2 * RUN_COST_S[workload])))
    return max(MIN_PLAIN_RUNS, int(seconds / RUN_COST_S[workload]))


def build():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(HERE, "Cargo.toml"),
    ]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def run_once(binary, workload, seed, traced):
    cmd = [
        binary, "--workload", workload, "--seed", str(seed),
        "--trace", "1" if traced else "0",
    ]
    p = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = p.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload}: run exited {p.returncode} without output")
    return p.returncode, json.loads(lines[-1])


def median(values):
    return statistics.median(values) if values else None


def lap_time(lap_lists):
    """Sum over laps of each lap's fastest time across runs (see `Laps` in
    src/measure.rs). Runs of one seed do identical work lap by lap, and
    host noise only slows a lap down, so the fastest repeat is the
    steadiest estimate of a lap's cost: over ten 30 s windows on a shared
    2-vCPU host, the interquartile range of this sum was 6-9% of its
    median, against 10-21% for the sum of lap medians."""
    if not lap_lists or len({len(laps) for laps in lap_lists}) != 1:
        return None
    return sum(min(col) for col in zip(*lap_lists))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(RUN_COST_S))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    start = time.monotonic()
    plain, traced, problems = [], [], []
    schedule = [False, True] if args.trace else [False]
    for _ in range(runs_for(args.workload, args.seconds, bool(args.trace))):
        if plain and time.monotonic() - start >= DEADLINE_S:
            print(f"perfbench: deadline reached after {len(plain)} plain runs", file=sys.stderr)
            break
        for want_traced in schedule:
            code, out = run_once(binary, args.workload, args.seed, want_traced)
            (traced if want_traced else plain).append(out)
            if code != 0:
                problems += out["notes"] or [f"run exited {code}"]
                break
        if problems:
            break

    runs = plain + traced
    # Same seed, same inputs: every run, plain or traced, must agree on
    # every deterministic quantity (trace fidelity and repeatability).
    prints = {r["fingerprint"] for r in runs}
    if len(prints) > 1:
        problems.append("runs disagree on deterministic outputs: " + " | ".join(sorted(prints)))

    def med(group, section, name):
        return median([r[section][name]["value"] for r in group if r[section][name]["value"] is not None])

    metrics = {}
    if args.trace and traced and plain:
        for name, m in traced[0]["per_layer"].items():
            metrics[name] = {"value": med(traced, "per_layer", name), "unit": m["unit"]}
        walls = [lap_time([r["wall_laps"] for r in g]) for g in (traced, plain)]
        overhead = None if None in walls else walls[0] - walls[1]
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    elif not args.trace and plain:
        for name, m in plain[0]["end_to_end"].items():
            metrics[name] = {"value": med(plain, "end_to_end", name), "unit": m["unit"]}
        setups = [laps for r in plain for laps in r["setup_laps"]]
        metrics["setup_s"]["value"] = lap_time(setups)
        metrics["wall_s"]["value"] = lap_time([r["wall_laps"] for r in plain])

    problems += [f"metric {n} is undefined" for n, m in metrics.items() if m["value"] is None]
    width = max((len(n) for n in metrics), default=0)
    kind = "traced" if args.trace else "plain"
    print(f"# {args.workload} seed {args.seed}: {len(plain)} plain, {len(traced)} traced runs "
          f"in {time.monotonic() - start:.1f} s; medians of {kind} runs")
    for name, m in metrics.items():
        print(f"{name:<{width}}  {m['value'] or 0.0:>16.6f}  {m['unit']}")
    for p in problems:
        print(f"FAILED: {p}", file=sys.stderr)

    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
