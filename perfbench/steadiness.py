#!/usr/bin/env python3
"""Steadiness report for the benchmark declared in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--workloads routed_bulk,live_ingest_mix] [--seconds S]

Runs every workload --runs times through perfbench/run.py, each run with
its own seed, and prints for each end-to-end metric the median, the first
and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median next to the metric's bound: a metric is steady when
its spread stays below a third of the bound. setup_s is reported but its
spread is not judged; only its median matters.

Then, per workload, two traced runs at the first seed: their
`exact-counts:` lines must match (engine counters repeat exactly for a
seed), their input digests must match, and trace.overhead_frac is shown.

Exits 1 when a spread reaches its bound or an exact count differs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of a list of run results."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def verdict(spread_frac, bound, judged=True):
    if not judged:
        return "reported"
    if spread_frac < bound / 3:
        return "steady"
    if spread_frac <= bound:
        return "within bound"
    return "TOO NOISY"


def parse_result(stdout):
    """The JSON result on the last line of a run's output, or None."""
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        return None
    return json.loads(lines[-1])


def tagged_lines(stdout, tag):
    """Lines starting with `tag`, e.g. the exact counts or input digest."""
    return [line for line in stdout.splitlines() if line.startswith(tag)]


def run(workload, seed, seconds, trace):
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    return proc.returncode, proc.stdout, proc.stderr


def report_workload(workload, benchmark, seeds, seconds):
    ok = True
    values = {}
    for seed in seeds:
        code, stdout, stderr = run(workload, seed, seconds, 0)
        result = parse_result(stdout)
        if code != 0 or result is None:
            print(f"  seed {seed}: FAILED (exit {code})\n{stderr[-2000:]}")
            return False
        print(f"  seed {seed}: " + " ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items())
            + f" attempted={result['attempted']} failed={result['failed']}",
            flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"  {'metric':<16} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  verdict")
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        median, q1, q3, frac = spread(values[name])
        judged = name != "setup_s"
        v = verdict(frac, metric["bound"], judged)
        ok = ok and v != "TOO NOISY"
        print(f"  {name:<16} {median:12.4f} {q1:12.4f} {q3:12.4f} "
              f"{frac:8.4f} {metric['bound']:6.2f}  {v}")

    traced = [run(workload, seeds[0], seconds, 1) for _ in range(2)]
    for code, stdout, stderr in traced:
        if code != 0 or parse_result(stdout) is None:
            print(f"  traced run FAILED (exit {code})\n{stderr[-2000:]}")
            return False
    overhead = [parse_result(out)["metrics"]["trace.overhead_frac"]["value"]
                for _, out, _ in traced]
    print("  trace.overhead_frac: " + " ".join(f"{o:.4f}" for o in overhead))
    for tag in ("exact-counts:", "inputs:"):
        first, second = (tagged_lines(out, tag) for _, out, _ in traced)
        same = first == second
        ok = ok and same
        shown = "; ".join(first) if first else "(none printed)"
        print(f"  {tag} {'identical' if same else 'DIFFER'} across two "
              f"runs at seed {seeds[0]}: {shown}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in benchmark["workloads"]))
    parser.add_argument("--seconds", type=int, default=benchmark["run_seconds"])
    args = parser.parse_args()
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    ok = True
    for workload in args.workloads.split(","):
        print(f"{workload}: {args.runs} runs x {args.seconds} s, seeds "
              f"{seeds[0]}..{seeds[-1]}", flush=True)
        ok = report_workload(workload, benchmark, seeds, args.seconds) and ok
    print("steady" if ok else "NOT STEADY")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
