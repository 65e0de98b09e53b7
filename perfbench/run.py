#!/usr/bin/env python3
"""Entry point of the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload routed_bulk --seed 7 --seconds 45 --trace 0

Builds perfbench/ (a Release build of the library plus the benchmark) into
.bench_build/ on first use, runs one workload in one process, echoes the
benchmark's human-readable report and ends with one JSON line holding the
metrics BENCHMARK.json declares: its end_to_end metrics with --trace 0,
its per_layer metrics with --trace 1.

    python3 perfbench/run.py --selftest

builds and runs the unit tests of the benchmark's own helpers.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
# Each run must end within 180 s; keep a margin for the build check.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench-release")


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: provenance that
    survives a checkout without git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench", "bench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".h", ".cc", ".txt", ".py")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def build(target):
    out = build_dir()
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release", f"-DAPPROXQL_GIT_SHA={git_sha()}"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    command = ["cmake", "--build", out, "--target", target, "-j", jobs]
    if subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def select_metrics(declared, measured):
    """The declared metrics, in declaration order, from the benchmark's
    result. Raises KeyError naming a declared metric that is missing or
    carries another unit."""
    selected = {}
    for metric in declared:
        name = metric["name"]
        got = measured.get(name)
        if got is None or got["unit"] != metric["unit"]:
            raise KeyError(f"{name} ({metric['unit']}) not measured: {got}")
        selected[name] = {"value": got["value"], "unit": got["unit"]}
    return selected


def run_workload(args):
    started = time.monotonic()
    benchmark = load_benchmark()
    binary = build("perfbench")
    if binary is None:
        log("build failed")
        return 1
    print(f"provenance: source_digest={source_digest()}", flush=True)
    work = os.path.join(build_dir(), "work",
                        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    remaining = max(10, RUN_TIMEOUT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        log(f"workload did not finish within {remaining:.0f} s")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    print("\n".join(lines), flush=True)
    if result is None or proc.returncode not in (0, 1):
        log(f"perfbench exited with {proc.returncode} and no result")
        return proc.returncode or 1
    kind = "per_layer" if args.trace else "end_to_end"
    try:
        metrics = select_metrics(benchmark[kind], result["metrics"])
    except KeyError as e:
        log(f"BENCHMARK.json {kind}: {e}")
        return 1
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)
    return 0 if result["correct"] and proc.returncode == 0 else 1


def run_selftest():
    status = subprocess.run([sys.executable, "-m", "unittest", "-q", "test_tools"],
                            cwd=BENCH_DIR).returncode
    binary = build("perfbench_selftest")
    if binary is None:
        log("perfbench_selftest did not build (is GTest installed?)")
        return 1
    return status or subprocess.run([binary]).returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return run_selftest()
    if args.workload is None or args.seed is None or args.seconds is None \
            or args.trace is None:
        parser.error("--workload, --seed, --seconds and --trace are required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
