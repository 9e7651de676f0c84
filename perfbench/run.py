#!/usr/bin/env python3
"""The repository benchmark: builds the perfbench harness and runs one workload.

    python3 perfbench/run.py --workload serve|churn --seed N --seconds S --trace 0|1

Run from the repository root. The harness (perfbench.cc) is compiled with
the engine sources into .bench_build/perfbench on first use. It prints its
own report; this script then prints every metric BENCHMARK.json lists for
the run's mode -- the end-to-end metrics with --trace 0, the per-layer
metrics with --trace 1 -- by name with its unit, and as its last line one
JSON object:

    {"correct": true, "attempted": N, "failed": N,
     "metrics": {"<name>": {"value": <number>, "unit": "<unit>"}, ...}}

Each workload measures only the layers it drives: a per-layer metric of
the other workload (join_s on serve, load_s on churn) is printed as n/a
and, since the result carries every per-layer metric, reads 0 there.

It exits non-zero when the build fails, when any output-correctness gate
of the harness fails, or when an end-to-end metric is missing.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A run must end within 180 s, the first one in a checkout, which also
# compiles the engine, within 900 s.
RUN_DEADLINE_S = 170
FIRST_RUN_DEADLINE_S = 880
EVENT_METRICS = ["batch_qps", "join_s", "sweep_s", "leave_s", "save_s",
                 "load_s", "snapshot_mb", "failed_share"]


def build():
    """Configures and compiles the harness; returns False on any failure."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=FIRST_RUN_DEADLINE_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"build step {step[:2]} failed: {err}", file=sys.stderr)
            return False
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            print(f"build step {step[:2]} exited {done.returncode}",
                  file=sys.stderr)
            return False
    return True


def run_harness(args, timeout_s):
    """Runs the harness; returns (exit code, its last-line JSON or None)."""
    os.makedirs(os.path.dirname(BUILD_DIR), exist_ok=True)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.dirname(BUILD_DIR)]
    if args.trace:
        cmd += ["--spans", os.path.join(os.path.dirname(BUILD_DIR),
                                        f"spans-{args.workload}.csv")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout_s)
    except subprocess.TimeoutExpired:
        print(f"harness exceeded {timeout_s:.0f}s", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        print("harness printed no result", file=sys.stderr)
        return done.returncode or 1, None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    started = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"unknown workload {args.workload}", file=sys.stderr)
        return 2
    first_run = not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt"))
    if not build():
        return 1
    deadline_s = FIRST_RUN_DEADLINE_S if first_run else RUN_DEADLINE_S
    timeout_s = max(deadline_s - (time.monotonic() - started), 60)
    code, raw = run_harness(args, timeout_s)
    if raw is None:
        return code or 1

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = raw["metrics"].get(m["name"])
        if value is None and not args.trace:
            print(f"harness did not report {m['name']}", file=sys.stderr)
            return 1
        metrics[m["name"]] = {"value": value or 0, "unit": m["unit"]}
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{m['name']:<40} {shown:>16} {m['unit']}")
    if args.trace == 0:
        # Per-layer in BENCHMARK.json because not every workload has them
        # (or, for batch_qps, too noisy to bound), but user-visible.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in EVENT_METRICS:
            if name in raw["metrics"]:
                print(f"{name:<40} {raw['metrics'][name]:>16.6g} "
                      f"{units[name]}")
        print(f"(failed {raw['failed']} of {raw['attempted']} operations)")
    correct = bool(raw["correct"]) and code == 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
