#!/usr/bin/env python3
"""Self-checks of the benchmark, run at the small scale (about a minute).

    python3 perfbench/selftest.py

1. BENCHMARK.json and perfbench/metrics.json describe the same metrics.
2. Determinism: two traced runs of each workload with one seed but a
   different --seconds, so that the timed loops make a different number of
   passes, report identical values for every count-type metric.
3. A different seed changes the query stream.
4. Every output-correctness gate passes and the query split matches the
   engine's own Search on every query.
5. Every end-to-end metric is reported by every workload, every per-layer
   metric by at least one, and every reported value is finite.

Exits non-zero on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

import run as bench

# Count-type metrics are those with these units, except the ones below,
# which are derived from timings or from the number of timed queries.
COUNT_UNITS = {"count", "count/query", "hops", "bytes", "ratio", "MB"}
NOT_COUNTS = {"peak_rss_mb", "engine.batch.parallel_efficiency",
              "failed_share"}


def harness(workload, seed, seconds):
    cmd = [bench.BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1", "--scale", "small",
           "--workdir", os.path.dirname(bench.BUILD_DIR)]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=300)
    if done.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def check(condition, what):
    print(f"{'ok  ' if condition else 'FAIL'} {what}")
    if not condition:
        sys.exit(1)


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    with open(os.path.join(bench.HERE, "metrics.json")) as f:
        described = json.load(f)
    for group in ("end_to_end", "per_layer"):
        names = [m["name"] for m in spec[group]]
        check(sorted(names) == sorted(described[group]),
              f"metrics.json describes every {group} metric")
    units = {m["name"]: m["unit"]
             for group in ("end_to_end", "per_layer") for m in spec[group]}
    counts = sorted(n for n, u in units.items()
                    if u in COUNT_UNITS and n not in NOT_COUNTS)

    check(bench.build(), "harness builds")
    reported = set()
    for workload in [w["name"] for w in spec["workloads"]]:
        first = harness(workload, 1, 1)
        second = harness(workload, 1, 2)
        for r in (first, second):
            check(r["correct"] and all(r["gates"].values()),
                  f"{workload}: every gate passes")
        check(all(m["name"] in first["metrics"] for m in spec["end_to_end"]),
              f"{workload}: every end-to-end metric reported")
        check(all(math.isfinite(v) for v in first["metrics"].values()),
              f"{workload}: every reported value is finite")
        reported |= set(first["metrics"])
        differing = [n for n in counts
                     if first["metrics"].get(n) != second["metrics"].get(n)]
        check(not differing,
              f"{workload}: {len(counts)} count-type metrics repeat for one "
              f"seed {differing or ''}")
        check(first["info"]["stream_fingerprint"] ==
              second["info"]["stream_fingerprint"],
              f"{workload}: one seed, one query stream")
        other = harness(workload, 2, 1)
        check(other["info"]["stream_fingerprint"] !=
              first["info"]["stream_fingerprint"],
              f"{workload}: another seed changes the query stream")
    check(set(units) <= reported,
          f"every per-layer metric reported by a workload "
          f"{sorted(set(units) - reported) or ''}")
    serve = harness("serve", 3, 1)
    check(serve["metrics"]["hdk.split.mismatches"] == 0 and
          serve["metrics"]["p2p.fetch.keys"] > 0,
          "serve: plan -> fetch -> rank equals Search on every pool query")
    return 0


if __name__ == "__main__":
    sys.exit(main())
