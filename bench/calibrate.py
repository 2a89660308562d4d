"""Noise calibration: run the benchmark over many seeds, twice, and derive bounds.

Usage (from the repository root)::

    python3 -m bench.calibrate [--seeds 10] [--sets 2] [--out bench/baseline.json]

Each set runs the ``command`` of ``BENCHMARK.json`` exactly as declared,
with ``--workload W --seed s --seconds <run_seconds> --trace 0``, for every
seed and workload, one process at a time, seeds interleaved across
workloads so slow drift of the host hits every workload alike; then one
traced run per workload for the tracing overhead.  For each end-to-end
metric it records every value, each set's median and spread
(inter-quartile range over median, quartiles as
``statistics.quantiles(n=4)`` gives them) and the gap between the set
medians, and suggests a bound by the rule::

    max(0.10, set gap + spread)

The bound must also be at least three times the worst spread, so that a
change's median over seeds stays within it on the parent too; where the
rule gives less, the suggestion is widened to that and the metric is
listed under ``widened``.  Every bound is at most 0.25, and ``setup_s``
always gets 0.25, the largest.  Copying the suggested bounds into
``BENCHMARK.json`` is a deliberate, separate step.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench.run import ROOT, SPEC_FILE
from bench.workloads import WORKLOADS

MAX_BOUND = 0.25
MIN_BOUND = 0.10
#: A bound is at least this many times the metric's worst spread.
STEADY = 3


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def suggest_bound(name, sets):
    """(suggested bound, whether it was widened beyond the rule)."""
    if name == "setup_s":
        return MAX_BOUND, False
    medians = [statistics.median(s) for s in sets]
    gap = (max(medians) - min(medians)) / min(medians)
    worst = max(spread(s) for s in sets)
    rule = max(MIN_BOUND, gap + worst)
    bound = max(rule, STEADY * worst)
    return min(MAX_BOUND, math.ceil(bound * 100) / 100), bound > rule


def bench_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(int(trace))]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def main(argv=None):
    p = argparse.ArgumentParser(prog="python3 -m bench.calibrate")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--out", type=Path, default=ROOT / "bench" / "baseline.json")
    args = p.parse_args(argv)

    spec = json.loads(SPEC_FILE.read_text())
    metrics = [m["name"] for m in spec["end_to_end"]]
    values = {w: {m: [[] for _ in range(args.sets)] for m in metrics} for w in WORKLOADS}
    walls = []
    for k in range(args.sets):
        for seed in range(1, args.seeds + 1):
            for w in WORKLOADS:
                result, wall = bench_once(spec, w, seed, trace=False)
                walls.append(wall)
                if not result["correct"] or result["failed"]:
                    raise SystemExit(f"{w} seed {seed}: {result}")
                for m in metrics:
                    values[w][m][k].append(result["metrics"][m]["value"])
                print(f"set {k} seed {seed} {w} {wall:.1f}s", flush=True)
    overhead = {}
    for w in WORKLOADS:
        result, wall = bench_once(spec, w, 1, trace=True)
        walls.append(wall)
        overhead[w] = [result["metrics"]["trace.overhead_frac"]["value"]]

    report = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "command": spec["command"],
        "seeds": args.seeds,
        "seconds": spec["run_seconds"],
        "python": sys.version.split()[0],
        "run_wall_s": {"max": max(walls), "median": statistics.median(walls),
                       "total": sum(walls)},
        "trace_overhead_frac": overhead,
        "workloads": {},
        "suggested_bounds": {},
        "widened": [],
    }
    for m in metrics:
        bounds = []
        for w in WORKLOADS:
            sets = values[w][m]
            report["workloads"].setdefault(w, {})[m] = {
                "sets": sets,
                "medians": [statistics.median(s) for s in sets],
                "spreads": [spread(s) for s in sets],
            }
            bounds.append(suggest_bound(m, sets))
        bound, _ = max(bounds)
        report["suggested_bounds"][m] = bound
        if any(widened for b, widened in bounds if b == bound):
            report["widened"].append(m)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    for m, b in report["suggested_bounds"].items():
        worst = max(max(report["workloads"][w][m]["spreads"]) for w in WORKLOADS)
        note = " (widened)" if m in report["widened"] else ""
        print(f"{m:16s} worst spread {worst:.4f} suggested bound {b:.2f}{note}")


if __name__ == "__main__":
    main()
