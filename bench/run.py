"""Benchmark entry point: run each workload in fresh child processes, one at a time.

Usage (from the repository root)::

    python3 -m bench [--workload W] [--seed N] [--seconds S] [--trace [0|1]]
                     [--sim-scale F] [--out DIR] [--update-golden]

Every repetition is a new ``python -m bench.child`` process with no
``REPRO_*`` variables, so the default build is what gets measured.  A run
is ``floor(S / ROUND_SECONDS)`` rounds (at least one), fixed by
``--seconds`` alone so that every commit runs the same repetitions.  An
untraced round runs each of the workload's ``SEED_STREAMS`` simulation
seed streams once; host times are medians at a reference host speed,
memory the median child, and simulated metrics the mean over the streams.
A traced round (``--trace``) is an untraced and a traced child on the
reference stream, and the run reports the per-layer ledger.

Stream 0 is the reference stream (``bench.workloads.REFERENCE_SEED``) in
every run.  Its fingerprint is compared with ``bench/goldens.json`` and
printed as ``fingerprint_match``; its simulated QoS must be no worse than
the pinned QoS, or the run is incorrect.

Output: one line per metric (value, unit, quartiles), a
``fingerprint_match`` line, and as the last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record
goes to ``<out>/<workload>-seed<N>.json`` (``trace-<workload>.json`` when
traced).  Exit code 0 when every workload ran and checked out, 1 when a
check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench.child import EXIT_SKIPPED
from bench.workloads import REFERENCE_SEED, SEED_STREAMS, WORKLOADS, stream_seed

ROOT = Path(__file__).resolve().parent.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
GOLDEN_FILE = Path(__file__).resolve().parent / "goldens.json"
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT = 120.0
#: ``--seconds`` buys one round per this many seconds.  A round of the
#: slowest workload takes about 12 s at reference speed.
ROUND_SECONDS = 12.5
#: At most this share of a traced run may be charged to no layer.
UNATTRIBUTED_TOLERANCE = 0.05
#: Simulated QoS of the reference stream, all lower-is-better, that may not
#: get worse than its pinned value.
QOS_KEYS = ("p50_ms", "p98_ms", "vv_ms_s", "avg_cores", "energy_j", "failed")
#: Relative slack of the QoS check: float summation order only.
QOS_RTOL = 1e-9

#: Per-layer metric -> the trace site whose call count it is.
_SITE_COUNTS = {
    "sim.cancels": "EventHandle.cancel",
    "invocation.packets": "ServiceInstance.handle_packet",
    "container.submits": "Container.submit",
}
_SELF_LAYERS = (
    "sim", "workload", "network", "lb", "invocation", "container",
    "firstresponder", "controller", "rpc", "metrics", "harness",
)


class BenchError(Exception):
    """The benchmark could not run (missing sources, crashed child)."""


# ---------------------------------------------------------------- processes
def find_src() -> str:
    """Directory holding the ``repro`` package to measure.

    The first ``PYTHONPATH`` entry that contains ``repro`` wins (so
    ``PYTHONPATH=<other checkout>/src`` measures that checkout), then this
    checkout's ``src``.
    """
    entries = [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    for entry in entries + [str(ROOT / "src")]:
        if (Path(entry) / "repro" / "__init__.py").is_file():
            return str(Path(entry).resolve())
    raise BenchError(f"no repro package on PYTHONPATH or in {ROOT / 'src'}")


def spawn(workload: str, seed: int, *, scale: float, trace: bool, src: str) -> dict:
    """Run one child to completion and return its parsed result line."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([src, str(ROOT)])
    payload = {"workload": workload, "seed": seed, "scale": scale,
               "trace": trace, "src": src}
    payload["spawned_at"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(payload)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: child exceeded {CHILD_TIMEOUT:.0f} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, EXIT_SKIPPED) or not lines:
        raise BenchError(
            f"{workload}: child exited {proc.returncode}\n{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1])


# -------------------------------------------------------------- statistics
def quartiles(values: List[float]) -> tuple:
    """(first quartile, third quartile) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


# ------------------------------------------------------------------- runs
def rounds(seconds: float) -> int:
    """Rounds of repetitions a run of ``seconds`` holds (at least one)."""
    return max(1, int(seconds // ROUND_SECONDS))


def collect(name: str, args, src: str) -> Optional[List[dict]]:
    """Start children for one workload; ``None`` when it is skipped."""
    if args.trace:
        plan = [(False, 0), (True, 0)]
    else:
        plan = [(False, stream) for stream in range(SEED_STREAMS)]
    reps: List[dict] = []
    for _ in range(rounds(args.seconds)):
        for traced, stream in plan:
            rep = spawn(name, stream_seed(args.seed, stream), scale=args.sim_scale,
                        trace=traced, src=src)
            if "skipped" in rep:
                print(f"{name}: skipped: {rep['skipped']}", flush=True)
                return None
            rep["stream"], rep["traced"] = stream, traced
            reps.append(rep)
    return reps


def qos(rep: dict) -> Dict[str, float]:
    """The simulated QoS of one repetition, every value lower-is-better."""
    return {**rep["sim"], "failed": rep["failed"]}


def check_untraced(reps: List[dict]) -> List[str]:
    """Problems with one workload's untraced repetitions (empty = correct)."""
    problems = []
    by_stream: Dict[int, List[dict]] = {}
    for rep in reps:
        by_stream.setdefault(rep["stream"], []).append(rep)
        if rep["completed"] < 1 or rep["attempted"] < 1:
            problems.append(f"stream {rep['stream']}: no completed requests")
        for key in ("p50_ms", "p98_ms", "avg_cores", "energy_j"):
            value = rep["sim"][key]
            if not (math.isfinite(value) and value > 0):
                problems.append(f"stream {rep['stream']}: sim {key} = {value!r}")
    for stream, group in by_stream.items():
        outputs = {canonical([r["sim"], r["fingerprint"], r["counters"]]) for r in group}
        if len(outputs) > 1:
            problems.append(f"stream {stream}: repeats disagree on their outputs")
    return problems


def e2e_metrics(reps: List[dict]) -> Dict[str, tuple]:
    """End-to-end metric -> (value, the samples it was reduced from).

    Host times are medians of each repetition's seconds at the reference
    speed (see :class:`bench.child.SpeedSampler`); memory is the median.
    Simulated metrics are the mean over the seed streams (repeats of a
    stream are identical, counted once).
    """
    streams = {}
    for rep in reps:
        streams.setdefault(rep["stream"], rep["sim"])
    out = {
        "setup_s": [r["setup"]["s"] for r in reps],
        "run_s": [r["run"]["s"] for r in reps],
        "peak_rss_mb": [r["rss_mb"] for r in reps],
    }
    for key in ("p50_ms", "p98_ms", "avg_cores", "energy_j"):
        out[f"sim_{key}"] = [sim[key] for sim in streams.values()]
    return {
        name: (
            statistics.fmean(values) if name.startswith("sim_") else statistics.median(values),
            values,
        )
        for name, values in out.items()
    }


def check_traced(reps: List[dict]) -> List[str]:
    """Problems with a traced run: tracing must change nothing it measures."""
    problems = []
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    outputs = {canonical([r["sim"], r["fingerprint"], r["counters"]]) for r in reps}
    if len(outputs) > 1:
        problems.append("traced and untraced repetitions disagree on their outputs")
    for rep in traced:
        ledger = rep["trace"]
        if not ledger["restored"]:
            problems.append("a patch was left installed after tracing")
        unattributed = ledger["unattributed_s"] / ledger["root_s"]
        if unattributed > UNATTRIBUTED_TOLERANCE:
            problems.append(f"{unattributed:.1%} of the traced run is charged to no layer")
        if ledger["handler_calls"] != rep["counters"]["sim.events"]:
            problems.append(
                f"{ledger['handler_calls']} traced handlers for "
                f"{rep['counters']['sim.events']} fired events"
            )
    if not plain or not traced:
        problems.append("a traced run needs an untraced and a traced child")
    return problems


def layer_metrics(reps: List[dict]) -> Dict[str, tuple]:
    """Per-layer metric -> (value, samples).

    Counts come from the first untraced child (every child must match
    it); self times are shares of each traced run, medians over traced
    children, so a layer that never runs reads 0 without being a time.
    """
    plain = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    ledger = traced[0]["trace"]
    out: Dict[str, List[float]] = {k: [v] for k, v in plain[0]["counters"].items()}
    for layer in _SELF_LAYERS:
        out[f"{layer}.self_frac"] = [
            r["trace"]["layers"].get(layer, {}).get("self_s", 0.0) / r["trace"]["root_s"]
            for r in traced
        ]
    for metric, site in _SITE_COUNTS.items():
        out[metric] = [ledger["sites"].get(site, {}).get("calls", 0)]
    out["sim.pending_mean"] = [ledger["pending"]["mean"]]
    out["sim.pending_peak"] = [ledger["pending"]["peak"]]
    out["metrics.vv_ms_s"] = [plain[0]["sim"]["vv_ms_s"]]
    out["setup.import_s"] = [r["import_s"] for r in plain]
    out["setup.profile_s"] = [r["profile_s"] for r in plain]
    out["trace.run_s"] = [r["run"]["s"] for r in traced]
    run_plain = statistics.median(r["run"]["s"] for r in plain)
    out["trace.overhead_frac"] = [statistics.median(out["trace.run_s"]) / run_plain - 1.0]
    return {name: (statistics.median(values), values) for name, values in out.items()}


# ----------------------------------------------------------------- goldens
def load_goldens() -> dict:
    return json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}


def reference(reps: List[dict]) -> dict:
    return next(r for r in reps if r["stream"] == 0)


def golden_match(name: str, args, reps: List[dict]) -> Optional[bool]:
    """Reference-stream fingerprint against the committed golden."""
    golden = load_goldens().get(name)
    fingerprint = reference(reps)["fingerprint"]
    if args.sim_scale != 1.0 or golden is None or fingerprint is None:
        return None
    return canonical(golden["fingerprint"]) == canonical(fingerprint)


def qos_regressions(pinned: Dict[str, float], measured: Dict[str, float]) -> List[str]:
    """Every QoS value of ``measured`` that is worse than its ``pinned`` value."""
    return [
        f"reference-seed {key} {measured[key]!r} is worse than the pinned {pinned[key]!r}"
        for key in QOS_KEYS
        if measured[key] > pinned[key] + abs(pinned[key]) * QOS_RTOL
    ]


def check_reference(name: str, args, reps: List[dict]) -> List[str]:
    """The reference stream's simulated QoS must not be worse than pinned."""
    golden = load_goldens().get(name)
    if args.sim_scale != 1.0 or golden is None:
        return []
    return qos_regressions(golden["qos"], qos(reference(reps)))


def update_golden(name: str, args, reps: List[dict]) -> None:
    if args.sim_scale != 1.0 or args.trace:
        raise BenchError("--update-golden needs an untraced run at --sim-scale 1")
    rep = reference(reps)
    goldens = load_goldens()
    goldens[name] = {"seed": REFERENCE_SEED, "qos": qos(rep), "fingerprint": rep["fingerprint"]}
    GOLDEN_FILE.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------------ report
def run_workload(name: str, args, src: str, declared: Dict[str, str]) -> Optional[bool]:
    """Run, check, print and record one workload; ``None`` when skipped."""
    reps = collect(name, args, src)
    if reps is None:
        return None
    if args.trace:
        problems = check_traced(reps)
        metrics = layer_metrics(reps) if not problems else {}
    else:
        problems = check_untraced(reps) + check_reference(name, args, reps)
        metrics = e2e_metrics(reps)
    if not problems and set(metrics) != set(declared):
        raise BenchError(
            f"computed metrics differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared))}"
        )
    for metric, (value, samples) in metrics.items():
        q1, q3 = quartiles(samples)
        print(f"{name:14s} {metric:28s} {value:14.6g} {declared[metric]:6s} "
              f"q1 {q1:.6g} q3 {q3:.6g} n={len(samples)}")
    match = golden_match(name, args, reps)
    print(f"{name:14s} fingerprint_match {'n/a' if match is None else str(match).lower()}")
    for problem in problems:
        print(f"{name:14s} CHECK FAILED: {problem}")
    if args.update_golden:
        update_golden(name, args, reps)

    record = {
        "workload": name,
        "seed": args.seed,
        "sim_scale": args.sim_scale,
        "traced": bool(args.trace),
        "problems": problems,
        "fingerprint_match": match,
        "metrics": {m: {"value": v, "samples": samples, "unit": declared[m]}
                    for m, (v, samples) in metrics.items()},
        "reps": reps,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"trace-{name}" if args.trace else f"{name}-seed{args.seed}"
    (args.out / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": {m: {"value": v, "unit": declared[m]}
                    for m, (v, _samples) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return not problems


# ---------------------------------------------------------------------- cli
def parse_args(argv=None):
    p = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   help=f"one of {', '.join(WORKLOADS)}, or all (default)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help=f"run length: one round per {ROUND_SECONDS:g} s, at least one "
                        "(default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="report the per-layer ledger instead of end-to-end metrics")
    p.add_argument("--sim-scale", type=float, default=1.0,
                   help="multiply every simulated time of the cells (tests use < 1)")
    p.add_argument("--out", type=Path, default=ROOT / "bench" / "out")
    p.add_argument("--update-golden", action="store_true",
                   help="rewrite bench/goldens.json from the reference stream")
    args = p.parse_args(argv)
    if args.workload != "all" and args.workload not in WORKLOADS:
        p.error(f"unknown workload {args.workload!r}")
    if not 0.0 < args.sim_scale <= 1.0:
        p.error("--sim-scale must be in (0, 1]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = json.loads(SPEC_FILE.read_text())
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        src = find_src()
        if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
            raise BenchError("BENCHMARK.json workloads differ from bench.workloads")
        declared = {m["name"]: m["unit"]
                    for m in spec["per_layer" if args.trace else "end_to_end"]}
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        outcomes = [run_workload(name, args, src, declared) for name in names]
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    ran = [ok for ok in outcomes if ok is not None]
    return 0 if ran and all(ran) else 1


if __name__ == "__main__":
    raise SystemExit(main())
