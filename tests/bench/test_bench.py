"""The repository benchmark (``python3 -m bench``) on tiny cells.

Every workload runs at ``--sim-scale 0.05`` (well under a simulated
second each), so these tests check the benchmark's contract, not its
numbers: what it prints, that tracing changes nothing it measures, and
that a checkout without the simulator fails cleanly.
"""

import importlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench.child import run_rep
from bench.run import qos_regressions
from bench.trace import ENTRY_POINTS, Tracer
from bench.workloads import REFERENCE_SEED, WORKLOADS, Unsupported, build_config, stream_seed

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.05


def bench_cli(*args, cwd=ROOT, env=None):
    return subprocess.run(
        [sys.executable, "-m", "bench", "--sim-scale", str(SCALE), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def parse(stdout):
    """(metric lines as (workload, name, unit), result objects, other lines)."""
    metrics, results, other = [], [], []
    for line in stdout.splitlines():
        if line.startswith("{"):
            results.append(json.loads(line))
            continue
        fields = line.split()
        if len(fields) >= 4 and fields[1] != "fingerprint_match":
            metrics.append((fields[0], fields[1], fields[3]))
        else:
            other.append(line)
    return metrics, results, other


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_exactly_the_declared_metrics(tmp_path, trace, section):
    proc = bench_cli("--seconds", "0", "--trace", trace, "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    metrics, results, other = parse(proc.stdout)
    assert len(results) == len(WORKLOADS)
    for name in WORKLOADS:
        printed = {(m, u) for w, m, u in metrics if w == name}
        assert printed == set(declared.items()), name
    for result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        assert {m: v["unit"] for m, v in result["metrics"].items()} == declared
    assert all("fingerprint_match" in line for line in other), other


def test_traced_ledger_covers_the_run(tmp_path):
    proc = bench_cli("--workload", "hotel-faults", "--seconds", "0", "--trace",
                     "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    record = json.loads((tmp_path / "trace-hotel-faults.json").read_text())
    traced = [r for r in record["reps"] if r["traced"]]
    assert traced and record["problems"] == []
    for rep in traced:
        ledger = rep["trace"]
        # Every fired event ran in a handler span, and under 5% of the run
        # was charged to no layer.
        assert ledger["handler_calls"] == rep["counters"]["sim.events"]
        assert ledger["unattributed_s"] <= 0.05 * ledger["root_s"]
        assert ledger["restored"] is True
        assert {"sim", "network", "lb", "invocation", "container"} <= set(ledger["layers"])
        assert ledger["pending"]["samples"] > 0


def test_traced_run_matches_untraced_and_restores_classes():
    originals = {}
    for module, cls, attr, _layer in ENTRY_POINTS:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        originals[(owner, attr)] = vars(owner)[attr]
    plain = run_rep("chain-surge", 1, scale=SCALE)
    traced = run_rep("chain-surge", 1, scale=SCALE, trace=True)
    assert traced["fingerprint"] == plain["fingerprint"]
    assert traced["counters"] == plain["counters"]
    assert traced["sim"] == plain["sim"]
    for (owner, attr), original in originals.items():
        assert vars(owner)[attr] is original, attr


def test_tracer_uninstall_restores_every_patch():
    tracer = Tracer()
    tracer.install()
    try:
        assert not tracer.restored()
    finally:
        tracer.uninstall()
    assert tracer.restored()
    assert tracer.missing == []


def test_seed_determines_the_fingerprint():
    first = run_rep("pipeline8", 1, scale=SCALE)
    again = run_rep("pipeline8", 1, scale=SCALE)
    other = run_rep("pipeline8", 2, scale=SCALE)
    assert first["fingerprint"] == again["fingerprint"]
    assert first["fingerprint"] != other["fingerprint"]


def test_reference_stream_ignores_the_seed():
    assert stream_seed(1, 0) == stream_seed(7, 0) == REFERENCE_SEED
    assert stream_seed(1, 1) != stream_seed(7, 1)


def test_worse_reference_qos_is_a_regression():
    pinned = {"p50_ms": 3.0, "p98_ms": 30.0, "vv_ms_s": 0.0, "avg_cores": 12.0,
              "energy_j": 190.0, "failed": 0}
    assert qos_regressions(pinned, dict(pinned)) == []
    better = {**pinned, "p98_ms": 25.0, "energy_j": 180.0}
    assert qos_regressions(pinned, better) == []
    worse = {**pinned, "p98_ms": 30.5, "vv_ms_s": 1e-3, "failed": 1}
    assert len(qos_regressions(pinned, worse)) == 3


def test_unbuildable_workload_is_unsupported(monkeypatch):
    import repro.exec.specs

    def no_such_spec(name, **params):
        raise ValueError(f"unknown controller spec {name!r}")

    monkeypatch.setattr(repro.exec.specs, "spec", no_such_spec)
    with pytest.raises(Unsupported):
        build_config("hotel-faults", 1)


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = bench_cli("--workload", "chain-surge", "--seconds", "0", cwd=tmp_path, env=env)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
