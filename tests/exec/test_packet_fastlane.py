"""Packet-path fast lane must not change simulation results at all.

The route cache, batched jitter RNG, surge timeline, cached RX overhead,
and segment-indexed rate schedules are pure *mechanical* optimizations:
numpy Generators produce identical streams drawn singly or in blocks,
and every arithmetic sequence on the hot path was kept verbatim.  These
tests pin that claim to **golden values recorded from the
pre-optimization code** (same seeds, same configs, plain ``==`` on
floats) for both the CHAIN and social-network workloads — any drift in
scheduling order, RNG consumption, or float arithmetic fails them.
"""

import pytest

from repro.analysis.aggregate import run_cell
from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig, clear_profile_cache

#: violation_volume / p98 / per-rep violation volumes captured by running
#: the seed (pre-fast-lane) code at these exact configs, REPRO_REPS=3.
GOLDEN = {
    "chain": {
        "violation_volume": 0.00678037726102677,
        "p98": 0.05042167037292759,
        "rep_violation_volumes": [
            0.0013003591603656887,
            0.00678037726102677,
            0.007062671613040968,
        ],
    },
    "readUserTimeline": {
        "violation_volume": 8.19282795865763e-06,
        "p98": 0.008781346454451265,
        "rep_violation_volumes": [
            8.19282795865763e-06,
            0.00019027769535009503,
            8.745140151644463e-07,
        ],
    },
    # hotelReservation family, captured at the same config shape.
    "searchHotel": {
        "workload": "searchHotel",
        "violation_volume": 1.092970783069e-05,
        "p98": 0.017284805864273098,
        "rep_violation_volumes": [
            4.787109911479511e-06,
            1.092970783069e-05,
            7.380948995046117e-05,
        ],
    },
    # Multi-node chain: round-robin placement across 2 nodes, so the
    # fast lane's route cache and per-node RX overhead both cross node
    # boundaries (single-node goldens never exercise that path).
    "chain@2nodes": {
        "workload": "chain",
        "config": {"n_nodes": 2},
        "violation_volume": 0.011881656314658937,
        "p98": 0.050369254313369305,
        "rep_violation_volumes": [
            0.002367674978080033,
            0.011934654735878932,
            0.011881656314658937,
        ],
    },
}


def _cell_config(workload: str, **overrides) -> ExperimentConfig:
    """Identical to the pre-optimization golden capture run."""
    return ExperimentConfig(
        workload=workload,
        controller_factory=spec("surgeguard"),
        spike_magnitude=1.75,
        spike_len=0.5,
        spike_period=2.0,
        spike_offset=0.25,
        duration=2.0,
        warmup=1.0,
        profile_duration=1.0,
        drain=0.5,
        seed=3,
        **overrides,
    )


class TestBitIdenticalToSeedPath:
    @pytest.mark.parametrize("key", sorted(GOLDEN))
    def test_results_match_pre_optimization_golden(self, key, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "3")
        want = GOLDEN[key]
        workload = want.get("workload", key)
        clear_profile_cache()
        cell = run_cell(
            _cell_config(workload, **want.get("config", {})),
            keep_runs=True,
        )
        # Exact equality on purpose: the fast lane promises bit-identical
        # results, and approx would hide RNG-stream or ordering drift.
        assert cell.violation_volume == want["violation_volume"]
        assert cell.p98 == want["p98"]
        assert [
            r.summary.violation_volume for r in cell.runs
        ] == want["rep_violation_volumes"]
