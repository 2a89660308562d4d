"""At one replica per service the LB policy must not change results.

Every cluster routes through the load-balancer tier, and a lone replica
is resolved without consulting the policy (see
``repro/cluster/loadbalancer.py`` for the determinism argument).  The
default ``round_robin`` run is pinned by the goldens themselves; this
test re-runs the chain golden under the other two policies and requires
the committed numbers bit-for-bit.
"""

import pytest

from repro.analysis.aggregate import run_cell
from repro.experiments.harness import clear_profile_cache
from tests.exec.test_packet_fastlane import GOLDEN, _cell_config


def _run_golden_with_policy(key: str, lb_policy: str) -> None:
    want = GOLDEN[key]
    workload = want.get("workload", key)
    clear_profile_cache()
    cfg = _cell_config(workload, lb_policy=lb_policy, **want.get("config", {}))
    cell = run_cell(cfg, keep_runs=True)
    assert cell.violation_volume == want["violation_volume"]
    assert cell.p98 == want["p98"]
    assert [
        r.summary.violation_volume for r in cell.runs
    ] == want["rep_violation_volumes"]


class TestReplicaPassthroughBitIdentical:
    @pytest.mark.parametrize(
        "lb_policy", ["least_loaded", "consistent_hash"]
    )
    def test_golden_holds_under_every_policy(self, lb_policy, monkeypatch):
        """At one replica the policy is never consulted, so every policy
        must produce the identical run."""
        monkeypatch.setenv("REPRO_REPS", "3")
        _run_golden_with_policy("chain", lb_policy)
