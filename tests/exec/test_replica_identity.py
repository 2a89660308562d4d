"""The replica tier at replicas=1 must not change results at all.

Arming the load balancer with a single replica per service is contracted
to be a pure pass-through: the LB resolves every virtual destination to
the one READY replica without consulting the policy, replica 0 keeps the
bare service name, and placement/budget/RNG streams are constructed
identically (see ``repro/cluster/loadbalancer.py`` for the determinism
argument).  These tests pin the contract the hard way — golden cells
re-run with ``replicas=1`` under every LB policy must reproduce the
committed numbers bit-for-bit.

The fault cell matters most: crash-during-surge sends traffic into a
dead replica, which is exactly where the LB's fail-open health filter
(single-ready shortcut) could have diverged from the unreplicated
dead-socket path.
"""

import dataclasses

import pytest

from repro.analysis.aggregate import run_cell
from repro.experiments.harness import clear_profile_cache
from repro.validate.fingerprint import fingerprint_diff
from repro.validate.runner import load_goldens, run_cell_validated
from repro.validate.scenarios import fault_matrix
from tests.exec.test_packet_fastlane import GOLDEN, _cell_config

def _run_replicated_golden(key: str, lb_policy: str) -> None:
    want = GOLDEN[key]
    workload = want.get("workload", key)
    clear_profile_cache()
    cfg = _cell_config(
        workload,
        replicas=1,
        lb_policy=lb_policy,
        **want.get("config", {}),
    )
    cell = run_cell(cfg, jobs=1, keep_runs=True)
    assert cell.violation_volume == want["violation_volume"]
    assert cell.p98 == want["p98"]
    assert [
        r.summary.violation_volume for r in cell.runs
    ] == want["rep_violation_volumes"]


class TestReplicaPassthroughBitIdentical:
    def test_golden_holds_with_lb_armed(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "3")
        _run_replicated_golden("chain", "round_robin")

    @pytest.mark.parametrize(
        "lb_policy", ["least_loaded", "consistent_hash"]
    )
    def test_golden_holds_under_every_policy(self, lb_policy, monkeypatch):
        """At one replica the policy is never consulted, so every policy
        must produce the identical run."""
        monkeypatch.setenv("REPRO_REPS", "3")
        _run_replicated_golden("chain", lb_policy)


class TestFaultCellReplicatedBitIdentical:
    """crash-during-surge with the LB armed: the dead-replica path."""

    def _outcome(self):
        (cell,) = fault_matrix(
            controllers=["surgeguard"], scenarios=["crash-during-surge"]
        )
        replicated = dataclasses.replace(
            cell, config=dataclasses.replace(cell.config, replicas=1)
        )
        clear_profile_cache()
        out = run_cell_validated(replicated)
        assert not out.violations, out.violations
        return cell, out

    def test_fingerprint_matches_unreplicated_golden(self):
        cell, out = self._outcome()
        golden = load_goldens()[cell.key]
        assert fingerprint_diff(golden, out.fingerprint) == []
