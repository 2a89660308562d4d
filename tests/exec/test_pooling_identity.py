"""Object recycling must not change simulation results at all.

Packet and event-handle pooling reuses *memory*, never *state*: every
acquired object has all fields overwritten, and release points only
touch objects nothing else retains.  These tests pin that claim the
hard way — full experiment cells run with pooling enabled (the
default), disabled (``REPRO_POOL=0``), and in poison-debug mode
(``REPRO_POOL_DEBUG=1``, where any touch of a released object raises or
misroutes loudly) must reproduce the committed goldens bit-for-bit.

The fault cell matters most: packets die mid-flight there (loss drops,
crash-killed servers, superseded retries), which is exactly where a
wrong release point would recycle a still-referenced packet and corrupt
a later request.  It runs pooled, unpooled and in poison-debug mode.
"""

import pytest

from repro.analysis.aggregate import run_cell
from repro.experiments.harness import clear_profile_cache
from repro.validate.fingerprint import fingerprint_diff
from repro.validate.runner import load_goldens, run_cell_validated
from repro.validate.scenarios import matrix
from tests.exec.test_packet_fastlane import GOLDEN, _cell_config


def _run_golden_cell(key: str) -> None:
    want = GOLDEN[key]
    workload = want.get("workload", key)
    clear_profile_cache()
    cell = run_cell(
        _cell_config(workload, **want.get("config", {})), jobs=1, keep_runs=True
    )
    assert cell.violation_volume == want["violation_volume"]
    assert cell.p98 == want["p98"]
    assert [
        r.summary.violation_volume for r in cell.runs
    ] == want["rep_violation_volumes"]


class TestFastlaneGoldensModeIndependent:
    @pytest.mark.parametrize("key", ["chain", "readUserTimeline"])
    def test_goldens_hold_with_pooling_disabled(self, key, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "3")
        monkeypatch.setenv("REPRO_POOL", "0")
        _run_golden_cell(key)

    def test_goldens_hold_in_poison_debug_mode(self, monkeypatch):
        # Debug mode poisons every released packet, so this run doubles
        # as a proof that the production release points never give up a
        # packet something still reads: a use-after-release would raise
        # (context) or misroute (poisoned names) and break the golden.
        monkeypatch.setenv("REPRO_REPS", "3")
        monkeypatch.setenv("REPRO_POOL", "1")
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        _run_golden_cell("chain")


class TestFaultCellFingerprintModeIndependent:
    """crash-during-surge: the cell where packets die mid-flight."""

    def _outcome(self):
        (cell,) = matrix(
            controllers=["surgeguard"], scenarios=["crash-during-surge"]
        )
        clear_profile_cache()
        out = run_cell_validated(cell)
        assert not out.violations, out.violations
        return cell, out

    def test_pooled_and_unpooled_fingerprints_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "1")
        cell, pooled = self._outcome()
        monkeypatch.setenv("REPRO_POOL", "0")
        _, unpooled = self._outcome()
        assert pooled.fingerprint == unpooled.fingerprint
        # And both match the committed golden, not just each other.
        golden = load_goldens()[cell.key]
        assert fingerprint_diff(golden, pooled.fingerprint) == []

    def test_poison_debug_fingerprint_matches_golden(self, monkeypatch):
        # Under the RPC layer requests and retries are pooled too, so a
        # release point that gives up a packet still in use (a retry
        # racing its original, a crashed server) raises or misroutes here.
        monkeypatch.setenv("REPRO_POOL", "1")
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        cell, out = self._outcome()
        assert fingerprint_diff(load_goldens()[cell.key], out.fingerprint) == []
