"""The resilience-under-faults experiment driver."""

import pytest

from repro.experiments.resilience import ResilienceRow, run_resilience
from repro.experiments import resilience
from repro.validate.scenarios import FAMILIES


class TestRendering:
    def test_main_formats_rows_without_running(self, monkeypatch, capsys):
        rows = [
            ResilienceRow(
                scenario="loss-burst",
                controller="surgeguard",
                violation_volume=0.25,
                error_rate=0.0625,
                errors=5,
                completed=80,
                p98=0.0123,
                rpc_retries=7,
                rpc_fail_fast=2,
            )
        ]
        monkeypatch.setattr(resilience, "run_resilience", lambda: rows)
        resilience.main()
        out = capsys.readouterr().out
        assert "loss-burst" in out and "surgeguard" in out
        assert "0.2500" in out  # violation volume
        assert "0.062" in out  # error rate
        assert "12.3" in out  # p98 in ms


@pytest.mark.slow
class TestFullGrid:
    def test_grid_covers_matrix_and_surgeguard_wins(self):
        faults = FAMILIES["faults"]
        rows = run_resilience()
        assert len(rows) == len(faults.controllers) * len(faults.scenarios)
        by_cell = {(r.scenario, r.controller): r for r in rows}
        assert set(by_cell) == {
            (s, c) for s in faults.scenarios for c in faults.controllers
        }
        for r in rows:
            assert 0.0 <= r.error_rate <= 1.0
            assert r.errors >= 0 and r.completed > 0
        # The paper's qualitative claim under faults: SurgeGuard never
        # does worse than the no-op baseline on violation volume, and
        # strictly better where the control loop matters.
        for s in faults.scenarios:
            sg = by_cell[(s, "surgeguard")]
            null = by_cell[(s, "null")]
            assert sg.violation_volume <= null.violation_volume, s
            assert sg.errors <= null.errors, s
