"""Unit tests for the repetition / trimmed-mean protocol."""

import dataclasses

import numpy as np
import pytest

from repro.analysis.aggregate import default_reps, run_cell, trimmed_mean
from repro.controllers.null import NullController
from repro.exec.specs import spec
from repro.experiments.harness import (
    ExperimentResult,
    clear_profile_cache,
    profile_targets,
    run_experiment,
)
from tests.controllers.conftest import mini_config


class TestTrimmedMean:
    def test_paper_protocol_17_to_15(self):
        """17 points, drop best and worst, average 15."""
        values = list(range(17))  # 0..16
        assert trimmed_mean(values) == pytest.approx(sum(range(1, 16)) / 15)

    def test_outliers_excluded(self):
        values = [10.0] * 15 + [0.0, 1e9]
        assert trimmed_mean(values) == pytest.approx(10.0)

    def test_small_samples_untrimmed(self):
        assert trimmed_mean([5.0]) == 5.0
        assert trimmed_mean([4.0, 6.0]) == 5.0

    def test_three_samples_trimmed_to_median(self):
        assert trimmed_mean([1.0, 5.0, 100.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            trimmed_mean([])


class TestDefaultReps:
    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "17")
        assert default_reps() == 17

    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_REPS", raising=False)
        assert default_reps() == 1

    def test_invalid_env_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_REPS", "zero")
        with pytest.raises(ValueError):
            default_reps()
        monkeypatch.setenv("REPRO_REPS", "0")
        with pytest.raises(ValueError):
            default_reps()


class TestRunCell:
    def test_reps_use_distinct_seeds(self):
        cfg = mini_config(NullController, duration=2.0, warmup=1.0)
        cell = run_cell(cfg, reps=2, keep_runs=True)
        assert cell.reps == 2
        a, b = cell.runs
        assert a.config.seed != b.config.seed

    def test_single_rep_matches_run_experiment(self):
        from repro.experiments.harness import run_experiment

        cfg = mini_config(NullController, duration=2.0, warmup=1.0)
        cell = run_cell(cfg, reps=1)
        direct = run_experiment(cfg)
        assert cell.violation_volume == pytest.approx(direct.violation_volume)
        assert cell.avg_cores == pytest.approx(direct.avg_cores)

    def test_runs_dropped_by_default(self):
        cfg = mini_config(NullController, duration=2.0, warmup=1.0)
        cell = run_cell(cfg, reps=1)
        assert cell.runs == ()

    def test_reps_equal_a_seed_by_seed_loop_over_one_profile(self):
        """The protocol, field for field: seeds ``seed..seed+reps−1`` in
        order, every repetition on one shared profiling pass.  Exact
        ``==`` on floats is intentional."""
        cfg = mini_config(spec("surgeguard"), duration=2.0, warmup=1.0)
        cell = run_cell(cfg, reps=3, keep_runs=True)
        clear_profile_cache()
        targets = profile_targets(cfg)
        loop = [
            run_experiment(dataclasses.replace(cfg, seed=cfg.seed + i), targets=targets)
            for i in range(3)
        ]
        assert [r.config.seed for r in cell.runs] == [1, 2, 3]
        for got, want in zip(cell.runs, loop, strict=True):
            assert got.targets is cell.runs[0].targets
            for f in dataclasses.fields(ExperimentResult):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(a, np.ndarray):
                    assert np.array_equal(a, b), f.name
                else:
                    assert a == b, f.name
        for metric in ("violation_volume", "p98", "avg_cores", "energy"):
            assert getattr(cell, metric) == trimmed_mean(
                [getattr(r, metric) for r in loop]
            )


class TestRunCellValidation:
    def test_trim_negative_rejected(self):
        cfg = mini_config(NullController)
        with pytest.raises(ValueError, match="trim"):
            run_cell(cfg, reps=1, trim=-1)

    def test_high_trim_with_too_few_reps_rejected(self):
        cfg = mini_config(NullController)
        with pytest.raises(ValueError, match="discard all"):
            run_cell(cfg, reps=4, trim=2)

    @pytest.mark.parametrize("reps", [0, -1])
    def test_reps_below_one_rejected(self, reps):
        cfg = mini_config(NullController)
        with pytest.raises(ValueError, match="^reps must be >= 1"):
            run_cell(cfg, reps=reps)

    def test_default_trim_with_one_rep_still_allowed(self):
        # The fast REPRO_REPS=1 path: trim=1 degrades to an untrimmed mean.
        cfg = mini_config(NullController, duration=2.0, warmup=1.0)
        cell = run_cell(cfg, reps=1)
        assert cell.reps == 1
