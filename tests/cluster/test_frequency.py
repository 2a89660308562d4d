"""Unit tests for the DVFS model."""

import pytest

from repro.cluster.frequency import DvfsModel


class TestLevels:
    def test_clamp_to_range(self, dvfs):
        assert dvfs.clamp(0.5e9) == dvfs.f_min
        assert dvfs.clamp(99e9) == dvfs.f_max

    def test_clamp_snaps_to_step(self, dvfs):
        assert dvfs.clamp(1.71e9) == pytest.approx(1.8e9)
        assert dvfs.clamp(1.69e9) == pytest.approx(1.6e9)

    def test_step_up_down(self, dvfs):
        assert dvfs.step_up(1.6e9) == pytest.approx(1.8e9)
        assert dvfs.step_down(1.8e9) == pytest.approx(1.6e9)

    def test_step_saturates(self, dvfs):
        assert dvfs.step_up(dvfs.f_max) == dvfs.f_max
        assert dvfs.step_down(dvfs.f_min) == dvfs.f_min

    def test_levels_ascending_and_bounded(self, dvfs):
        levels = dvfs.levels
        assert levels[0] == dvfs.f_min
        assert levels[-1] == dvfs.f_max
        assert all(a < b for a, b in zip(levels, levels[1:]))

    def test_invalid_range_rejected(self):
        with pytest.raises(ValueError):
            DvfsModel(f_min=2e9, f_max=1e9)
        with pytest.raises(ValueError):
            DvfsModel(step=0.0)

