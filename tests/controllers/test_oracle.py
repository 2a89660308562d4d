"""Behavior tests for the clairvoyant Fig. 4 oracle."""

import pytest

from repro.controllers.oracle import OracleController
from repro.experiments.harness import run_experiment
from repro.workload.arrivals import RateSchedule
from tests.controllers.conftest import mini_config


def oracle_factory(schedule, delay, headroom=1.2):
    return lambda: OracleController(
        schedule, detection_delay=delay, headroom=headroom
    )


def surge_schedule(cfg):
    return RateSchedule.single(
        cfg.resolved_rate(),
        magnitude=cfg.spike_magnitude,
        start=cfg.warmup + cfg.spike_offset,
        length=cfg.spike_len,
    )


class TestOracle:
    def test_invalid_args_rejected(self):
        s = RateSchedule(100.0)
        with pytest.raises(ValueError):
            OracleController(s, detection_delay=-1.0)
        with pytest.raises(ValueError):
            OracleController(s, detection_delay=0.0, headroom=0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_detection_delay_rejected(self, value):
        with pytest.raises(ValueError, match="detection_delay"):
            OracleController(RateSchedule(100.0), detection_delay=value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_headroom_rejected(self, value):
        """NaN passes ``headroom < 1``; a run would finish profiling and
        then fail converting the surge allocation to an integer."""
        with pytest.raises(ValueError, match="^headroom must be"):
            OracleController(
                RateSchedule(100.0), detection_delay=0.0, headroom=value
            )

    def test_zero_delay_beats_long_delay(self):
        base = mini_config(lambda: None)
        sched = surge_schedule(base)
        fast = run_experiment(
            mini_config(oracle_factory(sched, 0.0002), workload="mini-oracle-f")
        )
        slow = run_experiment(
            mini_config(oracle_factory(sched, 1.0), workload="mini-oracle-s")
        )
        assert fast.violation_volume < slow.violation_volume

    def test_oracle_scales_up_and_back_down(self):
        base = mini_config(lambda: None)
        sched = surge_schedule(base)
        cfg = mini_config(
            oracle_factory(sched, 0.001), workload="mini-oracle-ud",
        )
        res = run_experiment(cfg)
        ups = res.controller_stats.upscale_core_actions
        downs = res.controller_stats.downscale_core_actions
        assert ups > 0 and downs > 0
