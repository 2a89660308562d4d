"""Behavior tests for the centralized ML-style comparator."""

import pytest

from repro.controllers.ml_central import CentralizedMLController, MLParams
from repro.core import SurgeGuardConfig, SurgeGuardController
from repro.experiments.harness import run_experiment
from tests.controllers.conftest import mini_config


class TestParams:
    def test_defaults_match_cited_properties(self):
        p = MLParams()
        assert p.interval >= 1.0  # Table I: >1s granularity
        assert p.inference_delay > 0
        assert p.collection_delay > 0

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            MLParams(interval=0.0)
        with pytest.raises(ValueError):
            MLParams(collection_delay=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["interval", "collection_delay", "inference_delay"])
    def test_non_finite_timing_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            MLParams(**{field: value})


class TestBehavior:
    def test_correct_root_cause_but_slow(self):
        """It eventually upscales the right containers (dependence-aware)
        — the deficiency is purely latency."""
        cfg = mini_config(
            CentralizedMLController, spike_len=3.0, duration=6.0,
        )
        res = run_experiment(cfg)
        assert res.controller_stats.upscale_core_actions > 0

    def test_loses_to_surgeguard_on_transient_surges(self):
        """The paper's argument: for short transients the ML latency is
        fatal even with perfect root-cause analysis."""
        common = dict(spike_len=1.0, duration=5.0)
        ml = run_experiment(mini_config(CentralizedMLController, **common))
        sg = run_experiment(
            mini_config(
                lambda: SurgeGuardController(SurgeGuardConfig()), **common
            )
        )
        assert sg.violation_volume < ml.violation_volume

    def test_decision_granularity_over_one_second(self):
        cfg = mini_config(CentralizedMLController, duration=4.0)
        res = run_experiment(cfg)
        window = cfg.warmup + cfg.duration + cfg.drain
        granularity = window / max(res.controller_stats.decision_cycles, 1)
        assert granularity > 1.0
