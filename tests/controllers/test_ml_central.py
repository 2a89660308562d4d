"""Behavior tests for the centralized ML-style comparator."""

import pytest

from repro.controllers import ml_central
from repro.controllers.ml_central import CentralizedMLController
from repro.core import SurgeGuardConfig, SurgeGuardController
from repro.exec import spec
from repro.experiments.harness import run_experiment
from tests.controllers.conftest import mini_config


class TestParams:
    def test_defaults_match_cited_properties(self):
        assert ml_central.INTERVAL >= 1.0  # Table I: >1s granularity
        assert ml_central.INFERENCE_DELAY > 0
        assert ml_central.COLLECTION_DELAY > 0

    def test_invalid_params_rejected(self):
        """The latency model is fixed: a stale parameter raises when the
        spec is made."""
        with pytest.raises(TypeError):
            spec("ml-central", interval=0.0)
        with pytest.raises(TypeError):
            spec("ml-central", collection_delay=-1.0)


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
