"""Behavior + property tests for the StatuScale plugin.

The headline property is **decision monotonicity**: driven by the same
usage history, a service reporting uniformly higher latency never ends
up with fewer cores.  The policy is pure (`plan_decision`), so the
property runs on synthetic sequences without a simulator.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controllers import statuscale
from repro.controllers.null import NullController
from repro.controllers.statuscale import (
    ServiceState,
    StatuScaleController,
    load_status,
    plan_decision,
    upscale_step,
)
from repro.exec import spec
from repro.experiments.harness import run_experiment
from tests.controllers.conftest import mini_config


class TestParams:
    def test_defaults_sane(self):
        """The relations the policy's monotonicity rests on."""
        assert 0 < statuscale.CORE_STEP <= statuscale.MAX_STEP
        assert 0 < statuscale.DOWNSCALE_RATIO < statuscale.UPSCALE_RATIO
        assert 1.0 <= statuscale.HEADROOM <= statuscale.SURGE_HEADROOM
        assert statuscale.SURGE_BOOST >= 1.0
        assert statuscale.WINDOW >= 2 and statuscale.DOWNSCALE_PATIENCE >= 1

    def test_invalid_params_rejected(self):
        """The loop's tunables are constants: a stale spec parameter
        raises when the spec is made, not after the profiling pass."""
        with pytest.raises(TypeError):
            spec("statuscale", interval=0.1)
        with pytest.raises(TypeError):
            spec("statuscale", window=1)


class TestDetector:
    def test_short_windows_are_stable(self):
        assert load_status([]) is False
        assert load_status([1.0]) is False
        assert load_status([1.0, 5.0]) is False

    def test_constant_window_is_stable(self):
        assert load_status([2.0] * 8) is False

    def test_step_change_is_fluctuating(self):
        assert load_status([1.0, 1.0, 1.0, 1.0, 3.0, 3.0]) is True

    def test_steady_ramp_is_fluctuating(self):
        assert load_status([1.0, 1.5, 2.0, 2.5, 3.0]) is True

    @given(
        st.lists(st.floats(0.25, 4.0, allow_nan=False), min_size=3, max_size=12),
        st.integers(-8, 8),
    )
    def test_scale_invariance(self, samples, k):
        """RSD and normalized slope are exactly invariant under
        power-of-two scaling (pure mantissa shifts), so the verdict is
        bit-identical — the detector reads load *shape*, not magnitude."""
        scaled = [s * 2.0**k for s in samples]
        assert load_status(samples) == load_status(scaled)


class TestUpscaleStep:
    def test_zero_below_threshold(self):
        assert upscale_step(1.0, 4.0, False) == 0.0
        assert upscale_step(0.5, 4.0, True) == 0.0

    def test_quantized_and_capped(self):
        grant = upscale_step(1.3, 2.0, False)
        assert grant > 0
        assert grant <= statuscale.MAX_STEP
        steps = grant / statuscale.CORE_STEP
        assert abs(steps - round(steps)) < 1e-9

    def test_fluctuation_boosts(self):
        assert upscale_step(1.2, 2.0, True) >= upscale_step(1.2, 2.0, False)

    @given(
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.0, 5.0, allow_nan=False),
        st.floats(0.5, 20.0, allow_nan=False),
        st.booleans(),
    )
    def test_monotone_in_ratio(self, r1, r2, cores, fluct):
        lo, hi = min(r1, r2), max(r1, r2)
        assert upscale_step(hi, cores, fluct) >= upscale_step(lo, cores, fluct)

    @given(
        st.floats(1.0, 5.0, allow_nan=False),
        st.floats(0.5, 20.0, allow_nan=False),
        st.floats(0.5, 20.0, allow_nan=False),
        st.booleans(),
    )
    def test_monotone_in_cores(self, ratio, c1, c2, fluct):
        lo, hi = min(c1, c2), max(c1, c2)
        assert upscale_step(ratio, hi, fluct) >= upscale_step(ratio, lo, fluct)


#: (usage, low_ratio, extra_ratio) per step: the high-latency run sees
#: ``low_ratio + extra_ratio`` against the same usage trace.
_HISTORIES = st.lists(
    st.tuples(
        st.floats(0.0, 6.0, allow_nan=False),
        st.floats(0.0, 3.0, allow_nan=False),
        st.floats(0.0, 3.0, allow_nan=False),
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200)
@given(_HISTORIES)
def test_decision_monotonicity(history):
    """Uniformly higher latency never yields fewer cores.

    Two copies of the policy replay the same usage trace; one sees a
    pointwise-higher latency/SLO ratio.  Applying every returned delta
    (grants uncapped by any node budget — the policy's own view), the
    high-latency run's allocation must dominate at every step.
    """
    lo_state, hi_state = ServiceState(), ServiceState()
    lo_cores = hi_cores = 1.0
    for usage, ratio, extra in history:
        lo_cores += plan_decision(lo_state, ratio, usage, lo_cores)
        hi_cores += plan_decision(hi_state, ratio + extra, usage, hi_cores)
        assert hi_cores >= lo_cores - 1e-9
        assert lo_cores >= statuscale.MIN_CORES - 1e-9
        assert hi_cores >= statuscale.MIN_CORES - 1e-9


@settings(max_examples=100)
@given(_HISTORIES)
def test_deltas_stay_on_the_actuation_lattice(history):
    """Every delta is a multiple of ``CORE_STEP`` bounded by
    ``MAX_STEP`` — the controller actuates them in quanta."""
    state = ServiceState()
    cores = 1.0
    for usage, ratio, _ in history:
        delta = plan_decision(state, ratio, usage, cores)
        assert abs(delta) <= statuscale.MAX_STEP + 1e-9
        steps = delta / statuscale.CORE_STEP
        assert abs(steps - round(steps)) < 1e-9
        cores += delta


class TestBehavior:
    def test_upscales_under_surge(self):
        res = run_experiment(mini_config(StatuScaleController))
        assert res.controller_stats.upscale_core_actions > 0

    def test_reduces_vv_vs_static(self):
        static = run_experiment(mini_config(NullController))
        scaled = run_experiment(mini_config(StatuScaleController))
        assert scaled.violation_volume < static.violation_volume

    def test_grants_are_budget_bounded(self):
        """On a node with no free cores, sizing up is a no-op, not a
        crash — the helper refuses and the controller moves on."""
        cfg = mini_config(
            StatuScaleController,
            cores_per_node=3.0,  # 2 × 1.5 cores: node starts full
        )
        res = run_experiment(cfg)
        assert res.controller_name == "statuscale"
        assert res.avg_cores <= 3.0 + 1e-9

    def test_lifecycle_guards(self):
        c = StatuScaleController()
        with pytest.raises(RuntimeError):
            c.start()
        res = run_experiment(mini_config(StatuScaleController))
        assert res.controller_name == "statuscale"

    def test_quiet_at_steady_state(self):
        cfg = mini_config(StatuScaleController, spike_magnitude=None)
        res = run_experiment(cfg)
        assert res.summary.violation_fraction < 0.05
