"""Behavior tests for the CaladanAlgo baseline."""

import pytest

from repro.controllers import caladan
from repro.controllers.caladan import CaladanController
from repro.exec import spec
from repro.experiments.harness import run_experiment
from tests.conftest import make_chain_app
from tests.controllers.conftest import mini_config


class TestParams:
    def test_hyperthread_granularity(self):
        assert caladan.CORE_STEP == 0.5  # §V

    def test_invalid_params_rejected(self):
        """The port takes no settings: a stale parameter raises when
        the spec is made, not after the profiling pass."""
        with pytest.raises(TypeError):
            spec("caladan", interval=0.0)
        with pytest.raises(TypeError):
            spec("caladan", yield_patience=5)


class TestBehavior:
    def test_grants_on_queue_buildup(self):
        """Fixed pools ⇒ queueBuildup signal ⇒ Caladan grants cores."""
        res = run_experiment(mini_config(CaladanController))
        assert res.controller_stats.upscale_core_actions > 0

    def test_blind_to_conn_per_request_surges(self):
        """The paper's key Caladan failure: no implicit queues ⇒
        queueBuildup ≈ 1 ⇒ no upscaling at all during the surge."""
        app = make_chain_app(2, work=1.6e6, pool=None, cores=1.5, deterministic=False)
        cfg = mini_config(CaladanController, app=app, workload="mini-cpr")
        res = run_experiment(cfg)
        assert res.controller_stats.upscale_core_actions == 0
        assert res.violation_volume > 0  # the surge hurt and nothing reacted

    def test_yields_idle_cores(self):
        """Over-provisioned container at trivial load loses hyperthreads."""
        app = make_chain_app(1, work=0.4e6, pool=None, cores=4.0)
        cfg = mini_config(
            CaladanController,
            app=app,
            workload="mini-idle",
            base_rate=100.0,
            spike_magnitude=None,
        )
        res = run_experiment(cfg)
        assert res.controller_stats.downscale_core_actions > 0

    def test_does_not_yield_busy_cores(self):
        app = make_chain_app(1, work=1.6e6, pool=None, cores=1.5)
        cfg = mini_config(
            CaladanController,
            app=app,
            workload="mini-busy",
            base_rate=1200.0,  # demand ≈ 1.2 of 1.5 cores
            spike_magnitude=None,
        )
        res = run_experiment(cfg)
        # The loaded period must not be stripped; the post-injection
        # drain second may legitimately yield once or twice as the
        # container goes idle.
        assert res.controller_stats.downscale_core_actions <= 2

    def test_fine_decision_interval(self):
        res = run_experiment(mini_config(CaladanController))
        # 10ms interval over ≥6.5s of run time.
        assert res.controller_stats.decision_cycles >= 500
