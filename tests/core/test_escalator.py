"""Behavior tests for the Escalator slow path."""

import pytest

from repro.core import SurgeGuardConfig, SurgeGuardController
from repro.experiments.harness import run_experiment
from tests.conftest import make_chain_app
from tests.controllers.conftest import mini_config


def escalator_only(**cfg_overrides):
    cfg = SurgeGuardConfig(firstresponder=False, **cfg_overrides)
    return lambda: SurgeGuardController(cfg)


class TestConfig:
    def test_defaults_follow_paper(self):
        cfg = SurgeGuardConfig()
        assert cfg.alpha == 0.5
        assert cfg.sens_revoke_th == 0.02
        assert cfg.hold_factor == 2.0
        assert cfg.hook_cost == pytest.approx(0.26e-6)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SurgeGuardConfig(escalator_interval=0.0)
        with pytest.raises(ValueError):
            SurgeGuardConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SurgeGuardConfig(queue_th=0.5)
        with pytest.raises(ValueError):
            SurgeGuardConfig(upscale_ttl=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "field",
        ["hook_cost", "enqueue_cost", "msr_cost", "stamp_duration", "hold_factor"],
    )
    def test_non_finite_timing_rejected(self, field, value):
        """NaN passes a bare ``x < 0`` check; the config must still refuse it."""
        with pytest.raises(ValueError, match=field):
            SurgeGuardConfig(**{field: value})


class TestSurgeResponse:
    def test_beats_static_on_surge(self):
        from repro.controllers.null import NullController

        static = run_experiment(mini_config(NullController))
        esc = run_experiment(mini_config(escalator_only()))
        assert esc.violation_volume < 0.5 * static.violation_volume

    def test_upscales_downstream_through_hidden_queue(self):
        """The Fig. 5(c) behavior on a pooled chain: the downstream
        container gains cores even though only the upstream one shows a
        raw execTime explosion."""
        app = make_chain_app(2, work=1.6e6, pool=3, cores=1.5, deterministic=False)
        cfg = mini_config(
            escalator_only(),
            app=app,
            workload="mini-esc-hidden",
            spike_magnitude=3.0,
        )
        res = run_experiment(cfg)
        peak = {"s0": 1.5, "s1": 1.5}
        for t, name, cores in res.alloc_events:
            if t > 0:
                peak[name] = max(peak[name], cores)
        assert peak["s1"] > 1.5, "downstream container was never upscaled"

    def test_no_metrics_mode_misses_downstream(self):
        """Ablation arm sanity: with use_new_metrics=False the downstream
        container of a *hard-pooled* chain gets nothing (Fig. 5b)."""
        app = make_chain_app(2, work=1.6e6, pool=3, cores=1.5, deterministic=False)
        cfg = mini_config(
            escalator_only(use_new_metrics=False, use_sensitivity=False),
            app=app,
            workload="mini-esc-blind",
            spike_magnitude=3.0,
        )
        res = run_experiment(cfg)
        s1_peak = max(
            [c for t, n, c in res.alloc_events if n == "s1" and t > 0],
            default=1.5,
        )
        # s1's own execMetric stays within envelope (pool shields it), so
        # the blind controller leaves it alone while s0 balloons.
        s0_peak = max(
            [c for t, n, c in res.alloc_events if n == "s0" and t > 0],
            default=1.5,
        )
        assert s0_peak > s1_peak

    def test_quiet_at_steady_state(self):
        cfg = mini_config(escalator_only(), spike_magnitude=None)
        res = run_experiment(cfg)
        assert res.summary.violation_fraction < 0.05
        assert res.controller_stats.upscale_core_actions < 10


class TestStampPlumbing:
    def test_queue_violation_stamps_runtime(self, sim, make_cluster):
        """A queueBuildup violation must mark outgoing packets (Table II
        row 2: 'set pkt.upscale')."""
        from repro.controllers.targets import TargetConfig
        from repro.core.escalator import Escalator

        app = make_chain_app(3, pool=2)
        cluster = make_cluster(app)
        targets = TargetConfig(
            expected_exec_metric={n: 10e-3 for n in app.service_names},
            expected_exec_time={n: 10e-3 for n in app.service_names},
            expected_time_from_start={n: 10e-3 for n in app.service_names},
            qos_target=20e-3,
        )
        esc = Escalator(
            sim, cluster.node_views[0], SurgeGuardConfig(), targets
        )
        # Inject a fabricated queue-buildup window at s0.
        cluster.runtimes["s0"].on_arrival(1e-3, 0)
        cluster.runtimes["s0"].on_complete(exec_time=30e-3, conn_wait=25e-3)
        esc.decide()
        assert cluster.runtimes["s0"].stamp_active
        # Same-node downstream got direct score credit.
        assert esc.last_scores["s1"] >= 1
        assert esc.last_scores["s2"] >= 1

    def test_exec_violation_scores_self_only(self, sim, make_cluster):
        from repro.controllers.targets import TargetConfig
        from repro.core.escalator import Escalator

        app = make_chain_app(2, pool=4)
        cluster = make_cluster(app)
        targets = TargetConfig(
            expected_exec_metric={n: 10e-3 for n in app.service_names},
            expected_exec_time={n: 10e-3 for n in app.service_names},
            expected_time_from_start={n: 10e-3 for n in app.service_names},
            qos_target=20e-3,
        )
        esc = Escalator(sim, cluster.node_views[0], SurgeGuardConfig(), targets)
        cluster.runtimes["s0"].on_complete(exec_time=30e-3, conn_wait=0.0)
        esc.decide()
        assert esc.last_scores["s0"] == 1
        assert esc.last_scores["s1"] == 0
        assert not cluster.runtimes["s0"].stamp_active
