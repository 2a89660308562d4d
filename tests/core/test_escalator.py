"""Behavior tests for the Escalator slow path."""

import pytest

from repro.controllers.targets import TargetConfig
from repro.core import SurgeGuardConfig, SurgeGuardController, config
from repro.core.escalator import Escalator
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
        assert config.SENS_REVOKE_TH == 0.02
        assert cfg.hold_factor == 2.0
        assert config.HOOK_COST == pytest.approx(0.26e-6)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            SurgeGuardConfig(escalator_interval=0.0)
        with pytest.raises(ValueError):
            SurgeGuardConfig(alpha=1.5)
        with pytest.raises(ValueError):
            SurgeGuardConfig(upscale_ttl=-1)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["escalator_interval", "hold_factor"])
    def test_non_finite_timing_rejected(self, field, value):
        """NaN and inf pass a bare ``<= 0`` check; the config must still
        refuse them and name the field (a NaN interval would otherwise
        fail only after profiling, naming the loop method)."""
        with pytest.raises(ValueError, match=f"^{field} must be"):
            SurgeGuardConfig(**{field: value})

    def test_fractional_upscale_ttl_rejected(self):
        """The TTL drops by one per hop, so 1.5 would reach a second hop
        exactly as 2 does."""
        with pytest.raises(ValueError, match="^upscale_ttl must be"):
            SurgeGuardConfig(upscale_ttl=1.5)


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


class TestRegrettedReclaim:
    def test_core_returns_and_cooldown_holds(self, sim, make_cluster):
        """A Parties-style reclaim that provokes a violation is reverted
        at the next cycle, and the container sits out further reclaims
        until ``DOWNSCALE_COOLDOWN_CYCLES`` cycles after the first one."""
        app = make_chain_app(1, pool=None, cores=2.0)
        cluster = make_cluster(app, cores_per_node=8)
        targets = TargetConfig(
            expected_exec_metric={"s0": 4e-3},
            expected_exec_time={"s0": 4e-3},
            expected_time_from_start={"s0": 4e-3},
            qos_target=10e-3,
        )
        esc = Escalator(sim, cluster.node_views[0], SurgeGuardConfig(), targets)
        comfortable, violating = 1e-3, 10e-3  # against a 4 ms envelope

        def cycle(exec_time):
            sim.run(until=sim.now + 0.1)
            cluster.runtimes["s0"].on_complete(exec_time=exec_time, conn_wait=0.0)
            esc.decide()
            return cluster.containers["s0"].cores

        patience = config.DOWNSCALE_PATIENCE
        cooldown = config.DOWNSCALE_COOLDOWN_CYCLES
        assert (patience, cooldown) == (10, 20)
        cores = [cycle(comfortable) for _ in range(patience)]
        assert cores == [2.0] * (patience - 1) + [1.0]
        # The reclaim made s0 violate: the core comes straight back.
        assert cycle(violating) == 2.0
        # While exempt, s0 is left out of the comfort count altogether:
        # its streak restarts ``cooldown`` cycles after the first
        # reclaim, and the next reclaim needs a full patience from there.
        cores = [cycle(comfortable) for _ in range(cooldown + patience - 2)]
        assert cores == [2.0] * (cooldown + patience - 3) + [1.0]
