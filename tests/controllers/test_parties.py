"""Behavior tests for the Parties baseline."""

import pytest

from repro.controllers import parties
from repro.controllers.parties import PartiesController
from repro.controllers.targets import TargetConfig
from repro.exec import spec
from repro.experiments.harness import run_experiment
from tests.conftest import make_chain_app
from tests.controllers.conftest import mini_config


class TestParams:
    def test_defaults_follow_paper(self):
        assert PartiesController().interval == 0.5  # Table I
        assert parties.CORE_STEP == 1.0  # both hyperthreads together (§V)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            PartiesController(interval=0.0)
        # The FSM's thresholds are constants: a stale spec parameter
        # raises when the spec is made.
        with pytest.raises(TypeError):
            spec("parties", violation_slack=0.5, comfort_slack=0.3)
        with pytest.raises(TypeError):
            spec("parties", downscale_patience=0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_bad_interval_names_its_field(self, value):
        """NaN and inf pass a bare ``<= 0`` check; the run would fail
        only after profiling, in a message naming the loop method."""
        with pytest.raises(ValueError, match="^interval must be"):
            PartiesController(interval=value)


class TestRegrettedReclaim:
    def test_core_returns_and_cooldown_holds(self, sim, make_cluster):
        """A reclaim that provokes a violation is reverted at the next
        interval, and the container is exempt from reclaim until
        ``DOWNSCALE_COOLDOWN_INTERVALS`` intervals after the first one."""
        app = make_chain_app(2, pool=None, cores=1.5)
        cluster = make_cluster(app, cores_per_node=3.0)  # no spare core
        targets = TargetConfig(
            expected_exec_metric={n: 4e-3 for n in app.service_names},
            expected_exec_time={n: 4e-3 for n in app.service_names},
            expected_time_from_start={n: 4e-3 for n in app.service_names},
            qos_target=10e-3,
        )
        ctrl = PartiesController()
        ctrl.attach(sim, cluster, targets)
        ctrl.start()
        comfortable, violating = 1e-3, 10e-3

        def interval(s1_exec_time):
            # s0 violates every interval, so Parties looks for a core to
            # take from its comfortable neighbour s1.
            cluster.runtimes["s0"].on_complete(exec_time=violating, conn_wait=0.0)
            cluster.runtimes["s1"].on_complete(exec_time=s1_exec_time, conn_wait=0.0)
            ctrl._decide()
            return cluster.containers["s1"].cores

        patience = parties.DOWNSCALE_PATIENCE
        cooldown = parties.DOWNSCALE_COOLDOWN_INTERVALS
        assert (patience, cooldown) == (3, 10)
        cores = [interval(comfortable) for _ in range(patience)]
        assert cores == [1.5] * (patience - 1) + [0.5]
        # The reclaim made s1 violate: the core comes straight back.
        assert interval(violating) == 1.5
        # s1 rebuilds its comfort streak while exempt, so the next
        # reclaim lands exactly ``cooldown`` intervals after the first.
        cores = [interval(comfortable) for _ in range(cooldown - 1)]
        assert cores == [1.5] * (cooldown - 2) + [0.5]


class TestBehavior:
    def test_upscales_under_surge(self):
        cfg = mini_config(lambda: PartiesController(interval=0.1))
        res = run_experiment(cfg)
        assert res.controller_stats.upscale_core_actions > 0

    def test_reduces_vv_vs_static(self):
        from repro.controllers.null import NullController

        static = run_experiment(mini_config(NullController))
        scaled = run_experiment(mini_config(lambda: PartiesController(interval=0.1)))
        assert scaled.violation_volume < static.violation_volume

    def test_one_upscale_per_interval(self):
        cfg = mini_config(lambda: PartiesController(interval=0.25))
        res = run_experiment(cfg)
        # Upscales bounded by decision cycles (one adjustment per cycle).
        assert (
            res.controller_stats.upscale_core_actions
            <= res.controller_stats.decision_cycles
        )

    def test_quiet_at_steady_state(self):
        """Without surges Parties should neither thrash nor violate."""
        cfg = mini_config(
            lambda: PartiesController(interval=0.1),
            spike_magnitude=None,
        )
        res = run_experiment(cfg)
        # Occasional lognormal work tails may graze the QoS line, but
        # there is no sustained violation and no allocation thrash.
        assert res.summary.violation_fraction < 0.05
        assert res.controller_stats.total_actions < 30

    def test_lifecycle_guards(self):
        c = PartiesController()
        with pytest.raises(RuntimeError):
            c.start()
        cfg = mini_config(PartiesController)
        res = run_experiment(cfg)  # full lifecycle works
        assert res.controller_name == "parties"
