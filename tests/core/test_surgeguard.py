"""Tests for the assembled SurgeGuard controller, including the
decentralization contract."""

import pytest

from repro.controllers.null import NullController
from repro.controllers.parties import PartiesController
from repro.core import SurgeGuardConfig, SurgeGuardController
from repro.experiments.harness import run_experiment
from tests.conftest import make_chain_app
from tests.controllers.conftest import mini_config


class TestAssembly:
    def test_one_unit_pair_per_node(self, sim, make_cluster):
        from repro.controllers.targets import TargetConfig

        app = make_chain_app(4)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=8)
        targets = TargetConfig(
            expected_exec_metric={n: 1e-3 for n in app.service_names},
            expected_exec_time={n: 1e-3 for n in app.service_names},
            expected_time_from_start={n: 1e-3 for n in app.service_names},
            qos_target=10e-3,
        )
        ctrl = SurgeGuardController()
        ctrl.attach(sim, cluster, targets)
        assert len(ctrl.escalators) == 2
        assert len(ctrl.firstresponders) == 2

    def test_fr_disabled_by_config(self, sim, make_cluster):
        from repro.controllers.targets import TargetConfig

        app = make_chain_app(2)
        cluster = make_cluster(app, cores_per_node=8)
        targets = TargetConfig(
            expected_exec_metric={n: 1e-3 for n in app.service_names},
            expected_exec_time={n: 1e-3 for n in app.service_names},
            expected_time_from_start={n: 1e-3 for n in app.service_names},
            qos_target=10e-3,
        )
        ctrl = SurgeGuardController(SurgeGuardConfig(firstresponder=False))
        ctrl.attach(sim, cluster, targets)
        assert ctrl.firstresponders == []


class TestDecentralization:
    def test_core_package_never_imports_global_cluster_handle(self):
        """Escalator/FirstResponder must consume NodeView only — the
        structural decentralization claim (Fig. 1)."""
        import inspect

        import repro.core.escalator as esc
        import repro.core.firstresponder as fr

        for mod in (esc, fr):
            src = inspect.getsource(mod)
            assert "Cluster(" not in src
            assert "cluster.containers" not in src
            assert "node_views" not in src

    def test_escalator_touches_only_local_containers(self, sim, make_cluster):
        """On a 2-node cluster, each Escalator's actions land only on its
        own node's containers."""
        from repro.controllers.targets import TargetConfig
        from repro.core.escalator import Escalator

        app = make_chain_app(4)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=8)
        targets = TargetConfig(
            expected_exec_metric={n: 1e-3 for n in app.service_names},
            expected_exec_time={n: 1e-3 for n in app.service_names},
            expected_time_from_start={n: 1e-3 for n in app.service_names},
            qos_target=10e-3,
        )
        view0 = cluster.node_views[0]
        esc = Escalator(sim, view0, SurgeGuardConfig(), targets)
        remote = [
            n for n in app.service_names if n not in view0.container_names
        ]
        before = {n: cluster.containers[n].cores for n in remote}
        # Force every local container into violation and decide.
        for n in view0.container_names:
            cluster.runtimes[n].on_complete(1.0, 0.9)
        esc.decide()
        after = {n: cluster.containers[n].cores for n in remote}
        assert before == after


class TestEndToEnd:
    def test_beats_parties_on_long_surge(self):
        parties = run_experiment(
            mini_config(lambda: PartiesController(interval=0.1))
        )
        sg = run_experiment(mini_config(SurgeGuardController))
        assert sg.violation_volume < parties.violation_volume

    def test_beats_static_heavily(self):
        static = run_experiment(mini_config(NullController))
        sg = run_experiment(mini_config(SurgeGuardController))
        assert sg.violation_volume < 0.25 * static.violation_volume

    def test_diagnostic_counters_populate(self):
        res = run_experiment(mini_config(SurgeGuardController))
        assert res.fast_path_packets > 0
        assert res.controller_stats.decision_cycles > 0

    def test_seed_reproducibility(self):
        a = run_experiment(mini_config(SurgeGuardController, seed=5))
        b = run_experiment(mini_config(SurgeGuardController, seed=5))
        assert a.violation_volume == b.violation_volume
        assert a.avg_cores == b.avg_cores
        assert a.energy == b.energy
