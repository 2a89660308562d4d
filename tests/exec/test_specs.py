"""Tests for the named controller-spec table."""

import pickle

import pytest

from repro.controllers.parties import PartiesController
from repro.core.surgeguard import SurgeGuardController
from repro.exec.specs import ControllerSpec, available_specs, spec


class TestSpecConstruction:
    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown controller spec"):
            spec("no-such-controller")

    def test_known_names_present(self):
        names = available_specs()
        for expected in ("parties", "caladan", "surgeguard", "escalator", "null"):
            assert expected in names

    def test_params_are_order_insensitive(self):
        a = spec("parties", interval=0.25, core_step=2.0)
        b = spec("parties", core_step=2.0, interval=0.25)
        assert a == b
        assert hash(a) == hash(b)

    def test_unregistered_spec_fails_at_build_time(self):
        s = ControllerSpec("ghost")
        with pytest.raises(ValueError, match="unknown controller spec"):
            s()


class TestSpecBuild:
    def test_builds_fresh_instances(self):
        s = spec("parties")
        a, b = s(), s()
        assert isinstance(a, PartiesController)
        assert a is not b

    def test_params_route_into_controller(self):
        ctrl = spec("parties", interval=0.25)()
        assert ctrl.params.interval == 0.25

    def test_escalator_is_surgeguard_without_fast_path(self):
        ctrl = spec("escalator")()
        assert isinstance(ctrl, SurgeGuardController)
        assert ctrl.config.firstresponder is False

    def test_surgeguard_params_route_into_config(self):
        ctrl = spec("surgeguard", escalator_interval=0.5, alpha=0.7)()
        assert ctrl.config.escalator_interval == 0.5
        assert ctrl.config.alpha == 0.7

    def test_bad_param_name_raises_at_build(self):
        s = spec("surgeguard", not_a_knob=1)
        with pytest.raises(TypeError):
            s()


class TestSpecPickling:
    def test_roundtrip_preserves_identity(self):
        s = spec("surgeguard", firstresponder=False)
        clone = pickle.loads(pickle.dumps(s))
        assert clone == s
        assert clone().config.firstresponder is False

    def test_spec_inside_experiment_config_pickles(self):
        from repro.experiments.harness import ExperimentConfig

        cfg = ExperimentConfig(
            workload="chain", controller_factory=spec("parties")
        )
        clone = pickle.loads(pickle.dumps(cfg))
        assert isinstance(clone.controller_factory(), PartiesController)


class TestZooSpecs:
    """The PR-9 plugin controllers ride the same spec machinery."""

    def test_zoo_names_present(self):
        names = available_specs()
        assert "statuscale" in names
        assert "lsram" in names

    def test_statuscale_params_route(self):
        from repro.controllers.statuscale import StatuScaleController

        ctrl = spec("statuscale", interval=0.1, headroom=1.5)()
        assert isinstance(ctrl, StatuScaleController)
        assert ctrl.params.interval == 0.1
        assert ctrl.params.headroom == 1.5

    def test_lsram_params_route(self):
        from repro.controllers.lsram import LsramController

        ctrl = spec("lsram", interval=0.1, demand_margin=1.2)()
        assert isinstance(ctrl, LsramController)
        assert ctrl.params.interval == 0.1
        assert ctrl.params.demand_margin == 1.2

    def test_zoo_specs_pickle_roundtrip(self):
        for name in ("statuscale", "lsram"):
            s = spec(name, interval=0.2)
            clone = pickle.loads(pickle.dumps(s))
            assert clone == s
            assert clone().params.interval == 0.2

    def test_bad_zoo_param_raises_at_build(self):
        s = spec("lsram", not_a_knob=3)
        with pytest.raises(TypeError):
            s()

