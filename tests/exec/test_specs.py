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
        a = spec("hpa", interval=0.25, launch_delay=1.0)
        b = spec("hpa", launch_delay=1.0, interval=0.25)
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
        assert ctrl.interval == 0.25

    def test_escalator_is_surgeguard_without_fast_path(self):
        ctrl = spec("escalator")()
        assert isinstance(ctrl, SurgeGuardController)
        assert ctrl.config.firstresponder is False

    def test_surgeguard_params_route_into_config(self):
        ctrl = spec("surgeguard", escalator_interval=0.5, alpha=0.7)()
        assert ctrl.config.escalator_interval == 0.5
        assert ctrl.config.alpha == 0.7

    def test_bad_param_name_raises_at_build(self):
        """``spec()`` builds the controller once, so a parameter the
        controller does not take raises before any run starts."""
        with pytest.raises(TypeError):
            spec("surgeguard", not_a_knob=1)

    @pytest.mark.parametrize(
        "name, field, value",
        [
            ("surgeguard", "escalator_interval", float("nan")),
            ("parties", "interval", float("inf")),
            ("hybrid", "max_replicas", 2.5),
        ],
    )
    def test_bad_param_value_raises_at_build(self, name, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            spec(name, **{field: value})


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

    def test_zoo_specs_pickle_roundtrip(self):
        from repro.controllers.lsram import LsramController
        from repro.controllers.statuscale import StatuScaleController

        zoo = (("statuscale", StatuScaleController), ("lsram", LsramController))
        for name, cls in zoo:
            s = spec(name)
            clone = pickle.loads(pickle.dumps(s))
            assert clone == s
            assert isinstance(clone(), cls)

    def test_bad_zoo_param_raises_at_build(self):
        """The zoo controllers take no parameters: a stale one raises
        when the spec is made."""
        for name in ("statuscale", "lsram"):
            with pytest.raises(TypeError):
                spec(name, interval=0.1)

