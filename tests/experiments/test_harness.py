"""Tests for the profiling + measured-run harness."""

import dataclasses

import pytest

from repro.controllers.null import NullController
from repro.experiments.harness import (
    ExperimentConfig,
    profile_targets,
    run_experiment,
)
from tests.controllers.conftest import mini_config


class TestProfiling:
    def test_targets_cover_every_service(self):
        cfg = mini_config(NullController)
        targets = profile_targets(cfg)
        names = set(cfg.resolved_app().service_names)
        assert set(targets.expected_exec_metric) == names
        assert set(targets.expected_exec_time) == names
        assert set(targets.expected_time_from_start) == names

    def test_targets_are_2x_profiled(self):
        """The paper's '2× the values measured at low load' recipe: the
        targets must sit clearly above the low-load values and scale
        with the multiplier."""
        cfg = mini_config(NullController)
        t2 = profile_targets(cfg)
        t3 = profile_targets(dataclasses.replace(cfg, target_multiplier=3.0))
        for n in t2.expected_exec_metric:
            assert t3.expected_exec_metric[n] == pytest.approx(
                1.5 * t2.expected_exec_metric[n]
            )

    def test_qos_scales_with_multiplier(self):
        cfg = mini_config(NullController)
        q2 = profile_targets(cfg).qos_target
        q4 = profile_targets(
            dataclasses.replace(cfg, qos_multiplier=5.0)
        ).qos_target
        assert q4 == pytest.approx(2.0 * q2)

    def test_profile_memoized(self):
        cfg = mini_config(NullController)
        a = profile_targets(cfg)
        b = profile_targets(dataclasses.replace(cfg, seed=cfg.seed + 99))
        assert a is b  # seed does not affect the profiling cache key

    def test_exec_time_target_geq_exec_metric_target(self):
        cfg = mini_config(NullController)
        t = profile_targets(cfg)
        for n in t.expected_exec_time:
            assert t.expected_exec_time[n] >= t.expected_exec_metric[n]

    def test_custom_app_requires_base_rate(self):
        from tests.conftest import make_chain_app

        cfg = ExperimentConfig(workload="x", app=make_chain_app(2), base_rate=None)
        with pytest.raises(ValueError):
            cfg.resolved_rate()


@pytest.mark.parametrize(
    "name, value",
    [
        ("duration", 0.0),
        ("duration", -1.0),
        ("duration", float("nan")),
        ("profile_duration", 0.0),
        ("profile_duration", float("inf")),
        ("warmup", -0.5),
        ("warmup", float("nan")),
        ("drain", -5.0),
        ("drain", float("inf")),
    ],
)
def test_bad_run_length_rejected_at_construction(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        ExperimentConfig(workload="chain", **{name: value})


@pytest.mark.parametrize(
    "name, value",
    [
        ("replicas", 0),
        ("replicas", -2),
        ("replica_capacity", 0),
        ("replica_capacity", -3),
        ("n_nodes", 0),
        ("lb_policy", "bogus"),
        ("placement", "bogus"),
        ("pacing", "bogus"),
    ],
)
def test_bad_topology_rejected_at_construction(name, value):
    """Fails at construction, naming the field, not deep in the run."""
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        ExperimentConfig(workload="chain", **{name: value})


class TestMeasuredRun:
    def test_measurement_window_excludes_warmup(self):
        cfg = mini_config(NullController)
        res = run_experiment(cfg)
        assert res.latency_trace[:, 0].min() >= cfg.warmup

    def test_spikeless_run_has_no_spikes(self):
        cfg = mini_config(NullController, spike_magnitude=None)
        res = run_experiment(cfg)
        assert res.summary.violation_fraction < 0.05

    def test_avg_cores_for_static_controller(self):
        cfg = mini_config(NullController)
        res = run_experiment(cfg)
        initial_total = sum(
            s.initial_cores for s in cfg.resolved_app().services
        )
        assert res.avg_cores == pytest.approx(initial_total)

    def test_energy_positive_and_scales_with_window(self):
        short = run_experiment(mini_config(NullController, duration=2.0))
        long = run_experiment(mini_config(NullController, duration=4.0))
        assert 0 < short.energy < long.energy

    def test_registry_workload_resolution(self):
        cfg = ExperimentConfig(workload="chain")
        assert cfg.resolved_rate() == 1800.0
        assert cfg.resolved_app().name == "CHAIN"

    def test_default_run_records_initial_allocations(self):
        cfg = mini_config(NullController)
        res = run_experiment(cfg)
        services = cfg.resolved_app().services
        # The null controller changes nothing after deployment.
        assert res.alloc_events == [(0.0, s.name, s.initial_cores) for s in services]
        assert [name for _, name, _ in res.freq_events] == ["s0", "s1"]

    def test_explicit_targets_bypass_profiling(self):
        cfg = mini_config(NullController)
        targets = profile_targets(cfg)
        res = run_experiment(cfg, targets=targets)
        assert res.targets is targets
