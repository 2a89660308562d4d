"""Unit tests for task-graph specifications."""

import math

import numpy as np
import pytest

from repro.services.taskgraph import AppSpec, EdgeSpec, ServiceSpec, WorkDist
from repro.sim.rng import BLOCK, block_draws


class TestWorkDist:
    def test_deterministic_returns_mean(self):
        rng = np.random.default_rng(0)
        d = WorkDist(1000.0, "deterministic")
        assert all(d.sample(rng) == 1000.0 for _ in range(5))

    def test_zero_mean_always_zero(self):
        rng = np.random.default_rng(0)
        assert WorkDist(0.0, "lognormal").sample(rng) == 0.0

    def test_exponential_mean_approx(self):
        rng = np.random.default_rng(0)
        d = WorkDist(1000.0, "exponential")
        xs = [d.sample(rng) for _ in range(4000)]
        assert np.mean(xs) == pytest.approx(1000.0, rel=0.1)

    def test_lognormal_mean_and_cv(self):
        rng = np.random.default_rng(0)
        d = WorkDist(1000.0, "lognormal", cv=0.25)
        xs = np.array([d.sample(rng) for _ in range(4000)])
        assert xs.mean() == pytest.approx(1000.0, rel=0.05)
        assert xs.std() / xs.mean() == pytest.approx(0.25, rel=0.15)

    def test_samples_nonnegative(self):
        rng = np.random.default_rng(1)
        for dist in ("deterministic", "exponential", "lognormal"):
            d = WorkDist(500.0, dist)
            assert all(d.sample(rng) >= 0 for _ in range(100))

    def test_mean_time(self):
        assert WorkDist(1.6e6).mean_time(1.6e9) == pytest.approx(1e-3)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            WorkDist(-1.0)
        with pytest.raises(ValueError):
            WorkDist(1.0, "weird")
        with pytest.raises(ValueError):
            WorkDist(1.0, cv=-0.5)
        with pytest.raises(ValueError):
            WorkDist(1.0).mean_time(0.0)

    @pytest.mark.parametrize("field", ["mean_cycles", "cv"])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_rejected_with_field_name(self, field, value):
        # An infinite mean used to surface deep in a run as an invalid
        # event delay; it must fail here, naming the field.
        kwargs = {"mean_cycles": 1e6, "cv": 0.25, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            WorkDist(**kwargs)


def scalar_draw(d: WorkDist, rng: np.random.Generator) -> float:
    """One draw the way numpy's per-call distributions make it."""
    if d.dist == "exponential":
        return float(rng.exponential(d.mean_cycles))
    cv = max(d.cv, 1e-9)
    sigma2 = np.log1p(cv * cv)
    return float(rng.lognormal(np.log(d.mean_cycles) - 0.5 * sigma2, np.sqrt(sigma2)))


class TestSampler:
    """Block-drawn standard variates reproduce numpy's scalar calls bit for bit."""

    @pytest.mark.parametrize(
        "d",
        [
            WorkDist(2.4e6, "lognormal", cv=0.4),
            WorkDist(3e5, "lognormal", cv=0.0),
            WorkDist(1e6, "exponential"),
        ],
        ids=["lognormal", "lognormal-cv0", "exponential"],
    )
    def test_block_draws_match_scalar_calls(self, d):
        n = 2 * BLOCK + 17  # three refills
        blocked = d.sampler(block_draws(getattr(np.random.default_rng(11), d.variate)))
        scalar = np.random.default_rng(11)
        assert [blocked() for _ in range(n)] == [scalar_draw(d, scalar) for _ in range(n)]

    @pytest.mark.parametrize("dist", ["lognormal", "exponential"])
    def test_sample_matches_scalar_calls(self, dist):
        d = WorkDist(7e5, dist)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert [d.sample(a) for _ in range(50)] == [scalar_draw(d, b) for _ in range(50)]

    @pytest.mark.parametrize(
        "d", [WorkDist(0.0), WorkDist(0.0, "exponential"), WorkDist(5e5, "deterministic")]
    )
    def test_zero_and_deterministic_draw_nothing(self, d):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        assert d.variate is None
        assert d.sampler(None)() == d.mean_cycles
        assert d.sample(rng) == d.mean_cycles
        assert rng.bit_generator.state == before


def svc(name, children=(), fanout="sequential"):
    return ServiceSpec(
        name,
        pre_work=WorkDist(1e6),
        children=tuple(EdgeSpec(c) for c in children),
        fanout=fanout,
    )


class TestAppSpec:
    def test_depth_of_chain(self):
        app = AppSpec(
            "a", "x",
            (svc("r", ["m"]), svc("m", ["l"]), svc("l")),
            root="r", qos_target=1.0,
        )
        assert app.depth == 3
        assert app.depths() == {"r": 1, "m": 2, "l": 3}

    def test_depth_takes_longest_path(self):
        app = AppSpec(
            "a", "x",
            (svc("r", ["s", "d1"]), svc("s"), svc("d1", ["d2"]), svc("d2")),
            root="r", qos_target=1.0,
        )
        assert app.depth == 3

    def test_downstream_of(self):
        app = AppSpec(
            "a", "x",
            (svc("r", ["m"]), svc("m", ["l1", "l2"]), svc("l1"), svc("l2")),
            root="r", qos_target=1.0,
        )
        assert set(app.downstream_of("r")) == {"m", "l1", "l2"}
        assert set(app.downstream_of("m")) == {"l1", "l2"}
        assert app.downstream_of("l1") == []

    def test_cycle_detected(self):
        with pytest.raises(ValueError, match="cycle"):
            AppSpec(
                "a", "x",
                (svc("r", ["m"]), svc("m", ["r"])),
                root="r", qos_target=1.0,
            )

    def test_unknown_child_rejected(self):
        with pytest.raises(ValueError, match="unknown child"):
            AppSpec("a", "x", (svc("r", ["ghost"]),), root="r", qos_target=1.0)

    def test_unknown_root_rejected(self):
        with pytest.raises(ValueError, match="root"):
            AppSpec("a", "x", (svc("r"),), root="ghost", qos_target=1.0)

    def test_duplicate_service_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            AppSpec("a", "x", (svc("r"), svc("r")), root="r", qos_target=1.0)

    def test_duplicate_child_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate child"):
            ServiceSpec(
                "r",
                pre_work=WorkDist(1e6),
                children=(EdgeSpec("c"), EdgeSpec("c")),
            )

    def test_pool_labels(self):
        pooled = AppSpec(
            "a", "x",
            (
                ServiceSpec("r", WorkDist(1e6), (EdgeSpec("l", 512),)),
                svc("l"),
            ),
            root="r", qos_target=1.0,
        )
        assert pooled.uses_fixed_pools
        assert pooled.threadpool_label == "512"
        unpooled = AppSpec(
            "a", "x", (svc("r", ["l"]), svc("l")), root="r", qos_target=1.0
        )
        assert not unpooled.uses_fixed_pools
        assert unpooled.threadpool_label == "inf"

    def test_service_lookup(self):
        app = AppSpec("a", "x", (svc("r"),), root="r", qos_target=1.0)
        assert app.service("r").name == "r"
        with pytest.raises(KeyError):
            app.service("ghost")

    def test_invalid_fanout_rejected(self):
        with pytest.raises(ValueError):
            ServiceSpec("s", WorkDist(1e6), fanout="diagonal")

    def test_invalid_pool_size_rejected(self):
        with pytest.raises(ValueError):
            EdgeSpec("c", 0)

    @pytest.mark.parametrize("size", [math.nan, 2.5, math.inf, True])
    def test_pool_size_must_be_an_int(self, size):
        # A NaN pool never grants a connection and 2.5 grants three: both
        # used to be accepted and fail or mislead only in the run.
        with pytest.raises(ValueError, match="^pool_size must be"):
            EdgeSpec("c", size)

    @pytest.mark.parametrize("cores", [math.nan, math.inf])
    def test_initial_cores_must_be_finite(self, cores):
        with pytest.raises(ValueError, match="^initial_cores must be"):
            ServiceSpec("s", WorkDist(1e6), initial_cores=cores)
