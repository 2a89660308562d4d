"""Behavior + property tests for the LSRAM plugin.

The headline properties pin the pure solver: every solution is feasible
(budget + floors respected), and the projected gradient descent never
returns an allocation whose objective is worse than the projected
starting point's — on any synthetic latency model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.controllers import lsram
from repro.controllers.lsram import (
    LsramController,
    lower_bounds,
    objective,
    project,
    solve_allocation,
)
from repro.controllers.null import NullController
from repro.exec import spec
from repro.experiments.harness import run_experiment
from tests.controllers.conftest import mini_config


class TestParams:
    def test_defaults_sane(self):
        """The relations the floors and the solver rest on."""
        assert lsram.DEMAND_MARGIN >= 1.0
        assert 0 < lsram.SAT_THRESHOLD < 1
        assert lsram.PROBE_GROWTH > 1.0
        assert 0 < lsram.SLO_MARGIN <= 1.0
        assert 0 < lsram.SMOOTHING <= 1
        assert lsram.MIN_CORES > 0 and lsram.QUANTUM > 0

    def test_invalid_params_rejected(self):
        """The allocator's tunables are constants: a stale spec
        parameter raises when the spec is made, not after profiling."""
        with pytest.raises(TypeError):
            spec("lsram", interval=0.1)
        with pytest.raises(TypeError):
            spec("lsram", demand_margin=1.2)


#: Synthetic per-node models: (current cores, pressure a_i, slo s_i).
_MODELS = st.lists(
    st.tuples(
        st.floats(0.5, 8.0, allow_nan=False),
        st.floats(1e-4, 50e-3, allow_nan=False),
        st.floats(1e-3, 20e-3, allow_nan=False),
    ),
    min_size=1,
    max_size=8,
)


@settings(max_examples=200)
@given(_MODELS, st.floats(2.0, 40.0, allow_nan=False))
def test_solver_feasibility(model, budget):
    """Solutions respect floors always, and the budget whenever the
    floors themselves fit in it."""
    current = [m[0] for m in model]
    pressure = [m[1] for m in model]
    slo = [m[2] for m in model]
    sol = solve_allocation(current, pressure, slo, budget)
    assert len(sol) == len(model)
    for c in sol:
        assert c >= lsram.MIN_CORES - 1e-9
    if len(model) * lsram.MIN_CORES <= budget:
        assert sum(sol) <= budget + 1e-6


@settings(max_examples=200)
@given(_MODELS, st.floats(2.0, 40.0, allow_nan=False))
def test_solver_improves_its_objective(model, budget):
    """PGD never does worse than the projected starting allocation."""
    current = [m[0] for m in model]
    pressure = [m[1] for m in model]
    slo = [m[2] for m in model]
    start = project(current, budget, [lsram.MIN_CORES] * len(model))
    sol = solve_allocation(current, pressure, slo, budget)
    f_start = objective(start, pressure, slo, lsram.ENERGY_WEIGHT)
    f_sol = objective(sol, pressure, slo, lsram.ENERGY_WEIGHT)
    assert f_sol <= f_start + 1e-9


@settings(max_examples=200)
@given(
    st.lists(st.floats(0.0, 10.0, allow_nan=False), min_size=1, max_size=8),
    st.floats(2.0, 40.0, allow_nan=False),
)
def test_lower_bounds_fit_budget(demand, budget):
    """Floors sit at ``max(min_cores, demand·margin)`` and are shrunk
    to the budget whenever ``n·min_cores`` fits at all."""
    lo = lower_bounds(demand, budget)
    for x, d in zip(lo, demand):
        assert x >= lsram.MIN_CORES - 1e-9
        assert x <= max(lsram.MIN_CORES, d * lsram.DEMAND_MARGIN) + 1e-9
    if len(demand) * lsram.MIN_CORES <= budget:
        assert sum(lo) <= budget + 1e-6


@given(_MODELS, st.floats(2.0, 40.0, allow_nan=False))
def test_project_respects_floors_and_budget(model, budget):
    cores = [m[0] for m in model]
    lo = [lsram.MIN_CORES] * len(model)
    proj = project(cores, budget, lo)
    for c in proj:
        assert c >= lsram.MIN_CORES - 1e-9
    if len(model) * lsram.MIN_CORES <= budget:
        assert sum(proj) <= budget + 1e-6


def test_solver_grows_a_violating_service():
    """A service modeled above its SLO attracts cores when the budget
    has room."""
    # a/c = 4 ms on 1 core against a 2 ms SLO: clearly violating.
    sol = solve_allocation([1.0, 4.0], [4e-3, 1e-3], [2e-3, 2e-3], 10.0)
    assert sol[0] > 1.0


def test_solver_reclaims_idle_slack_under_scarcity():
    """With the budget bound, slack above a satisfied service's floor
    feeds the violating one."""
    lo = [0.5, 0.5]
    sol = solve_allocation(
        [1.0, 5.0], [8e-3, 0.5e-3], [2e-3, 2e-3], 6.0, lower=lo
    )
    assert sol[0] > 1.0  # violator grew
    assert sol[1] < 5.0  # satisfied service shrank toward its floor
    assert sum(sol) <= 6.0 + 1e-6


class TestBehavior:
    def test_upscales_under_surge(self):
        cfg = mini_config(LsramController)
        res = run_experiment(cfg)
        assert res.controller_stats.upscale_core_actions > 0

    def test_reduces_vv_vs_static(self):
        static = run_experiment(mini_config(NullController))
        ls = run_experiment(mini_config(LsramController))
        assert ls.violation_volume < static.violation_volume

    def test_allocations_respect_node_budget(self):
        cfg = mini_config(LsramController, cores_per_node=4.0)
        res = run_experiment(cfg)
        assert res.avg_cores <= 4.0 + 1e-9

    def test_lifecycle_guards(self):
        c = LsramController()
        with pytest.raises(RuntimeError):
            c.start()
        res = run_experiment(mini_config(LsramController))
        assert res.controller_name == "lsram"

    def test_quiet_at_steady_state(self):
        cfg = mini_config(LsramController, spike_magnitude=None)
        res = run_experiment(cfg)
        assert res.summary.violation_fraction < 0.05
