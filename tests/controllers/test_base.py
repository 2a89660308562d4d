"""The controller skeleton (:mod:`repro.controllers.base`): the declared
decision loops' lifecycle, over every registered spec and the oracle,
and the counted actuation functions every policy moves cores and
frequencies through."""

import math

import pytest

from repro.controllers.base import (
    Controller,
    ControllerStats,
    set_cores,
    set_frequency,
    step_cores,
    step_frequency,
)
from repro.controllers.oracle import OracleController
from repro.controllers.targets import TargetConfig
from repro.exec.specs import available_specs, spec
from repro.workload.arrivals import RateSchedule, Spike
from tests.conftest import make_chain_app


def _targets(app):
    return TargetConfig(
        expected_exec_metric={n: 1e-3 for n in app.service_names},
        expected_exec_time={n: 1e-3 for n in app.service_names},
        expected_time_from_start={n: 1e-3 for n in app.service_names},
        qos_target=10e-3,
    )


def _count_loop_calls(ctrl):
    """Shadow every declared loop method with a call recorder, the way
    the fault injector's stall gate does; returns ``(interval, times)``
    per loop."""
    calls = []
    for interval, unit, method in ctrl.loops():
        times = []
        original = getattr(unit, method)

        def recorded(original=original, times=times):
            times.append(ctrl.sim.now)
            original()

        setattr(unit, method, recorded)
        calls.append((interval, times))
    return calls


def _stop_and_run_on(sim, ctrl, until):
    """Stop ``ctrl``, check that nothing it scheduled is still live, and
    that no decision or action lands over the run-on to ``until``."""
    ctrl.stop()
    assert sim.live_events_pending == 0
    counts = (ctrl.stats.decision_cycles, ctrl.stats.total_actions)
    sim.run(until=until)
    assert (ctrl.stats.decision_cycles, ctrl.stats.total_actions) == counts


class _Ticker(Controller):
    """One loop that records its tick times (and may stop itself)."""

    name = "ticker"

    def __init__(self, interval=0.5, stop_after=None):
        super().__init__()
        self.interval = interval
        self.stop_after = stop_after
        self.times = []

    def loops(self):
        return [(self.interval, self, "_decide")]

    def _decide(self):
        self.times.append(self.sim.now)
        if len(self.times) == self.stop_after:
            self.stop()


@pytest.fixture
def ticker(sim, small_cluster, small_app):
    def _make(**kw):
        ctrl = _Ticker(**kw)
        ctrl.attach(sim, small_cluster, _targets(small_app))
        return ctrl

    return _make


class TestLoopLifecycle:
    """Every spec and the oracle, on a small two-node cluster without
    traffic: ``stop()`` cancels everything the controller scheduled,
    declared loops and in-flight steps alike, so no event stays live."""

    HORIZON = 4.005  # no loop interval divides it

    @pytest.mark.parametrize("name", available_specs())
    def test_declared_loops_tick_then_stop(self, sim, make_cluster, name):
        app = make_chain_app(3)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=12.0)
        ctrl = spec(name)()
        with pytest.raises(RuntimeError, match="before attach"):
            ctrl.start()
        ctrl.attach(sim, cluster, _targets(app))
        calls = _count_loop_calls(ctrl)
        assert bool(calls) == (name != "null")
        ctrl.start()
        sim.run(until=self.HORIZON)
        for interval, times in calls:
            # The first call comes one interval in, then one per interval.
            assert len(times) == math.floor(self.HORIZON / interval)
            assert times == pytest.approx(
                [interval * (k + 1) for k in range(len(times))]
            )
        before = [len(times) for _, times in calls]
        longest = max((interval for interval, _ in calls), default=1.0)
        _stop_and_run_on(sim, ctrl, self.HORIZON + 5 * longest)
        assert [len(times) for _, times in calls] == before
        with pytest.raises(RuntimeError, match="twice"):
            ctrl.start()

    def test_oracle_reactions_cancelled(self, sim, make_cluster):
        """Stopped before its scheduled reactions to a 2–4 s spike."""
        app = make_chain_app(3)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=12.0)
        schedule = RateSchedule(100.0, [Spike(2.0, 4.0, 300.0)])
        ctrl = OracleController(schedule, detection_delay=0.5)
        ctrl.attach(sim, cluster, _targets(app))
        ctrl.start()
        sim.run(until=1.0)
        _stop_and_run_on(sim, ctrl, 10.0)


class TestDecisionLoops:
    def test_ticks_at_interval(self, sim, ticker):
        ctrl = ticker(interval=0.5)
        ctrl.start()
        sim.run(until=2.25)
        assert ctrl.times == [0.5, 1.0, 1.5, 2.0]

    def test_stop_halts_ticks(self, sim, ticker):
        ctrl = ticker(interval=0.5)
        ctrl.start()
        sim.schedule(1.1, ctrl.stop)
        sim.run(until=5.0)
        assert len(ctrl.times) == 2
        assert sim.live_events_pending == 0

    def test_stop_from_inside_a_loop(self, sim, ticker):
        ctrl = ticker(interval=0.5, stop_after=1)
        ctrl.start()
        sim.run(until=5.0)
        assert ctrl.times == [0.5]

    def test_stop_idempotent(self, sim, ticker):
        ctrl = ticker()
        ctrl.stop()  # before start: nothing to cancel
        ctrl.start()
        ctrl.stop()
        ctrl.stop()
        sim.run(until=2.0)
        assert ctrl.times == []

    @pytest.mark.parametrize("interval", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_interval_rejected(self, sim, ticker, interval):
        ctrl = ticker(interval=interval)
        with pytest.raises(ValueError, match="interval"):
            ctrl.start()
        assert sim.live_events_pending == 0


class TestCountedActuation:
    """One counted path for the cluster and for a node view."""

    @pytest.fixture(params=["cluster", "view"])
    def target(self, request, small_cluster):
        if request.param == "cluster":
            return small_cluster
        return small_cluster.node_views[0]

    def test_set_cores_counts_by_direction(self, small_cluster, target):
        stats = ControllerStats()
        set_cores(target, stats, "s0", 3.0)
        set_cores(target, stats, "s0", 2.5)
        set_cores(target, stats, "s0", 2.5)  # no change: not an action
        assert small_cluster.containers["s0"].cores == 2.5
        assert (stats.upscale_core_actions, stats.downscale_core_actions) == (1, 1)
        assert (0.0, "s0", 2.0) in small_cluster.alloc_events
        assert small_cluster.alloc_events[-1][1:] == ("s0", 2.5)

    def test_step_cores_checks_node_budget_and_floor(self, small_cluster, target):
        stats = ControllerStats()
        free = small_cluster.nodes[0].free_cores  # 12 - 3 × 2
        assert step_cores(target, stats, "s0", free)
        assert not step_cores(target, stats, "s1", 0.5)  # node is full
        assert step_cores(target, stats, "s1", -1.5, 0.5)
        assert not step_cores(target, stats, "s1", -0.5, 0.5)  # at the floor
        assert small_cluster.containers["s1"].cores == 0.5
        assert (stats.upscale_core_actions, stats.downscale_core_actions) == (1, 1)

    def test_frequency_steps_saturate_and_count(self, small_cluster, target):
        dvfs = small_cluster.config.dvfs
        stats = ControllerStats()
        assert not step_frequency(target, stats, "s0", up=False)  # at f_min
        assert step_frequency(target, stats, "s0", up=True)
        set_frequency(target, stats, "s0", dvfs.f_max)
        assert not step_frequency(target, stats, "s0", up=True)
        assert step_frequency(target, stats, "s0", up=False)
        assert (stats.freq_up_actions, stats.freq_down_actions) == (2, 1)
        assert stats.total_actions == 3
