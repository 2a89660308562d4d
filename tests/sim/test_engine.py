"""Unit tests for the discrete-event engine."""

import math

import pytest

from repro.sim.engine import SimulationError, Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "late")
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(1.5, fired.append, "mid")
        sim.run()
        assert fired == ["early", "mid", "late"]

    def test_simultaneous_events_fifo(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(1.0, fired.append, i)
        sim.run()
        assert fired == list(range(10))

    def test_clock_advances_to_event_time(self, sim):
        seen = []
        sim.schedule(3.25, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.25]

    def test_schedule_at_absolute_time(self, sim):
        sim.schedule(1.0, lambda: None)
        sim.run()
        h = sim.schedule_at(5.0, lambda: None)
        assert h.time == 5.0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_nan_and_inf_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule(math.inf, lambda: None)

    def test_schedule_in_past_rejected(self, sim):
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(1.0, lambda: None)

    @pytest.mark.parametrize("time", [math.nan, math.inf, -math.inf, 1.0])
    def test_schedule_at_rejects_non_finite_and_past(self, sim, time):
        """NaN, ±inf and a past time fail the one chained check, and
        nothing is queued."""
        sim.schedule(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError, match="cannot schedule"):
            sim.schedule_at(time, lambda: None)
        assert sim.events_pending == 0

    def test_start_time_sets_the_clock(self):
        assert Simulator(start_time=1.5).now == 1.5

    def test_zero_delay_event_runs(self, sim):
        fired = []
        sim.schedule(0.0, fired.append, 1)
        sim.run()
        assert fired == [1]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self, sim):
        fired = []
        h = sim.schedule(1.0, fired.append, "x")
        h.cancel()
        sim.run()
        assert fired == []

    def test_cancel_is_idempotent(self, sim):
        h = sim.schedule(1.0, lambda: None)
        h.cancel()
        h.cancel()
        sim.run()

    def test_cancel_releases_references(self, sim):
        h = sim.schedule(1.0, lambda: None, "payload")
        h.cancel()
        assert h.fn is None
        assert h.args == ()

    def test_fired_handle_releases_args(self, sim):
        # A handle the user retains past dispatch is never recycled, but
        # it must not pin the callback's argument graph either: args are
        # cleared unconditionally after firing, not only on the recycle
        # path.
        payload = ["big", "object", "graph"]
        h = sim.schedule(1.0, lambda _: None, payload)
        sim.run()
        assert h.args == ()

    def test_active_property(self, sim):
        h = sim.schedule(1.0, lambda: None)
        assert h.active
        h.cancel()
        assert not h.active

    def test_cancel_from_within_handler(self, sim):
        fired = []
        h2 = sim.schedule(2.0, fired.append, "second")
        sim.schedule(1.0, h2.cancel)
        sim.run()
        assert fired == []


class TestRun:
    def test_run_until_stops_and_sets_clock(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.schedule(5.0, fired.append, 2)
        sim.run(until=3.0)
        assert fired == [1]
        assert sim.now == 3.0
        sim.run()
        assert fired == [1, 2]

    def test_run_until_exact_boundary_inclusive(self, sim):
        fired = []
        sim.schedule(3.0, fired.append, 1)
        sim.run(until=3.0)
        assert fired == [1]

    def test_consecutive_run_until_continuous_timeline(self, sim):
        times = []
        for t in (0.5, 1.5, 2.5):
            sim.schedule(t, lambda: times.append(sim.now))
        sim.run(until=1.0)
        sim.run(until=2.0)
        sim.run(until=3.0)
        assert times == [0.5, 1.5, 2.5]
        assert sim.now == 3.0

    def test_max_events_budget(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), fired.append, i)
        sim.run(max_events=4)
        assert fired == [0, 1, 2, 3]

    def test_events_spawned_during_run_execute(self, sim):
        fired = []

        def spawner():
            sim.schedule(1.0, fired.append, "child")

        sim.schedule(1.0, spawner)
        sim.run()
        assert fired == ["child"]

    def test_not_reentrant(self, sim):
        def reenter():
            sim.run()

        sim.schedule(1.0, reenter)
        with pytest.raises(SimulationError):
            sim.run()

    def test_step_returns_false_when_empty(self, sim):
        assert sim.step() is False

    def test_drain_discards_pending(self, sim):
        fired = []
        sim.schedule(1.0, fired.append, 1)
        sim.drain()
        sim.run()
        assert fired == []

    def test_cancel_after_drain_keeps_live_count_exact(self, sim):
        # Drained handles are dead: cancelling one afterwards must not
        # count as a pending cancellation, or the live count goes
        # negative and a later live event reads as "fully drained".
        h = sim.schedule(1.0, lambda _: None, ["payload"])
        sim.drain()
        assert not h.active
        assert h.args == ()
        h.cancel()
        assert sim.live_events_pending == 0
        sim.schedule(2.0, lambda: None)
        assert sim.live_events_pending == 1
        assert sim.events_pending == 1

    def test_step_runs_one_event(self, sim):
        fired = []
        sim.schedule(2.0, fired.append, "b")
        sim.schedule(1.0, fired.append, "a")
        sim.schedule(0.5, lambda: None).cancel()
        assert sim.step() is True
        assert fired == ["a"] and sim.now == 1.0
        assert sim.step() is True
        assert sim.step() is False
        assert fired == ["a", "b"]

    def test_events_fired_counter(self, sim):
        for i in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_fired == 5

    def test_trace_hook_read_once_per_run(self, sim):
        """``run()`` reads ``trace_hook`` on entry: a hook a handler sets
        takes effect at the next ``run()``."""
        traced = []
        hook = lambda t, fn, args: traced.append(t)  # noqa: E731
        sim.schedule(1.0, setattr, sim, "trace_hook", hook)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert traced == []
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert traced == [3.0]

    def test_trace_hook_called(self, sim):
        traced = []
        sim.trace_hook = lambda t, fn, args: traced.append(t)
        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert traced == [1.0, 2.0]


class TestDeterminism:
    def test_same_program_same_order(self):
        def program(sim):
            order = []
            for i in range(50):
                sim.schedule((i * 7919) % 13 / 10.0, order.append, i)
            sim.run()
            return order

        assert program(Simulator()) == program(Simulator())
