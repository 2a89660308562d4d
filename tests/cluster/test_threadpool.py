"""Unit tests for connection pools (both threading models)."""

import gc
import math
import weakref

import pytest

from repro.cluster.threadpool import ConnectionPool


class TestFixedPool:
    def test_acquire_within_capacity_immediate(self, sim):
        pool = ConnectionPool(sim, 2)
        waits = []
        pool.acquire(waits.append)
        pool.acquire(waits.append)
        assert waits == [0.0, 0.0]
        assert pool.in_flight == 2
        assert pool.free == 0

    def test_excess_acquire_queues_fifo(self, sim):
        pool = ConnectionPool(sim, 1)
        order = []
        pool.acquire(lambda w: order.append(("a", w)))
        pool.acquire(lambda w: order.append(("b", w)))
        pool.acquire(lambda w: order.append(("c", w)))
        assert order == [("a", 0.0)]
        assert pool.queue_len == 2
        pool.release()
        pool.release()
        assert [x[0] for x in order] == ["a", "b", "c"]

    def test_wait_time_measured(self, sim):
        pool = ConnectionPool(sim, 1)
        waits = {}
        pool.acquire(lambda w: waits.setdefault("a", w))
        pool.acquire(lambda w: waits.setdefault("b", w))
        sim.schedule(0.75, pool.release)
        sim.run()
        assert waits["b"] == pytest.approx(0.75)

    def test_handoff_keeps_in_flight_constant(self, sim):
        pool = ConnectionPool(sim, 1)
        pool.acquire(lambda w: None)
        pool.acquire(lambda w: None)
        pool.release()  # hands off to the waiter
        assert pool.in_flight == 1
        assert pool.queue_len == 0

    def test_release_idle_pool_raises(self, sim):
        pool = ConnectionPool(sim, 1)
        with pytest.raises(RuntimeError):
            pool.release()

    def test_statistics(self, sim):
        pool = ConnectionPool(sim, 1)
        for _ in range(3):
            pool.acquire(lambda w: None)
        assert pool.total_acquires == 3
        assert pool.total_waited == 2
        assert pool.max_queue_len == 2

    def test_invalid_capacity_rejected(self, sim):
        with pytest.raises(ValueError):
            ConnectionPool(sim, 0)

    @pytest.mark.parametrize("capacity", [math.nan, math.inf])
    def test_non_finite_capacity_rejected(self, sim, capacity):
        with pytest.raises(ValueError, match="^capacity must be"):
            ConnectionPool(sim, capacity)


class TestPerRequest:
    def test_unbounded_concurrency(self, sim):
        pool = ConnectionPool(sim, None, setup_latency=0.0)
        waits = []
        for _ in range(100):
            pool.acquire(waits.append)
        assert waits == [0.0] * 100
        assert pool.queue_len == 0
        assert pool.is_per_request
        assert pool.free is None

    def test_setup_latency_delays_grant(self, sim):
        pool = ConnectionPool(sim, None, setup_latency=20e-6)
        granted = []
        pool.acquire(lambda w: granted.append(sim.now))
        assert granted == []  # not synchronous
        sim.run()
        assert granted == [pytest.approx(20e-6)]

    def test_setup_latency_not_counted_as_wait(self, sim):
        """Conn setup is a network cost, not implicit-queue time: with
        unlimited pools the paper requires execMetric == execTime."""
        pool = ConnectionPool(sim, None, setup_latency=20e-6)
        waits = []
        pool.acquire(waits.append)
        sim.run()
        assert waits == [0.0]

    def test_release_tracks_in_flight(self, sim):
        pool = ConnectionPool(sim, None, setup_latency=0.0)
        pool.acquire(lambda w: None)
        assert pool.in_flight == 1
        pool.release()
        assert pool.in_flight == 0

    def test_negative_setup_rejected(self, sim):
        with pytest.raises(ValueError):
            ConnectionPool(sim, None, setup_latency=-1.0)


class TestContinuationArgs:
    """``acquire(done, *args)`` calls ``done(wait, *args)`` on every
    grant path, like ``Simulator.schedule`` and ``Container.submit``."""

    def test_immediate_grant(self, sim):
        got = []
        ConnectionPool(sim, 1).acquire(lambda w, *a: got.append((w, a)), "x", 7)
        assert got == [(0.0, ("x", 7))]

    def test_grant_after_setup_delay(self, sim):
        pool = ConnectionPool(sim, None, setup_latency=20e-6)
        got = []
        pool.acquire(lambda w, *a: got.append((sim.now, w, a)), "x")
        assert got == []
        sim.run()
        assert got == [(20e-6, 0.0, ("x",))]

    def test_grant_from_queue(self, sim):
        pool = ConnectionPool(sim, 1)
        got = []
        pool.acquire(lambda w, *a: got.append((w, a)), "first")
        pool.acquire(lambda w, *a: got.append((w, a)), "second", 2)
        sim.schedule(0.75, pool.release)
        sim.run()
        assert got == [(0.0, ("first",)), (0.75, ("second", 2))]

    def test_flush_drops_waiters_and_args(self, sim):
        class Token:
            pass

        pool = ConnectionPool(sim, 1)
        got = []
        pool.acquire(lambda w, *a: got.append(a))
        token = Token()
        ref = weakref.ref(token)
        pool.acquire(lambda w, *a: got.append(a), token)
        del token
        assert pool.flush() == 1
        gc.collect()
        assert ref() is None  # the queued args went with the waiter
        assert pool.queue_len == 0 and pool.in_flight == 0
        assert got == [()]


class TestLittlesLaw:
    def test_pool_binds_when_in_flight_exceeds_capacity(self, sim):
        """Eq. 1 semantics: sustained in-flight > capacity ⇒ queueing."""
        pool = ConnectionPool(sim, 4)
        held = []

        def hold_for(duration):
            def granted(wait):
                held.append(wait)
                sim.schedule(duration, pool.release)

            pool.acquire(granted)

        # Offer 8 concurrent holds of 1s into a 4-pool.
        for _ in range(8):
            hold_for(1.0)
        sim.run()
        assert held[:4] == [0.0] * 4
        assert all(w == pytest.approx(1.0) for w in held[4:])
