"""Unit tests for container runtime metrics (Eqs. 2–3 + hint relay)."""

import pytest

from repro.cluster.runtime import ContainerRuntime


@pytest.fixture
def rt(sim):
    return ContainerRuntime(sim, "svc")


class TestMetrics:
    def test_exec_metric_is_exec_minus_wait(self, sim, rt):
        rt.on_complete(exec_time=10e-3, conn_wait=4e-3)
        w = rt.collect()
        assert w.avg_exec_time == pytest.approx(10e-3)
        assert w.avg_conn_wait == pytest.approx(4e-3)
        assert w.avg_exec_metric == pytest.approx(6e-3)

    def test_queue_buildup_ratio(self, sim, rt):
        rt.on_complete(10e-3, 5e-3)
        rt.on_complete(10e-3, 5e-3)
        w = rt.collect()
        assert w.queue_buildup == pytest.approx(2.0)

    def test_no_wait_means_unit_queue_buildup(self, sim, rt):
        """Paper: with unlimited threadpools execMetric == execTime."""
        rt.on_complete(5e-3, 0.0)
        w = rt.collect()
        assert w.queue_buildup == pytest.approx(1.0)
        assert w.avg_exec_metric == w.avg_exec_time

    def test_empty_window_defaults(self, sim, rt):
        w = rt.collect()
        assert w.count == 0
        assert w.queue_buildup == 1.0
        assert w.avg_exec_time == 0.0

    def test_window_resets_after_collect(self, sim, rt):
        rt.on_complete(10e-3, 0.0)
        rt.collect()
        w = rt.collect()
        assert w.count == 0

    def test_window_boundaries(self, sim, rt):
        sim.schedule(1.0, rt.on_complete, 1e-3, 0.0)
        sim.run()
        w = rt.collect()
        assert w.t_start == 0.0
        assert w.t_end == pytest.approx(1.0)
        assert w.throughput == pytest.approx(1.0)

    def test_wait_clamped_to_exec_time(self, sim, rt):
        rt.on_complete(5e-3, 6e-3)  # float slop guard
        w = rt.collect()
        assert w.avg_exec_metric >= 0.0

    def test_negative_values_rejected(self, sim, rt):
        with pytest.raises(ValueError):
            rt.on_complete(-1.0, 0.0)
        with pytest.raises(ValueError):
            rt.on_complete(1.0, -1.0)

    def test_lifetime_totals(self, sim, rt):
        rt.on_complete(10e-3, 2e-3)
        rt.collect()
        rt.on_complete(20e-3, 4e-3)
        assert rt.total_count == 2
        assert rt.total_exec_time == pytest.approx(30e-3)
        assert rt.total_conn_wait == pytest.approx(6e-3)

    def test_time_from_start_average(self, sim, rt):
        rt.on_arrival(3e-3, 0)
        rt.on_arrival(5e-3, 0)
        rt.on_complete(1e-3, 0.0)
        rt.on_complete(1e-3, 0.0)
        w = rt.collect()
        assert w.avg_time_from_start == pytest.approx(4e-3)
        assert rt.total_time_from_start == pytest.approx(8e-3)


class TestHintRelay:
    def test_incoming_hints_counted(self, sim, rt):
        rt.on_arrival(1e-3, 0)
        rt.on_arrival(1e-3, 2)
        rt.on_arrival(1e-3, 3)
        w = rt.collect()
        assert w.upscale_hints == 2
        assert w.max_hint_ttl == 3

    def test_propagation_decrements(self, sim, rt):
        assert rt.outgoing_upscale(3) == 2
        assert rt.outgoing_upscale(1) == 0
        assert rt.outgoing_upscale(0) == 0

    def test_stamp_overrides_when_larger(self, sim, rt):
        rt.stamp_upscale(ttl=2, duration=1.0)
        assert rt.stamp_active
        assert rt.outgoing_upscale(0) == 2
        assert rt.outgoing_upscale(5) == 4  # propagated hint wins

    def test_stamp_expires(self, sim, rt):
        rt.stamp_upscale(ttl=2, duration=0.5)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert not rt.stamp_active
        assert rt.outgoing_upscale(0) == 0

    def test_invalid_stamp_rejected(self, sim, rt):
        with pytest.raises(ValueError):
            rt.stamp_upscale(-1, 1.0)
        with pytest.raises(ValueError):
            rt.stamp_upscale(1, -1.0)
