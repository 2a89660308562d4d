"""Unit tests for the processor-sharing container model."""

import math

import pytest

from repro.cluster.container import Container
from repro.cluster.frequency import DvfsModel


@pytest.fixture
def container(sim, dvfs):
    return Container(sim, "c", dvfs, cores=2.0, frequency=1.6e9)


class TestSingleJob:
    def test_uncontended_job_runs_at_frequency(self, sim, container):
        done = []
        container.submit(1.6e9, lambda: done.append(sim.now))  # 1s of work
        sim.run()
        assert done == [pytest.approx(1.0)]

    def test_zero_work_completes_immediately(self, sim, container):
        done = []
        container.submit(0.0, lambda: done.append(sim.now))
        assert done == []  # never synchronously: a zero-delay event
        sim.run()
        assert done == [pytest.approx(0.0)]

    def test_negative_work_rejected(self, container):
        with pytest.raises(ValueError):
            container.submit(-1.0, lambda: None)

    @pytest.mark.parametrize("work", [math.inf, math.nan])
    def test_non_finite_work_rejected(self, container, work):
        with pytest.raises(ValueError, match="work_cycles must be finite"):
            container.submit(work, lambda: None)
        assert container.active_jobs == 0

    def test_done_receives_args(self, sim, container):
        done = []
        container.submit(1.6e9, done.append, "x")
        sim.run()
        assert done == ["x"]

    def test_frequency_scales_service_time(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=dvfs.f_max)
        done = []
        c.submit(dvfs.f_max, lambda: done.append(sim.now))  # 1s at f_max
        sim.run()
        assert done == [pytest.approx(1.0)]


class TestProcessorSharing:
    def test_two_jobs_on_one_core_take_double(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        done = []
        c.submit(1.6e9, lambda: done.append(("a", sim.now)))
        c.submit(1.6e9, lambda: done.append(("b", sim.now)))
        sim.run()
        assert [t for _, t in done] == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_jobs_within_core_count_unslowed(self, sim, container):
        # 2 cores, 2 jobs: no contention.
        done = []
        container.submit(1.6e9, lambda: done.append(sim.now))
        container.submit(1.6e9, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(1.0), pytest.approx(1.0)]

    def test_shorter_job_finishes_first(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        done = []
        c.submit(1.6e9, lambda: done.append("long"))
        c.submit(0.8e9, lambda: done.append("short"))
        sim.run()
        assert done == ["short", "long"]

    def test_late_arrival_shares_capacity(self, sim, dvfs):
        # Job A (1s of work) alone for 0.5s, then B arrives: A's remaining
        # 0.5s of work takes 1.0s shared ⇒ A finishes at 1.5s.
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        done = {}
        c.submit(1.6e9, lambda: done.setdefault("a", sim.now))
        sim.schedule(0.5, lambda: c.submit(0.8e9, lambda: done.setdefault("b", sim.now)))
        sim.run()
        assert done["a"] == pytest.approx(1.5)
        # B: 0.5s of work, shared with A until 1.5 (progress 0.5s), done at 1.5.
        assert done["b"] == pytest.approx(1.5)

    def test_fractional_cores_slow_single_job(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=0.5, frequency=1.6e9)
        done = []
        c.submit(1.6e9, lambda: done.append(sim.now))
        sim.run()
        assert done == [pytest.approx(2.0)]


class TestDynamicReconfiguration:
    def test_adding_cores_speeds_up_mid_job(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        done = []
        for _ in range(2):
            c.submit(1.6e9, lambda: done.append(sim.now))
        # At t=1, half the work is done (shared); add a second core: the
        # remaining 0.5s each run unshared ⇒ finish at 1.5.
        sim.schedule(1.0, c.set_cores, 2.0)
        sim.run()
        assert done == [pytest.approx(1.5), pytest.approx(1.5)]

    def test_raising_frequency_mid_job(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        done = []
        c.submit(1.6e9, lambda: done.append(sim.now))
        sim.schedule(0.5, c.set_frequency, dvfs.f_max)  # 2.4 GHz default
        sim.run()
        # 0.5s left of 1.6e9-cycle job = 0.8e9 cycles at 2.4e9 ⇒ ~0.333s.
        assert done == [pytest.approx(0.5 + 0.8 / 2.4)]

    def test_invalid_cores_rejected(self, container):
        with pytest.raises(ValueError):
            container.set_cores(0.0)

    @pytest.mark.parametrize("cores", [math.nan, math.inf])
    def test_non_finite_cores_rejected(self, sim, dvfs, container, cores):
        with pytest.raises(ValueError, match="^cores must be"):
            Container(sim, "bad", dvfs, cores=cores)
        with pytest.raises(ValueError, match="^cores must be"):
            container.set_cores(cores)
        assert container.cores == 2.0

    def test_noop_changes_are_cheap(self, sim, container):
        container.submit(1.6e9, lambda: None)
        before = sim.events_pending
        container.set_cores(container.cores)
        container.set_frequency(container.frequency)
        assert sim.events_pending == before

    def test_frequency_clamped_to_dvfs_range(self, container, dvfs):
        container.set_frequency(10e9)
        assert container.frequency == dvfs.f_max
        container.set_frequency(0.1e9)
        assert container.frequency == dvfs.f_min


class TestAccounting:
    def test_alloc_core_seconds_integrates(self, sim, container):
        container.submit(1.6e9, lambda: None)
        sim.run()
        container.sync()
        assert container.alloc_core_seconds == pytest.approx(2.0 * 1.0)

    def test_busy_core_seconds_counts_active_only(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=2.0, frequency=1.6e9)
        c.submit(1.6e9, lambda: None)  # 1 job on 2 cores: busy=1
        sim.run()
        c.sync()
        assert c.busy_core_seconds == pytest.approx(1.0)

    def test_busy_capped_at_cores(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        c.submit(1.6e9, lambda: None)
        c.submit(1.6e9, lambda: None)
        sim.run()
        c.sync()
        assert c.busy_core_seconds == pytest.approx(2.0)  # 1 core × 2s

    def test_freq_seconds_tracks_mean_frequency(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        sim.schedule(1.0, c.set_frequency, 2.4e9)
        sim.schedule(2.0, lambda: None)
        sim.run()
        c.sync()
        assert c.freq_seconds == pytest.approx(1.6e9 * 1.0 + 2.4e9 * 1.0)

    def test_completed_jobs_counter(self, sim, container):
        for _ in range(5):
            container.submit(1e6, lambda: None)
        sim.run()
        assert container.completed_jobs == 5

    def test_active_jobs_property(self, sim, container):
        container.submit(1.6e9, lambda: None)
        container.submit(1.6e9, lambda: None)
        assert container.active_jobs == 2
        sim.run()
        assert container.active_jobs == 0


class TestMonotoneIntegrals:
    def test_integrals_never_decrease_across_faults_and_replica_ops(
        self, sim, container
    ):
        """Controllers difference these integrals between decisions, so
        a crash, a decommission or a recommission must never rewind one:
        every delta they read is then >= 0 with no clamp."""
        seen = []

        def snapshot():
            container.sync()
            seen.append(
                (
                    container.busy_core_seconds,
                    container.alloc_core_seconds,
                    container.freq_seconds,
                )
            )

        snapshot()
        container.submit(3.2e9, lambda: None)
        container.submit(3.2e9, lambda: None)
        sim.run(until=0.5)
        snapshot()
        assert container.crash() == 2
        snapshot()
        container.submit(0.8e9, lambda: None)  # new work after the crash
        sim.run(until=1.5)
        snapshot()
        container.decommission()
        snapshot()
        sim.run(until=2.5)  # frozen while decommissioned
        snapshot()
        container.recommission()
        snapshot()
        container.submit(0.8e9, lambda: None)
        sim.run(until=3.5)
        snapshot()
        for before, after in zip(seen, seen[1:]):
            assert all(b >= a for a, b in zip(before, after)), (before, after)
        # Every integral kept accruing after the recommission.
        assert all(b > a for a, b in zip(seen[-3], seen[-1]))


class TestConservation:
    def test_total_work_conserved_under_reconfig(self, sim, dvfs):
        """Work in = cycles out regardless of allocation churn."""
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        done = []
        total_work = 0.0
        for i in range(10):
            w = (i + 1) * 1e8
            total_work += w
            sim.schedule(i * 0.05, c.submit, w, lambda: done.append(sim.now))
        # Churn allocations while jobs run.
        for i in range(20):
            sim.schedule(0.1 * i, c.set_cores, 1.0 + (i % 3))
        sim.run()
        assert len(done) == 10
        c.sync()
        # busy-core-seconds × frequency ≥ total work (equality when the
        # frequency never changes, as here).
        assert c.busy_core_seconds * 1.6e9 == pytest.approx(total_work, rel=1e-6)


class TestCompletionRule:
    """A completion tick runs the continuations of the phases it
    finishes; a phase finished anywhere else waits for an event."""

    def test_one_event_per_phase(self, sim, container):
        fired, done = [], []
        sim.trace_hook = lambda t, fn, args: fired.append(t)
        container.submit(1.6e9, lambda: done.append(sim.now))
        sim.run()
        assert fired == [1.0]
        assert done == fired
        assert sim.events_fired == 1

    def test_resubmit_from_the_tick_sees_the_finished_phase_gone(self, sim, dvfs):
        # One core, two phases at half speed: the short one finishes at
        # t=1 and its continuation resubmits, which shares the core with
        # the long one's last 0.8e9 cycles until both finish at t=2.
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        seen, done = [], []

        def post():
            seen.append((sim.now, c.active_jobs))
            c.submit(0.8e9, lambda: done.append(("post", sim.now)))

        c.submit(0.8e9, post)
        c.submit(1.6e9, lambda: done.append(("long", sim.now)))
        sim.run()
        assert seen == [(1.0, 1)]
        assert done == [("long", 2.0), ("post", 2.0)]
        assert sim.events_fired == 2  # the two ticks, nothing else

    def test_set_cores_on_a_completion_defers_the_continuation(self, sim, dvfs):
        c = Container(sim, "c", dvfs, cores=1.0, frequency=1.6e9)
        log = []

        def controller():
            c.set_cores(2.0)
            log.append(("set_cores returned", sim.now))

        # Queued before the phase's tick, so the change lands first, at
        # the instant the phase's work runs out.
        sim.schedule_at(1.0, controller)
        c.submit(1.6e9, lambda: log.append(("done", sim.now)))
        sim.run()
        assert log == [("set_cores returned", 1.0), ("done", 1.0)]
        assert sim.events_fired == 2  # the controller's and the continuation's
