"""Tests for the open-loop client against a real cluster."""

import numpy as np
import pytest

from repro.cluster.cluster import CLIENT
from repro.cluster.packet import RESPONSE
from repro.workload.arrivals import RateSchedule, Spike
from repro.workload.generator import OpenLoopClient
from tests.conftest import make_chain_app


def tap_first_responses(sim, cluster):
    """request id -> (error, arrival, latency) of the first response to
    reach the client: a record kept apart from the client's buffers."""
    first = {}

    def tap(pkt):
        if pkt.kind == RESPONSE and pkt.dst == CLIENT:
            first.setdefault(
                pkt.request_id, (pkt.error, pkt.start_time, sim.now - pkt.start_time)
            )

    cluster.network.add_observer(tap)
    return first


@pytest.fixture
def cluster(make_cluster):
    app = make_chain_app(2, work=0.2e6)  # fast stages: client tests
    return make_cluster(app, cores_per_node=8)


class TestPacing:
    def test_uniform_pacing_exact_count(self, sim, cluster):
        client = OpenLoopClient(sim, cluster, RateSchedule(100.0), duration=2.0)
        client.begin()
        sim.run(until=3.0)
        assert client.stats.sent == 200

    def test_uniform_gaps_constant(self, sim, cluster):
        client = OpenLoopClient(sim, cluster, RateSchedule(50.0), duration=1.0)
        client.begin()
        sim.run(until=2.0)
        gaps = np.diff(client.stats.arrival_times)
        assert np.allclose(gaps, 0.02)

    def test_poisson_pacing_approximate_count(self, sim, cluster, rng):
        client = OpenLoopClient(
            sim,
            cluster,
            RateSchedule(500.0),
            duration=4.0,
            pacing="poisson",
            rng=rng.stream("client"),
        )
        client.begin()
        sim.run(until=5.0)
        assert client.stats.sent == pytest.approx(2000, rel=0.15)

    def test_poisson_requires_rng(self, sim, cluster):
        with pytest.raises(ValueError):
            OpenLoopClient(
                sim, cluster, RateSchedule(1.0), duration=1.0, pacing="poisson"
            )

    def test_spike_multiplies_arrivals(self, sim, cluster):
        sched = RateSchedule(100.0, [Spike(0.5, 1.0, 400.0)])
        client = OpenLoopClient(sim, cluster, sched, duration=1.5)
        client.begin()
        sim.run(until=2.5)
        t = np.asarray(client.stats.arrival_times)
        in_spike = ((t >= 0.5) & (t < 1.0)).sum()
        assert in_spike == pytest.approx(200, abs=3)

    def test_open_loop_ignores_completions(self, sim, make_cluster):
        """Arrivals continue on schedule even when the server is drowning."""
        app = make_chain_app(1, work=160e6, cores=0.5)  # 200ms service
        cluster = make_cluster(app, cores_per_node=4)
        client = OpenLoopClient(sim, cluster, RateSchedule(100.0), duration=1.0)
        client.begin()
        sim.run(until=1.0)
        assert client.stats.sent == 100  # none blocked


class TestStats:
    def test_latencies_recorded(self, sim, cluster):
        client = OpenLoopClient(sim, cluster, RateSchedule(50.0), duration=1.0)
        client.begin()
        sim.run(until=3.0)
        t, lat = client.stats.completed_arrays()
        assert len(t) == client.stats.completed == 50
        assert (lat > 0).all()

    def test_outstanding_counts_incomplete(self, sim, make_cluster):
        app = make_chain_app(1, work=1.6e9, cores=1.0)  # 1s service time
        cluster = make_cluster(app, cores_per_node=4)
        client = OpenLoopClient(sim, cluster, RateSchedule(10.0), duration=1.0)
        client.begin()
        sim.run(until=1.0)  # stop before anything finishes
        assert client.stats.outstanding > 0

    def test_each_response_fills_its_own_row(self, sim, cluster):
        first = tap_first_responses(sim, cluster)
        client = OpenLoopClient(sim, cluster, RateSchedule(10.0), duration=0.5)
        client.begin()
        sim.run(until=2.0)
        stats = client.stats
        assert stats.sent == stats.completed == 5
        assert sorted(first) == list(range(5))
        assert list(stats.arrival_times) == [first[i][1] for i in range(5)]
        assert list(stats.latencies) == [first[i][2] for i in range(5)]

    def test_double_begin_rejected(self, sim, cluster):
        client = OpenLoopClient(sim, cluster, RateSchedule(10.0), duration=1.0)
        client.begin()
        with pytest.raises(RuntimeError):
            client.begin()

    def test_invalid_duration_rejected(self, sim, cluster):
        with pytest.raises(ValueError):
            OpenLoopClient(sim, cluster, RateSchedule(10.0), duration=0.0)


class _ListStats:
    """The list-based bookkeeping, kept as the reference
    implementation for the equivalence regression below."""

    def __init__(self):
        self.arrival_times = []
        self.latencies = []

    def completed_arrays(self):
        t = np.asarray(self.arrival_times)
        lat = np.asarray(self.latencies)
        mask = ~np.isnan(lat)
        return t[mask], lat[mask]


class TestBufferMatchesListImplementation:
    """The columnar ClientStats must reproduce the list-based arrays
    exactly — including the awkward rows: error completions and
    requests still outstanding when the run is cut off, both of which
    must stay ``nan`` and be masked out of ``completed_arrays``."""

    def test_scripted_sequence_equivalence(self):
        from repro.workload.generator import ClientStats

        rng = np.random.default_rng(17)
        stats, ref = ClientStats(), _ListStats()
        open_rows = []
        t = 0.0
        for _ in range(1_000):
            t += float(rng.exponential(0.01))
            # Injection: nan placeholder in both implementations.
            stats.arrival_times.append(t)
            stats.latencies.append(float("nan"))
            stats.sent += 1
            ref.arrival_times.append(t)
            ref.latencies.append(float("nan"))
            open_rows.append(len(ref.latencies) - 1)
            # Randomly resolve a backlog row: success (slot write),
            # error (latency stays nan), or leave it outstanding.
            if open_rows and rng.random() < 0.6:
                idx = open_rows.pop(int(rng.integers(len(open_rows))))
                if rng.random() < 0.2:
                    stats.errored += 1  # nan row stays in both
                else:
                    latency = float(rng.exponential(0.005))
                    stats.latencies[idx] = latency
                    stats.completed += 1
                    ref.latencies[idx] = latency
        # The remaining open_rows are the drained-at-end outstanding set.
        got_t, got_lat = stats.completed_arrays()
        want_t, want_lat = ref.completed_arrays()
        assert np.array_equal(got_t, want_t)
        assert np.array_equal(got_lat, want_lat)
        assert len(got_t) == stats.completed
        nan_rows = int(np.isnan(stats.latencies).sum())
        assert nan_rows == stats.errored + len(open_rows)
        # completed_arrays released its views: the columns still grow.
        stats.arrival_times.append(t)

    def test_end_to_end_with_errors_and_outstanding(self, sim, make_cluster):
        from repro.faults import FaultInjector, FaultPlan, LossWindow, RpcPolicy

        # Slow enough stages that the cutoff below catches calls still
        # in flight, and queueing pushes some past the RPC timeout.
        cluster = make_cluster(make_chain_app(2, work=6e6), cores_per_node=8)
        plan = FaultPlan(
            loss_windows=(LossWindow(0.05, 0.15, 0.7),),
            rpc=RpcPolicy(timeout=20e-3, max_retries=1, backoff_base=2e-3),
        )
        FaultInjector(plan).arm(sim, cluster)
        first = tap_first_responses(sim, cluster)
        client = OpenLoopClient(sim, cluster, RateSchedule(400.0), duration=0.3)
        client.begin()
        sim.run(until=0.306)  # cut off with calls still in flight
        stats = client.stats
        assert stats.errored > 0, "loss window produced no errors"
        assert stats.outstanding > 0, "nothing left outstanding at cutoff"
        got_t, got_lat = stats.completed_arrays()
        # A completed request's latency is its first response's: the
        # call latches it, and a later duplicate is dropped.
        done = [i for i, lat in enumerate(stats.latencies) if not np.isnan(lat)]
        want = [first[i] for i in done]  # injection order == arrival-time order
        assert not any(error for error, _, _ in want)
        assert np.array_equal(got_t, np.array([t for _, t, _ in want]))
        assert np.array_equal(got_lat, np.array([l for _, _, l in want]))
        nan_rows = int(np.isnan(stats.latencies).sum())
        assert nan_rows == stats.errored + stats.outstanding
