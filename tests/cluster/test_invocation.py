"""Integration tests of the request state machine through a real cluster."""

import pytest

from repro.cluster.packet import REQUEST, RpcPacket
from repro.services.taskgraph import AppSpec, EdgeSpec, ServiceSpec, WorkDist
from repro.sim.rng import BLOCK, RngRegistry
from tests.conftest import make_chain_app
from tests.services.test_taskgraph import scalar_draw


def run_one_request(sim, cluster):
    done = []
    cluster.client_send(0, lambda pkt: done.append(sim.now))
    sim.run()
    return done


def fanout_app(mode: str, pool: int | None) -> AppSpec:
    return AppSpec(
        name="fan",
        action=mode,
        services=(
            ServiceSpec(
                "root",
                pre_work=WorkDist(1.6e6, "deterministic"),
                children=(EdgeSpec("l", pool), EdgeSpec("r", pool)),
                fanout=mode,
                initial_cores=2.0,
            ),
            ServiceSpec("l", pre_work=WorkDist(1.6e6, "deterministic"), initial_cores=1.0),
            ServiceSpec("r", pre_work=WorkDist(1.6e6, "deterministic"), initial_cores=1.0),
        ),
        root="root",
        qos_target=50e-3,
    )


class TestChainFlow:
    def test_request_traverses_whole_chain(self, sim, make_cluster):
        app = make_chain_app(3)
        cluster = make_cluster(app)
        done = run_one_request(sim, cluster)
        assert len(done) == 1
        for name in ("s0", "s1", "s2"):
            assert cluster.instances[name].requests_completed == 1

    def test_latency_at_least_sum_of_work(self, sim, make_cluster):
        app = make_chain_app(3, work=1.6e6)  # 1ms per stage at 1.6GHz
        cluster = make_cluster(app)
        done = run_one_request(sim, cluster)
        assert done[0] >= 3e-3

    def test_exec_times_nest_downstream(self, sim, make_cluster):
        """Upstream execTime ≥ downstream execTime (synchronous RPC)."""
        app = make_chain_app(3)
        cluster = make_cluster(app)
        run_one_request(sim, cluster)
        e = {
            n: cluster.runtimes[n].total_exec_time
            for n in ("s0", "s1", "s2")
        }
        assert e["s0"] > e["s1"] > e["s2"]

    def test_post_work_runs_after_children(self, sim, make_cluster):
        app = AppSpec(
            name="pw",
            action="x",
            services=(
                ServiceSpec(
                    "a",
                    pre_work=WorkDist(1.6e6, "deterministic"),
                    children=(EdgeSpec("b", None),),
                    post_work=WorkDist(1.6e6, "deterministic"),
                    initial_cores=1.0,
                ),
                ServiceSpec("b", pre_work=WorkDist(1.6e6, "deterministic"), initial_cores=1.0),
            ),
            root="a",
            qos_target=50e-3,
        )
        cluster = make_cluster(app)
        done = run_one_request(sim, cluster)
        assert done[0] >= 3e-3  # pre + child + post


class TestFanout:
    def test_parallel_faster_than_sequential(self):
        from repro.cluster.cluster import Cluster, ClusterConfig
        from repro.sim.engine import Simulator
        from repro.sim.rng import RngRegistry

        def latency(mode):
            s = Simulator()
            cfg = ClusterConfig(cores_per_node=12, placement="pack")
            c = Cluster(s, fanout_app(mode, None), cfg, RngRegistry(1))
            done = []
            c.client_send(0, lambda p: done.append(s.now))
            s.run()
            return done[0]

        assert latency("parallel") < latency("sequential")

    def test_parallel_waits_for_all_children(self, sim, make_cluster):
        cluster = make_cluster(fanout_app("parallel", None))
        done = run_one_request(sim, cluster)
        assert cluster.instances["l"].requests_completed == 1
        assert cluster.instances["r"].requests_completed == 1

    @staticmethod
    def _two_requests(mode):
        """Two back-to-back requests through pools of 1 on both edges.

        The first request never waits; the second waits once per edge,
        and each pool's ``total_wait_time`` is that one wait.  Seed 2 is
        one at which the second request waits on both edges in both
        modes (the branch replies race on network jitter).
        """
        from repro.cluster.cluster import Cluster, ClusterConfig
        from repro.sim.engine import Simulator

        s = Simulator()
        cfg = ClusterConfig(cores_per_node=12, placement="pack")
        c = Cluster(s, fanout_app(mode, 1), cfg, RngRegistry(2))
        for i in range(2):
            c.client_send(i, lambda p: None)
        s.run()
        pools = c.instances["root"].pools
        assert [pools[e].total_waited for e in ("l", "r")] == [1, 1]
        waits = [pools[e].total_wait_time for e in ("l", "r")]
        assert 0.0 < min(waits) and waits[0] != waits[1]
        return c.runtimes["root"], waits

    def test_sequential_conn_wait_accumulates(self):
        """The same thread blocks for each child in turn: the root
        reports exactly the sum of the second request's two waits."""
        rt, (w_l, w_r) = self._two_requests("sequential")
        assert rt.total_conn_wait == w_l + w_r
        assert rt.total_exec_metric > 0.0  # never negative / degenerate

    def test_parallel_conn_wait_is_the_branch_maximum(self):
        """Parallel waits overlap in wall time: the root reports exactly
        the larger of the second request's two waits."""
        rt, waits = self._two_requests("parallel")
        assert rt.total_conn_wait == max(waits)
        assert rt.total_exec_metric > 0.0


class TestOnePacketPerRpc:
    """A server sends the request it served back as its response."""

    def test_response_is_the_request_object(self, sim, make_cluster):
        cluster = make_cluster(make_chain_app(3))
        net = cluster.network
        # (request id, caller, server) -> the request the server received.
        # A packet stays live from its request's delivery to its
        # response's, so the pool cannot hand it out in between.
        received = {}
        same = []

        def observe(pkt):
            if pkt.kind == REQUEST:
                received[(pkt.request_id, pkt.src, pkt.dst)] = pkt
            else:
                same.append(received.pop((pkt.request_id, pkt.dst, pkt.src)) is pkt)

        net.add_observer(observe)
        done = []
        for rid in range(20):
            cluster.client_send(rid, done.append)
        sim.run()
        assert len(done) == 20
        assert same == [True] * 60 and not received
        # One acquisition per request; no response is built.
        responses = sum(i.requests_completed for i in cluster.instances.values())
        assert responses == 60
        acquired = net.pool.constructed + net.pool.recycled
        assert acquired == net.packets_sent - responses == 60


class TestHintPropagation:
    def test_upscale_hint_decrements_down_the_chain(self, sim, make_cluster):
        app = make_chain_app(4)
        cluster = make_cluster(app)
        # Stamp the root: TTL 2 should reach s1 (2) and s2 (1), not s3 (0).
        cluster.runtimes["s0"].stamp_upscale(ttl=2, duration=10.0)
        cluster.client_send(0, lambda p: None)
        sim.run()
        w1 = cluster.runtimes["s1"].collect()
        w2 = cluster.runtimes["s2"].collect()
        w3 = cluster.runtimes["s3"].collect()
        assert w1.upscale_hints == 1 and w1.max_hint_ttl == 2
        assert w2.upscale_hints == 1 and w2.max_hint_ttl == 1
        assert w3.upscale_hints == 0

    def test_no_hint_without_stamp(self, sim, make_cluster):
        cluster = make_cluster(make_chain_app(3))
        cluster.client_send(0, lambda p: None)
        sim.run()
        for n in ("s0", "s1", "s2"):
            assert cluster.runtimes[n].collect().upscale_hints == 0

    def test_start_time_propagates_unchanged(self, sim, make_cluster):
        seen = []
        cluster = make_cluster(make_chain_app(3))
        for node in cluster.nodes:
            node.add_rx_hook(lambda p: seen.append(p.start_time))
        cluster.client_send(0, lambda p: None)
        sim.run()
        assert len(set(seen)) == 1  # one job, one start_time everywhere


class TestWorkDraws:
    """An instance's block-drawn work equals the scalar draws, in order.

    Each compute phase submitted to the container is recorded with its
    phase; the same sequence of phases is then replayed as scalar numpy
    calls on a fresh copy of the instance's ``work.s`` stream (the
    ``rng`` fixture's seed).
    """

    def _record(self, sim, make_cluster, pre, post, n=3 * BLOCK):
        app = AppSpec(
            name="one",
            action="one",
            services=(ServiceSpec("s", pre_work=pre, post_work=post, initial_cores=2.0),),
            root="s",
            qos_target=50e-3,
        )
        cluster = make_cluster(app)
        inst = cluster.instances["s"]
        submit = inst.container.submit
        phases = []

        def spy(work, done, *args):
            phases.append((pre if done == inst._after_pre else post, work))
            return submit(work, done, *args)

        inst.container.submit = spy
        for i in range(n):
            # ~1 ms apart against ~1-2 ms phases, so pre and post phases of
            # different requests interleave.
            sim.schedule(i * 1e-3, cluster.client_send, i, lambda p: None)
        sim.run()
        assert inst.requests_completed == n
        return phases, inst.rng

    def _replay(self, phases):
        ref = RngRegistry(42).stream("work.s")
        return [(d, scalar_draw(d, ref) if d.variate else d.mean_cycles) for d, _ in phases]

    def test_mixed_kinds_match_interleaved_scalar_draws(self, sim, make_cluster):
        pre = WorkDist(2.4e6, "lognormal", cv=0.4)
        post = WorkDist(1.6e6, "exponential")
        phases, _ = self._record(sim, make_cluster, pre, post)
        kinds = [d.dist for d, _ in phases]
        # The phases really interleave: some post runs before a later pre.
        assert kinds != sorted(kinds)
        assert phases == self._replay(phases)

    def test_same_kind_phases_share_one_stream(self, sim, make_cluster):
        pre = WorkDist(2.4e6, "lognormal", cv=0.4)
        post = WorkDist(0.8e6, "lognormal", cv=0.1)
        phases, _ = self._record(sim, make_cluster, pre, post)
        assert len(phases) == 2 * 3 * BLOCK  # past two refills
        assert phases == self._replay(phases)

    def test_deterministic_phase_draws_nothing(self, sim, make_cluster):
        pre = WorkDist(1.6e6, "exponential")
        post = WorkDist(0.8e6, "deterministic")
        phases, _ = self._record(sim, make_cluster, pre, post)
        assert phases == self._replay(phases)

    def test_zero_work_instance_leaves_stream_untouched(self, sim, make_cluster):
        phases, rng = self._record(
            sim, make_cluster, WorkDist(1.6e6, "deterministic"), WorkDist(0.0), n=20
        )
        assert len(phases) == 20  # the zero post phase is never submitted
        fresh = RngRegistry(42).stream("work.s")
        assert rng.bit_generator.state == fresh.bit_generator.state
