"""Unit tests for the hot-path recyclers: PacketPool and the engine's
EventHandle free list.

The pool's safety story has three legs, each pinned here: a pooled
packet released twice *always* raises (even outside debug mode), a
released packet in debug mode is poisoned so any later use raises or
misroutes loudly, and the engine only ever recycles a handle when
``sys.getrefcount`` proves nobody else still holds it.
"""

import math

import pytest

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.packet import (
    REQUEST,
    RESPONSE,
    PacketPool,
    PoolError,
    RpcPacket,
)
from repro.faults import FaultInjector, FaultPlan, RpcPolicy
from repro.services.registry import get_workload
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.workload.arrivals import RateSchedule
from repro.workload.generator import OpenLoopClient


def live_pool(**kw):
    kw.setdefault("enabled", True)
    kw.setdefault("debug", False)
    return PacketPool(**kw)


class TestAcquireRelease:
    def test_acquire_constructs_when_free_list_empty(self):
        pool = live_pool()
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.5)
        assert isinstance(pkt, RpcPacket)
        assert pool.constructed == 1
        assert pool.recycled == 0

    def test_release_then_acquire_reuses_the_same_object(self):
        pool = live_pool()
        first = pool.acquire(1, REQUEST, "a", "b", 0.5, 3)
        pool.release(first)
        second = pool.acquire(2, RESPONSE, "c", "d", 1.5)
        assert second is first
        assert pool.recycled == 1
        # Every field was overwritten by the new acquisition.
        assert second.request_id == 2
        assert second.kind == RESPONSE
        assert second.src == "c" and second.dst == "d"
        assert second.start_time == 1.5
        assert second.upscale == 0
        assert second.send_time == 0.0
        assert second.error is False
        assert second.context is None

    def test_release_of_directly_constructed_packet_is_noop(self):
        pool = live_pool()
        pkt = RpcPacket(request_id=1, kind=REQUEST, src="a", dst="b", start_time=0.0)
        pool.release(pkt)
        pool.release(pkt)  # still a no-op, not a double release
        assert pool.free == 0
        assert pool.released == 0

    def test_double_release_raises_even_without_debug(self):
        pool = live_pool()
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0)
        pool.release(pkt)
        with pytest.raises(PoolError, match="double release"):
            pool.release(pkt)

    def test_release_drops_the_context_reference(self):
        pool = live_pool()
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0, context=lambda p: None)
        pool.release(pkt)
        assert not callable(pkt.context) or pkt.context.__name__ == "_poison_context"

    def test_disabled_pool_never_recycles(self):
        pool = PacketPool(enabled=False, debug=False)
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0)
        pool.release(pkt)  # unmanaged: no-op
        other = pool.acquire(2, REQUEST, "a", "b", 0.0)
        assert other is not pkt
        assert pool.recycled == 0
        assert pool.constructed == 2


class TestPoisonDebugMode:
    def test_use_after_release_context_call_raises(self):
        pool = live_pool(debug=True)
        pkt = pool.acquire(1, RESPONSE, "a", "client", 0.0, context=lambda p: None)
        pool.release(pkt)
        with pytest.raises(PoolError, match="use-after-release"):
            pkt.context(pkt)  # a stale continuation firing

    def test_released_packet_fields_are_poisoned(self):
        pool = live_pool(debug=True)
        pkt = pool.acquire(1, REQUEST, "a", "b", 2.0)
        pool.release(pkt)
        # Stale routing on the poisoned packet cannot silently succeed:
        # the kind matches neither REQUEST nor RESPONSE and the names
        # match no container, so any dispatch on it fails loudly.
        assert pkt.kind not in (REQUEST, RESPONSE)
        assert pkt.src == pkt.kind and pkt.dst == pkt.kind
        assert math.isnan(pkt.start_time) and math.isnan(pkt.send_time)

    def test_reacquired_packet_is_fully_unpoisoned(self):
        pool = live_pool(debug=True)
        pkt = pool.acquire(1, REQUEST, "a", "b", 2.0)
        pool.release(pkt)
        again = pool.acquire(2, REQUEST, "x", "y", 3.0)
        assert again is pkt
        assert again.kind == REQUEST
        assert again.start_time == 3.0 and again.send_time == 0.0
        assert again.context is None


class TestEnvSwitches:
    def test_pool_disabled_via_env_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "0")
        pool = PacketPool()
        assert not pool.enabled
        pkt = pool.acquire(1, REQUEST, "a", "b", 0.0)
        pool.release(pkt)
        assert pool.free == 0

    def test_debug_enabled_via_env_at_construction(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL_DEBUG", "1")
        pool = PacketPool()
        assert pool.enabled and pool.debug

    def test_default_is_pooled_non_debug(self, monkeypatch):
        monkeypatch.delenv("REPRO_POOL", raising=False)
        monkeypatch.delenv("REPRO_POOL_DEBUG", raising=False)
        pool = PacketPool()
        assert pool.enabled and not pool.debug


class TestHandleRecycling:
    """Engine EventHandle free list, guarded by ``sys.getrefcount``."""

    def test_chain_run_recycles_instead_of_constructing(self):
        sim = Simulator()
        remaining = [10_000]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert sim.events_fired == 10_000
        # The chain reuses one handle over and over; a tiny constant
        # number of fresh allocations (first link + heap warm-up), the
        # rest served from the free list.
        assert sim.handles_constructed <= 4
        assert sim.handles_recycled >= 9_000

    def test_retained_handle_is_never_recycled(self):
        sim = Simulator()
        kept = sim.schedule(0.0, lambda: None)
        sim.run()
        assert kept.fn is None  # fired
        fresh = sim.schedule(0.0, lambda: None)
        # Our live reference was visible to the refcount guard, so the
        # engine allocated a new handle rather than reusing ``kept``.
        assert fresh is not kept
        assert sim.handles_recycled == 0

    def test_unretained_fired_handle_is_recycled(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)  # handle reference dropped here
        sim.run()
        again = sim.schedule(0.0, lambda: None)
        assert sim.handles_recycled == 1
        assert again.seq == 1  # seq keeps counting across reuse
        sim.run()

    def test_cancelled_dropped_handle_is_recycled(self):
        sim = Simulator()
        decoy = sim.schedule(1.0, lambda: None)
        decoy.cancel()
        del decoy
        sim.schedule(2.0, lambda: None)
        sim.run()  # pops the cancelled entry, free-lists it
        sim.schedule(0.0, lambda: None)
        assert sim.handles_recycled >= 1
        sim.run()

    def test_retained_cancelled_handle_is_never_recycled(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        kept.cancel()
        sim.run()  # drops the cancelled entry; our reference blocks reuse
        fresh = sim.schedule(0.0, lambda: None)
        assert fresh is not kept
        assert sim.handles_recycled == 0

    def test_compaction_recycles_unreferenced_cancelled_handles(self):
        sim = Simulator()
        # Fewer than the floor are left after the first compaction, so
        # it is the only one.
        rest = Simulator._COMPACT_MIN // 2
        n = Simulator._COMPACT_MIN + rest
        handles = [sim.schedule(1.0, lambda: None) for _ in range(n)]
        # Cancelled and dropped one by one: the _COMPACT_MIN-th cancel
        # compacts the heap while its own handle is still referenced.
        while handles:
            handles.pop().cancel()
        assert sim.events_pending == rest
        for _ in range(Simulator._COMPACT_MIN - 1):
            sim.schedule(2.0, lambda: None)
        assert sim.handles_constructed == n
        assert sim.handles_recycled == Simulator._COMPACT_MIN - 1
        sim.run()
        assert sim.live_events_pending == 0

    def test_compaction_never_recycles_a_retained_cancelled_handle(self):
        sim = Simulator()
        n = Simulator._COMPACT_MIN + 88
        kept = sim.schedule(1.0, lambda: None)
        kept.cancel()
        handles = [sim.schedule(1.0, lambda: None) for _ in range(n)]
        while handles:
            handles.pop().cancel()  # compacts, dropping ``kept``'s entry
        assert sim.events_pending < n
        fresh = [sim.schedule(2.0, lambda: None) for _ in range(n)]
        assert all(h is not kept for h in fresh)
        assert kept.fn is None and kept.args == ()
        kept.cancel()  # still a dead handle: a no-op
        assert sim.live_events_pending == n

    def test_env_kill_switch_disables_recycling(self, monkeypatch):
        monkeypatch.setenv("REPRO_POOL", "0")
        sim = Simulator()
        remaining = [100]

        def tick():
            remaining[0] -= 1
            if remaining[0]:
                sim.schedule(1e-6, tick)

        sim.schedule(0.0, tick)
        sim.run()
        assert sim.handles_recycled == 0
        assert sim.handles_constructed == 100

    def test_step_recycles_like_run(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        assert sim.step()
        sim.schedule(0.0, lambda: None)
        assert sim.handles_recycled == 1
        assert sim.step()


class TestSteadyStateChurn:
    """Fresh objects built per packet by a real cluster under open-loop load.

    The counts come from the recyclers themselves, so they are exact on
    any machine.  Warm-up fills both free lists; after it, a pooled run
    should serve every packet and handle from them.
    """

    WARMUP, MEASURE = 0.5, 1.0
    #: Fresh RpcPacket + EventHandle constructions allowed per 100k sends.
    CEILING_PER_100K = 2_000

    def measure(self, monkeypatch, pool, plan=None):
        """(sends, responses, fresh packets, recycled packets, fresh
        handles) over the measured window; ``plan`` is armed on the
        cluster first."""
        monkeypatch.setenv("REPRO_POOL", pool)
        workload = get_workload("chain")
        sim = Simulator()
        cluster = Cluster(
            sim, workload.build(), ClusterConfig(n_nodes=1), RngRegistry(1)
        )
        if plan is not None:
            FaultInjector(plan).arm(sim, cluster)
        net = cluster.network
        client = OpenLoopClient(
            sim, cluster, RateSchedule(workload.base_rate),
            duration=self.WARMUP + self.MEASURE,
        )
        client.begin()

        def responses():
            # Each completion, successful or not, sends one response.
            return sum(
                inst.requests_completed + inst.requests_failed
                for inst in cluster.instances.values()
            )

        sim.run(until=self.WARMUP)
        sent0, responses0, packets0, recycled0, handles0 = (
            net.packets_sent, responses(), net.pool.constructed,
            net.pool.recycled, sim.handles_constructed,
        )
        sim.run(until=self.WARMUP + self.MEASURE)
        sent = net.packets_sent - sent0
        assert sent > 10_000
        return (
            sent,
            responses() - responses0,
            net.pool.constructed - packets0,
            net.pool.recycled - recycled0,
            sim.handles_constructed - handles0,
        )

    def test_pooled_run_recycles_packets_and_handles(self, monkeypatch):
        sent, _, packets, _, handles = self.measure(monkeypatch, "1")
        assert (packets + handles) * 100_000 <= self.CEILING_PER_100K * sent

    def test_rpc_armed_run_takes_every_packet_from_the_pool(self, monkeypatch):
        # An RpcPolicy alone arms the timeout/retry layer on every hop and
        # drops nothing, so each send but a response is one acquisition:
        # a request or a retry.  A response is its request, sent back.
        plan = FaultPlan(rpc=RpcPolicy())
        sent, responses, packets, recycled, handles = self.measure(
            monkeypatch, "1", plan
        )
        assert packets + recycled == sent - responses
        assert (packets + handles) * 100_000 <= self.CEILING_PER_100K * sent

    def test_unpooled_run_builds_one_packet_per_send(self, monkeypatch):
        sent, responses, packets, _, handles = self.measure(monkeypatch, "0")
        assert packets == sent - responses
        assert handles >= sent
