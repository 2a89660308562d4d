"""Unit tests of the caller-side RPC timeout/retry/error layer."""

import numpy as np
import pytest

from repro.cluster.frequency import DvfsModel
from repro.cluster.network import Network, NetworkConfig
from repro.cluster import packet
from repro.cluster.node import Node
from repro.cluster.packet import REQUEST
from repro.faults import RpcCaller, RpcPolicy


def mk_request(net, request_id=1, dst="b"):
    """A pooled request from ``a``, as every caller in the simulator sends."""
    return net.pool.acquire(request_id, REQUEST, "a", dst, 0.0)


def respond(net, pkt, src, *, error=False):
    """What a server does at completion: send the request back as its
    response, which the network releases after delivering it."""
    net.send(packet.respond(pkt, src, error))


@pytest.fixture
def net(sim, dvfs):
    """Two endpoints, deterministic latency: ``a`` resumes contexts
    (caller side), ``b`` echoes a response (server side) unless told to
    stay silent."""
    net = Network(sim, NetworkConfig(jitter=0.0))
    node = Node(sim, "n0", 8, DvfsModel())
    state = {"silent": False, "served": 0}

    def server(pkt):
        state["served"] += 1
        if not state["silent"]:
            respond(net, pkt, "b")

    net.register("a", None, lambda pkt: pkt.context(pkt))
    net.register("b", node, server)
    net.state = state
    return net


def caller(sim, net, **policy_kw):
    policy = RpcPolicy(**policy_kw)
    return RpcCaller(sim, net, policy, np.random.default_rng(0))


class TestHappyPath:
    def test_reply_delivered_once_and_timer_cancelled(self, sim, net):
        rpc = caller(sim, net, timeout=1.0)
        replies = []
        # Fields are read inside the callback: the network releases a
        # response once its handler returns.
        rpc.call(mk_request(net), lambda p: replies.append(p.request_id))
        sim.run()
        assert replies == [1]
        assert rpc.open_calls == 0
        assert rpc.retries == rpc.errors == 0
        # The timeout timer was cancelled, not left to fire.
        assert sim.live_events_pending == 0

    def test_fault_free_caller_draws_no_rng(self, sim, net):
        """Jitter is only drawn on an actual backoff, so a clean run
        consumes zero draws — the bit-identity precondition."""
        rng = np.random.default_rng(7)
        rpc = RpcCaller(sim, net, RpcPolicy(timeout=1.0), rng)
        for i in range(10):
            rpc.call(mk_request(net, i), lambda p: None)
        sim.run()
        assert rng.bit_generator.state == np.random.default_rng(7).bit_generator.state


class TestTotalLoss:
    def test_total_loss_completes_as_error_not_hang(self, sim, net):
        """The ISSUE's litmus test: 100% loss must resolve as an error
        in bounded time, never hang the caller."""
        net.state["silent"] = True  # black-hole server
        rpc = caller(sim, net, timeout=10e-3, max_retries=2, backoff_base=1e-3)
        replies = []
        rpc.call(mk_request(net), replies.append)
        sim.run()
        assert replies == [None]  # exhaustion
        assert rpc.errors == 1
        assert rpc.open_calls == 0
        # Exactly max_retries + 1 attempts were transmitted.
        assert net.state["served"] == 3
        assert rpc.retries == 2
        assert rpc.max_attempts_observed == 3
        # Bounded time: 3 timeouts + 2 jittered backoffs.
        assert sim.now <= 3 * 10e-3 + 2 * (1e-3 * 2 * 1.5) + 1e-9

    def test_zero_retries_policy(self, sim, net):
        net.state["silent"] = True
        rpc = caller(sim, net, timeout=5e-3, max_retries=0)
        replies = []
        rpc.call(mk_request(net), replies.append)
        sim.run()
        assert replies == [None] and rpc.retries == 0


class TestDuplicates:
    def test_straggler_response_absorbed_by_done_latch(self, sim, net, dvfs):
        """A retransmission racing a slow original produces two
        responses; exactly one resolves the call."""
        node = Node(sim, "n1", 8, dvfs)
        slow_first = {"n": 0}

        def slow_server(pkt):
            slow_first["n"] += 1
            delay = 30e-3 if slow_first["n"] == 1 else 0.0
            sim.schedule(delay, respond, net, pkt, "c")

        net.register("c", node, slow_server)
        rpc = caller(sim, net, timeout=10e-3, max_retries=2, backoff_base=1e-3)
        replies = []
        rpc.call(mk_request(net, 9, dst="c"), replies.append)
        sim.run()
        assert slow_first["n"] == 2  # the server really served twice
        assert len(replies) == 1 and replies[0] is not None
        assert rpc.open_calls == 0
        assert sim.live_events_pending == 0

    def test_error_response_is_terminal_no_retry(self, sim, net, dvfs):
        node = Node(sim, "n2", 8, dvfs)
        served = []
        net.register(
            "err", node,
            lambda pkt: (served.append(1), respond(net, pkt, "err", error=True)),
        )
        rpc = caller(sim, net, timeout=10e-3, max_retries=3)
        replies = []
        rpc.call(
            mk_request(net, 2, dst="err"),
            lambda p: replies.append(p.error),
        )
        sim.run()
        # Delivered via on_reply with error=True, without burning retries.
        assert replies == [True]
        assert len(served) == 1 and rpc.retries == 0


class TestRetryBudget:
    def test_budget_fails_fast_when_drained(self, sim, net):
        net.state["silent"] = True
        rpc = caller(
            sim, net, timeout=5e-3, max_retries=5,
            backoff_base=0.0, backoff_jitter=0.0,
            retry_budget=0.0, retry_burst=2.0,
        )
        replies = []
        for i in range(4):
            rpc.call(mk_request(net, i), replies.append)
        sim.run()
        assert replies == [None] * 4
        # Only the initial bucket's 2 tokens were ever spent: with no
        # successes there is no refill, so the storm brake engages.
        assert rpc.retries == 2
        assert rpc.budget_exhausted == 4
        assert rpc.open_calls == 0

    def test_successes_refill_the_bucket(self, sim, net):
        rpc = caller(
            sim, net, timeout=5e-3, max_retries=5,
            retry_budget=0.5, retry_burst=1.0,
        )
        done = []
        for i in range(8):
            rpc.call(mk_request(net, i), lambda p: done.append(p is not None))
        sim.run()
        assert done == [True] * 8
        # 8 successes × 0.5 tokens, capped at burst=1.
        assert rpc._retry_tokens == 1.0


class TestDeterminism:
    def test_identical_seeds_identical_timelines(self, sim, dvfs):
        def run_once():
            from repro.sim.engine import Simulator

            s = Simulator()
            n = Network(s, NetworkConfig(jitter=0.0))
            node = Node(s, "n0", 8, dvfs)
            n.register("a", None, lambda pkt: pkt.context(pkt))
            n.register("b", node, lambda pkt: None)  # black hole
            rpc = RpcCaller(
                s, n, RpcPolicy(timeout=5e-3, max_retries=3, backoff_base=1e-3),
                np.random.default_rng(123),
            )
            times = []
            for i in range(5):
                rpc.call(
                    mk_request(n, i),
                    lambda p: times.append(s.now) if p is None else None,
                )
            s.run()
            return times, s.events_fired

        assert run_once() == run_once()
