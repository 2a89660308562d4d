"""Unit tests for the RPC fabric."""

import numpy as np
import pytest

from repro.cluster.frequency import DvfsModel
from repro.cluster.network import Network, NetworkConfig
from repro.cluster.node import Node
from repro.cluster.packet import REQUEST, RpcPacket
from repro.sim.rng import BLOCK


def mk_packet(src="a", dst="b", upscale=0, request_id=1):
    return RpcPacket(
        request_id=request_id,
        kind=REQUEST,
        src=src,
        dst=dst,
        start_time=0.0,
        upscale=upscale,
    )


def sent_latency(sim, net, src="a", dst="b"):
    """Latency of one real ``send`` from ``src`` to ``dst`` now: the
    time its delivery fires, less the time it was sent."""
    sent = sim.now
    arrived = []
    tap = lambda p: arrived.append(sim.now)
    net.add_observer(tap)
    net.send(mk_packet(src, dst))
    sim.run()
    net.remove_observer(tap)
    (delivered,) = arrived
    return delivered - sent


def delivery_times(sim, net, n, src="a", dst="b"):
    """Send ``n`` packets at t=0 and return each one's delivery time, in
    send order: at t=0 the delivery time is the latency itself, so it
    can be compared bit-exactly."""
    assert sim.now == 0.0
    arrived = {}
    tap = lambda p: arrived.setdefault(p.request_id, sim.now)
    net.add_observer(tap)
    for i in range(n):
        net.send(mk_packet(src, dst, request_id=i))
    sim.run()
    net.remove_observer(tap)
    return [arrived[i] for i in range(n)]


@pytest.fixture
def net(sim):
    return Network(sim, NetworkConfig(jitter=0.0))


@pytest.fixture
def two_nodes(sim, dvfs):
    return Node(sim, "n0", 8, dvfs), Node(sim, "n1", 8, dvfs)


class TestRouting:
    def test_delivers_to_registered_endpoint(self, sim, net, two_nodes):
        n0, _ = two_nodes
        inbox = []
        net.register("a", n0, inbox.append)
        net.register("b", n0, inbox.append)
        net.send(mk_packet())
        sim.run()
        assert len(inbox) == 1
        assert inbox[0].dst == "b"

    def test_unknown_destination_raises(self, net, two_nodes):
        net.register("a", two_nodes[0], lambda p: None)
        with pytest.raises(KeyError):
            net.send(mk_packet(dst="nope"))

    def test_unknown_source_raises(self, net, two_nodes):
        net.register("b", two_nodes[0], lambda p: None)
        with pytest.raises(KeyError):
            net.send(mk_packet(src="ghost"))

    def test_duplicate_registration_rejected(self, net, two_nodes):
        net.register("a", two_nodes[0], lambda p: None)
        with pytest.raises(ValueError):
            net.register("a", two_nodes[0], lambda p: None)

    def test_counters(self, sim, net, two_nodes):
        n0, _ = two_nodes
        net.register("a", n0, lambda p: None)
        net.register("b", n0, lambda p: None)
        net.send(mk_packet())
        assert net.packets_sent == 1
        sim.run()
        assert net.packets_delivered == 1


class TestLatency:
    def test_intra_node_cheaper_than_inter(self, sim, dvfs, two_nodes):
        cfg = NetworkConfig(intra_node_latency=5e-6, inter_node_latency=30e-6, jitter=0.0)
        net = Network(sim, cfg)
        n0, n1 = two_nodes
        net.register("a", n0, lambda p: None)
        net.register("b", n0, lambda p: None)
        net.register("c", n1, lambda p: None)
        assert sent_latency(sim, net, "a", "b") == pytest.approx(5e-6)
        assert sent_latency(sim, net, "a", "c") == pytest.approx(30e-6)

    def test_external_endpoint_is_remote(self, sim, net, two_nodes):
        n0, _ = two_nodes
        net.register("a", n0, lambda p: None)
        net.register("client", None, lambda p: None)
        assert sent_latency(sim, net, "client", "a") == pytest.approx(
            net.config.inter_node_latency
        )

    def test_delivery_time_matches_latency(self, sim, net, two_nodes):
        n0, n1 = two_nodes
        times = []
        net.register("a", n0, lambda p: None)
        net.register("b", n1, lambda p: times.append(sim.now))
        net.send(mk_packet())
        sim.run()
        assert times == [pytest.approx(net.config.inter_node_latency)]

    def test_latency_surge_adds_delay(self, sim, net, two_nodes):
        n0, n1 = two_nodes
        times = []
        net.register("a", n0, lambda p: None)
        net.register("b", n1, lambda p: times.append(sim.now))
        net.add_latency_surge(0.0, 1.0, extra=0.005)
        net.send(mk_packet())
        sim.run(until=0.1)
        assert times == [pytest.approx(0.005 + net.config.inter_node_latency)]

    def test_latency_surge_window_respected(self, sim, net, two_nodes):
        n0, n1 = two_nodes
        times = []
        net.register("a", n0, lambda p: None)
        net.register("b", n1, lambda p: times.append(sim.now))
        net.add_latency_surge(0.5, 1.0, extra=0.005)
        sim.schedule(2.0, lambda: net.send(mk_packet()))
        sim.run()
        assert times == [pytest.approx(2.0 + net.config.inter_node_latency)]

    def test_invalid_surge_rejected(self, net):
        with pytest.raises(ValueError):
            net.add_latency_surge(1.0, 0.5, extra=0.01)


NAN, INF = float("nan"), float("inf")


class TestNonFiniteInput:
    """NaN and infinity fail at construction, naming the field.

    Left through, ``jitter=nan`` runs exactly like ``jitter=0``, and a
    non-finite latency or surge fails mid-run in the event scheduler
    without saying which field it was.
    """

    @pytest.mark.parametrize(
        "field", ["intra_node_latency", "inter_node_latency", "jitter"]
    )
    @pytest.mark.parametrize("value", [NAN, INF])
    def test_network_config(self, field, value):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: value})

    @pytest.mark.parametrize(
        "start, end, extra, field",
        [
            (NAN, 1.0, 1e-3, "start"),
            (-INF, 1.0, 1e-3, "start"),
            (0.0, NAN, 1e-3, "end"),
            (0.0, INF, 1e-3, "end"),
            (0.0, 1.0, NAN, "extra"),
            (0.0, 1.0, INF, "extra"),
        ],
    )
    def test_latency_surge(self, net, start, end, extra, field):
        with pytest.raises(ValueError, match=field):
            net.add_latency_surge(start, end, extra)


class TestSurgeTimeline:
    @pytest.fixture
    def routed(self, sim, net, two_nodes):
        n0, n1 = two_nodes
        net.register("a", n0, lambda p: None)
        net.register("b", n1, lambda p: None)
        return net

    def _advance_to(self, sim, t):
        sim.schedule(t, lambda: None)
        sim.run()

    def test_surge_cost_drops_to_zero_after_end(self, sim, routed):
        routed.add_latency_surge(0.0, 1.0, extra=0.005)
        inter = routed.config.inter_node_latency
        assert sent_latency(sim, routed) == pytest.approx(0.005 + inter)
        self._advance_to(sim, 2.0)
        assert sent_latency(sim, routed) == pytest.approx(inter)

    def test_expired_surges_pruned_from_timeline(self, sim, routed):
        routed.add_latency_surge(0.0, 1.0, extra=0.005)
        routed.add_latency_surge(0.5, 1.5, extra=0.002)
        self._advance_to(sim, 2.0)
        sent_latency(sim, routed)  # triggers the rescan/prune
        assert routed._surges == []

    def test_wholly_past_window_dropped_on_add(self, sim, routed):
        self._advance_to(sim, 5.0)
        routed.add_latency_surge(0.0, 1.0, extra=0.005)
        assert routed._surges == []
        assert sent_latency(sim, routed) == pytest.approx(
            routed.config.inter_node_latency
        )

    def test_overlapping_surges_sum(self, sim, routed):
        routed.add_latency_surge(0.0, 2.0, extra=0.005)
        routed.add_latency_surge(0.0, 1.0, extra=0.002)
        assert sent_latency(sim, routed) == pytest.approx(
            0.007 + routed.config.inter_node_latency
        )

    def test_adding_surge_invalidates_active_cache(self, sim, routed):
        inter = routed.config.inter_node_latency
        assert sent_latency(sim, routed) == pytest.approx(inter)  # caches "no surge"
        routed.add_latency_surge(0.0, 1.0, extra=0.005)
        assert sent_latency(sim, routed) == pytest.approx(0.005 + inter)

    def test_cache_expires_at_next_boundary(self, sim, routed):
        inter = routed.config.inter_node_latency
        routed.add_latency_surge(1.0, 2.0, extra=0.005)
        assert sent_latency(sim, routed) == pytest.approx(inter)
        self._advance_to(sim, 1.5)
        assert sent_latency(sim, routed) == pytest.approx(0.005 + inter)


class TestJitterBatching:
    def test_batched_stream_matches_per_call_draws(self, sim, dvfs, two_nodes):
        import numpy as np

        from repro.cluster.network import NetworkConfig

        cfg = NetworkConfig(intra_node_latency=5e-6, jitter=0.1)
        net = Network(sim, cfg, np.random.default_rng(7))
        n0, _ = two_nodes
        net.register("a", n0, lambda p: None)
        net.register("b", n0, lambda p: None)
        got = delivery_times(sim, net, 5)
        ref_rng = np.random.default_rng(7)
        want = [5e-6 * (1.0 + float(ref_rng.random()) * 0.1) for _ in range(5)]
        assert got == want  # bit-identical, not approx


class TestRxHooks:
    def test_hooks_run_before_handler(self, sim, net, two_nodes):
        n0, _ = two_nodes
        order = []
        n0.add_rx_hook(lambda p: order.append("hook"))
        net.register("a", n0, lambda p: None)
        net.register("b", n0, lambda p: order.append("handler"))
        net.send(mk_packet())
        sim.run()
        assert order == ["hook", "handler"]

    def test_hook_cost_added_to_latency(self, sim, dvfs, two_nodes):
        cfg = NetworkConfig(intra_node_latency=5e-6, jitter=0.0)
        net = Network(sim, cfg)
        n0, _ = two_nodes
        n0.add_rx_hook(lambda p: None, cost=0.26e-6)
        net.register("a", n0, lambda p: None)
        net.register("b", n0, lambda p: None)
        assert sent_latency(sim, net) == pytest.approx(5e-6 + 0.26e-6)

    def test_external_endpoints_skip_hooks(self, sim, net, two_nodes):
        n0, _ = two_nodes
        hooked = []
        n0.add_rx_hook(hooked.append)
        net.register("a", n0, lambda p: None)
        net.register("client", None, lambda p: None)
        net.send(mk_packet(src="a", dst="client"))
        sim.run()
        assert hooked == []


class TestJitter:
    def test_block_drawn_jitter_equals_scalar_draws(self, sim, two_nodes):
        n0, n1 = two_nodes
        cfg = NetworkConfig(jitter=0.1)
        net = Network(sim, cfg, np.random.default_rng(5))
        net.register("a", n0, lambda p: None)
        net.register("b", n1, lambda p: None)
        n = 2 * BLOCK + 3  # past two refills
        got = delivery_times(sim, net, n)
        ref = np.random.default_rng(5)
        want = [
            cfg.inter_node_latency * (1.0 + float(ref.random()) * cfg.jitter) + 0.0 + 0.0
            for _ in range(n)
        ]
        assert got == want

    def test_zero_jitter_draws_nothing(self, sim, two_nodes):
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        net = Network(sim, NetworkConfig(jitter=0.0), rng)
        net.register("a", two_nodes[0], lambda p: None)
        net.register("b", two_nodes[1], lambda p: None)
        assert delivery_times(sim, net, 1) == [NetworkConfig().inter_node_latency]
        assert rng.bit_generator.state == before
