"""Unit tests for nodes: budgets and hooks."""

import pytest

from repro.cluster.container import Container
from repro.cluster.network import Network, NetworkConfig
from repro.cluster.node import Node
from repro.cluster.packet import REQUEST, RpcPacket


@pytest.fixture
def node(sim, dvfs):
    return Node(sim, "n0", 8.0, dvfs)


def add(node, name, cores):
    c = Container(node.sim, name, node.dvfs, cores=cores)
    node.add_container(c)
    return c


def deliver(node):
    """Deliver one packet to an endpoint on ``node`` through a bare network."""
    net = Network(node.sim, NetworkConfig(jitter=0.0))
    net.register("client", None, lambda p: None)
    net.register("dst", node, lambda p: None)
    net.send(RpcPacket(request_id=1, kind=REQUEST, src="client", dst="dst", start_time=0.0))
    node.sim.run()


class TestBudget:
    def test_allocation_accounting(self, node):
        add(node, "a", 2.0)
        add(node, "b", 3.0)
        assert node.allocated == 5.0
        assert node.free_cores == 3.0

    def test_adding_over_budget_rejected(self, node):
        add(node, "a", 6.0)
        with pytest.raises(ValueError):
            add(node, "b", 3.0)

    def test_set_cores_within_budget(self, node):
        add(node, "a", 2.0)
        node.set_cores("a", 7.0)
        assert node.containers["a"].cores == 7.0

    def test_set_cores_over_budget_rejected(self, node):
        add(node, "a", 2.0)
        add(node, "b", 2.0)
        with pytest.raises(ValueError):
            node.set_cores("a", 7.0)

    def test_can_grow(self, node):
        add(node, "a", 2.0)
        assert node.can_grow("a", 6.0)
        assert not node.can_grow("a", 6.5)

    def test_can_grow_unknown_container(self, node):
        with pytest.raises(KeyError):
            node.can_grow("ghost", 1.0)

    def test_duplicate_container_rejected(self, node):
        add(node, "a", 1.0)
        with pytest.raises(ValueError):
            add(node, "a", 1.0)

    def test_container_cannot_be_placed_twice(self, sim, dvfs, node):
        c = add(node, "a", 1.0)
        other = Node(sim, "n1", 8.0, dvfs)
        with pytest.raises(ValueError):
            other.add_container(c)

    def test_invalid_node_cores_rejected(self, sim, dvfs):
        with pytest.raises(ValueError):
            Node(sim, "n", 0.0, dvfs)


class TestHooks:
    def test_hooks_invoked_in_order(self, node):
        calls = []
        node.add_rx_hook(lambda p: calls.append(1))
        node.add_rx_hook(lambda p: calls.append(2))
        deliver(node)
        assert calls == [1, 2]

    def test_rx_overhead_sums_costs(self, node):
        node.add_rx_hook(lambda p: None, cost=0.26e-6)
        node.add_rx_hook(lambda p: None, cost=0.1e-6)
        assert node.rx_overhead == pytest.approx(0.36e-6)

    def test_remove_hook(self, node):
        calls = []
        hook = lambda p: calls.append(1)
        node.add_rx_hook(hook, cost=1e-6)
        node.remove_rx_hook(hook)
        deliver(node)
        assert calls == []
        assert node.rx_overhead == 0.0

    def test_remove_bound_method_hook(self, node):
        # Every ``tap.on_packet`` access builds a new bound-method
        # object, so removal must match by equality, not identity.
        class Tap:
            calls = 0

            def on_packet(self, p):
                self.calls += 1

        tap = Tap()
        node.add_rx_hook(tap.on_packet, cost=0.26e-6)
        node.remove_rx_hook(tap.on_packet)
        deliver(node)
        assert tap.calls == 0
        assert node.rx_overhead == 0.0

    def test_negative_cost_rejected(self, node):
        with pytest.raises(ValueError):
            node.add_rx_hook(lambda p: None, cost=-1.0)
