"""Unit tests for the replica/LB substrate: naming, placement expansion,
policy registry, cluster replica API, and the network's virtual-endpoint
resolution seam."""

import pytest

from repro.cluster.cluster import ClusterConfig
from repro.cluster.loadbalancer import (
    DOWN,
    DRAINING,
    READY,
    WARMING,
    ConsistentHashPolicy,
    LeastLoadedPolicy,
    RoundRobinPolicy,
    make_policy,
    replica_name,
    service_of_name,
)
from repro.cluster.placement import expand_depths, expand_replicas
from tests.conftest import drive_cluster, make_chain_app


class TestNaming:
    def test_replica_zero_keeps_the_bare_service_name(self):
        assert replica_name("geo", 0) == "geo"
        assert replica_name("geo", 2) == "geo@2"

    def test_service_of_name_round_trips(self):
        for svc in ("geo", "rate", "user-store"):
            for k in range(4):
                assert service_of_name(replica_name(svc, k)) == svc

    def test_non_replica_suffixes_pass_through(self):
        # "@" followed by a non-index is part of the service name.
        assert service_of_name("mail@host") == "mail@host"
        assert service_of_name("plain") == "plain"


class TestPlacementExpansion:
    def test_identity_at_one_replica(self):
        names = ["a", "b", "c"]
        assert expand_replicas(names, 1) == names
        depths = {"a": 0, "b": 1}
        assert expand_depths(depths, 1) == depths

    def test_replicas_expand_in_service_major_order(self):
        assert expand_replicas(["a", "b"], 3) == [
            "a", "a@1", "a@2", "b", "b@1", "b@2",
        ]

    def test_replicas_inherit_their_service_depth(self):
        assert expand_depths({"a": 0, "b": 2}, 2) == {
            "a": 0, "a@1": 0, "b": 2, "b@1": 2,
        }

    def test_bad_replica_count_rejected(self):
        with pytest.raises(ValueError):
            expand_replicas(["a"], 0)


class TestPolicyRegistry:
    def test_make_policy_builds_each_registered_policy(self):
        assert isinstance(make_policy("round_robin"), RoundRobinPolicy)
        assert isinstance(make_policy("least_loaded"), LeastLoadedPolicy)
        assert isinstance(make_policy("consistent_hash"), ConsistentHashPolicy)

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown lb policy"):
            make_policy("random")


class TestClusterConfigValidation:
    def test_bad_replica_count_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(replicas=0)

    def test_bad_lb_policy_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(replicas=2, lb_policy="random")


class TestDefaultCluster:
    def test_every_service_is_a_one_replica_set(self, small_cluster):
        assert set(small_cluster.replica_sets) == {"s0", "s1", "s2"}
        assert small_cluster.replicas_of("s1") == ["s1"]
        assert small_cluster.service_of("s1") == "s1"
        assert small_cluster.scale_in("s1") is None
        assert small_cluster.reap_draining() == 0
        assert small_cluster.scale_out("s1") == "s1@1"
        assert small_cluster.replicas_of("s1") == ["s1", "s1@1"]
        # Only service names are LB aliases; a launch adds none.
        assert sorted(small_cluster.network._virtual) == ["s0", "s1", "s2"]


class TestArmedCluster:
    def test_construction_deploys_every_replica(self, make_cluster):
        cluster = make_cluster(make_chain_app(3), replicas=2)
        assert set(cluster.replica_sets) == {"s0", "s1", "s2"}
        assert cluster.replicas_of("s1") == ["s1", "s1@1"]
        assert cluster.service_of("s1@1") == "s1"
        assert "s1@1" in cluster.containers and "s1@1" in cluster.instances
        for rset in cluster.replica_sets.values():
            assert all(r.state == READY for r in rset.replicas)

    def test_local_downstream_lists_every_co_located_replica(self, make_cluster):
        cluster = make_cluster(make_chain_app(3), replicas=2)
        (view,) = cluster.node_views
        # Transitive downstream of the root, expanded per replica, in
        # stable service-major order.
        assert view.local_downstream("s0") == ["s1", "s1@1", "s2", "s2@1"]
        assert view.local_downstream("s0@1") == ["s1", "s1@1", "s2", "s2@1"]
        assert view.local_downstream("s2@1") == []

    def test_scale_lifecycle_out_drain_reap_revive(self, sim, make_cluster):
        cluster = make_cluster(
            make_chain_app(2, cores=2.0), cores_per_node=12.0, replicas=1
        )
        node = cluster.nodes[0]
        free0 = node.free_cores
        rset = cluster.replica_sets["s1"]

        # Launch: warming holds cores but is not READY yet.
        name = cluster.scale_out("s1", ready_delay=0.1)
        assert name == "s1@1"
        replica = rset.by_name(name)
        assert replica.state == WARMING
        assert node.free_cores == free0 - 2.0
        sim.run(until=0.2)
        assert replica.state == READY

        # Drain, then reap once idle past the grace period.
        assert cluster.scale_in("s1") == "s1@1"
        assert replica.state == DRAINING
        sim.run(until=0.2 + cluster.REAP_GRACE + 0.05)
        assert cluster.reap_draining() == 1
        assert replica.state == DOWN
        assert node.free_cores == free0  # cores returned to the budget
        assert cluster.allocations()["s1@1"] == 0.0

        # Scale-out again revives the reaped slot under the same name.
        assert cluster.scale_out("s1", ready_delay=0.1) == "s1@1"
        assert replica.state == WARMING
        assert node.free_cores == free0 - 2.0

    def test_scale_out_prefers_undraining_over_launch(self, make_cluster):
        cluster = make_cluster(make_chain_app(2), replicas=2)
        rset = cluster.replica_sets["s1"]
        assert cluster.scale_in("s1") == "s1@1"
        # The draining replica is still warm: scale-out reuses it
        # instantly instead of paying for a fresh launch.
        assert cluster.scale_out("s1", ready_delay=5.0) == "s1@1"
        assert rset.by_name("s1@1").state == READY
        assert len(rset.replicas) == 2

    def test_replica_zero_is_never_drained(self, make_cluster):
        cluster = make_cluster(make_chain_app(2), replicas=1)
        assert cluster.scale_in("s1") is None

    def test_scale_out_blocked_by_node_budget(self, make_cluster):
        # 2 services × 2.0 cores fill the node exactly: nothing fits.
        cluster = make_cluster(
            make_chain_app(2, cores=2.0), cores_per_node=4.0, replicas=1
        )
        assert cluster.scale_out("s1") is None
        assert cluster.replicas_of("s1") == ["s1"]

    def test_traffic_flows_through_replicas(self, sim, make_cluster):
        cluster = make_cluster(make_chain_app(2), replicas=2)
        client = drive_cluster(sim, cluster, rate=400.0, duration=0.3)
        assert client.stats.completed == client.stats.sent > 0
        rset = cluster.replica_sets["s1"]
        # Round-robin spread the mid-chain hops across both replicas.
        assert all(r.dispatched > 0 for r in rset.replicas)
        assert rset.dispatched == sum(r.dispatched for r in rset.replicas)

    def test_warming_replica_receives_no_traffic(self, sim, make_cluster):
        cluster = make_cluster(make_chain_app(2), replicas=1)
        name = cluster.scale_out("s1", ready_delay=60.0)  # warms forever
        drive_cluster(sim, cluster, rate=400.0, duration=0.3)
        warming = cluster.replica_sets["s1"].by_name(name)
        assert warming.state == WARMING
        assert warming.dispatched == 0
        assert warming.instance.requests_started == 0

    def test_no_ready_replica_discards_the_packet(self, sim, make_cluster):
        cluster = make_cluster(make_chain_app(2), replicas=1)
        rset = cluster.replica_sets["s0"]
        rset.replicas[0].state = WARMING  # ingress endpoint unavailable
        responses = []
        cluster.client_send(0, responses.append)
        sim.run()
        assert responses == []
        assert rset.unroutable == 1
        assert cluster.network.packets_unroutable == 1
