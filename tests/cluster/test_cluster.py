"""Unit tests for cluster assembly and the NodeView isolation contract."""

import pytest

from repro.cluster.cluster import ClusterConfig
from tests.conftest import make_chain_app


class TestAssembly:
    def test_one_container_per_service(self, small_cluster, small_app):
        assert set(small_cluster.containers) == {s.name for s in small_app.services}

    def test_initial_allocations_match_spec(self, small_cluster, small_app):
        for s in small_app.services:
            assert small_cluster.containers[s.name].cores == s.initial_cores

    def test_initial_frequency_is_floor(self, small_cluster):
        dvfs = small_cluster.config.dvfs
        for c in small_cluster.containers.values():
            assert c.frequency == dvfs.f_min

    def test_round_robin_spreads_across_nodes(self, make_cluster):
        app = make_chain_app(4)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=8)
        nodes_used = {cluster.placement[s] for s in app.service_names}
        assert nodes_used == {0, 1}

    def test_pack_placement_single_node(self, small_cluster):
        assert all(v == 0 for v in small_cluster.placement.values())

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ClusterConfig(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(placement="magic")


class TestControllerApi:
    def test_set_cores_respects_node_budget(self, small_cluster):
        with pytest.raises(ValueError):
            small_cluster.set_cores("s0", 100.0)

    def test_set_frequency_clamps(self, small_cluster):
        small_cluster.set_frequency("s0", 99e9)
        assert (
            small_cluster.containers["s0"].frequency
            == small_cluster.config.dvfs.f_max
        )

    def test_timeline_recording(self, sim, make_cluster, small_app):
        cluster = make_cluster(small_app)
        sim.schedule(1.0, cluster.set_cores, "s0", 3.0)
        sim.run()
        assert (1.0, "s0", 3.0) in cluster.alloc_events


class TestNodeView:
    def test_view_lists_only_local_containers(self, make_cluster):
        app = make_chain_app(4)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=8)
        v0, v1 = cluster.node_views
        assert set(v0.container_names) | set(v1.container_names) == set(
            app.service_names
        )
        assert not (set(v0.container_names) & set(v1.container_names))

    def test_remote_access_raises(self, make_cluster):
        app = make_chain_app(4)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=8)
        v0 = cluster.node_views[0]
        remote = next(
            n for n in app.service_names if n not in v0.container_names
        )
        with pytest.raises(KeyError):
            v0.container(remote)
        with pytest.raises(KeyError):
            v0.runtime(remote)
        with pytest.raises(KeyError):
            v0.set_cores(remote, 2.0)
        with pytest.raises(KeyError):
            v0.set_frequency(remote, 2e9)

    def test_local_downstream_filters_to_node(self, make_cluster):
        app = make_chain_app(4)
        cluster = make_cluster(app, n_nodes=2, cores_per_node=8)
        for view in cluster.node_views:
            for name in view.container_names:
                for d in view.local_downstream(name):
                    assert d in view.container_names
                    assert d in app.downstream_of(name)

    def test_view_mutations_apply(self, small_cluster):
        view = small_cluster.node_views[0]
        view.set_cores("s0", 3.0)
        assert small_cluster.containers["s0"].cores == 3.0


class TestClientPath:
    def test_client_roundtrip(self, sim, small_cluster):
        done = []
        small_cluster.client_send(7, lambda pkt: done.append(pkt.request_id))
        sim.run()
        assert done == [7]

    def test_request_counts(self, sim, small_cluster):
        for i in range(5):
            small_cluster.client_send(i, lambda p: None)
        sim.run()
        assert small_cluster.instances["s0"].requests_started == 5
