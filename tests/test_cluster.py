"""Tests for the cluster façade, manager, and bootstrap auth."""

import pytest

from repro import AuthError, KeyPair, MachineProfile, PangeaCluster
from repro.sim.devices import MB


@pytest.fixture
def cluster():
    return PangeaCluster(num_nodes=3, profile=MachineProfile.tiny(pool_bytes=8 * MB))


class TestClusterBasics:
    def test_nodes_created(self, cluster):
        assert cluster.num_nodes == 3
        assert [n.node_id for n in cluster.nodes] == [0, 1, 2]

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            PangeaCluster(num_nodes=0)

    def test_create_set_registers_everywhere(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB)
        assert set(data.shards) == {0, 1, 2}
        for node in cluster.nodes:
            assert "s" in node.fs
            assert data.shards[node.node_id] in node.paging.shards

    def test_duplicate_set_rejected(self, cluster):
        cluster.create_set("s")
        with pytest.raises(ValueError):
            cluster.create_set("s")

    def test_get_missing_set_raises(self, cluster):
        with pytest.raises(KeyError):
            cluster.get_set("nope")

    def test_drop_set_cleans_up(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(10)))
        cluster.drop_set("s")
        assert not cluster.manager.has_set("s")
        for node in cluster.nodes:
            assert "s" not in node.fs
            assert node.pool.used_bytes == 0


class TestTimeAndBarriers:
    def test_barrier_synchronizes_clocks(self, cluster):
        cluster.nodes[0].clock.advance(5.0)
        cluster.nodes[2].clock.advance(1.0)
        latest = cluster.barrier()
        assert latest == pytest.approx(5.0)
        assert all(n.clock.now == pytest.approx(5.0) for n in cluster.nodes)

    def test_simulated_seconds_is_max(self, cluster):
        cluster.nodes[1].clock.advance(7.0)
        assert cluster.simulated_seconds() == pytest.approx(7.0)

    def test_reset_clocks(self, cluster):
        cluster.nodes[0].clock.advance(3.0)
        cluster.reset_clocks()
        assert cluster.simulated_seconds() == 0.0


class TestStatisticsService:
    def test_update_and_read_statistics(self, cluster):
        data = cluster.create_set("s", page_size=1 * MB, object_bytes=100)
        data.add_data(list(range(30)))
        stats = cluster.manager.update_statistics(data)
        assert stats.num_objects == 30
        assert stats.logical_bytes == 3000
        assert cluster.manager.statistics("s").num_objects == 30

    def test_replicas_of_unreplicated_set(self, cluster):
        data = cluster.create_set("s")
        assert cluster.manager.replicas_of("s") == [data]

    def test_set_names_sorted(self, cluster):
        cluster.create_set("zz")
        cluster.create_set("aa")
        assert cluster.manager.set_names() == ["aa", "zz"]


class TestBootstrapAuth:
    def test_valid_key_boots(self):
        keys = KeyPair.generate()
        cluster = PangeaCluster(
            num_nodes=1, authorized_key=keys, private_key=keys.private_key
        )
        assert cluster.num_nodes == 1

    def test_invalid_key_terminates(self):
        keys = KeyPair.generate()
        with pytest.raises(AuthError):
            PangeaCluster(num_nodes=1, authorized_key=keys, private_key="wrong")

    def test_missing_key_terminates(self):
        keys = KeyPair.generate()
        with pytest.raises(AuthError):
            PangeaCluster(num_nodes=1, authorized_key=keys)

    def test_open_mode_without_keys(self):
        assert PangeaCluster(num_nodes=1).num_nodes == 1

    def test_keypair_matches(self):
        keys = KeyPair.generate()
        assert keys.matches(keys.private_key)
        assert not keys.matches("nope")


class TestNodeFailure:
    def test_fail_and_recover_flags(self, cluster):
        node = cluster.nodes[1]
        node.fail()
        assert [n.failed for n in cluster.nodes] == [False, True, False]
        node.recover_process()
        assert [n.failed for n in cluster.nodes] == [False, False, False]
