"""Tests for the metrics module and the command-line interface."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.__main__ import main
from repro.sim.devices import MB
from repro.sim.metrics import collect, format_table


@pytest.fixture
def busy_cluster():
    cluster = PangeaCluster(
        num_nodes=2, profile=MachineProfile.tiny(pool_bytes=4 * MB)
    )
    data = cluster.create_set("s", durability="write-back",
                              page_size=1 * MB, object_bytes=256 * 1024)
    data.add_data(list(range(64)))  # 16MB over two 4MB pools
    list(data.scan_records())
    return cluster


class TestMetrics:
    def test_collect_covers_every_node(self, busy_cluster):
        snapshot = collect(busy_cluster)
        assert [n.node_id for n in snapshot.nodes] == [0, 1]

    def test_counters_reflect_activity(self, busy_cluster):
        snapshot = collect(busy_cluster)
        assert snapshot.simulated_seconds > 0
        assert snapshot.total_disk_bytes > 0
        assert snapshot.total_evictions > 0

    def test_skew_reasonable(self, busy_cluster):
        snapshot = collect(busy_cluster)
        assert snapshot.skew() >= 1.0

    def test_format_table_renders(self, busy_cluster):
        text = format_table(collect(busy_cluster))
        assert "node" in text
        assert "total:" in text
        assert str(busy_cluster.nodes[0].node_id) in text

    def test_empty_cluster_metrics(self):
        cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny())
        snapshot = collect(cluster)
        assert snapshot.simulated_seconds == 0.0
        assert snapshot.skew() == 1.0


class TestCli:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "r4.2xlarge" in out

    def test_tpch_gen(self, capsys):
        assert main(["tpch-gen", "--scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "lineitem" in out

    def test_tpch_run_small(self, capsys):
        assert main(["tpch-run", "--scale", "0.001", "--nodes", "2"]) == 0
        out = capsys.readouterr().out
        assert "Q01" in out
        assert "Q22" in out

    def test_tpch_run_extended(self, capsys):
        assert main(
            ["tpch-run", "--scale", "0.001", "--nodes", "2", "--extended"]
        ) == 0
        out = capsys.readouterr().out
        assert "Q03" in out
        assert "Q19" in out

    def test_policies(self, capsys):
        assert main(["policies", "--pool-mb", "8",
                     "--policies", "data-aware,lru"]) == 0
        out = capsys.readouterr().out
        assert "data-aware" in out

    def test_kmeans_quick(self, capsys):
        assert main(
            ["kmeans", "--points", "100000000", "--nodes", "2",
             "--iterations", "1"]
        ) == 0
        out = capsys.readouterr().out
        assert "pangea" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])
