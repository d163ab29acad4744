"""Tests for k-means on Pangea."""

import hashlib

import numpy as np
import pytest

from repro import MachineProfile, PangeaCluster
from repro.ml import kmeans
from repro.ml.kmeans import PangeaKMeans, generate_points
from repro.services.hashsvc import VirtualHashBuffer
from repro.sim.devices import GB, MB


def run_kmeans(num_logical, num_actual=1500, policy="data-aware",
               pool_bytes=50 * GB, nodes=4, iterations=3):
    profile = MachineProfile.r4_2xlarge(pool_bytes=pool_bytes)
    cluster = PangeaCluster(num_nodes=nodes, profile=profile, policy=policy)
    km = PangeaKMeans(cluster, k=5, dims=10, workers=8)
    points = generate_points(num_actual, num_clusters=5)
    data = km.load_points(points, represent=num_logical / num_actual)
    result = km.run(data, represent=num_logical / num_actual, iterations=iterations)
    return cluster, result, points


class TestConvergence:
    def test_inertia_decreases(self):
        points = generate_points(800, num_clusters=5)
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=64 * MB)
        )
        km = PangeaKMeans(cluster, k=5, dims=10, page_size=1 * MB)
        data = km.load_points(points, represent=1.0)

        def inertia(centroids):
            d = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            return d.min(axis=1).sum()

        shard = data.shards[0]
        first_result = km.run(data, represent=1.0, iterations=1)
        # Re-running more iterations from scratch must not be worse.
        cluster2 = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=64 * MB)
        )
        km2 = PangeaKMeans(cluster2, k=5, dims=10, page_size=1 * MB)
        data2 = km2.load_points(points, represent=1.0)
        more_result = km2.run(data2, represent=1.0, iterations=6)
        assert inertia(more_result.centroids) <= inertia(first_result.centroids) + 1e-6

    def test_centroids_have_right_shape(self):
        _cluster, result, _points = run_kmeans(1_000_000, iterations=1)
        assert result.centroids.shape == (5, 10)

    def test_deterministic_points(self):
        assert np.allclose(generate_points(100), generate_points(100))

    def test_too_few_points_rejected(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=64 * MB)
        )
        km = PangeaKMeans(cluster, k=50, dims=10, page_size=1 * MB)
        data = km.load_points(generate_points(10), represent=1.0)
        with pytest.raises(ValueError):
            km.run(data, represent=1.0)


class TestTimingShape:
    def test_larger_input_takes_longer(self):
        _c1, small, _p = run_kmeans(100_000_000)
        _c2, large, _p = run_kmeans(400_000_000)
        assert large.total_seconds > small.total_seconds

    def test_init_slower_than_iteration(self):
        """The paper's Pangea breakdown: init 43 s vs 11 s per iteration."""
        _cluster, result, _points = run_kmeans(1_000_000_000, nodes=10)
        assert result.init_seconds > result.avg_iteration_seconds

    def test_working_set_beyond_pool_triggers_paging(self):
        # 4GB pool/node, 2 nodes; 120GB of logical points >> pool.
        profile = MachineProfile.r4_2xlarge(pool_bytes=4 * GB)
        cluster = PangeaCluster(num_nodes=2, profile=profile)
        km = PangeaKMeans(cluster, k=5, dims=10, workers=8)
        points = generate_points(1200)
        data = km.load_points(points, represent=1_000_000_000 / 1200)
        km.run(data, represent=1_000_000_000 / 1200, iterations=1)
        assert sum(n.pool.stats.evictions for n in cluster.nodes) > 0

    def test_in_memory_run_avoids_paging(self):
        cluster, result, _points = run_kmeans(100_000_000, pool_bytes=50 * GB)
        assert sum(n.pool.stats.pageouts for n in cluster.nodes) == 0

    def test_peak_pool_tracks_both_sets(self):
        _cluster, result, _points = run_kmeans(1_000_000_000, nodes=10)
        logical = 1_000_000_000 * (120 + 128)
        assert result.peak_pool_bytes >= logical * 0.9


class TestPagingGolden:
    """A small k-means whose working set is 2.5x the pool, pinned as data.

    Each node holds 200 points of 248 logical MB (points plus norms)
    against a 20 GB pool, so every iteration pages in and evicts.  The
    centroids' bytes, every node's clock and the paging counters must not
    move when the storage path changes; a deliberate change to simulated
    time re-records these values.
    """

    CENTROIDS_SHA1 = "b581bbf76e9b8b3333b892a4ae18e4a8065d7f5d"
    CLOCK_TICKS = [290172605830515, 290172605830515]
    PAGEINS = [90, 90]
    EVICTIONS = [211, 211]
    EVICTION_ROUNDS = [112, 112]

    def test_run_matches_golden(self):
        cluster = PangeaCluster(
            num_nodes=2,
            profile=MachineProfile.r4_2xlarge(pool_bytes=20 * GB),
            policy="data-aware",
        )
        km = PangeaKMeans(cluster, k=5, dims=10, workers=8)
        points = generate_points(400, num_clusters=5, seed=3)
        data = km.load_points(points, represent=1_000_000)
        result = km.run(data, represent=1_000_000, iterations=3)
        nodes = cluster.nodes
        assert hashlib.sha1(result.centroids.tobytes()).hexdigest() == self.CENTROIDS_SHA1
        assert [n.clock.ticks for n in nodes] == self.CLOCK_TICKS
        assert [n.pool.stats.pageins for n in nodes] == self.PAGEINS
        assert [n.pool.stats.evictions for n in nodes] == self.EVICTIONS
        assert [n.paging.stats.eviction_rounds for n in nodes] == self.EVICTION_ROUNDS


def footprint(cluster) -> tuple:
    """Registered sets, pinned pages and per-node pool bytes."""
    pinned = sum(
        1 for node in cluster.nodes for page in node.pool.resident_pages() if page.pinned
    )
    return (
        cluster.manager.set_names(),
        pinned,
        [node.pool.used_bytes for node in cluster.nodes],
    )


class TestFailedRunCleansUp:
    """A run that raises drops its norms and aggregation sets and unpins
    every hash page, so the next run on the same input starts clean."""

    def make(self, num_points=40):
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=64 * MB)
        )
        km = PangeaKMeans(cluster, k=5, dims=10, page_size=1 * MB)
        data = km.load_points(generate_points(num_points), represent=1.0)
        return cluster, km, data

    def test_too_large_k_then_retry(self):
        cluster, km, data = self.make(num_points=10)
        before = footprint(cluster)
        assert before[0] == ["points"]
        km.k = 50
        with pytest.raises(ValueError, match="need at least k=50"):
            km.run(data, represent=1.0)
        assert footprint(cluster) == before
        km.k = 5
        result = km.run(data, represent=1.0, iterations=2)
        assert result.centroids.shape == (5, 10)
        assert footprint(cluster) == before

    def test_failing_hash_insert(self, monkeypatch):
        cluster, km, data = self.make()
        before = footprint(cluster)
        insert_many = VirtualHashBuffer.insert_many
        calls = []

        def fail_second(self, keys, values, nbytes=None):
            calls.append(len(keys))
            if len(calls) == 2:
                raise RuntimeError("insert failed")
            insert_many(self, keys, values, nbytes=nbytes)

        monkeypatch.setattr(VirtualHashBuffer, "insert_many", fail_second)
        with pytest.raises(RuntimeError, match="insert failed"):
            km.run(data, represent=1.0, iterations=2)
        assert footprint(cluster) == before
        monkeypatch.setattr(VirtualHashBuffer, "insert_many", insert_many)
        km.run(data, represent=1.0, iterations=2)
        assert footprint(cluster) == before


class TestAssignBatchBound:
    """The batch bound moves wall time only: one call per page (bound 1),
    every two pages (bound 3, two points per page) and once per shard (the
    default) leave centroids, clocks, hash and paging counters unchanged."""

    def run_with_bound(self, monkeypatch, bound):
        if bound is not None:
            monkeypatch.setattr(kmeans, "assign_batch_pairs", lambda nbytes: bound)
        insert_many = VirtualHashBuffer.insert_many
        calls = []

        def recording(self, keys, values, nbytes=None):
            calls.append((self, len(keys)))
            insert_many(self, keys, values, nbytes=nbytes)

        monkeypatch.setattr(VirtualHashBuffer, "insert_many", recording)
        # The TestPagingGolden cluster: the working set is 2.5x the pool.
        cluster = PangeaCluster(
            num_nodes=2,
            profile=MachineProfile.r4_2xlarge(pool_bytes=20 * GB),
            policy="data-aware",
        )
        km = PangeaKMeans(cluster, k=5, dims=10, workers=8)
        data = km.load_points(generate_points(400, num_clusters=5, seed=3), represent=1_000_000)
        result = km.run(data, represent=1_000_000, iterations=2)
        monkeypatch.undo()
        buffers = list(dict.fromkeys(buffer for buffer, _ in calls))
        observed = {
            "centroids": result.centroids.tobytes(),
            "ticks": [n.clock.ticks for n in cluster.nodes],
            "hash": [(b.stats.inserts, b.stats.combines) for b in buffers],
            "pageins": [n.pool.stats.pageins for n in cluster.nodes],
            "evictions": [n.pool.stats.evictions for n in cluster.nodes],
        }
        return observed, [size for _, size in calls], len(buffers)

    def test_bound_moves_no_simulated_result(self, monkeypatch):
        default, default_sizes, buffers = self.run_with_bound(monkeypatch, None)
        per_page, per_page_sizes, _ = self.run_with_bound(monkeypatch, 1)
        two_pages, two_page_sizes, _ = self.run_with_bound(monkeypatch, 3)
        assert per_page == default
        assert two_pages == default
        assert default["pageins"][0] > 0 and default["evictions"][0] > 0
        # 2 nodes x 2 iterations, 200 points per shard, 2 points per page.
        assert buffers == 4
        assert default_sizes == [200] * 4
        assert per_page_sizes == [2] * 400
        assert two_page_sizes == [4] * 200
