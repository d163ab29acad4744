"""Tests for k-means on Pangea."""

import hashlib

import numpy as np
import pytest

from repro import MachineProfile, PangeaCluster
from repro.ml.kmeans import PangeaKMeans, generate_points
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
