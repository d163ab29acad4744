"""k-means clustering on Pangea (paper Sec. 9.1.1, Figs. 3-4).

The implementation mirrors the paper's: a write-through locality set holds
the input points; the initialization step computes norms into a write-back
set (enlarging the working set, which is what forces paging at 2 billion
points); each of five iterations broadcasts the centroids, assigns every
point through the sequential read service, and aggregates per-cluster sums
through the hash service.

Scale-down: each actual record *represents* ``represent`` paper-scale
points.  Logical page sizes, I/O volumes and CPU charges all use the
paper-scale counts, so paging behaviour and timing shape match the paper
while the Python process only touches thousands of numpy rows.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

import numpy as np

from repro.services.hashsvc import VirtualHashBuffer
from repro.services.sequential import SequentialWriter, make_shard_iterators
from repro.sim.devices import MB

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet

#: Paper-scale logical bytes per point: 1 billion 10-d points = 120GB.
POINT_BYTES = 120
#: The norms set stores the point plus its squared norm.
POINT_WITH_NORM_BYTES = 128
#: Per-point CPU time for the initialization step: norm computation plus
#: first-touch costs (object iteration, tuple construction, dispatch).
#: Calibrated so 1 billion points on 10 workers initialize in ~43 s, the
#: paper's measured Pangea init time.
NORM_SECONDS_PER_POINT = 3.2e-6
#: Per-point CPU time for one assignment against k=10 centroids.
ASSIGN_SECONDS_PER_POINT = 800e-9


def generate_points(
    num_actual: int, dims: int = 10, num_clusters: int = 10, seed: int = 11
) -> np.ndarray:
    """Deterministic synthetic points around ``num_clusters`` true centers."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-10.0, 10.0, size=(num_clusters, dims))
    assignments = rng.integers(0, num_clusters, size=num_actual)
    return centers[assignments] + rng.normal(0.0, 0.5, size=(num_actual, dims))


@dataclass
class KMeansResult:
    """Timing breakdown and convergence output of one run."""

    centroids: np.ndarray
    init_seconds: float
    iteration_seconds: list = field(default_factory=list)
    peak_pool_bytes: int = 0
    policy: str = ""

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + sum(self.iteration_seconds)

    @property
    def avg_iteration_seconds(self) -> float:
        if not self.iteration_seconds:
            return 0.0
        return sum(self.iteration_seconds) / len(self.iteration_seconds)


class PangeaKMeans:
    """The paper's k-means implemented directly on Pangea services."""

    def __init__(
        self,
        cluster: "PangeaCluster",
        k: int = 10,
        dims: int = 10,
        workers: int = 8,
        page_size: int = 256 * MB,
    ) -> None:
        self.cluster = cluster
        self.k = k
        self.dims = dims
        self.workers = workers
        self.page_size = page_size
        self._peak_pool = 0

    # ------------------------------------------------------------------
    # data loading
    # ------------------------------------------------------------------

    def load_points(
        self,
        points: np.ndarray,
        represent: float = 1.0,
        name: str = "points",
    ) -> "LocalitySet":
        """Load actual points, each representing ``represent`` logical ones."""
        dataset = self.cluster.create_set(
            name,
            durability="write-through",
            page_size=self.page_size,
            object_bytes=max(1, int(POINT_BYTES * represent)),
        )
        dataset.add_data([points[i] for i in range(len(points))])
        self._track_peak()
        self.cluster.barrier()
        return dataset

    # ------------------------------------------------------------------
    # the computation
    # ------------------------------------------------------------------

    def run(
        self,
        input_set: "LocalitySet",
        represent: float = 1.0,
        iterations: int = 5,
    ) -> KMeansResult:
        start = self.cluster.barrier()
        norms_set, centroids = self._initialize(input_set, represent)
        after_init = self.cluster.barrier()
        iteration_seconds = []
        for _ in range(iterations):
            iter_start = self.cluster.barrier()
            centroids = self._iterate(norms_set, centroids, represent)
            iteration_seconds.append(self.cluster.barrier() - iter_start)
        # The norms set is transient job data: end its lifetime and drop it
        # so re-running on the same input starts clean.
        norms_set.end_lifetime()
        self.cluster.drop_set(norms_set.name)
        return KMeansResult(
            centroids=centroids,
            init_seconds=after_init - start,
            iteration_seconds=iteration_seconds,
            peak_pool_bytes=self._peak_pool,
            policy=self.cluster.nodes[0].paging.policy.name,
        )

    def _initialize(self, input_set, represent: float):
        """Compute norms into a write-back set and sample initial centroids."""
        norms_set = self.cluster.create_set(
            f"{input_set.name}_norms",
            durability="write-back",
            page_size=self.page_size,
            object_bytes=max(1, int(POINT_WITH_NORM_BYTES * represent)),
        )
        sample: list = []
        for node_id in sorted(input_set.shards):
            shard = input_set.shards[node_id]
            writer = SequentialWriter(norms_set.shards[node_id], workers=self.workers)
            writer.attach()
            try:
                for iterator in make_shard_iterators(shard, 1):
                    for page in iterator:
                        logical = page.num_objects * represent
                        shard.node.cpu.compute(
                            logical * NORM_SECONDS_PER_POINT, workers=self.workers
                        )
                        writer.add_data(
                            [(point, float(np.dot(point, point))) for point in page.records]
                        )
                        for point in page.records[: self.k - len(sample)]:
                            sample.append(np.array(point))
            finally:
                writer.flush()
                writer.close()
            self._track_peak()
        self.cluster.barrier()
        if len(sample) < self.k:
            raise ValueError(
                f"need at least k={self.k} points to seed centroids, "
                f"got {len(sample)}"
            )
        return norms_set, np.stack(sample[: self.k])

    def _iterate(self, norms_set, centroids: np.ndarray, represent: float) -> np.ndarray:
        # Broadcast the centroids (tiny, but it crosses the network).
        centroid_bytes = centroids.size * 8
        num_nodes = self.cluster.num_nodes
        if num_nodes > 1:
            self.cluster.nodes[0].network.transfer(centroid_bytes * (num_nodes - 1))
        self.cluster.barrier()
        centroid_norms = np.sum(centroids * centroids, axis=1)
        two_c = 2.0 * centroids
        nbytes = self.dims * 8 + 16

        # Per-node local aggregation through the hash service.
        agg_name = f"{norms_set.name}_agg"
        partials: list = []
        for node_id in sorted(norms_set.shards):
            shard = norms_set.shards[node_id]
            temp = self.cluster.create_set(
                f"{agg_name}_n{node_id}",
                durability="write-back",
                page_size=4 * MB,
                nodes=[node_id],
                object_bytes=nbytes,
            )
            buffer = VirtualHashBuffer(
                temp,
                num_root_partitions=2,
                combiner=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            )
            for iterator in make_shard_iterators(shard, 1):
                for page in iterator:
                    logical = page.num_objects * represent
                    shard.node.cpu.compute(
                        logical * ASSIGN_SECONDS_PER_POINT, workers=self.workers
                    )
                    # One hash call per page, in point order.
                    keys = []
                    values = []
                    for point, norm in page.records:
                        # ||p - c||^2 = ||p||^2 - 2 p.c + ||c||^2 (norms trick);
                        # .dot is the same dgemv as @ without the ufunc dispatch.
                        keys.append(int((norm - two_c.dot(point) + centroid_norms).argmin()))
                        values.append((point * represent, represent))
                    buffer.insert_many(keys, values, nbytes=nbytes)
            partials.append(dict(buffer.items()))
            buffer.release()
            temp.end_lifetime()
            self.cluster.drop_set(temp.name)
            self._track_peak()
        self.cluster.barrier()

        # Final stage: merge per-cluster partials (k tiny records per node).
        if num_nodes > 1:
            for node in self.cluster.nodes:
                node.network.transfer(self.k * (self.dims * 8 + 16))
        sums = np.zeros_like(centroids)
        counts = np.zeros(self.k)
        for partial in partials:
            for cluster_id, (vec_sum, count) in partial.items():
                sums[cluster_id] += vec_sum
                counts[cluster_id] += count
        new_centroids = centroids.copy()
        nonzero = counts > 0
        new_centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
        self.cluster.barrier()
        return new_centroids

    def _track_peak(self) -> None:
        used = self.cluster.total_pool_bytes_used()
        if used > self._peak_pool:
            self._peak_pool = used
