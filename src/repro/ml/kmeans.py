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

from repro.services.hashsvc import ENTRY_OVERHEAD, VirtualHashBuffer
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
#: Page size of each iteration's per-node aggregation set.
AGG_PAGE_BYTES = 4 * MB


def assign_batch_pairs(nbytes: int) -> int:
    """Staged assignments, of ``nbytes`` each, that fill one aggregation
    hash page.  k-means hands a shard's staged assignments to the hash
    service once at least this many are staged, and at the shard's end."""
    return AGG_PAGE_BYTES // (nbytes + ENTRY_OVERHEAD)


def _assign(
    buffer: VirtualHashBuffer,
    batch: tuple,
    centroid_norms: np.ndarray,
    represent: float,
    nbytes: int,
) -> None:
    """Assign one staged batch and add it to ``buffer`` with one call.

    ``batch`` is three aligned lists, emptied here: each point's squared
    norm, its dot product with every doubled centroid, and the point.  The
    score ``||p||^2 - 2 p.c + ||c||^2`` (the norms trick) and the scaling
    are elementwise, in the same order as point by point, and ``argmin``
    takes the first minimum, so keys and sums are bit-identical to
    assigning one point at a time.
    """
    norms, dots, points = batch
    scores = np.array(norms)[:, None] - np.array(dots) + centroid_norms
    keys = scores.argmin(axis=1).tolist()
    scaled = np.array(points) * represent
    buffer.insert_many(keys, [(row, represent) for row in scaled], nbytes=nbytes)
    for column in batch:
        column.clear()


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
        norms_set = self.cluster.create_set(
            f"{input_set.name}_norms",
            durability="write-back",
            page_size=self.page_size,
            object_bytes=max(1, int(POINT_WITH_NORM_BYTES * represent)),
        )
        try:
            centroids = self._initialize(input_set, norms_set, represent)
            after_init = self.cluster.barrier()
            iteration_seconds = []
            for _ in range(iterations):
                iter_start = self.cluster.barrier()
                centroids = self._iterate(norms_set, centroids, represent)
                iteration_seconds.append(self.cluster.barrier() - iter_start)
        finally:
            # The norms set is transient job data: end its lifetime and
            # drop it, also when the run fails, so re-running on the same
            # input starts clean.
            norms_set.end_lifetime()
            self.cluster.drop_set(norms_set.name)
        return KMeansResult(
            centroids=centroids,
            init_seconds=after_init - start,
            iteration_seconds=iteration_seconds,
            peak_pool_bytes=self._peak_pool,
            policy=self.cluster.nodes[0].paging.policy.name,
        )

    def _initialize(self, input_set, norms_set, represent: float) -> np.ndarray:
        """Compute norms into ``norms_set`` and sample initial centroids."""
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
        return np.stack(sample[: self.k])

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
                page_size=AGG_PAGE_BYTES,
                nodes=[node_id],
                object_bytes=nbytes,
            )
            try:
                partials.append(self._aggregate_shard(
                    shard, temp, two_c, centroid_norms, represent, nbytes
                ))
            finally:
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

    def _aggregate_shard(
        self, shard, temp, two_c: np.ndarray, centroid_norms: np.ndarray,
        represent: float, nbytes: int,
    ) -> dict:
        """Assign one shard's points and sum them per cluster in ``temp``.

        While a page is pinned, each point's norm, its gemv against the
        doubled centroids and the point itself (the page's own array, not
        a copy) are staged; whole batches are scored and inserted, in
        point order, once at least :func:`assign_batch_pairs` are staged
        and at the shard's end.
        """
        buffer = VirtualHashBuffer(
            temp,
            num_root_partitions=2,
            combiner=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        )
        batch_pairs = assign_batch_pairs(nbytes)
        batch: tuple = ([], [], [])
        norms, dots, points = batch
        try:
            for iterator in make_shard_iterators(shard, 1):
                for page in iterator:
                    logical = page.num_objects * represent
                    shard.node.cpu.compute(
                        logical * ASSIGN_SECONDS_PER_POINT, workers=self.workers
                    )
                    for point, norm in page.records:
                        norms.append(norm)
                        # .dot is the same dgemv as @ without the ufunc dispatch.
                        dots.append(two_c.dot(point))
                        points.append(point)
                    if len(points) >= batch_pairs:
                        _assign(buffer, batch, centroid_norms, represent, nbytes)
            if points:
                _assign(buffer, batch, centroid_norms, represent, nbytes)
            return dict(buffer.items())
        finally:
            # Unpin the hash pages, also when the assignment fails.
            buffer.release()

    def _track_peak(self) -> None:
        used = self.cluster.total_pool_bytes_used()
        if used > self._peak_pool:
            self._peak_pool = used
