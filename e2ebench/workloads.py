"""The benchmark's four workloads, each driven from one client thread.

A workload makes its inputs from the seed in :meth:`setup`, and then runs
operations: :meth:`execute` is the timed part of one operation and returns
its state, :meth:`counters` reads the program's own counters from that
state, and :meth:`check` verifies the output (untimed, after the counters
are read, because checking scans data and moves counters).

Sizes keep each workload's shape against the pool (see README.md) while
fitting several operations into a run of a few seconds.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro import MachineProfile, PangeaCluster
from repro.ml.kmeans import PangeaKMeans, generate_points
from repro.placement.recovery import recover_node
from repro.query.scheduler import QueryScheduler
from repro.services.shuffle import ShuffleService
from repro.sim.devices import GB, MB
from repro.tpch import QUERIES, REFERENCE_QUERIES, TpchGenerator, register_tpch_replicas
from repro.tpch.schema import ROW_BYTES

_now = time.perf_counter


@dataclass
class OpState:
    """What one operation produced: its output, its cluster and phase times."""

    cluster: PangeaCluster
    output: object = None
    #: phase -> (items, wall seconds); items count what the phase processed.
    phases: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


def cluster_counters(cluster: PangeaCluster) -> dict:
    """Storage, paging and device counters summed over the cluster's nodes."""
    nodes = cluster.nodes
    return {
        "buffer.pool.pageins": sum(n.pool.stats.pageins for n in nodes),
        "buffer.pool.evictions": sum(n.pool.stats.evictions for n in nodes),
        "core.paging.eviction_rounds": sum(n.paging.stats.eviction_rounds for n in nodes),
        "core.paging.pages_evicted": sum(n.paging.stats.pages_evicted for n in nodes),
        "core.paging.index_rebuilds": sum(n.paging.stats.index_rebuilds for n in nodes),
        "core.paging.cost_cache_hits": sum(n.paging.stats.cost_cache_hits for n in nodes),
        "core.paging.cost_cache_misses": sum(n.paging.stats.cost_cache_misses for n in nodes),
        "sim.disk.bytes_read": sum(n.disks.total_bytes_read() for n in nodes),
        "sim.disk.bytes_written": sum(n.disks.total_bytes_written() for n in nodes),
        "sim.net.bytes": sum(n.network.stats.bytes_sent for n in nodes),
        "sim.sim_s": cluster.simulated_seconds(),
    }


def rows_match(got: list, want: list, rel: float = 1e-6, abs_tol: float = 1e-2) -> bool:
    """Field-by-field row comparison with a tolerance for float sums.

    Distributed execution sums floats in another order than the reference,
    so penny-level drift on large monetary sums is expected.
    """
    if len(got) != len(want):
        return False
    for g, w in zip(got, want):
        if set(g) != set(w):
            return False
        for key, wv in w.items():
            gv = g[key]
            if isinstance(wv, float) or isinstance(gv, float):
                if abs(float(gv) - float(wv)) > max(abs_tol, rel * max(abs(float(wv)), 1.0)) + 1e-9:
                    return False
            elif gv != wv:
                return False
    return True


def _load_tables(cluster: PangeaCluster, tables: dict) -> None:
    for name, rows in tables.items():
        cluster.create_set(
            name, durability="write-through", page_size=4 * MB,
            object_bytes=ROW_BYTES[name],
        ).add_data(rows)


class Workload:
    name = ""
    #: Times set-up is repeated per run; the median is reported.
    setup_repeats = 3
    #: Whether an operation's time includes collecting its garbage; true for
    #: the workloads that build a fresh cluster per operation.
    collect_after_op = True

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_checks(self) -> None:
        """Untimed work after set-up: reference outputs for :meth:`check`."""

    def round(self, index: int) -> list:
        """Operation names making up one round (one full pass of the mix)."""
        return [self.name]

    def execute(self, op: str) -> OpState:
        raise NotImplementedError

    def counters(self, op: str, state: OpState) -> dict:
        return cluster_counters(state.cluster)

    def check(self, op: str, state: OpState) -> bool:
        raise NotImplementedError


class TpchLoad(Workload):
    """Load 8 tables, build the heterogeneous replicas, recover node 1."""

    name = "tpch-load"
    setup_repeats = 9
    SCALE = 0.001
    NUM_NODES = 4
    FAILED_NODE = 1

    def setup(self) -> None:
        self.tables = TpchGenerator(scale=self.SCALE, seed=self.seed).all_tables()

    def prepare_checks(self) -> None:
        self.source_rows = sum(len(rows) for rows in self.tables.values())
        self.lineitem_ids = {
            (r["l_orderkey"], r["l_linenumber"]) for r in self.tables["lineitem"]
        }
        if len(self.lineitem_ids) != len(self.tables["lineitem"]):
            raise ValueError("generated lineitem rows repeat a key")

    def execute(self, op: str) -> OpState:
        t0 = _now()
        cluster = PangeaCluster(
            num_nodes=self.NUM_NODES, profile=MachineProfile.tiny(pool_bytes=1 * GB)
        )
        _load_tables(cluster, self.tables)
        groups = register_tpch_replicas(cluster)
        t1 = _now()
        report = recover_node(cluster, groups["lineitem"], failed_node=self.FAILED_NODE)
        t2 = _now()
        return OpState(
            cluster, output=(groups, report),
            phases={"load": (self.source_rows, t1 - t0),
                    "recover": (report.objects_recovered, t2 - t1)},
        )

    def counters(self, op: str, state: OpState) -> dict:
        groups, report = state.output
        counts = cluster_counters(state.cluster)
        counts["placement.colliding_objects"] = sum(g.num_colliding for g in groups.values())
        counts["placement.objects_recovered"] = report.objects_recovered
        return counts

    def check(self, op: str, state: OpState) -> bool:
        groups, _report = state.output
        cluster = state.cluster
        for name, rows in self.tables.items():
            if name != "lineitem" and cluster.get_set(name).num_objects != len(rows):
                return False
        group = groups["lineitem"]
        seen: set = set()
        lost = 0
        for member in group.members:
            ids = Counter(group.object_id_fn(r) for r in member.scan_records())
            if any(n != 1 for n in ids.values()) or not ids.keys() <= self.lineitem_ids:
                return False
            seen.update(ids)
            lost += len(self.lineitem_ids) - len(ids)
        # Every lineitem row survives in at least one member of its group.
        # Per member, recovery from a three-member group misses rows that
        # both it and its recovery source lost; that shortfall is reported
        # as placement.lost_after_recovery instead of failing the check.
        state.extra["placement.lost_after_recovery"] = lost
        return seen == self.lineitem_ids


class TpchQuery(Workload):
    """The nine queries in a closed loop over one loaded, replicated cluster."""

    name = "tpch-query"
    setup_repeats = 4
    collect_after_op = False
    SCALE = 0.001
    NUM_NODES = 4

    def setup(self) -> None:
        self.tables = TpchGenerator(scale=self.SCALE, seed=self.seed).all_tables()
        self.cluster = PangeaCluster(
            num_nodes=self.NUM_NODES, profile=MachineProfile.tiny(pool_bytes=1 * GB)
        )
        _load_tables(self.cluster, self.tables)
        register_tpch_replicas(self.cluster)

    def prepare_checks(self) -> None:
        self.reference = {q: fn(self.tables) for q, fn in REFERENCE_QUERIES.items()}
        self.rng = random.Random(f"{self.seed}-query-order")

    def round(self, index: int) -> list:
        order = sorted(QUERIES)
        self.rng.shuffle(order)
        return order

    def execute(self, op: str) -> OpState:
        # Each query starts from zeroed clocks and device counters, so its
        # simulated seconds and counts do not depend on the queries before it.
        self.cluster.reset_clocks()
        t0 = _now()
        scheduler = QueryScheduler(
            self.cluster, broadcast_threshold=4 * MB, object_bytes=ROW_BYTES["lineitem"]
        )
        rows = QUERIES[op](scheduler)
        return OpState(self.cluster, output=(rows, scheduler.metrics),
                       phases={"query": (1, _now() - t0)})

    def counters(self, op: str, state: OpState) -> dict:
        counts = cluster_counters(state.cluster)
        metrics = state.output[1]
        counts.update({
            "query.batches_processed": metrics.batches_processed,
            "query.batch_records": metrics.batch_records,
            "query.replica_substitutions": metrics.replica_substitutions,
            "query.copartitioned_joins": metrics.copartitioned_joins,
            "query.broadcast_joins": metrics.broadcast_joins,
            "query.shuffled_bytes": metrics.shuffled_bytes,
        })
        return counts

    def check(self, op: str, state: OpState) -> bool:
        return rows_match(state.output[0], self.reference[op])


def kmeans_reference(points: np.ndarray, k: int, num_nodes: int, iterations: int) -> np.ndarray:
    """Lloyd's algorithm in plain numpy, seeded the way ``PangeaKMeans`` seeds.

    ``add_data`` deals points round-robin over nodes and the initialization
    scans node 0 first, so the initial centroids are ``points[0::num_nodes][:k]``.
    Each point counts once; the program's ``represent`` weight cancels out.
    """
    centroids = points[0::num_nodes][:k].copy()
    norms = np.einsum("ij,ij->i", points, points)
    for _ in range(iterations):
        scores = norms[:, None] - 2.0 * points @ centroids.T + np.sum(centroids**2, axis=1)
        best = np.argmin(scores, axis=1)
        sums = np.zeros_like(centroids)
        np.add.at(sums, best, points)
        counts = np.bincount(best, minlength=k)
        nonzero = counts > 0
        centroids = centroids.copy()
        centroids[nonzero] = sums[nonzero] / counts[nonzero, None]
    return centroids


class KMeansPaging(Workload):
    """Fig. 3 data-aware k-means, 3B logical points on 10 nodes, paging."""

    name = "kmeans-paging"
    setup_repeats = 15
    LOGICAL_POINTS = 3_000_000_000
    #: Logical points per actual point.
    REPRESENT = 1_000_000
    NUM_NODES = 10
    #: 3B points x (120 + 128) logical bytes = 744 GB against 10 x 30 GB.
    POOL = 30 * GB
    K = 10
    ITERATIONS = 5

    def setup(self) -> None:
        self.points = generate_points(self.LOGICAL_POINTS // self.REPRESENT, seed=self.seed)

    def prepare_checks(self) -> None:
        self.reference = kmeans_reference(self.points, self.K, self.NUM_NODES, self.ITERATIONS)
        self.first: np.ndarray | None = None

    def execute(self, op: str) -> OpState:
        t0 = _now()
        cluster = PangeaCluster(
            num_nodes=self.NUM_NODES,
            profile=MachineProfile.r4_2xlarge(pool_bytes=self.POOL),
            policy="data-aware",
        )
        km = PangeaKMeans(cluster, k=self.K, dims=self.points.shape[1], workers=8)
        data = km.load_points(self.points, represent=self.REPRESENT)
        t1 = _now()
        result = km.run(data, represent=self.REPRESENT, iterations=self.ITERATIONS)
        t2 = _now()
        n = len(self.points)
        return OpState(cluster, output=result.centroids, phases={
            "load": (n, t1 - t0),
            # One norms pass plus one assignment pass per iteration.
            "run": (n * (1 + self.ITERATIONS), t2 - t1),
        })

    def check(self, op: str, state: OpState) -> bool:
        centroids = state.output
        if self.first is None:
            self.first = centroids
        return (
            np.array_equal(centroids, self.first)
            and np.allclose(centroids, self.reference, rtol=1e-9, atol=1e-9)
        )


class ShuffleSpill(Workload):
    """Fig. 10 shape: 4 writers x 4 partitions, 6000 MB/thread into 14 GB."""

    name = "shuffle-spill"
    setup_repeats = 9
    WORKERS = 4
    PARTITIONS = 4
    OBJECTS_PER_WORKER = 32_000
    MB_PER_THREAD = 6000
    OBJECT_BYTES = 10
    POOL = 14 * GB

    def setup(self) -> None:
        rng = random.Random(f"{self.seed}-shuffle")
        self.inputs = []
        for worker in range(self.WORKERS):
            records = [
                ((worker, i), rng.randrange(self.PARTITIONS))
                for i in range(self.OBJECTS_PER_WORKER)
            ]
            rng.shuffle(records)
            self.inputs.append(records)
        # Each actual object stands for this many logical 10-byte objects.
        logical = self.MB_PER_THREAD * MB * self.WORKERS // self.OBJECT_BYTES
        self.object_bytes = max(1, int(self.OBJECT_BYTES * logical / self.total_objects))

    def prepare_checks(self) -> None:
        self.expected = [Counter() for _ in range(self.PARTITIONS)]
        for records in self.inputs:
            for record, partition in records:
                self.expected[partition][record] += 1

    @property
    def total_objects(self) -> int:
        return self.WORKERS * self.OBJECTS_PER_WORKER

    def execute(self, op: str) -> OpState:
        t0 = _now()
        cluster = PangeaCluster(
            num_nodes=1,
            profile=MachineProfile.m3_xlarge(num_disks=1, pool_bytes=self.POOL),
            policy="data-aware",
        )
        node = cluster.nodes[0]
        service = ShuffleService(
            cluster, "shuffle", num_partitions=self.PARTITIONS,
            page_size=64 * MB, small_page_size=4 * MB, object_bytes=self.object_bytes,
        )
        for worker, records in enumerate(self.inputs):
            buffers = [service.buffer_for(worker, p, worker_node=node)
                       for p in range(self.PARTITIONS)]
            for record, partition in records:
                buffers[partition].add_object(record)
        service.finish_writing()
        t1 = _now()
        read = [list(service.partition_set(p).scan_records()) for p in range(self.PARTITIONS)]
        t2 = _now()
        n = self.total_objects
        return OpState(cluster, output=read,
                       phases={"write": (n, t1 - t0), "read": (n, t2 - t1)})

    def check(self, op: str, state: OpState) -> bool:
        return all(Counter(records) == want
                   for records, want in zip(state.output, self.expected))


WORKLOADS = {w.name: w for w in (TpchLoad, TpchQuery, KMeansPaging, ShuffleSpill)}
