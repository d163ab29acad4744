"""Spark-like layered engine baselines (paper Figs. 3-5, Tab. 3).

Three pieces:

* :class:`SparkKMeans` — the k-means driver over a layered stack
  (Spark executors on top of HDFS, Alluxio, or Ignite), with the unified
  storage/execution memory pool, JVM object expansion in the RDD cache,
  per-point (de)serialization costs, waves-of-tasks overhead, and
  re-loading of uncached partitions every iteration.
* :class:`SparkShuffleSim` — the paper's "simulated Spark shuffling
  written in C++": per-(core, partition) spill files on the OS file
  system, one ``malloc`` + ``fwrite`` per object.
* :class:`SparkTpchScheduler` — a query scheduler that cannot see Pangea
  replicas: every query reloads its inputs from HDFS (with serialization
  and copies) and every join repartitions at runtime.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.baselines.alluxio import AlluxioOutOfMemoryError, AlluxioWorker
from repro.baselines.hdfs import HdfsCluster
from repro.baselines.host import BaselineHost
from repro.baselines.ignite import IgniteSegfaultError, IgniteSharedRdd
from repro.baselines.os_fs import OsFileSystem
from repro.query.scheduler import QueryScheduler
from repro.sim.clock import synchronize
from repro.sim.devices import GB, MB
from repro.sim.profiles import MachineProfile

#: Logical bytes per k-means point (matches repro.ml.kmeans).
POINT_BYTES = 120
POINT_WITH_NORM_BYTES = 128

#: JVM per-point cost on the load path: deserialization + object creation
#: + GC pressure.  Calibrated to the paper's Spark-over-HDFS init (146 s
#: for 1B points on 10 workers).
JVM_LOAD_SECONDS_PER_POINT = 8.0e-6
#: JVM per-point cost per k-means iteration (paper: 14 s / iteration).
JVM_ASSIGN_SECONDS_PER_POINT = 1.1e-6
#: RDD-cache expansion: raw bytes -> Java object bytes.
JAVA_OBJECT_EXPANSION = 1.35
#: Fraction of executor memory available to the unified pool.
UNIFIED_POOL_FRACTION = 0.68
#: Driver-side cost of scheduling one task in a wave.
TASK_SCHEDULE_SECONDS = 2.0e-3
SPLIT_BYTES = 256 * MB


@dataclass
class SparkSystemReport:
    """What one layered-system run produced (Figs. 3-4 rows)."""

    system: str
    init_seconds: float = 0.0
    iteration_seconds: list = field(default_factory=list)
    memory_bytes: int = 0
    failed: bool = False
    failure: str = ""

    @property
    def total_seconds(self) -> float:
        return self.init_seconds + sum(self.iteration_seconds)


class SparkKMeans:
    """k-means over Spark + {HDFS, Alluxio, Ignite} (Fig. 3 comparators)."""

    def __init__(
        self,
        num_nodes: int = 10,
        profile: MachineProfile | None = None,
        backend: str = "hdfs",
        memory_budget: int = 50 * GB,
        alluxio_memory: int = 15 * GB,
        ignite_heap: int = 5 * GB,
        ignite_offheap: int = 30 * GB,
        workers_per_node: int = 8,
    ) -> None:
        if backend not in ("hdfs", "alluxio", "ignite"):
            raise ValueError(f"unknown backend {backend!r}")
        self.backend = backend
        self.num_nodes = num_nodes
        self.workers = workers_per_node
        self.profile = profile or MachineProfile.r4_2xlarge()
        self.hosts = [BaselineHost(self.profile, i) for i in range(num_nodes)]
        if backend == "hdfs":
            self.executor_memory = memory_budget
            self.hdfs = HdfsCluster(self.hosts, replication=1)
            self.alluxio = None
            self.ignite = None
        elif backend == "alluxio":
            self.executor_memory = memory_budget - alluxio_memory
            self.hdfs = None
            self.alluxio = [AlluxioWorker(h, alluxio_memory) for h in self.hosts]
            self.ignite = None
        else:
            self.executor_memory = memory_budget - ignite_heap - ignite_offheap
            self.hdfs = None
            self.alluxio = None
            self.ignite = [
                IgniteSharedRdd(h, ignite_heap, ignite_offheap) for h in self.hosts
            ]
        self.pool_bytes = int(self.executor_memory * UNIFIED_POOL_FRACTION)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def _barrier(self) -> float:
        return synchronize(host.clock for host in self.hosts)

    def _preload_input(self, bytes_per_node: int, points_per_node: float) -> None:
        """Stage the input in the backend (not part of the timed run)."""
        if self.hdfs is not None:
            # Create the HDFS file records without charging time: the data
            # was ingested by an earlier job.
            self.hdfs._file_sizes["points"] = bytes_per_node * self.num_nodes
            for i, fs in enumerate(self.hdfs._datanode_fs):
                fs._touch("points#r0").total_bytes = bytes_per_node
        elif self.alluxio is not None:
            for worker in self.alluxio:
                if bytes_per_node > worker.memory_bytes:
                    raise AlluxioOutOfMemoryError(
                        f"input of {bytes_per_node} bytes/node exceeds the "
                        f"{worker.memory_bytes}-byte Alluxio worker"
                    )
                worker._file_bytes["points"] = bytes_per_node
                worker.used_bytes += bytes_per_node
        else:
            for shared in self.ignite:
                expanded = int(bytes_per_node * JAVA_OBJECT_EXPANSION)
                if expanded > shared.offheap_bytes:
                    raise IgniteSegfaultError(
                        f"{expanded} bytes/node exceed the "
                        f"{shared.offheap_bytes}-byte off-heap region"
                    )
                shared._datasets["points"] = bytes_per_node
                shared.used_bytes += expanded

    def _read_backend(self, host_index: int, nbytes: int, num_objects: int) -> None:
        host = self.hosts[host_index]
        if self.hdfs is not None:
            self.hdfs.read("points", nbytes, client=host, workers=self.workers)
        elif self.alluxio is not None:
            self.alluxio[host_index].read(
                "points", nbytes, num_objects=1, workers=self.workers
            )
        else:
            self.ignite[host_index].read(
                "points", nbytes, num_objects=1, workers=self.workers
            )

    def _charge_waves(self, bytes_per_node: int) -> None:
        """Driver-side scheduling of one wave of tasks over all splits."""
        num_tasks = max(1, bytes_per_node * self.num_nodes // SPLIT_BYTES)
        self.hosts[0].clock.advance(num_tasks * TASK_SCHEDULE_SECONDS)

    # ------------------------------------------------------------------
    # the run
    # ------------------------------------------------------------------

    def run(self, num_points: int, iterations: int = 5) -> SparkSystemReport:
        """Run k-means over ``num_points`` logical points."""
        report = SparkSystemReport(system=f"spark-{self.backend}")
        points_per_node = num_points / self.num_nodes
        input_bytes = int(points_per_node * POINT_BYTES)
        norms_bytes = int(points_per_node * POINT_WITH_NORM_BYTES)
        try:
            self._preload_input(input_bytes, points_per_node)
        except (AlluxioOutOfMemoryError, IgniteSegfaultError) as exc:
            report.failed = True
            report.failure = str(exc)
            report.memory_bytes = self._memory_accounting(0)
            return report

        # --- initialization: load + deserialize + norms + cache ---------
        start = self._barrier()
        for index, host in enumerate(self.hosts):
            self._read_backend(index, input_bytes, int(points_per_node))
            host.cpu.parallel(
                points_per_node * JVM_LOAD_SECONDS_PER_POINT, self.workers
            )
        self._charge_waves(input_bytes)
        after_init = self._barrier()
        report.init_seconds = after_init - start

        # --- cache accounting -------------------------------------------
        needed = int((input_bytes + norms_bytes) * JAVA_OBJECT_EXPANSION)
        cached_fraction = min(1.0, self.pool_bytes / needed) if needed else 1.0
        report.memory_bytes = self._memory_accounting(min(needed, self.pool_bytes))

        # --- iterations ---------------------------------------------------
        for _ in range(iterations):
            iter_start = self._barrier()
            reload_fraction = 1.0 - cached_fraction
            for index, host in enumerate(self.hosts):
                host.cpu.parallel(
                    points_per_node * JVM_ASSIGN_SECONDS_PER_POINT, self.workers
                )
                if reload_fraction > 0:
                    self._read_backend(
                        index,
                        int(input_bytes * reload_fraction),
                        int(points_per_node * reload_fraction),
                    )
                    host.cpu.parallel(
                        points_per_node
                        * reload_fraction
                        * JVM_LOAD_SECONDS_PER_POINT,
                        self.workers,
                    )
                # Reduce step: tiny per-cluster partials over the network.
                host.network.transfer(10 * (POINT_BYTES + 16))
            self._charge_waves(norms_bytes)
            report.iteration_seconds.append(self._barrier() - iter_start)
        return report

    def _memory_accounting(self, executor_used: int) -> int:
        """Total cluster memory the stack occupies (Fig. 4)."""
        per_node = executor_used
        if self.alluxio is not None:
            per_node += self.alluxio[0].used_bytes
        if self.ignite is not None:
            per_node += self.ignite[0].total_memory_bytes
        if self.hdfs is not None:
            # OS buffer cache double-holds the HDFS blocks read.
            per_node += min(
                self.hosts[0].memory_bytes // 4,
                self.hdfs.file_bytes("points") // self.num_nodes,
            )
        return per_node * self.num_nodes


class SparkShuffleSim:
    """The paper's C++-simulated Spark shuffle (Tab. 3 comparator).

    Each of ``num_workers`` writer threads keeps one spill file per
    partition (``num_workers × num_partitions`` files total), allocates
    every object with ``malloc`` and appends it with ``fwrite`` through
    the OS buffer cache.
    """

    def __init__(
        self,
        host: BaselineHost,
        num_workers: int = 4,
        num_partitions: int = 4,
        cache_bytes: int | None = None,
        per_object_write_seconds: float = 420e-9,
        per_object_read_seconds: float = 100e-9,
    ) -> None:
        self.host = host
        self.num_workers = num_workers
        self.num_partitions = num_partitions
        self.fs = OsFileSystem(host, cache_bytes or host.memory_bytes * 3 // 4)
        self.per_object_write_seconds = per_object_write_seconds
        self.per_object_read_seconds = per_object_read_seconds

    def file_name(self, worker: int, partition: int) -> str:
        return f"shuffle_w{worker}_p{partition}"

    @property
    def num_files(self) -> int:
        return self.num_workers * self.num_partitions

    def write(self, bytes_per_thread: int, obj_bytes: int = 10) -> float:
        """All writers emit their data, hashed over the partitions."""
        start = self.host.clock.now
        objects_per_thread = bytes_per_thread // obj_bytes
        self.host.cpu.parallel(
            objects_per_thread * self.num_workers * self.per_object_write_seconds,
            self.num_workers,
        )
        share = bytes_per_thread // self.num_partitions
        for worker in range(self.num_workers):
            for partition in range(self.num_partitions):
                self.fs.write(self.file_name(worker, partition), share)
        return self.host.clock.now - start

    def read(self, bytes_per_thread: int, obj_bytes: int = 10) -> float:
        """Each reader drains one partition across every writer's file."""
        start = self.host.clock.now
        objects_per_thread = bytes_per_thread // obj_bytes
        self.host.cpu.parallel(
            objects_per_thread * self.num_workers * self.per_object_read_seconds,
            self.num_workers,
        )
        share = bytes_per_thread // self.num_partitions
        for partition in range(self.num_partitions):
            for worker in range(self.num_workers):
                self.fs.read(self.file_name(worker, partition), share)
        return self.host.clock.now - start

    def cleanup(self) -> None:
        for worker in range(self.num_workers):
            for partition in range(self.num_partitions):
                self.fs.delete(self.file_name(worker, partition))


class SparkTpchScheduler(QueryScheduler):
    """TPC-H on Spark over HDFS (Fig. 5 comparator).

    Differences from the Pangea scheduler:

    * no replica selection — there is nothing analogous to
      pre-partitioning when loading from HDFS, so joins repartition at
      query time;
    * every scan pays the HDFS load path (disk + two copies +
      deserialization into JVM objects) because a DataFrame application
      reloads its inputs;
    * shuffles serialize and deserialize every record and write
      ``cores × partitions`` spill files;
    * all CPU work carries a JVM overhead factor.
    """

    def __init__(
        self,
        cluster,
        jvm_cpu_factor: float = 2.5,
        load_seconds_per_byte: float = 1.0 / (300 * MB),
        shuffle_serde_seconds_per_byte: float = 1.0 / (250 * MB),
        cores_per_node: int = 8,
        **kwargs,
    ) -> None:
        super().__init__(cluster, **kwargs)
        self.jvm_cpu_factor = jvm_cpu_factor
        self.load_seconds_per_byte = load_seconds_per_byte
        self.shuffle_serde_seconds_per_byte = shuffle_serde_seconds_per_byte
        self.cores_per_node = cores_per_node

    def _copartitioned_replicas(self, join, left_base, right_base):
        return None  # Spark cannot reuse Pangea's physical organizations.

    def _exec_scan(self, scan, steps, replica=None):
        dataset = self.cluster.get_set(scan.set_name)
        for node_id in sorted(dataset.shards):
            shard = dataset.shards[node_id]
            nbytes = shard.logical_bytes
            node = shard.node
            node.disks.read(nbytes, num_ios=max(1, nbytes // (128 * MB)))
            node.cpu.memcpy(2 * nbytes, workers=self.cores_per_node)
            node.cpu.parallel(
                nbytes * self.load_seconds_per_byte, self.cores_per_node
            )
        self.cluster.barrier()
        result = super()._exec_scan(scan, steps, replica=None)
        self._charge_jvm_factor_on_stage(result)
        return result

    def _shuffle(self, stage, key_fn):
        # Serialize on the way out, deserialize on the way in, and pay the
        # many-files penalty.
        total_bytes = stage.total_records() * self.object_bytes
        for node_id, records in stage.per_node.items():
            node = self.cluster.nodes[node_id]
            nbytes = len(records) * self.object_bytes
            node.cpu.parallel(
                2 * nbytes * self.shuffle_serde_seconds_per_byte,
                self.cores_per_node,
            )
        num_files = self.cores_per_node * self.cluster.num_nodes
        self.cluster.nodes[0].clock.advance(num_files * 1e-3)
        del total_bytes
        return super()._shuffle(stage, key_fn)

    def _charge_jvm_factor_on_stage(self, stage) -> None:
        extra = self.jvm_cpu_factor - 1.0
        if extra <= 0:
            return
        for node_id, records in stage.per_node.items():
            node = self.cluster.nodes[node_id]
            node.cpu.per_object(len(records), workers=self.cores_per_node, factor=extra)
