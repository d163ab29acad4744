"""The query scheduler (paper Table 2: QueryScheduling).

The scheduler walks a logical plan and chooses physical strategies:

* **Replica selection** — for a scan feeding a join, it consults the
  manager's statistics service for a replica of the set partitioned on the
  join key (paper Sec. 9.1.2).
* **Co-partitioned join** — when both join inputs resolve to replicas with
  matching partition schemes, the join pipelines locally on every node
  with no shuffle (the source of the paper's 20× TPC-H speedups).
* **Broadcast join** — a small build side is broadcast to every node.
* **Repartition join** — otherwise both sides shuffle by join key through
  the shuffle service.
* **Two-stage aggregation** — a local hash-service stage per node, then a
  partial shuffle and a final stage.

Every physical stage runs batch-at-a-time kernels from
:mod:`repro.query.batch`, one task per node, through
:class:`repro.compute.stages.StageExecutor` (the lowest node's task on the
calling thread and each other node's on a thread of its own, or serially
in node order under an enabled fault injector).  The kernels charge the
simulated costs of a record-at-a-time loop in whole clock ticks, so
results, simulated seconds, strategy decisions and fault schedules match
that loop exactly; ``tests/test_query_golden.py`` pins them as data.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.compute.stages import StageExecutor
from repro.query.batch import (
    BatchStepRunner,
    RecordBatch,
    build_batch,
    build_hash_table,
    iter_chunks,
    probe_batch,
)
from repro.query.operators import (
    AggregateNode,
    FilterNode,
    FlatMapNode,
    JoinNode,
    LimitNode,
    MapNode,
    OrderByNode,
    PlanNode,
    ScanNode,
    peel_pipeline,
)
from repro.query.pipeline import scan_shard_records
from repro.sim.devices import MB
from repro.util import stable_hash

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet


@dataclass
class SchedulerMetrics:
    """Physical decisions taken while executing plans."""

    copartitioned_joins: int = 0
    broadcast_joins: int = 0
    repartition_joins: int = 0
    replica_substitutions: int = 0
    local_agg_stages: int = 0
    shuffled_bytes: int = 0
    #: Batch and stage counters.
    batches_processed: int = 0
    batch_records: int = 0
    stages_run: int = 0
    stage_tasks: int = 0
    parallel_stages: int = 0

    @property
    def mean_batch_fill(self) -> float:
        """Average records per processed batch."""
        if self.batches_processed == 0:
            return 0.0
        return self.batch_records / self.batches_processed

    @property
    def mean_stage_parallelism(self) -> float:
        """Average per-node tasks per executed stage."""
        if self.stages_run == 0:
            return 0.0
        return self.stage_tasks / self.stages_run

    def decision_counters(self) -> dict:
        """The strategy decisions, which the golden suite pins exactly."""
        return {
            "copartitioned_joins": self.copartitioned_joins,
            "broadcast_joins": self.broadcast_joins,
            "repartition_joins": self.repartition_joins,
            "replica_substitutions": self.replica_substitutions,
            "local_agg_stages": self.local_agg_stages,
            "shuffled_bytes": self.shuffled_bytes,
        }


@dataclass
class StageResult:
    """Per-node record lists flowing between stages."""

    per_node: dict = field(default_factory=dict)

    def total_records(self) -> int:
        return sum(len(records) for records in self.per_node.values())

    def all_records(self) -> list:
        merged: list = []
        for node_id in sorted(self.per_node):
            merged.extend(self.per_node[node_id])
        return merged


class QueryScheduler:
    """Execute logical plans on a Pangea cluster."""

    def __init__(
        self,
        cluster: "PangeaCluster",
        broadcast_threshold: int = 64 * MB,
        object_bytes: int = 128,
    ) -> None:
        self.cluster = cluster
        self.broadcast_threshold = broadcast_threshold
        self.object_bytes = object_bytes
        self.metrics = SchedulerMetrics()
        self._executor = StageExecutor(cluster)
        self._temp_counter = 0

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def execute(self, plan: PlanNode) -> list:
        """Run the plan; return the collected result records."""
        result = self._exec(plan)
        for node_id, records in result.per_node.items():
            if records:
                nbytes = len(records) * self.object_bytes
                self.cluster.nodes[node_id].network.transfer(nbytes)
        self.cluster.barrier()
        return result.all_records()

    # ------------------------------------------------------------------
    # stage bookkeeping
    # ------------------------------------------------------------------

    def _run_stage(self, name: str, tasks: dict) -> dict:
        results = self._executor.run(name, tasks)
        self.metrics.stages_run += 1
        self.metrics.stage_tasks += len(tasks)
        if self._executor.last_parallel:
            self.metrics.parallel_stages += 1
        return results

    def _run_batched_stage(self, name: str, tasks: dict) -> dict:
        """Run a stage whose tasks return ``(output, batches, records_in)``."""
        outputs: dict = {}
        for node_id, (output, batches, fed) in self._run_stage(name, tasks).items():
            outputs[node_id] = output
            self._note_batches(batches, fed)
        return outputs

    def _note_batches(self, batches: int, records: int) -> None:
        self.metrics.batches_processed += batches
        self.metrics.batch_records += records

    # ------------------------------------------------------------------
    # recursive execution
    # ------------------------------------------------------------------

    def _exec(self, plan: PlanNode) -> StageResult:
        base, steps = peel_pipeline(plan)
        if isinstance(base, ScanNode):
            return self._exec_scan(base, steps)
        if isinstance(base, JoinNode):
            return self._apply_steps(self._exec_join(base), steps)
        if isinstance(base, AggregateNode):
            return self._apply_steps(self._exec_aggregate(base), steps)
        if isinstance(base, OrderByNode):
            return self._apply_steps(self._exec_orderby(base), steps)
        if isinstance(base, LimitNode):
            return self._apply_steps(self._exec_limit(base), steps)
        raise TypeError(f"cannot execute plan node {type(base).__name__}")

    def _apply_steps(self, stage: StageResult, steps: list) -> StageResult:
        if not steps:
            return stage
        tasks = {
            node_id: (
                lambda nid=node_id, recs=records: self._steps_task(nid, recs, steps)
            )
            for node_id, records in stage.per_node.items()
        }
        return StageResult(per_node=self._run_batched_stage("pipeline", tasks))

    def _steps_task(self, node_id: int, records: list, steps: list):
        runner = BatchStepRunner(self.cluster.nodes[node_id], steps)
        out: list = []
        for chunk in iter_chunks(records):
            out.extend(runner.feed(chunk))
        runner.finish()
        return out, runner.batches, runner.records_in

    # ------------------------------------------------------------------
    # scans and replica selection
    # ------------------------------------------------------------------

    def _find_replica(self, set_name: str, key_name: str) -> "LocalitySet | None":
        """Statistics-service lookup: a replica partitioned on ``key_name``."""
        manager = self.cluster.manager
        for replica in manager.replicas_of(set_name):
            scheme = replica.partition_scheme
            if scheme is not None and scheme.key_name == key_name:
                return replica
        return None

    def _exec_scan(
        self,
        scan: ScanNode,
        steps: list,
        replica: "LocalitySet | None" = None,
    ) -> StageResult:
        dataset = replica or self.cluster.get_set(scan.set_name)
        tasks = {
            node_id: (lambda shard=dataset.shards[node_id]: self._scan_task(shard, steps))
            for node_id in sorted(dataset.shards)
        }
        result = StageResult(per_node=self._run_batched_stage("scan", tasks))
        self.cluster.barrier()
        return result

    def _scan_task(self, shard, steps: list):
        """One node's batched scan: each pinned page is one record batch."""
        from repro.services.sequential import make_shard_iterators

        runner = BatchStepRunner(shard.node, steps)
        out: list = []
        for iterator in make_shard_iterators(shard, 1):
            for page in iterator:
                out.extend(runner.feed(page.records))
        runner.finish()
        return out, runner.batches, runner.records_in

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------

    def _exec_join(self, join: JoinNode) -> StageResult:
        left_base, left_steps = peel_pipeline(join.left)
        right_base, right_steps = peel_pipeline(join.right)
        copart = self._copartitioned_replicas(join, left_base, right_base)
        if copart is not None:
            left_rep, right_rep = copart
            self.metrics.copartitioned_joins += 1
            left_stage = self._exec_scan(left_base, left_steps, replica=left_rep)
            right_stage = self._exec_scan(right_base, right_steps, replica=right_rep)
            return self._local_join(join, left_stage, right_stage)

        right_stage = self._exec(join.right)
        right_bytes = right_stage.total_records() * self.object_bytes
        left_stage = self._exec(join.left)
        if right_bytes <= self.broadcast_threshold:
            self.metrics.broadcast_joins += 1
            return self._broadcast_join(join, left_stage, right_stage)
        self.metrics.repartition_joins += 1
        return self._repartition_join(join, left_stage, right_stage)

    def _copartitioned_replicas(self, join, left_base, right_base):
        """Both sides scan base sets with matching partitioned replicas?"""
        if not (isinstance(left_base, ScanNode) and isinstance(right_base, ScanNode)):
            return None
        if join.left_key_name is None or join.right_key_name is None:
            return None
        left_rep = self._find_replica(left_base.set_name, join.left_key_name)
        right_rep = self._find_replica(right_base.set_name, join.right_key_name)
        if left_rep is None or right_rep is None:
            return None
        if not left_rep.partition_scheme.co_partitioned_with(right_rep.partition_scheme):
            return None
        if sorted(left_rep.shards) != sorted(right_rep.shards):
            return None
        self.metrics.replica_substitutions += 2
        return left_rep, right_rep

    def _join_task(self, join, left_records, right_records, node) -> list:
        table = build_batch(right_records, join.right_key, node)
        return probe_batch(join, left_records, table, node)

    def _local_join(
        self, join, left_stage, right_stage, stage: str = "local-join"
    ) -> StageResult:
        """Build and probe on every node that holds left-side records."""
        tasks = {
            node_id: (
                lambda nid=node_id: self._join_task(
                    join,
                    left_stage.per_node[nid],
                    right_stage.per_node.get(nid, []),
                    self.cluster.nodes[nid],
                )
            )
            for node_id in sorted(left_stage.per_node)
        }
        result = StageResult(per_node=self._run_stage(stage, tasks))
        self.cluster.barrier()
        return result

    def _broadcast_join(self, join, left_stage, right_stage) -> StageResult:
        all_right: list = right_stage.all_records()
        num_nodes = self.cluster.num_nodes
        for node_id, records in right_stage.per_node.items():
            if records and num_nodes > 1:
                nbytes = len(records) * self.object_bytes * (num_nodes - 1)
                self.cluster.nodes[node_id].network.transfer(nbytes)
        self.cluster.barrier()
        # Every node would build the identical table from the broadcast
        # records — build it once and share it read-only, while each node
        # still pays the same per_object(len(all_right), 1.5) build charge.
        table = build_hash_table(all_right, join.right_key)
        tasks = {
            node_id: (
                lambda nid=node_id: self._broadcast_probe_task(
                    join,
                    left_stage.per_node[nid],
                    len(all_right),
                    table,
                    self.cluster.nodes[nid],
                )
            )
            for node_id in sorted(left_stage.per_node)
        }
        result = StageResult(per_node=self._run_stage("broadcast-join", tasks))
        self.cluster.barrier()
        return result

    def _broadcast_probe_task(self, join, left_records, build_count, table, node):
        node.cpu.per_object(build_count, factor=1.5)
        return probe_batch(join, left_records, table, node)

    def _repartition_join(self, join, left_stage, right_stage) -> StageResult:
        left_parts = self._shuffle(left_stage, join.left_key)
        right_parts = self._shuffle(right_stage, join.right_key)
        return self._local_join(join, left_parts, right_parts, "repartition-join")

    def _shuffle(
        self, stage: StageResult, key_fn, num_partitions: int | None = None
    ) -> StageResult:
        """Repartition a stage by key hash through the shuffle service."""
        from repro.services.shuffle import ShuffleService

        self._temp_counter += 1
        num_nodes = self.cluster.num_nodes
        if num_partitions is None:
            num_partitions = num_nodes
        service = ShuffleService(
            self.cluster,
            f"__qshuffle{self._temp_counter}",
            num_partitions=num_partitions,
            object_bytes=self.object_bytes,
        )
        for node_id, records in stage.per_node.items():
            node = self.cluster.nodes[node_id]
            for chunk in iter_chunks(records):
                service.write_batch(
                    node_id,
                    chunk,
                    RecordBatch(chunk).partitions(key_fn, num_partitions),
                    worker_node=node,
                    nbytes=self.object_bytes,
                )
                self._note_batches(1, len(chunk))
            self.metrics.shuffled_bytes += len(records) * self.object_bytes
        service.finish_writing()
        self.cluster.barrier()
        # Several partitions resolve to the same home node whenever
        # num_partitions > num_nodes: group the reads per home and merge
        # the record lists instead of overwriting per_node[home_id].
        homes: dict[int, list] = {}
        for partition in range(num_partitions):
            dataset = service.partition_set(partition)
            homes.setdefault(sorted(dataset.shards)[0], []).append(dataset)
        tasks = {
            home_id: (lambda sets=datasets: self._shuffle_read_task(sets))
            for home_id, datasets in homes.items()
        }
        result = StageResult(per_node=self._run_stage("shuffle-read", tasks))
        service.drop()
        self.cluster.barrier()
        return result

    @staticmethod
    def _shuffle_read_task(datasets: list) -> list:
        records: list = []
        for dataset in datasets:
            for node_id in sorted(dataset.shards):
                records.extend(scan_shard_records(dataset.shards[node_id]))
        return records

    # ------------------------------------------------------------------
    # aggregation
    # ------------------------------------------------------------------

    def _exec_aggregate(self, agg: AggregateNode) -> StageResult:
        child = self._exec(agg.child)
        self.metrics.local_agg_stages += 1
        # Hash pages must hold a healthy number of entries even when
        # logical record sizes are inflated by scale-down factors.
        agg_page_size = max(4 * MB, 64 * self.object_bytes)
        # Local stage: one hash-service buffer per node.  The manager is
        # not thread-safe: create every per-node temp set on the driver
        # first, run the local stages, drop after joining, also when a
        # stage fails (a long-lived cluster must not keep its sets).
        temps: dict[int, "LocalitySet"] = {}
        try:
            for node_id, records in child.per_node.items():
                if not records:
                    continue
                self._temp_counter += 1
                temps[node_id] = self.cluster.create_set(
                    f"__agg{self._temp_counter}_n{node_id}",
                    durability="write-back",
                    page_size=agg_page_size,
                    nodes=[node_id],
                    object_bytes=self.object_bytes,
                )
            tasks = {
                node_id: (
                    lambda nid=node_id, temp=temp: self._local_agg_task(
                        agg, child.per_node[nid], temp
                    )
                )
                for node_id, temp in temps.items()
            }
            partials = StageResult(per_node=self._run_batched_stage("local-agg", tasks))
        finally:
            for temp in temps.values():
                temp.end_lifetime()
                self.cluster.drop_set(temp.name)
        self.cluster.barrier()

        # Final stage: partials route to key-owner nodes and merge there.
        num_nodes = self.cluster.num_nodes
        routed: dict = {nid: [] for nid in range(num_nodes)}
        for node_id, pairs in partials.per_node.items():
            node = self.cluster.nodes[node_id]
            moved = 0
            for key, acc in pairs:
                owner = stable_hash(key) % num_nodes
                routed[owner].append((key, acc))
                if owner != node_id:
                    moved += self.object_bytes
            if moved:
                node.network.transfer(moved)
        self.cluster.barrier()
        tasks = {
            node_id: (
                lambda nid=node_id: self._final_agg_task(
                    agg, routed[nid], self.cluster.nodes[nid]
                )
            )
            for node_id, pairs in routed.items()
            if pairs
        }
        result = StageResult(per_node=self._run_stage("final-agg", tasks))
        self.cluster.barrier()
        return result

    def _local_agg_task(self, agg, records: list, temp: "LocalitySet"):
        from repro.services.hashsvc import VirtualHashBuffer

        buffer = VirtualHashBuffer(temp, num_root_partitions=4, combiner=agg.merge_fn)
        key_fn = agg.key_fn
        seed_fn = agg.seed_fn
        batches = 0
        try:
            for chunk in iter_chunks(records):
                buffer.insert_many(
                    [key_fn(record) for record in chunk],
                    [seed_fn(record) for record in chunk],
                    nbytes=self.object_bytes,
                )
                batches += 1
            pairs = list(buffer.items())
        finally:
            # Unpin the hash pages even when a merge fails.
            buffer.release()
        return pairs, batches, len(records)

    @staticmethod
    def _final_agg_task(agg, pairs: list, node) -> list:
        merged: dict = {}
        merge_fn = agg.merge_fn
        for key, acc in pairs:
            if key in merged:
                merged[key] = merge_fn(merged[key], acc)
            else:
                merged[key] = acc
        node.cpu.per_object(len(pairs), factor=1.5)
        return [agg.final_fn(key, acc) for key, acc in merged.items()]

    # ------------------------------------------------------------------
    # ordering and limits (driver-side)
    # ------------------------------------------------------------------

    def _exec_orderby(self, node: OrderByNode) -> StageResult:
        child = self._exec(node.child)
        records = child.all_records()
        driver = self.cluster.nodes[0]
        for node_id, recs in child.per_node.items():
            if node_id != 0 and recs:
                self.cluster.nodes[node_id].network.transfer(
                    len(recs) * self.object_bytes
                )
        records.sort(key=node.key_fn, reverse=node.reverse)
        import math

        if records:
            driver.cpu.per_object(
                int(len(records) * max(1.0, math.log2(len(records)))), factor=0.5
            )
        self.cluster.barrier()
        return StageResult(per_node={0: records})

    def _exec_limit(self, node: LimitNode) -> StageResult:
        child = self._exec(node.child)
        records = child.all_records()[: node.count]
        # Every child record moves to the driver before the cutoff is
        # applied; charge the same per-node transfers _exec_orderby pays
        # for the identical movement.
        for node_id, recs in child.per_node.items():
            if node_id != 0 and recs:
                self.cluster.nodes[node_id].network.transfer(
                    len(recs) * self.object_bytes
                )
        self.cluster.barrier()
        return StageResult(per_node={0: records})
