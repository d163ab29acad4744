"""Long-living workers vs waves of tasks (paper Sec. 5).

:class:`WorkerPool` is Pangea's model: a job stage starts N workers per
node which live until all input pages are processed, each pulling pages
from the data proxy's circular buffer in a loop.  There is no per-block
scheduling and no "all-or-nothing" cache-locality concern.

The workers are modelled, not spawned: each node's pages are served in
order through one :class:`~repro.compute.proxy.DataProxy`, and the
per-object compute time is divided across the node's workers as if they
ran concurrently on its cores.

:class:`WavesOfTasks` is the Spark/Hadoop model the paper contrasts: one
task per data block, scheduled by a driver wave by wave, paying a fixed
scheduling cost per task.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.compute.proxy import DataProxy
from repro.services.sequential import resolve_readable_source

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet


@dataclass
class StageResult:
    """Output of one job stage."""

    per_node: dict = field(default_factory=dict)
    pages_processed: int = 0
    seconds: float = 0.0
    tasks_scheduled: int = 0

    def all_results(self) -> list:
        merged: list = []
        for node_id in sorted(self.per_node):
            merged.extend(self.per_node[node_id])
        return merged


class WorkerPool:
    """Pangea's worker model: long-living workers pulling pages."""

    def __init__(self, cluster: "PangeaCluster", workers_per_node: int = 8,
                 buffer_capacity: int = 16) -> None:
        if workers_per_node < 1:
            raise ValueError("need at least one worker per node")
        if buffer_capacity < 1:
            raise ValueError("circular buffer capacity must be positive")
        self.cluster = cluster
        self.workers_per_node = workers_per_node
        self.buffer_capacity = buffer_capacity

    def run_stage(
        self,
        dataset: "LocalitySet",
        page_fn: "typing.Callable[[object], object]",
        seconds_per_object: float = 0.0,
    ) -> StageResult:
        """Apply ``page_fn`` to every page of ``dataset``.

        Workers on each node share one proxy; per-object compute time is
        divided across the workers (they run concurrently on the cores).
        Outputs are in the shard's page order.  If ``page_fn`` raises, the
        proxy releases every page it still holds pinned before the error
        propagates.

        Dead shards fail over the same way a scan does (see
        :func:`~repro.services.sequential.resolve_readable_source`): the
        stage reads the healed survivors or a fully-live replica member
        instead of the crashed node's orphaned pages.
        """
        start = self.cluster.barrier()
        result = StageResult()
        source, node_ids = resolve_readable_source(dataset)
        for node_id in node_ids:
            shard = source.shards[node_id]
            node = shard.node
            proxy = DataProxy(shard, buffer_capacity=self.buffer_capacity)
            outputs: list = []
            try:
                while True:
                    page = proxy.next_page()
                    if page is None:
                        break
                    outputs.append(page_fn(page))
                    node.cpu.per_object(
                        page.num_objects, workers=self.workers_per_node
                    )
                    if seconds_per_object:
                        node.cpu.parallel(
                            page.num_objects * seconds_per_object,
                            self.workers_per_node,
                        )
                    proxy.release_page(page)
                    result.pages_processed += 1
            finally:
                proxy.close()
            result.per_node[node_id] = outputs
        result.seconds = self.cluster.barrier() - start
        return result


class WavesOfTasks:
    """The layered engines' model: one scheduled task per page.

    The driver dispatches tasks in waves of ``cores`` per node; every
    task pays ``task_overhead`` of driver/scheduler time (serialization
    of the closure, scheduling decision, launch) before doing the same
    work a Pangea worker would.
    """

    def __init__(
        self,
        cluster: "PangeaCluster",
        cores_per_node: int = 8,
        task_overhead: float = 2e-3,
    ) -> None:
        if cores_per_node < 1:
            raise ValueError("need at least one core per node")
        if task_overhead < 0:
            raise ValueError("task overhead cannot be negative")
        self.cluster = cluster
        self.cores_per_node = cores_per_node
        self.task_overhead = task_overhead

    def run_stage(
        self,
        dataset: "LocalitySet",
        page_fn: "typing.Callable[[object], object]",
        seconds_per_object: float = 0.0,
    ) -> StageResult:
        start = self.cluster.barrier()
        result = StageResult()
        driver = self.cluster.nodes[0]
        source, node_ids = resolve_readable_source(dataset)
        for node_id in node_ids:
            shard = source.shards[node_id]
            node = shard.node
            outputs: list = []
            for page in list(shard.pages):
                # The driver schedules one task for this block.
                driver.clock.advance(self.task_overhead)
                result.tasks_scheduled += 1
                shard.pin_page(page)
                try:
                    outputs.append(page_fn(page))
                    node.cpu.per_object(
                        page.num_objects, workers=self.cores_per_node
                    )
                    if seconds_per_object:
                        node.cpu.parallel(
                            page.num_objects * seconds_per_object,
                            self.cores_per_node,
                        )
                finally:
                    shard.unpin_page(page)
                result.pages_processed += 1
            result.per_node[node_id] = outputs
        result.seconds = self.cluster.barrier() - start
        return result
