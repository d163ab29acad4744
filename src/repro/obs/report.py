"""A canonical traced workload for demos, CLI commands, and CI smoke runs.

``run_smoke`` builds a small cluster, runs a paging-heavy scan plus a
shuffle (so every hot path — pool, paging, disks, network, services —
fires at least once), and returns the cluster, tracer, and metrics
snapshot together so callers can export traces or print tables without
re-deriving the workload.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.obs.tracer import Tracer
from repro.sim import metrics as metrics_mod
from repro.sim.devices import KB, MB

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import PangeaCluster


@dataclass
class SmokeReport:
    """Everything ``run_smoke`` produced."""

    cluster: "PangeaCluster"
    tracer: "Tracer | None"
    metrics: "metrics_mod.ClusterMetrics"
    records_scanned: int
    records_shuffled: int

    @property
    def mismatches(self) -> "list[str]":
        return metrics_mod.reconcile(self.metrics)


def run_smoke(
    nodes: int = 2,
    pool_mb: int = 8,
    trace: bool = True,
    policy: str = "data-aware",
) -> SmokeReport:
    """Run the traced smoke scenario and collect a metrics snapshot.

    The scan set is sized to twice the pool so the paging system must
    evict (exercising the cost model), and the shuffle crosses nodes so
    both network send and receive counters move.
    """
    from repro.cluster.cluster import PangeaCluster
    from repro.services.shuffle import ShuffleService
    from repro.sim.profiles import MachineProfile

    cluster = PangeaCluster(
        num_nodes=nodes,
        profile=MachineProfile.tiny(pool_bytes=pool_mb * MB),
        policy=policy,
    )
    tracer = cluster.enable_tracing() if trace else None

    data = cluster.create_set(
        "smoke_scan", durability="write-back",
        page_size=512 * KB, object_bytes=64 * KB,
    )
    records = list(range(pool_mb * 32 * nodes))  # 2x each node's pool
    data.add_data(records)
    scanned = 0
    for _ in range(2):
        scanned += sum(1 for _record in data.scan_records(workers=4))

    shuffle = ShuffleService(
        cluster, "smoke_sh", num_partitions=nodes,
        page_size=512 * KB, small_page_size=64 * KB, object_bytes=16 * KB,
    )
    shuffled = 4 * nodes * 8
    for i in range(shuffled):
        worker = i % nodes
        shuffle.buffer_for(
            worker, i % nodes, worker_node=cluster.nodes[worker]
        ).add_object(i)
    shuffle.finish_writing()
    for p in range(nodes):
        for _record in shuffle.partition_set(p).scan_records():
            pass
    shuffle.drop()

    snapshot = metrics_mod.collect(cluster)
    return SmokeReport(
        cluster=cluster,
        tracer=tracer,
        metrics=snapshot,
        records_scanned=scanned,
        records_shuffled=shuffled,
    )
