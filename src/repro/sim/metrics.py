"""Cluster metrics collection and reporting.

Gathers the per-node counters every component maintains (clock, disks,
network, buffer pool, paging) plus the per-locality-set registry
(:mod:`repro.obs.registry`) into one snapshot — the foundation every
benchmark number and tuning decision rests on.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.obs.registry import SetMetrics, merge_set_metrics
from repro.sim.devices import MB
from repro.sim.faults import RobustnessStats

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.cluster import PangeaCluster


@dataclass
class NodeMetrics:
    """One worker's counters at snapshot time."""

    node_id: int
    seconds: float
    pool_used_bytes: int
    pool_capacity_bytes: int
    disk_bytes_read: int
    disk_bytes_written: int
    network_bytes_sent: int
    evictions: int
    pageouts: int
    pageins: int
    bytes_paged_out: int
    bytes_paged_in: int
    #: Self-healing counters (0 on clusters with no fault injection).
    retries: int = 0
    corruptions_detected: int = 0
    read_repairs: int = 0
    #: Receive-side network accounting (credited by peer-aware transfers).
    network_bytes_received: int = 0
    network_messages_sent: int = 0
    network_messages_received: int = 0
    #: Victim-selection counters from PagingSystem.stats.
    eviction_rounds: int = 0
    pages_evicted: int = 0
    #: Victim-index counters (see PagingStats): scoring rounds and
    #: cost-term cache activity of the data-aware policy.
    index_rebuilds: int = 0
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0
    #: Per-locality-set registry entries on this node (live + retired).
    sets: "dict[str, SetMetrics]" = field(default_factory=dict)


@dataclass
class ClusterMetrics:
    """A whole-cluster snapshot."""

    nodes: list = field(default_factory=list)

    @property
    def simulated_seconds(self) -> float:
        return max((n.seconds for n in self.nodes), default=0.0)

    @property
    def total_disk_bytes(self) -> int:
        return sum(n.disk_bytes_read + n.disk_bytes_written for n in self.nodes)

    @property
    def total_network_bytes(self) -> int:
        return sum(n.network_bytes_sent for n in self.nodes)

    @property
    def total_network_bytes_received(self) -> int:
        return sum(n.network_bytes_received for n in self.nodes)

    @property
    def total_evictions(self) -> int:
        return sum(n.evictions for n in self.nodes)

    @property
    def total_eviction_rounds(self) -> int:
        return sum(n.eviction_rounds for n in self.nodes)

    def set_totals(self) -> "dict[str, SetMetrics]":
        """Per-set counters merged across every node, keyed by set name."""
        totals: dict[str, SetMetrics] = {}
        for node in self.nodes:
            merge_set_metrics(totals, node.sets)
        return totals

    def skew(self) -> float:
        """Max-over-mean of per-node simulated time (1.0 = perfectly even)."""
        if not self.nodes:
            return 1.0
        times = [n.seconds for n in self.nodes]
        mean = sum(times) / len(times)
        if mean == 0:
            return 1.0
        return max(times) / mean


def collect(cluster: "PangeaCluster") -> ClusterMetrics:
    """Snapshot every node's counters."""
    snapshot = ClusterMetrics()
    for node in cluster.nodes:
        snapshot.nodes.append(
            NodeMetrics(
                node_id=node.node_id,
                seconds=node.clock.now,
                pool_used_bytes=node.pool.used_bytes,
                pool_capacity_bytes=node.pool.capacity,
                disk_bytes_read=node.disks.total_bytes_read(),
                disk_bytes_written=node.disks.total_bytes_written(),
                network_bytes_sent=node.network.stats.bytes_sent,
                evictions=node.pool.stats.evictions,
                pageouts=node.pool.stats.pageouts,
                pageins=node.pool.stats.pageins,
                bytes_paged_out=node.pool.stats.bytes_paged_out,
                bytes_paged_in=node.pool.stats.bytes_paged_in,
                retries=node.robustness.retries,
                corruptions_detected=node.robustness.corruptions_detected,
                read_repairs=node.robustness.read_repairs,
                network_bytes_received=node.network.stats.bytes_received,
                network_messages_sent=node.network.stats.num_messages,
                network_messages_received=node.network.stats.messages_received,
                eviction_rounds=node.paging.stats.eviction_rounds,
                pages_evicted=node.paging.stats.pages_evicted,
                index_rebuilds=node.paging.stats.index_rebuilds,
                cost_cache_hits=node.paging.stats.cost_cache_hits,
                cost_cache_misses=node.paging.stats.cost_cache_misses,
                sets=node.paging.set_metrics(),
            )
        )
    return snapshot


def aggregate_robustness(cluster: "PangeaCluster") -> RobustnessStats:
    """Merge every node's self-healing counters with the cluster's own
    (failovers and automatic recoveries are counted cluster-side)."""
    total = RobustnessStats()
    for node in cluster.nodes:
        total.merge(node.robustness)
    total.merge(cluster.robustness)
    return total


#: ``(header, width)`` pairs for the per-node table; every cell — header
#: and data alike — is right-aligned into its column width, which is what
#: the alignment regression test asserts.
NODE_COLUMNS = (
    ("node", 5),
    ("seconds", 9),
    ("pool", 13),
    ("disk(r/w,MB)", 13),
    ("net(tx/rx,MB)", 13),
    ("evict", 6),
    ("rounds", 6),
    ("out/in", 9),
)


def _render_row(cells: "list[str]", widths: "list[int]") -> str:
    return " ".join(f"{cell:>{width}}" for cell, width in zip(cells, widths))


def format_table(metrics: ClusterMetrics) -> str:
    """Render the snapshot as a fixed-width table."""
    widths = [width for _name, width in NODE_COLUMNS]
    lines = [_render_row([name for name, _w in NODE_COLUMNS], widths)]
    for n in metrics.nodes:
        cells = [
            str(n.node_id),
            f"{n.seconds:.3f}s",
            f"{n.pool_used_bytes // MB}/{n.pool_capacity_bytes // MB}MB",
            f"{n.disk_bytes_read // MB}/{n.disk_bytes_written // MB}",
            f"{n.network_bytes_sent // MB}/{n.network_bytes_received // MB}",
            str(n.evictions),
            str(n.eviction_rounds),
            f"{n.pageouts}/{n.pageins}",
        ]
        lines.append(_render_row(cells, widths))
    lines.append(
        f"total: {metrics.simulated_seconds:.3f}s simulated, "
        f"{metrics.total_disk_bytes // MB}MB disk, "
        f"{metrics.total_network_bytes // MB}MB network, "
        f"{metrics.total_eviction_rounds} eviction rounds, "
        f"skew {metrics.skew():.2f}"
    )
    retries = sum(n.retries for n in metrics.nodes)
    repairs = sum(n.read_repairs for n in metrics.nodes)
    corruptions = sum(n.corruptions_detected for n in metrics.nodes)
    if retries or repairs or corruptions:
        lines.append(
            f"robustness: {retries} retries, {corruptions} corruptions "
            f"detected, {repairs} read-repairs"
        )
    return "\n".join(lines)


#: ``(header, width)`` pairs for the per-locality-set table.
SET_COLUMNS = (
    ("set", 20),
    ("strategy", 8),
    ("pins", 8),
    ("hit%", 7),
    ("evict", 6),
    ("flushed(MB)", 11),
    ("pagein(MB)", 10),
    ("avg-cost", 9),
    ("avg-preuse", 10),
    ("cache(h/m)", 10),
)


def format_set_table(metrics: ClusterMetrics) -> str:
    """Render the per-locality-set registry, one row per set."""
    widths = [width for _name, width in SET_COLUMNS]
    lines = [_render_row([name for name, _w in SET_COLUMNS], widths)]
    totals = metrics.set_totals()
    for name in sorted(totals):
        s = totals[name]
        cells = [
            name if len(name) <= 20 else name[:17] + "...",
            s.strategy or "-",
            str(s.pins),
            f"{s.hit_ratio * 100:.1f}",
            str(s.evictions),
            f"{s.flushed_bytes / MB:.1f}",
            f"{s.bytes_paged_in / MB:.1f}",
            f"{s.mean_eviction_cost:.4f}" if s.cost_samples else "-",
            f"{s.mean_preuse:.4f}" if s.cost_samples else "-",
            (
                f"{s.cost_cache_hits}/{s.cost_cache_misses}"
                if s.cost_cache_hits or s.cost_cache_misses
                else "-"
            ),
        ]
        lines.append(_render_row(cells, widths))
    return "\n".join(lines)


#: ``(header, width)`` pairs for the query-scheduler summary table.
SCHEDULER_COLUMNS = (
    ("joins(c/b/r)", 12),
    ("repl-subs", 9),
    ("agg", 5),
    ("shuffle(MB)", 11),
    ("batches", 8),
    ("fill", 7),
    ("stages(par)", 11),
    ("par", 5),
)


def format_scheduler_table(metrics) -> str:
    """Render one :class:`~repro.query.scheduler.SchedulerMetrics` snapshot.

    Strategy decisions on the left, batch-engine counters (batches
    processed, mean batch fill, stage counts with how many ran node-parallel,
    mean per-stage parallelism) on the right.
    """
    widths = [width for _name, width in SCHEDULER_COLUMNS]
    lines = [_render_row([name for name, _w in SCHEDULER_COLUMNS], widths)]
    cells = [
        f"{metrics.copartitioned_joins}/{metrics.broadcast_joins}"
        f"/{metrics.repartition_joins}",
        str(metrics.replica_substitutions),
        str(metrics.local_agg_stages),
        f"{metrics.shuffled_bytes / MB:.1f}",
        str(metrics.batches_processed),
        f"{metrics.mean_batch_fill:.1f}",
        f"{metrics.stages_run}({metrics.parallel_stages})",
        f"{metrics.mean_stage_parallelism:.1f}",
    ]
    lines.append(_render_row(cells, widths))
    return "\n".join(lines)


def reconcile(metrics: ClusterMetrics) -> "list[str]":
    """Cross-check the per-set registry against PoolStats, per node.

    Returns a list of human-readable mismatch descriptions — empty when
    the two accounting paths agree exactly (the invariant the registry
    maintains; see :mod:`repro.obs.registry`).
    """
    problems: list[str] = []
    for node in metrics.nodes:
        sets = node.sets.values()
        checks = (
            ("evictions", sum(s.evictions for s in sets), node.evictions),
            ("flushed pages", sum(s.flushed_pages for s in sets), node.pageouts),
            ("flushed bytes", sum(s.flushed_bytes for s in sets), node.bytes_paged_out),
            ("page-ins", sum(s.misses for s in sets), node.pageins),
            ("paged-in bytes", sum(s.bytes_paged_in for s in sets), node.bytes_paged_in),
            ("pages evicted (paging)", sum(s.evictions for s in sets), node.pages_evicted),
            (
                "cost-cache hits",
                sum(s.cost_cache_hits for s in sets),
                node.cost_cache_hits,
            ),
            (
                "cost-cache misses",
                sum(s.cost_cache_misses for s in sets),
                node.cost_cache_misses,
            ),
        )
        for label, per_set, pool in checks:
            if per_set != pool:
                problems.append(
                    f"node {node.node_id}: per-set {label} {per_set} != "
                    f"node counter {pool}"
                )
    return problems
