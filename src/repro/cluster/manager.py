"""The Pangea manager node: catalog and statistics database.

The manager is deliberately light-weight (paper Sec. 4): it stores locality
set metadata — database/set names, page sizes, attributes, partition
schemes, replica groups — while per-page metadata lives in the meta files
on each worker.  The statistics service exposed here is what the query
scheduler consults to pick a well-partitioned replica (paper Sec. 9.1.2).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.core.locality_set import LocalitySet
    from repro.placement.replication import ReplicationGroup


class HeartbeatFailureDetector:
    """Simulated heartbeat-based failure detection (self-healing, Sec. 7).

    Workers are modeled as heartbeating the manager every ``interval``
    simulated seconds; a node is declared dead after ``miss_threshold``
    missed beats, so detection charges ``interval * miss_threshold``
    seconds of cluster time.  With ``auto_recover`` on, declaring a node
    dead immediately re-dispatches its lost shards over the survivors via
    :func:`~repro.placement.recovery.recover_node` for every replication
    group that can recover (>= 2 members and a registered ``object_id_fn``).

    ``poll`` is re-entrancy-guarded: recovery itself synchronizes via
    ``cluster.barrier()``, which polls the detector again.
    """

    def __init__(
        self,
        cluster: "PangeaCluster",
        interval: float = 0.5,
        miss_threshold: int = 3,
        auto_recover: bool = True,
    ) -> None:
        if interval <= 0:
            raise ValueError("heartbeat interval must be positive")
        if miss_threshold < 1:
            raise ValueError("miss_threshold must be at least 1")
        self.cluster = cluster
        self.interval = interval
        self.miss_threshold = miss_threshold
        self.auto_recover = auto_recover
        #: node ids already declared dead (and, if possible, recovered)
        self.handled: set[int] = set()
        self._polling = False

    @property
    def detection_delay(self) -> float:
        return self.interval * self.miss_threshold

    def poll(self) -> list[int]:
        """Check every node's liveness; returns newly detected failures."""
        if self._polling:
            return []
        self._polling = True
        try:
            detected: list[int] = []
            for node in self.cluster.nodes:
                if node.failed and node.node_id not in self.handled:
                    self.handled.add(node.node_id)
                    detected.append(node.node_id)
                elif not node.failed and node.node_id in self.handled:
                    # The process restarted (e.g. recover_process in a test);
                    # forget it so a second crash is detected again.
                    self.handled.discard(node.node_id)
            if detected:
                # Heartbeats take miss_threshold intervals to time out.
                self.cluster.barrier()
                for node in self.cluster.nodes:
                    node.clock.advance(self.detection_delay)
                for node in self.cluster.nodes:
                    if node.tracer is not None and not node.failed:
                        node.tracer.instant(
                            "failover.detected", "recovery",
                            dead_nodes=list(detected),
                            auto_recover=self.auto_recover,
                        )
                        break
                if self.auto_recover:
                    for node_id in detected:
                        self._recover(node_id)
            return detected
        finally:
            self._polling = False

    def _recover(self, node_id: int) -> None:
        from repro.placement.recovery import recover_node

        for group in self.cluster.manager.replica_groups():
            if len(group.members) < 2 or group.object_id_fn is None:
                continue
            if node_id in group.recovered_nodes:
                continue
            if not any(node_id in member.shards for member in group.members):
                continue
            recover_node(self.cluster, group, node_id)


@dataclass
class SetStatistics:
    """Statistics-database entry for one locality set."""

    name: str
    num_objects: int = 0
    logical_bytes: int = 0
    partition_scheme: "object | None" = None
    replica_group_id: int | None = None
    extra: dict = field(default_factory=dict)


class Manager:
    """Catalog + statistics database + replica registry."""

    def __init__(self) -> None:
        self._sets: dict[str, "LocalitySet"] = {}
        self._set_counter = 0
        self._groups: dict[int, "ReplicationGroup"] = {}
        self._group_counter = 0
        self._stats: dict[str, SetStatistics] = {}
        #: Installed by PangeaCluster.enable_self_healing; None otherwise.
        self.failure_detector: "HeartbeatFailureDetector | None" = None

    def attach_failure_detector(
        self, detector: "HeartbeatFailureDetector"
    ) -> "HeartbeatFailureDetector":
        self.failure_detector = detector
        return detector

    # ------------------------------------------------------------------
    # catalog
    # ------------------------------------------------------------------

    def next_set_id(self) -> int:
        self._set_counter += 1
        return self._set_counter

    def register_set(self, dataset: "LocalitySet") -> None:
        if dataset.name in self._sets:
            raise ValueError(f"a set named {dataset.name!r} already exists")
        self._sets[dataset.name] = dataset
        self._stats[dataset.name] = SetStatistics(name=dataset.name)

    def get_set(self, name: str) -> "LocalitySet":
        try:
            return self._sets[name]
        except KeyError:
            raise KeyError(f"no set named {name!r}") from None

    def drop_set(self, name: str) -> None:
        self._sets.pop(name, None)
        self._stats.pop(name, None)

    def has_set(self, name: str) -> bool:
        return name in self._sets

    def set_names(self) -> list[str]:
        return sorted(self._sets)

    # ------------------------------------------------------------------
    # replication groups
    # ------------------------------------------------------------------

    def register_replica_group(self, group: "ReplicationGroup") -> int:
        self._group_counter += 1
        group_id = self._group_counter
        self._groups[group_id] = group
        for member in group.members:
            member.replica_group_id = group_id
            stats = self._stats.get(member.name)
            if stats is not None:
                stats.replica_group_id = group_id
        return group_id

    def replica_group(self, group_id: int) -> "ReplicationGroup":
        try:
            return self._groups[group_id]
        except KeyError:
            raise KeyError(f"no replication group {group_id}") from None

    def replica_groups(self) -> "list[ReplicationGroup]":
        return [self._groups[gid] for gid in sorted(self._groups)]

    def replicas_of(self, name: str) -> "list[LocalitySet]":
        """All members of the set's replication group (including itself)."""
        dataset = self.get_set(name)
        if dataset.replica_group_id is None:
            return [dataset]
        return list(self._groups[dataset.replica_group_id].members)

    # ------------------------------------------------------------------
    # statistics service
    # ------------------------------------------------------------------

    def update_statistics(self, dataset: "LocalitySet") -> SetStatistics:
        stats = self._stats.setdefault(dataset.name, SetStatistics(name=dataset.name))
        stats.num_objects = dataset.num_objects
        stats.logical_bytes = dataset.logical_bytes
        stats.partition_scheme = dataset.partition_scheme
        stats.replica_group_id = dataset.replica_group_id
        return stats

    def statistics(self, name: str) -> SetStatistics:
        try:
            return self._stats[name]
        except KeyError:
            raise KeyError(f"no statistics for set {name!r}") from None
