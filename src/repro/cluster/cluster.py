"""The cluster façade applications program against."""

from __future__ import annotations

from repro.cluster.auth import KeyPair, verify_bootstrap
from repro.cluster.manager import HeartbeatFailureDetector, Manager
from repro.cluster.node import WorkerNode
from repro.core.attributes import DurabilityType, LocalitySetAttributes
from repro.core.locality_set import LocalitySet
from repro.sim.clock import synchronize
from repro.sim.devices import MB
from repro.sim.faults import RobustnessStats
from repro.sim.profiles import MachineProfile

DEFAULT_PAGE_SIZE = 256 * MB


class PangeaCluster:
    """One manager plus ``num_nodes`` workers.

    This is the public entry point: create locality sets, access them
    through the services, and read the simulated elapsed time with
    :meth:`simulated_seconds`.
    """

    def __init__(
        self,
        num_nodes: int = 1,
        profile: MachineProfile | None = None,
        policy: str = "data-aware",
        pool_allocator: str = "tlsf",
        authorized_key: KeyPair | None = None,
        private_key: str | None = None,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("a cluster needs at least one worker node")
        verify_bootstrap(authorized_key, private_key)
        self.profile = profile or MachineProfile.r4_2xlarge()
        self.manager = Manager()
        self.nodes = [
            WorkerNode(i, self.profile, policy=policy, pool_allocator=pool_allocator)
            for i in range(num_nodes)
        ]
        #: Cluster-level self-healing counters (failovers, recoveries);
        #: per-node counters live on each WorkerNode.robustness.
        self.robustness = RobustnessStats()
        #: Shared structured tracer; None until enable_tracing() is called.
        self.tracer = None

    # ------------------------------------------------------------------
    # set management
    # ------------------------------------------------------------------

    def create_set(
        self,
        name: str,
        durability: "DurabilityType | str" = DurabilityType.WRITE_THROUGH,
        page_size: int = DEFAULT_PAGE_SIZE,
        nodes: "list[int] | None" = None,
        object_bytes: int = 100,
        **attribute_overrides,
    ) -> LocalitySet:
        """Create a locality set sharded over ``nodes`` (default: all).

        ``durability`` follows the paper's default: write-through unless
        ``"write-back"`` is requested for transient data.  ``object_bytes``
        is the logical size charged per record unless a writer overrides it.
        """
        attributes = LocalitySetAttributes(
            durability=DurabilityType.parse(durability), **attribute_overrides
        )
        dataset = LocalitySet(
            set_id=self.manager.next_set_id(),
            name=name,
            cluster=self,
            page_size=page_size,
            attributes=attributes,
            object_bytes=object_bytes,
        )
        self.manager.register_set(dataset)
        target_nodes = self.nodes if nodes is None else [self.nodes[i] for i in nodes]
        for node in target_nodes:
            shard = dataset.add_shard(node)
            node.fs.create_file(name)
            node.paging.register_shard(shard)
        return dataset

    def get_set(self, name: str) -> LocalitySet:
        return self.manager.get_set(name)

    def drop_set(self, name: str) -> None:
        """Remove a set: pages, disk images, paging registration, catalog."""
        dataset = self.manager.get_set(name)
        for shard in dataset.shards.values():
            shard.clear()
            shard.node.paging.unregister_shard(shard)
            shard.node.fs.drop_file(name)
        self.manager.drop_set(name)

    # ------------------------------------------------------------------
    # time and synchronization
    # ------------------------------------------------------------------

    def enable_tracing(self, capacity: "int | None" = None) -> "object":
        """Install one shared structured tracer across every node.

        Hot paths (pool placement, pins, evictions, disk and network I/O,
        paging decisions) start emitting :class:`~repro.obs.tracer.TraceEvent`
        records timestamped off each node's simulated clock.  Returns the
        :class:`~repro.obs.tracer.Tracer`; export it with
        :func:`repro.obs.to_jsonl` / :func:`repro.obs.to_chrome`.
        ``capacity`` bounds the event ring (``None``: the default); a
        capacity below one raises :class:`ValueError` before any node is
        attached.
        """
        from repro.obs.tracer import DEFAULT_CAPACITY, Tracer

        tracer = Tracer(DEFAULT_CAPACITY if capacity is None else capacity)
        for node in self.nodes:
            node.attach_tracer(tracer)
        self.tracer = tracer
        return tracer

    def disable_tracing(self) -> None:
        """Detach the tracer; hook sites revert to zero-cost no-ops."""
        for node in self.nodes:
            node.detach_tracer()
        self.tracer = None

    def enable_self_healing(
        self,
        interval: float = 0.5,
        miss_threshold: int = 3,
        auto_recover: bool = True,
    ) -> HeartbeatFailureDetector:
        """Install a heartbeat failure detector polled at every barrier.

        With ``auto_recover`` (the default) a detected crash immediately
        re-dispatches the dead node's shards over the survivors for every
        recoverable replication group, so later scans heal transparently.
        """
        detector = HeartbeatFailureDetector(
            self,
            interval=interval,
            miss_threshold=miss_threshold,
            auto_recover=auto_recover,
        )
        return self.manager.attach_failure_detector(detector)

    def barrier(self) -> float:
        """Synchronize all node clocks to the max (stage boundary).

        Stage boundaries are where the manager hears about missed
        heartbeats, so an attached failure detector is polled here.
        """
        if self.manager.failure_detector is not None:
            self.manager.failure_detector.poll()
        return synchronize(node.clock for node in self.nodes)

    def simulated_seconds(self) -> float:
        return max(node.clock.now for node in self.nodes)

    def reset_clocks(self) -> None:
        for node in self.nodes:
            node.clock.reset()
            node.reset_stats()
        self.robustness.reset()

    # ------------------------------------------------------------------
    # policies and introspection
    # ------------------------------------------------------------------

    def set_policy(self, policy: str) -> None:
        for node in self.nodes:
            node.paging.set_policy(policy)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    def total_pool_bytes_used(self) -> int:
        return sum(node.pool.used_bytes for node in self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PangeaCluster(nodes={self.num_nodes}, profile={self.profile.name}, "
            f"sets={len(self.manager.set_names())})"
        )
