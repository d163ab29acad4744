"""The paging system (paper Sec. 6)."""

from __future__ import annotations

import threading
import typing
from dataclasses import dataclass

from repro.core.policies import PagingPolicy, make_policy, set_strategy
from repro.obs.registry import SetMetrics, merge_set_metrics
from repro.sim.clock import TickCounter

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.locality_set import LocalShard


@dataclass
class PagingStats:
    """Victim-selection counters for the paging benchmarks."""

    eviction_rounds: int = 0
    pages_evicted: int = 0
    #: Data-aware scoring rounds: each scores every candidate set once.
    index_rebuilds: int = 0
    #: Cost-term cache hits/misses across all candidate evaluations
    #: (node-level sums of the per-set counters in SetMetrics).
    cost_cache_hits: int = 0
    cost_cache_misses: int = 0

    def reset(self) -> None:
        self.eviction_rounds = 0
        self.pages_evicted = 0
        self.index_rebuilds = 0
        self.cost_cache_hits = 0
        self.cost_cache_misses = 0


class PagingSystem:
    """Per-node victim selection driven by a pluggable policy.

    The buffer pool calls :meth:`make_room` when a pin request finds no
    free space; the policy picks a victim locality set and a batch of its
    pages, and this class performs the evictions (flushing dirty write-back
    pages through the set's file).

    Thread-safe: the shard registry, stats, and policy access are
    guarded by a reentrant lock.  :meth:`make_room` runs with the
    buffer pool's storage lock already held (pool → paging is the lock
    order; see docs/api.md "Concurrency model"), so victim selection and
    eviction are atomic with respect to concurrent pins.
    """

    def __init__(self, policy: "PagingPolicy | str" = "data-aware") -> None:
        if isinstance(policy, str):
            policy = make_policy(policy)
        self.policy = policy  # also caches its on_access hook
        self._ticks = TickCounter()
        self._shards: list[LocalShard] = []
        self._lock = threading.RLock()
        self.stats = PagingStats()
        #: Per-set counters of shards that were unregistered (set dropped);
        #: kept so per-set totals still reconcile with PoolStats afterwards.
        self.retired_set_metrics: dict[str, SetMetrics] = {}
        #: Optional :class:`~repro.obs.tracer.NodeTracer`; installed by
        #: :meth:`repro.cluster.node.WorkerNode.attach_tracer`.
        self.tracer = None

    # ------------------------------------------------------------------
    # registration and ticking
    # ------------------------------------------------------------------

    def register_shard(self, shard: "LocalShard") -> None:
        with self._lock:
            self._shards.append(shard)

    def unregister_shard(self, shard: "LocalShard") -> None:
        with self._lock:
            if shard in self._shards:
                self._shards.remove(shard)
                merge_set_metrics(self.retired_set_metrics, [shard.metrics])

    @property
    def shards(self) -> "list[LocalShard]":
        with self._lock:
            return list(self._shards)

    def tick(self) -> int:
        """Advance the access-sequence counter (one buffer-pool access)."""
        return self._ticks.next()

    @property
    def policy(self) -> PagingPolicy:
        return self._policy

    @policy.setter
    def policy(self, policy: PagingPolicy) -> None:
        self._policy = policy
        self._on_access = getattr(policy, "on_access", None)

    def note_access(self, page) -> None:
        """Forward a page access to policies that track history (LRU-K,
        GreedyDual); the default policies only need last_access_tick."""
        on_access = self._on_access
        if on_access is not None:
            with self._lock:
                on_access(page, self._ticks.now)

    @property
    def current_tick(self) -> int:
        return self._ticks.now

    def note_page_image(self, page) -> None:
        """Record the object ids backing a page's on-disk image.

        Called by the shard whenever a page image is persisted (seal of a
        write-through page, flush of a dirty write-back page).  The index
        lives on the owning locality set and is what the buffer layer uses
        to read-repair a corrupted image from a surviving replica — without
        it, a corruption is only diagnosable, not healable.
        """
        shard = page.shard
        if shard is not None:
            shard.dataset.note_page_image(shard, page)

    # ------------------------------------------------------------------
    # eviction
    # ------------------------------------------------------------------

    def make_room(self, needed_bytes: int) -> bool:
        """Evict at least one page; ``False`` when nothing was evicted.

        Installed as the buffer pool's evictor.  The pool retries its
        allocation after every successful round, so a single round only
        needs to make progress, not to free ``needed_bytes`` exactly.
        Victims that became pinned (or were already evicted) between
        selection and eviction are skipped; a round that skips every
        victim reports ``False`` so the pool raises instead of retrying
        forever.
        """
        with self._lock:
            tracer = self.tracer
            start = tracer.now if tracer is not None else 0.0
            policy = self._policy
            policy.last_decision = None
            victims = policy.select_victims(self._shards, needed_bytes)
            decision = getattr(policy, "last_decision", None)
            if decision is not None:
                # The data-aware policy exposes the cost-model evaluation
                # behind its choice; feed it to the victim set's registry
                # entry and (when enabled) the structured trace.
                chosen, breakdown = decision
                chosen.metrics.note_cost_sample(breakdown.total, breakdown.preuse)
                if tracer is not None:
                    tracer.instant(
                        "paging.victim", "paging", set=chosen.dataset.name,
                        cost=breakdown.total, cw=breakdown.cw,
                        vr=breakdown.vr, wr=breakdown.wr,
                        preuse=breakdown.preuse, age=breakdown.age,
                        policy=policy.name,
                    )
            if not victims:
                return False
            # Validate the batch up front: victims that became pinned or
            # left memory between selection and eviction are skipped.
            valid = [
                page for page in victims
                if page.shard is not None and page.offset is not None
                and page.pin_count == 0
            ]
            stats = self.stats
            evicted = 0
            freed_bytes = 0
            # Evict runs of consecutive same-set victims as one batch so
            # their dirty write-backs coalesce into a single striped
            # DiskArray charge (LocalShard.evict_pages → SetFile.write_many)
            # instead of one seek per page.
            i = 0
            while i < len(valid):
                shard = valid[i].shard
                j = i + 1
                while j < len(valid) and valid[j].shard is shard:
                    j += 1
                for result in shard.evict_pages(valid[i:j]):
                    freed_bytes += result.freed
                evicted += j - i
                stats.pages_evicted += j - i
                i = j
            if evicted == 0:
                return False
            stats.eviction_rounds += 1
            if tracer is not None:
                tracer.span("paging.make_room", "paging", start,
                            tracer.now - start, needed_bytes=needed_bytes,
                            evicted=evicted, freed_bytes=freed_bytes,
                            policy=policy.name)
                tracer.counter(
                    "paging.index", "paging",
                    rebuilds=stats.index_rebuilds,
                    cost_cache_hits=stats.cost_cache_hits,
                    cost_cache_misses=stats.cost_cache_misses,
                )
            return True

    def set_metrics(self) -> "dict[str, SetMetrics]":
        """Per-set counters on this node: live shards plus retired sets.

        Live entries are stamped with the eviction strategy currently in
        force for the set; the returned records are copies, safe to merge
        and keep after the shards change.
        """
        with self._lock:
            out: dict[str, SetMetrics] = {}
            merge_set_metrics(out, self.retired_set_metrics)
            for shard in self._shards:
                record = shard.metrics.copy()
                record.strategy = set_strategy(shard)
                existing = out.get(record.set_name)
                if existing is None:
                    out[record.set_name] = record
                else:
                    existing.merge(record)
                    existing.strategy = record.strategy
            return out

    def reset_set_metrics(self) -> None:
        """Zero every per-set counter (live shards and retired sets)."""
        with self._lock:
            self.retired_set_metrics.clear()
            for shard in self._shards:
                shard.metrics.reset()

    def set_policy(self, policy: "PagingPolicy | str") -> None:
        if isinstance(policy, str):
            policy = make_policy(policy)
        with self._lock:
            self.policy = policy

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PagingSystem(policy={self.policy.name}, shards={len(self._shards)})"
