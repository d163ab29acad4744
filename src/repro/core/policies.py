"""Paging policies: the paper's data-aware policy and its baselines.

The data-aware policy (paper Sec. 6) picks the victim *locality set* whose
next page-to-be-evicted has the lowest expected eviction cost
``cw + preuse * cr`` and evicts one page (sets under write) or a 10% batch
(read-only sets) using the set's own MRU/LRU strategy.

The baselines reproduce the comparison points in Figs. 3, 9 and 10:
global LRU, global MRU, and three DBMIN variants (desired size fixed at 1
page, fixed at 1000 pages, and adaptively estimated), plus the "tuned"
DBMIN whose desired sizes are capped at memory so it does not block.

Victim selection reads the per-shard
:class:`~repro.core.recency.RecencyIndex` maintained incrementally by the
page lifecycle, so MRU/LRU victims pop in O(1) and the data-aware policy
scores one cost estimate per candidate *set* (its next victim, with
cached disk-model terms) instead of sorting candidate *pages* — O(S) per
round for S candidate sets, O(k log S) for global k-page batches.

Ties cannot occur within a node: every access draws a fresh tick, so
``last_access_tick`` values are unique and the index order is exactly the
order a sort by ``last_access_tick`` gives.  Between candidate sets of
equal expected cost, the data-aware policy picks the first in
registration order.  ``tests/golden/eviction_traces.json`` pins these
decisions as data; ``PYTHONPATH=src python tests/test_paging_index.py``
re-captures it after a deliberate change to simulated time.
"""

from __future__ import annotations

import heapq
import itertools
import math
import typing
from dataclasses import dataclass

from repro.buffer.page import Page
from repro.core.attributes import (
    CurrentOperation,
    DurabilityType,
    ReadingPattern,
    WritingPattern,
)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.locality_set import LocalShard

#: Fraction of a read-only set's resident pages evicted per batch.
READ_BATCH_FRACTION = 0.10


class DbminBlockedError(MemoryError):
    """DBMIN blocks new requests when total desired size exceeds memory.

    The paper shows DBMIN-adaptive and DBMIN-1000 *failing* on the larger
    k-means inputs for exactly this reason (Fig. 3's gaps).
    """


def set_strategy(shard: "LocalShard") -> str:
    """The per-set strategy Pangea selects from the access pattern.

    MRU for ``sequential-write``/``concurrent-write``/``sequential-read``,
    LRU for ``random-mutable-write``/``random-read``.
    """
    attrs = shard.dataset.attributes
    reading = attrs.reading_pattern
    writing = attrs.writing_pattern
    if attrs.current_operation is CurrentOperation.READ and reading is not None:
        return "lru" if reading is ReadingPattern.RANDOM_READ else "mru"
    if writing is WritingPattern.RANDOM_MUTABLE_WRITE:
        return "lru"
    if writing in (WritingPattern.SEQUENTIAL_WRITE, WritingPattern.CONCURRENT_WRITE):
        return "mru"
    if reading is ReadingPattern.RANDOM_READ:
        return "lru"
    return "mru"


def next_victim(shard: "LocalShard") -> Page | None:
    """The page the set's own strategy would evict next, in O(1)."""
    recency = shard.recency
    if set_strategy(shard) == "mru":
        return recency.peek_mru()
    return recency.peek_lru()


def victim_batch(shard: "LocalShard") -> list[Page]:
    """The pages to evict once a set is chosen as the victim.

    One page while the set is being written (evicting fresh output is
    expensive), peeked in O(1); a 10% batch for read-only sets, taken
    from the strategy's end of the recency index in O(k); everything for
    sets whose lifetime has ended (dead data needs no flush and will
    never be re-read), in page-list order — the whole shard is evicted
    anyway, so the walk is proportional to the work.
    """
    recency = shard.recency
    attrs = shard.dataset.attributes
    if attrs.lifetime_ended:
        return shard.resident_unpinned_pages()
    evictable = recency.evictable_count()
    if evictable <= 0:
        return []
    op = attrs.current_operation
    if op in (CurrentOperation.WRITE, CurrentOperation.READ_AND_WRITE):
        victim = next_victim(shard)
        return [victim] if victim is not None else []
    count = max(1, int(evictable * READ_BATCH_FRACTION))
    return recency.top_evictable(count, newest_first=set_strategy(shard) == "mru")


@dataclass(frozen=True)
class CostBreakdown:
    """The inputs behind one ``cw + preuse * cr`` estimate.

    Recorded by the paging system for every data-aware victim choice, so
    traces and the per-set metrics registry can show *why* a set was
    evicted, not just that it was.
    """

    cw: float  #: expected write-out cost (0 when no flush is needed)
    vr: float  #: striped re-read cost of the page
    wr: float  #: random-reread penalty multiplier (1.0 for sequential)
    preuse: float  #: probability the page is re-used within the horizon
    age: int  #: ticks since the page's last access

    @property
    def total(self) -> float:
        return self.cw + self.preuse * self.vr * self.wr


def _preuse(age: int, horizon: float) -> float:
    """Re-use probability of a page last accessed ``age`` ticks ago."""
    if age <= 0:
        return 1.0
    lam = 1.0 / age
    return 1.0 - math.exp(-lam * horizon)


def _cost_terms(shard: "LocalShard", page: Page) -> "tuple[float, float, float]":
    """The tick-independent cost terms ``(cw, vr, wr)`` for one victim.

    ``vw``/``vr`` price the page against the disk array's *actual* striped
    transfer cost (:meth:`DiskArray.estimate_write_seconds
    <repro.sim.devices.DiskArray.estimate_write_seconds>`), so a
    heterogeneous array is bounded by its slowest disk's share exactly as
    :meth:`DiskArray.read <repro.sim.devices.DiskArray.read>` charges it —
    not by naively dividing disk 0's bandwidth across the array.
    """
    disks = shard.node.disks
    vw = disks.estimate_write_seconds(page.size)
    vr = disks.estimate_read_seconds(page.size)
    needs_flush = (
        shard.attributes.durability is DurabilityType.WRITE_BACK
        and page.dirty
        and not page.on_disk
        and shard.attributes.alive
    )
    cw = vw if needs_flush else 0.0
    if shard.attributes.reading_pattern is ReadingPattern.RANDOM_READ:
        wr = shard.attributes.random_reread_penalty
    else:
        wr = 1.0
    return cw, vr, wr


def _cost_cache_key(shard: "LocalShard", page: Page) -> tuple:
    """Everything ``(cw, vr, wr)`` depends on, as a comparable key.

    Used by :class:`DataAwarePolicy` to validate cached terms: a change to
    the victim's size or dirty/on-disk bits, or to the set's durability,
    liveness, reading pattern or re-read penalty, produces a different
    key, so stale terms are structurally impossible.  The victim's
    identity is deliberately absent, so two clean same-size victims of a
    set share one entry, and so is the paging tick: only the ``preuse``
    factor depends on it, and that is recomputed every round.
    """
    attrs = shard.dataset.attributes
    return (
        page.size,
        page.dirty,
        page.on_disk,
        attrs.durability,
        attrs.lifetime_ended,
        attrs.reading_pattern,
        attrs.random_reread_penalty,
    )


def eviction_cost_breakdown(
    shard: "LocalShard", page: Page, now_tick: int, horizon: float = 1.0
) -> CostBreakdown:
    """The full cost-model evaluation for evicting ``page``."""
    cw, vr, wr = _cost_terms(shard, page)
    age = now_tick - page.last_access_tick
    return CostBreakdown(
        cw=cw, vr=vr, wr=wr, preuse=_preuse(age, horizon), age=max(0, age)
    )


def eviction_cost(shard: "LocalShard", page: Page, now_tick: int, horizon: float = 1.0) -> float:
    """Expected cost of evicting ``page``: ``cw + preuse * cr`` (paper Sec. 6)."""
    return eviction_cost_breakdown(shard, page, now_tick, horizon).total


class PagingPolicy:
    """Interface: pick pages to evict when the pool needs room."""

    name = "abstract"

    def select_victims(
        self, shards: "list[LocalShard]", needed_bytes: int
    ) -> list[Page]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class DataAwarePolicy(PagingPolicy):
    """The paper's policy: dynamic priorities over locality sets.

    Every round scores each candidate set's next victim by
    ``cw + preuse * cr`` at the current paging tick and takes the
    cheapest.  Candidates are scored as plain totals; only the winner's
    :class:`CostBreakdown` is built, for :attr:`last_decision`.  The
    tick-independent terms ``(cw, vr, wr)`` are cached on
    ``shard.cost_terms`` keyed by :func:`_cost_cache_key`, so a set whose
    next victim looks like the last one (same size, dirty/on-disk bits
    and set attributes) costs a tuple comparison instead of two disk-model
    evaluations; only ``preuse`` is recomputed.

    Tie-breaking: a strict ``<`` over the candidates in registration
    order, so of several sets with the same expected cost the first
    registered is the victim.
    """

    name = "data-aware"

    def __init__(self, horizon: float = 1.0) -> None:
        self.horizon = horizon
        #: The cost-model evaluation behind the most recent victim choice:
        #: ``(shard, CostBreakdown)``.  Read by the paging system (under
        #: its lock) to feed traces and the per-set registry.
        self.last_decision: "tuple[LocalShard, CostBreakdown] | None" = None

    def select_victims(
        self, shards: "list[LocalShard]", needed_bytes: int
    ) -> list[Page]:
        candidates = [s for s in shards if s.recency.evictable_count() > 0]
        if not candidates:
            return []
        dead = [s for s in candidates if s.dataset.attributes.lifetime_ended]
        if dead:
            candidates = dead
        paging = candidates[0].node.paging
        now = paging.current_tick
        stats = paging.stats
        stats.index_rebuilds += 1
        horizon = self.horizon
        best = best_total = None
        for shard in candidates:
            victim = next_victim(shard)
            key = _cost_cache_key(shard, victim)
            cached = shard.cost_terms
            if cached is not None and cached[0] == key:
                terms = cached[1]
                shard.metrics.cost_cache_hits += 1
                stats.cost_cache_hits += 1
            else:
                terms = _cost_terms(shard, victim)
                shard.cost_terms = (key, terms)
                shard.metrics.cost_cache_misses += 1
                stats.cost_cache_misses += 1
            cw, vr, wr = terms
            age = now - victim.last_access_tick
            preuse = _preuse(age, horizon)
            # CostBreakdown.total's arithmetic; strict < keeps the first
            # registered of equally cheap sets.
            total = cw + preuse * vr * wr
            if best is None or total < best_total:
                best = (shard, terms, preuse, age)
                best_total = total
        shard, (cw, vr, wr), preuse, age = best
        self.last_decision = (
            shard,
            CostBreakdown(cw=cw, vr=vr, wr=wr, preuse=preuse, age=max(0, age)),
        )
        return victim_batch(shard)


class GlobalLruPolicy(PagingPolicy):
    """Least-recently-used over all unpinned pages, 10% batches.

    K-way-merges the per-shard recency indexes (each already sorted by
    access tick) instead of gathering and sorting the whole resident set
    — O(k log S) for a k-page batch over S shards.  Ticks are unique per
    node, so the merge order is the global access order.
    """

    name = "lru"

    def select_victims(
        self, shards: "list[LocalShard]", needed_bytes: int
    ) -> list[Page]:
        total = sum(s.recency.evictable_count() for s in shards)
        if total <= 0:
            return []
        count = max(1, int(total * READ_BATCH_FRACTION))
        merged = heapq.merge(
            *(s.recency.iter_evictable() for s in shards),
            key=lambda p: p.last_access_tick,
        )
        return list(itertools.islice(merged, count))


class GlobalMruPolicy(PagingPolicy):
    """Most-recently-used over all unpinned pages, 10% batches.

    Same k-way merge as :class:`GlobalLruPolicy`, walking each recency
    index newest-first with a descending merge.
    """

    name = "mru"

    def select_victims(
        self, shards: "list[LocalShard]", needed_bytes: int
    ) -> list[Page]:
        total = sum(s.recency.evictable_count() for s in shards)
        if total <= 0:
            return []
        count = max(1, int(total * READ_BATCH_FRACTION))
        merged = heapq.merge(
            *(s.recency.iter_evictable(newest_first=True) for s in shards),
            key=lambda p: p.last_access_tick,
            reverse=True,
        )
        return list(itertools.islice(merged, count))


class DbminPolicy(PagingPolicy):
    """DBMIN with per-set desired sizes.

    ``mode`` selects the size estimator the paper compares:

    * ``"one"`` — every set's desired size is 1 page (DBMIN-1);
    * ``"fixed"`` — every set's desired size is ``fixed_pages`` (DBMIN-1000);
    * ``"adaptive"`` — estimated from the set's learned reference pattern
      exactly as the original algorithm would (loop-sequential and random
      patterns want the whole set resident; straight-sequential wants one
      page);
    * ``"tuned"`` — adaptive, but upper-bounded by the pool size so it
      never blocks (the variant used in Figs. 9-10).

    DBMIN *blocks* when the total desired size exceeds the buffer pool —
    surfaced here as :class:`DbminBlockedError`.
    """

    def __init__(self, mode: str = "adaptive", fixed_pages: int = 1000) -> None:
        if mode not in ("one", "fixed", "adaptive", "tuned"):
            raise ValueError(f"unknown DBMIN mode {mode!r}")
        self.mode = mode
        self.fixed_pages = fixed_pages
        self.name = f"dbmin-{mode if mode != 'fixed' else fixed_pages}"

    def desired_pages(self, shard: "LocalShard", pool_capacity: int) -> int:
        if self.mode == "one":
            return 1
        if self.mode == "fixed":
            return self.fixed_pages
        attrs = shard.attributes
        total = len(shard.pages)
        if (
            attrs.reading_pattern is ReadingPattern.RANDOM_READ
            or attrs.writing_pattern is WritingPattern.RANDOM_MUTABLE_WRITE
        ):
            desired = total
        elif attrs.reading_pattern is ReadingPattern.SEQUENTIAL_READ:
            # Pangea workloads re-scan their inputs (loop-sequential), so
            # the original estimator asks for the whole set.
            desired = total
        else:
            desired = 1
        if self.mode == "tuned":
            cap = max(1, pool_capacity // max(1, shard.page_size))
            desired = min(desired, cap)
        return max(1, desired)

    def select_victims(
        self, shards: "list[LocalShard]", needed_bytes: int
    ) -> list[Page]:
        live = [s for s in shards if s.pages]
        if not live:
            return []
        pool_capacity = live[0].pool.capacity
        desired = {id(s): self.desired_pages(s, pool_capacity) for s in live}
        total_desired_bytes = sum(
            desired[id(s)] * s.page_size for s in live
        )
        if self.mode in ("adaptive", "fixed") and total_desired_bytes > pool_capacity:
            raise DbminBlockedError(
                f"DBMIN desired size {total_desired_bytes} bytes exceeds the "
                f"{pool_capacity}-byte buffer pool; new requests block"
            )
        # Evict from the set most over its allocation; fall back to the
        # least-recently-used set overall.
        over = []
        for shard in live:
            resident = shard.recency.evictable_count()
            excess = resident - desired[id(shard)]
            if resident > 0:
                over.append((excess, -shard.attributes.access_recency, shard))
        if not over:
            return []
        over.sort(key=lambda t: (t[0], t[1]), reverse=True)
        victim = next_victim(over[0][2])
        return [victim] if victim is not None else []


class GreedyDualPolicy(PagingPolicy):
    """GreedyDual-Size (Cao & Irani), from the paper's related work.

    Every cached page carries a credit ``H``; on access ``H`` resets to
    the *inflation level* ``L`` plus the page's re-fetch cost; eviction
    takes the minimum-``H`` page and raises ``L`` to that minimum.  Pages
    that are cheap to refetch and long unaccessed go first.
    """

    name = "greedy-dual"

    def __init__(self) -> None:
        self._inflation = 0.0
        self._credits: dict[int, float] = {}

    def _refetch_cost(self, page: Page) -> float:
        shard = page.shard
        # Price the re-read against the array's actual striping, same as
        # the data-aware cost model.
        cost = shard.node.disks.estimate_read_seconds(page.size)
        if shard.attributes.reading_pattern is ReadingPattern.RANDOM_READ:
            cost *= shard.attributes.random_reread_penalty
        return cost

    def on_access(self, page: Page, tick: int) -> None:
        self._credits[page.page_id] = self._inflation + self._refetch_cost(page)

    def select_victims(
        self, shards: "list[LocalShard]", needed_bytes: int
    ) -> list[Page]:
        candidates = [p for s in shards for p in s.resident_unpinned_pages()]
        if not candidates:
            return []
        def credit(page: Page) -> float:
            return self._credits.get(
                page.page_id, self._inflation + self._refetch_cost(page)
            )
        victim = min(candidates, key=credit)
        self._inflation = credit(victim)
        self._credits.pop(victim.page_id, None)
        return [victim]


class LruKPolicy(PagingPolicy):
    """LRU-K (O'Neil et al.), from the paper's related work.

    Evicts the page whose K-th most recent reference is oldest; pages with
    fewer than K references are preferred victims (their K-distance is
    infinite), which filters out one-touch scans.
    """

    def __init__(self, k: int = 2, history: int = 8) -> None:
        if k < 1:
            raise ValueError("K must be at least 1")
        self.k = k
        self.history = max(k, history)
        self.name = f"lru-{k}"
        self._accesses: dict[int, list[int]] = {}

    def on_access(self, page: Page, tick: int) -> None:
        ticks = self._accesses.setdefault(page.page_id, [])
        ticks.append(tick)
        if len(ticks) > self.history:
            del ticks[: len(ticks) - self.history]

    def _kth_distance(self, page: Page) -> int:
        ticks = self._accesses.get(page.page_id, [])
        if len(ticks) < self.k:
            return -1  # fewer than K references: oldest possible
        return ticks[-self.k]

    def select_victims(
        self, shards: "list[LocalShard]", needed_bytes: int
    ) -> list[Page]:
        candidates = [p for s in shards for p in s.resident_unpinned_pages()]
        if not candidates:
            return []
        victim = min(
            candidates,
            key=lambda p: (self._kth_distance(p), p.last_access_tick),
        )
        return [victim]


def make_policy(name: str) -> PagingPolicy:
    """Factory for every policy the benchmarks compare."""
    name = name.lower()
    if name in ("data-aware", "dataaware", "pangea"):
        return DataAwarePolicy()
    if name == "lru":
        return GlobalLruPolicy()
    if name == "mru":
        return GlobalMruPolicy()
    if name == "dbmin-1":
        return DbminPolicy(mode="one")
    if name == "dbmin-1000":
        return DbminPolicy(mode="fixed", fixed_pages=1000)
    if name == "dbmin-adaptive":
        return DbminPolicy(mode="adaptive")
    if name == "dbmin-tuned":
        return DbminPolicy(mode="tuned")
    if name == "greedy-dual":
        return GreedyDualPolicy()
    k = name.removeprefix("lru-")
    if k != name and k.isdecimal():
        return LruKPolicy(k=int(k))
    raise ValueError(
        f"unknown paging policy {name!r}; expected data-aware, lru, mru, "
        f"dbmin-1, dbmin-1000, dbmin-adaptive, dbmin-tuned, greedy-dual "
        f"or lru-K"
    )
