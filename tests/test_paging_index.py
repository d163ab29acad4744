"""Victim selection pinned as golden eviction traces, plus index unit tests.

``tests/golden/eviction_traces.json`` was captured from the legacy
scan-and-sort victim selectors, which the paging policies kept behind a
constructor flag as their oracle until the recency-index path became
their only path.  GreedyDual and LRU-K always had one path and were
captured from it; DBMIN-adaptive and DBMIN-1000 raise
:class:`~repro.core.policies.DbminBlockedError` under this much pressure,
as the paper shows, and the capture records that.  Every case in
:data:`CASES` (Fig. 3, 9 and 10 shaped workloads under every
``make_policy`` name, plus a dead-set case) now runs on the current
policies and must reproduce the capture exactly:

* the ``shard.evict`` trace instants as
  ``(set, page_id, was_dirty, flushed, tick)`` tuples,
* the node's simulated clock as ``float.hex`` (exact float equality),
* the pool's ``evictions``/``pageouts`` and the paging system's
  ``eviction_rounds``/``pages_evicted``, and
* the type of the exception the workload raised, if any.

Access ticks are unique per node, so the recency-index order is the order
a sort by ``last_access_tick`` gives; that is why the two paths agreed.

To re-baseline after a deliberate change to simulated time, run
``PYTHONPATH=src python tests/test_paging_index.py`` and say why in the
change.

The unit tests below cover the :class:`~repro.core.recency.RecencyIndex`,
the victim helpers against a sort written in the test, the cost-term
cache, the coalesced ``write_many`` flush path, and the metrics
reconciliation invariant for the index counters.
"""

import json
import random
import re
from pathlib import Path

import pytest

from repro import MachineProfile, PangeaCluster
from repro.buffer.page import Page
from repro.core.attributes import CurrentOperation, ReadingPattern, WritingPattern
from repro.core.policies import (
    READ_BATCH_FRACTION,
    DataAwarePolicy,
    DbminBlockedError,
    _cost_cache_key,
    make_policy,
    next_victim,
    set_strategy,
    victim_batch,
)
from repro.sim import metrics as metrics_mod
from repro.sim.clock import TICKS_PER_SECOND, SimClock, to_ticks
from repro.sim.devices import MB, DiskArray, DiskDevice
from repro.fs.page_file import SetFile

GOLDEN = Path(__file__).parent / "golden" / "eviction_traces.json"

PAGE = 256 * 1024
SMALL_PAGE = 64 * 1024

#: The five strategies that had a legacy scan beside the index path.
STRATEGIES = ["data-aware", "lru", "mru", "dbmin-1", "dbmin-tuned"]
#: Policies that only ever had one path.
SINGLE_PATH = ["greedy-dual", "lru-2"]
#: DBMIN modes that block (raise DbminBlockedError) under this pressure.
BLOCKING = ["dbmin-adaptive", "dbmin-1000"]


def make_cluster(policy):
    cluster = PangeaCluster(
        num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
    )
    cluster.nodes[0].paging.set_policy(policy)
    cluster.enable_tracing()
    return cluster


def evictions(cluster) -> list:
    """The ``shard.evict`` instants the cluster's tracer recorded."""
    assert cluster.tracer.dropped == 0
    return [e for e in cluster.tracer.events if e.name == "shard.evict"]


def run_fig9_workload(cluster, seed=901):
    """Fig. 9 shape: sequential writers spilling, then looped rescans."""
    rng = random.Random(seed)
    writeback = cluster.create_set("spill", durability="write-back", page_size=PAGE)
    through = cluster.create_set("persist", durability="write-through", page_size=PAGE)
    ws, ts = writeback.shards[0], through.shards[0]
    ws.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
    ts.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
    for i in range(40):
        shard = ws if i % 3 else ts
        page = shard.new_page()
        page.append(f"rec-{i}", 64)
        shard.seal_page(page)
        shard.unpin_page(page)
    ws.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
    ts.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
    for _ in range(2):  # loop-sequential rescan
        for page in list(ws.pages):
            ws.pin_page(page)
            ws.unpin_page(page)
    # A few seeded random touches to vary recency beyond pure scan order.
    for _ in range(20):
        page = rng.choice(ws.pages)
        ws.pin_page(page)
        ws.unpin_page(page)


def run_fig10_workload(cluster, seed=1001):
    """Fig. 10 shape: a shuffle — random-read input, random-write output."""
    rng = random.Random(seed)
    source = cluster.create_set("source", durability="write-back", page_size=PAGE)
    sink = cluster.create_set("sink", durability="write-back", page_size=PAGE)
    ss, ks = source.shards[0], sink.shards[0]
    ss.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
    for i in range(24):
        page = ss.new_page()
        page.append(f"src-{i}", 64)
        ss.unpin_page(page)
    ss.attributes.note_read_service(ReadingPattern.RANDOM_READ)
    ks.attributes.note_write_service(WritingPattern.RANDOM_MUTABLE_WRITE)
    sink_pages = []
    for i in range(30):
        page = ss.pages[rng.randrange(len(ss.pages))]
        ss.pin_page(page)
        ss.unpin_page(page)
        if i % 2 == 0:
            out = ks.new_page()
            out.append(f"out-{i}", 64)
            ks.unpin_page(out)
            sink_pages.append(out)
        elif sink_pages:
            out = sink_pages[rng.randrange(len(sink_pages))]
            ks.pin_page(out)
            out.append(f"mut-{i}", 64)
            ks.unpin_page(out)


def run_scan_workload(cluster, seed=301):
    """Fig. 3 shape: a read-only input re-scanned while an output is
    written, with pages small enough that a 10% read batch is several
    pages."""
    rng = random.Random(seed)
    points = cluster.create_set("points", durability="write-back", page_size=SMALL_PAGE)
    model = cluster.create_set("model", durability="write-back", page_size=SMALL_PAGE)
    ps, ms = points.shards[0], model.shards[0]
    ps.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
    for i in range(80):
        page = ps.new_page()
        page.append(f"pt-{i}", 64)
        ps.unpin_page(page)
    ps.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
    ps.attributes.note_service_detached(remaining_readers=1, remaining_writers=0)
    ms.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
    for iteration in range(2):
        for page in list(ps.pages):
            ps.pin_page(page)
            ps.unpin_page(page)
            if rng.random() < 0.2:
                out = ms.new_page()
                out.append(f"model-{iteration}", 64)
                ms.unpin_page(out)


def run_dead_set_workload(cluster):
    """A set whose lifetime ended beside a live set still being written."""
    dead = cluster.create_set("dead", durability="write-back", page_size=PAGE)
    live = cluster.create_set("live", durability="write-back", page_size=PAGE)
    for i in range(10):
        shard = dead.shards[0] if i % 2 else live.shards[0]
        page = shard.new_page()
        page.append("x", 32)
        shard.unpin_page(page)
    dead.end_lifetime()
    for _ in range(10):
        page = live.shards[0].new_page()
        page.append("y", 32)
        live.shards[0].unpin_page(page)


WORKLOADS = {
    "fig3": run_scan_workload,
    "fig9": run_fig9_workload,
    "fig10": run_fig10_workload,
}

#: Case name -> (workload, paging policy name).
CASES = {
    f"{workload}-{policy}": (WORKLOADS[workload], policy)
    for workload in sorted(WORKLOADS)
    for policy in STRATEGIES + SINGLE_PATH + BLOCKING
}
CASES["dead-set-data-aware"] = (run_dead_set_workload, "data-aware")


def run_case(name: str) -> dict:
    """Run one case on a fresh cluster and observe what the capture holds."""
    workload, policy = CASES[name]
    cluster = make_cluster(make_policy(policy))
    error = None
    try:
        workload(cluster)
    except DbminBlockedError as exc:
        error = type(exc).__name__
    node = cluster.nodes[0]
    return {
        "trace": [
            [e.args["set"], e.args["page_id"], e.args["was_dirty"],
             e.args["flushed"], e.tick]
            for e in evictions(cluster)
        ],
        "clock": node.clock.now.hex(),
        "evictions": node.pool.stats.evictions,
        "pageouts": node.pool.stats.pageouts,
        "eviction_rounds": node.paging.stats.eviction_rounds,
        "pages_evicted": node.paging.stats.pages_evicted,
        "error": error,
    }


def capture_all() -> dict:
    return {name: run_case(name) for name in CASES}


def dump_golden(captured: dict) -> str:
    """``captured`` as indented JSON with each trace event on one line."""
    text = json.dumps(captured, indent=1, sort_keys=True)
    return re.sub(
        r"\[\s+([^\[\]]*?)\s+\]", lambda m: f"[{' '.join(m.group(1).split())}]", text
    ) + "\n"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_golden(golden: dict, name: str) -> dict:
    observed = run_case(name)
    assert observed == golden[name]
    return observed


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


class TestGoldenTraceEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_indexed_path_reproduces_legacy_trace(self, golden, workload, strategy):
        observed = assert_golden(golden, f"{workload}-{strategy}")
        assert observed["trace"], "workload produced no evictions"
        assert observed["error"] is None

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("policy", SINGLE_PATH + BLOCKING)
    def test_other_factory_policies_match_golden(self, golden, workload, policy):
        observed = assert_golden(golden, f"{workload}-{policy}")
        if policy in BLOCKING:
            assert observed["error"] == "DbminBlockedError"
        else:
            assert observed["trace"], "workload produced no evictions"
            assert observed["error"] is None

    def test_lifetime_ended_sets_still_evicted_first(self):
        cluster = make_cluster(make_policy("data-aware"))
        dead = cluster.create_set("dead", durability="write-back", page_size=1 * MB)
        live = cluster.create_set("live", durability="write-back", page_size=1 * MB)
        for shard in (dead.shards[0], live.shards[0]):
            for _ in range(2):
                page = shard.new_page()
                shard.unpin_page(page)
        dead.end_lifetime()
        live.shards[0].new_page()
        first = evictions(cluster)[0]
        assert first.args["set"] == "dead"
        # Dead data is dropped, never flushed.
        assert not first.args["flushed"]

    def test_dead_set_golden_trace_matches(self, golden):
        observed = assert_golden(golden, "dead-set-data-aware")
        assert observed["trace"][0][0] == "dead"


def reference_order(shard):
    """Test-local reference: the evictable pages sorted by access tick,
    newest first for an MRU set, oldest first for an LRU set."""
    return sorted(
        shard.resident_unpinned_pages(),
        key=lambda p: p.last_access_tick,
        reverse=set_strategy(shard) == "mru",
    )


def reference_batch(shard):
    """Test-local reference for :func:`victim_batch`."""
    candidates = shard.resident_unpinned_pages()
    if shard.attributes.lifetime_ended:
        return candidates
    ordered = reference_order(shard)
    op = shard.attributes.current_operation
    if op in (CurrentOperation.WRITE, CurrentOperation.READ_AND_WRITE):
        return ordered[:1]
    return ordered[: max(1, int(len(ordered) * READ_BATCH_FRACTION))]


class TestVictimHelpersAgree:
    def make_shard(self, cluster, name, pages=6):
        data = cluster.create_set(name, durability="write-back", page_size=PAGE)
        shard = data.shards[0]
        for i in range(pages):
            page = shard.new_page()
            page.append(f"{name}-{i}", 16)
            shard.unpin_page(page)
        return shard

    @pytest.fixture
    def cluster(self):
        return PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=16 * MB)
        )

    def test_next_victim_matches_for_both_strategies(self, cluster):
        shard = self.make_shard(cluster, "s")
        shard.attributes.note_write_service(WritingPattern.SEQUENTIAL_WRITE)
        assert next_victim(shard) is reference_order(shard)[0]
        shard.attributes.note_read_service(ReadingPattern.RANDOM_READ)
        assert next_victim(shard) is reference_order(shard)[0]

    def test_victim_batch_matches_after_touches(self, cluster):
        shard = self.make_shard(cluster, "s", pages=10)
        shard.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
        rng = random.Random(7)
        for _ in range(15):
            page = rng.choice(shard.pages)
            shard.pin_page(page)
            shard.unpin_page(page)
        assert victim_batch(shard) == reference_batch(shard)

    def test_victim_batch_matches_with_pinned_pages(self, cluster):
        shard = self.make_shard(cluster, "s", pages=8)
        shard.attributes.note_read_service(ReadingPattern.RANDOM_READ)
        shard.pin_page(shard.pages[0])
        shard.pin_page(shard.pages[3])
        assert victim_batch(shard) == reference_batch(shard)
        assert next_victim(shard) is reference_order(shard)[0]

    def test_dead_set_batch_matches_page_list_order(self, cluster):
        shard = self.make_shard(cluster, "s", pages=6)
        shard.attributes.end_lifetime()
        assert victim_batch(shard) == shard.resident_unpinned_pages()


class TestRecencyIndex:
    @pytest.fixture
    def shard(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=16 * MB)
        )
        data = cluster.create_set("s", durability="write-back", page_size=PAGE)
        return data.shards[0]

    def test_insert_touch_remove_keep_order(self, shard):
        pages = []
        for i in range(5):
            page = shard.new_page()
            shard.unpin_page(page)
            pages.append(page)
        shard.recency.check_consistency(shard)
        shard.pin_page(pages[1])
        shard.unpin_page(pages[1])
        shard.recency.check_consistency(shard)
        assert shard.recency.peek_mru() is pages[1]
        assert shard.recency.peek_lru() is pages[0]
        shard.evict_page(pages[0])
        shard.recency.check_consistency(shard)
        assert shard.recency.peek_lru() is pages[2]

    def test_pin_transitions_tracked_exactly(self, shard):
        pages = []
        for _ in range(4):
            page = shard.new_page()
            shard.unpin_page(page)
            pages.append(page)
        assert shard.recency.evictable_count() == 4
        shard.pin_page(pages[0])
        shard.pin_page(pages[0])  # nested pin: still one pinned page
        assert shard.recency.evictable_count() == 3
        shard.recency.check_consistency(shard)
        shard.unpin_page(pages[0])
        assert shard.recency.evictable_count() == 3
        shard.unpin_page(pages[0])
        assert shard.recency.evictable_count() == 4
        shard.recency.check_consistency(shard)

    def test_peeks_skip_pinned_pages(self, shard):
        pages = []
        for _ in range(3):
            page = shard.new_page()
            shard.unpin_page(page)
            pages.append(page)
        shard.pin_page(pages[0])
        shard.pin_page(pages[2])
        assert shard.recency.peek_lru() is pages[1]
        assert shard.recency.peek_mru() is pages[1]

    def test_reload_reinserts_into_index(self, shard):
        pages = []
        for _ in range(3):
            page = shard.new_page()
            page.append("x", 16)
            shard.unpin_page(page)
            pages.append(page)
        shard.evict_page(pages[0])
        assert len(shard.recency) == 2
        shard.pin_page(pages[0])  # page-in reload
        shard.unpin_page(pages[0])
        assert len(shard.recency) == 3
        shard.recency.check_consistency(shard)
        assert shard.recency.peek_mru() is pages[0]

    def test_drop_page_removes_from_index(self, shard):
        page = shard.new_page()
        shard.unpin_page(page)
        shard.drop_page(page)
        assert len(shard.recency) == 0

    def test_resident_unpinned_count_matches_scan(self, shard):
        pages = []
        for _ in range(5):
            page = shard.new_page()
            shard.unpin_page(page)
            pages.append(page)
        shard.pin_page(pages[2])
        assert shard.recency.evictable_count() == len(
            shard.resident_unpinned_pages()
        )


class TestCostTermCache:
    def pressured(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
        )
        return cluster

    def test_cache_key_changes_on_dirty_flip(self):
        cluster = self.pressured()
        data = cluster.create_set("s", durability="write-back", page_size=PAGE)
        shard = data.shards[0]
        page = shard.new_page()
        page.append("x", 16)
        shard.unpin_page(page)
        dirty_key = _cost_cache_key(shard, page)
        page.dirty = False
        assert _cost_cache_key(shard, page) != dirty_key

    def test_cache_key_changes_on_attribute_change(self):
        cluster = self.pressured()
        data = cluster.create_set("s", durability="write-back", page_size=PAGE)
        shard = data.shards[0]
        page = shard.new_page()
        shard.unpin_page(page)
        before = _cost_cache_key(shard, page)
        shard.attributes.note_read_service(ReadingPattern.RANDOM_READ)
        assert _cost_cache_key(shard, page) != before
        mid = _cost_cache_key(shard, page)
        shard.attributes.end_lifetime()
        assert _cost_cache_key(shard, page) != mid

    def test_same_size_clean_victims_share_a_key(self):
        cluster = self.pressured()
        data = cluster.create_set("s", durability="write-through", page_size=PAGE)
        shard = data.shards[0]
        for _ in range(3):
            page = shard.new_page()
            page.append("x", 16)
            shard.seal_page(page)
            shard.unpin_page(page)
        first = next_victim(shard)
        assert not first.dirty and first.on_disk
        policy = DataAwarePolicy()
        stats = cluster.nodes[0].paging.stats
        policy.select_victims([shard], PAGE)
        misses = stats.cost_cache_misses
        hits = stats.cost_cache_hits
        # Pinning the victim moves the set's next victim to another clean
        # page of the same size: the cached terms still apply.
        shard.pin_page(first)
        second = next_victim(shard)
        assert second is not first
        assert not second.dirty and second.on_disk
        assert _cost_cache_key(shard, second) == _cost_cache_key(shard, first)
        policy.select_victims([shard], PAGE)
        assert stats.cost_cache_hits == hits + 1
        assert stats.cost_cache_misses == misses
        # A page of another size prices differently, so its key misses.
        other = Page(second.page_id, 2 * PAGE, shard=shard)
        other.dirty, other.on_disk = second.dirty, second.on_disk
        assert _cost_cache_key(shard, other) != shard.cost_terms[0]

    def test_cache_hits_recorded_under_pressure(self):
        cluster = self.pressured()
        data = cluster.create_set("a", durability="write-back", page_size=PAGE)
        other = cluster.create_set("b", durability="write-back", page_size=PAGE)
        for i in range(40):
            shard = (data if i % 2 else other).shards[0]
            page = shard.new_page()
            page.append("x", 16)
            shard.unpin_page(page)
        stats = cluster.nodes[0].paging.stats
        assert stats.index_rebuilds > 0
        assert stats.cost_cache_misses > 0
        # Candidate sets whose next victim matches the last scored one in
        # size, dirty/on-disk bits and set attributes reuse its terms.
        assert stats.cost_cache_hits > 0
        total = stats.cost_cache_hits + stats.cost_cache_misses
        per_set = cluster.nodes[0].paging.set_metrics()
        assert (
            sum(s.cost_cache_hits for s in per_set.values()) == stats.cost_cache_hits
        )
        assert (
            sum(s.cost_cache_misses for s in per_set.values())
            == stats.cost_cache_misses
        )
        assert total >= stats.index_rebuilds

    def test_stats_reset_clears_new_counters(self):
        cluster = self.pressured()
        data = cluster.create_set("s", durability="write-back", page_size=PAGE)
        shard = data.shards[0]
        for _ in range(20):
            page = shard.new_page()
            page.append("x", 16)
            shard.unpin_page(page)
        stats = cluster.nodes[0].paging.stats
        assert stats.index_rebuilds > 0
        stats.reset()
        assert stats.index_rebuilds == 0
        assert stats.cost_cache_hits == 0
        assert stats.cost_cache_misses == 0


class TestWriteMany:
    def make_array(self, num_disks=2):
        clock = SimClock()
        disks = [
            DiskDevice(name=f"ssd{i}", clock=clock if i == 0 else None)
            for i in range(num_disks)
        ]
        return DiskArray(disks), clock

    def test_single_charge_for_batch(self):
        array, clock = self.make_array()
        sizes = [PAGE, PAGE, PAGE]
        cost = array.write_many(sizes)
        expected = array.estimate_write_seconds(sum(sizes), num_ios=1)
        assert cost == to_ticks(expected) / TICKS_PER_SECOND
        assert clock.now == cost
        # One operation per disk, not one per page.
        assert all(d.stats.num_writes == 1 for d in array.disks)
        assert array.total_bytes_written() == sum(sizes)

    def test_batch_cheaper_than_per_page_writes(self):
        batched, _ = self.make_array()
        separate, _ = self.make_array()
        sizes = [PAGE] * 8
        batch_cost = batched.write_many(sizes)
        individual = sum(separate.write(s) for s in sizes)
        # Same bytes, 7 fewer seeks.
        delta = individual - batch_cost
        lat = separate.disks[0].io_latency
        assert delta == pytest.approx(7 * lat)
        assert batched.total_bytes_written() == separate.total_bytes_written()

    def test_set_file_write_many_matches_write_page_metadata(self):
        array, _ = self.make_array()
        batched = SetFile("b", array)
        entries = [(i, [f"r{i}"], PAGE) for i in range(4)]
        batched.write_many(entries)
        array2, _ = self.make_array()
        reference = SetFile("r", array2)
        for page_id, records, nbytes in entries:
            reference.write_page(page_id, records, nbytes)
        for page_id, records, _nbytes in entries:
            assert batched.location(page_id) == reference.location(page_id)
            loaded, _cost = batched.read_page(page_id)
            assert loaded == records

    def test_set_file_single_page_write_charges_one_disk_write(self):
        # One image through the batched path costs what DiskArray.write
        # of its size does: seconds, per-disk bytes and operations.
        array, clock = self.make_array()
        file = SetFile("s", array)
        cost = file.write_page(1, ["x"], PAGE)
        reference, reference_clock = self.make_array()
        assert cost == reference.write(PAGE) == clock.now == reference_clock.now
        assert file.contains(1)
        for disk, expected in zip(array.disks, reference.disks):
            assert disk.stats == expected.stats
            assert disk.stats.num_writes == 1

    def test_empty_batch_is_free(self):
        array, clock = self.make_array()
        file = SetFile("s", array)
        assert file.write_many([]) == 0.0
        assert clock.now == 0.0

    def test_negative_size_rejected(self):
        array, _ = self.make_array()
        with pytest.raises(ValueError):
            array.write_many([PAGE, -1])

    def test_eviction_round_coalesces_same_set_flushes(self):
        # A data-aware read batch evicts several dirty pages of one set:
        # the flush must land as one disk operation per drive.
        small = 64 * 1024
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
        )
        data = cluster.create_set("s", durability="write-back", page_size=small)
        shard = data.shards[0]
        for i in range(64):  # fills the 4MB pool exactly
            page = shard.new_page()
            page.append(f"r{i}", 16)
            shard.unpin_page(page)
        shard.attributes.note_read_service(ReadingPattern.SEQUENTIAL_READ)
        writes_before = sum(d.stats.num_writes for d in cluster.nodes[0].disks.disks)
        pageouts_before = cluster.nodes[0].pool.stats.pageouts
        # Force one eviction round; a read-mode set gives a 10% batch.
        shard.new_page()
        flushed = cluster.nodes[0].pool.stats.pageouts - pageouts_before
        writes = (
            sum(d.stats.num_writes for d in cluster.nodes[0].disks.disks)
            - writes_before
        )
        assert flushed > 1, "expected a multi-page flush batch"
        per_disk_ops = writes / cluster.nodes[0].disks.num_disks
        assert per_disk_ops < flushed, "batch was not coalesced"


class TestReconcileInvariant:
    def run_pressure(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
        )
        a = cluster.create_set("a", durability="write-back", page_size=PAGE)
        b = cluster.create_set("b", durability="write-back", page_size=PAGE)
        for i in range(30):
            shard = (a if i % 2 else b).shards[0]
            page = shard.new_page()
            page.append("x", 16)
            shard.unpin_page(page)
        return cluster, a, b

    def test_cache_counters_reconcile(self):
        cluster, _a, _b = self.run_pressure()
        snapshot = metrics_mod.collect(cluster)
        assert metrics_mod.reconcile(snapshot) == []
        node = snapshot.nodes[0]
        assert node.cost_cache_hits + node.cost_cache_misses > 0

    def test_cache_counters_reconcile_across_drop_set(self):
        cluster, a, _b = self.run_pressure()
        cluster.drop_set(a.name)
        snapshot = metrics_mod.collect(cluster)
        assert metrics_mod.reconcile(snapshot) == []

    def test_set_table_shows_cache_column(self):
        cluster, _a, _b = self.run_pressure()
        snapshot = metrics_mod.collect(cluster)
        table = metrics_mod.format_set_table(snapshot)
        assert "cache(h/m)" in table
        # At least one set shows real cache activity.
        assert any("/" in line.split()[-1] for line in table.splitlines()[1:])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump_golden(capture_all()))
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
