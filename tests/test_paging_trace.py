"""Tests for the eviction trace: the tracer's ``shard.evict`` instants."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.obs.tracer import DEFAULT_CAPACITY
from repro.sim.devices import MB

#: Every make_policy policy that keeps evicting under this much pressure;
#: dbmin-adaptive and dbmin-1000 raise DbminBlockedError instead.
NON_BLOCKING_POLICIES = [
    "data-aware", "lru", "mru", "dbmin-1", "dbmin-tuned", "greedy-dual", "lru-2",
]


def pressured_cluster(policy="data-aware"):
    cluster = PangeaCluster(
        num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB), policy=policy
    )
    cluster.enable_tracing()
    return cluster


def evictions(cluster) -> list:
    """The ``shard.evict`` instants the cluster's tracer recorded."""
    assert cluster.tracer.dropped == 0
    return [e for e in cluster.tracer.events if e.name == "shard.evict"]


def write_pages(shard, count, seal=False):
    pages = []
    for _ in range(count):
        page = shard.new_page()
        page.append("x", 10)
        if seal:
            shard.seal_page(page)
        shard.unpin_page(page)
        pages.append(page)
    return pages


class TestTrace:
    def test_disabled_by_default(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
        )
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], 8)
        assert cluster.nodes[0].paging.stats.pages_evicted > 0
        assert cluster.tracer is None
        assert cluster.nodes[0].paging.tracer is None

    def test_records_evictions(self):
        cluster = pressured_cluster()
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], 8, seal=True)
        trace = evictions(cluster)
        assert len(trace) >= 4
        assert all(e.args["set"] == "s" for e in trace)
        rounds = [e for e in cluster.tracer.events if e.name == "paging.make_room"]
        assert rounds
        assert all(e.args["policy"] == "data-aware" for e in rounds)

    def test_dirty_write_back_evictions_flush(self):
        cluster = pressured_cluster()
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], 8)
        trace = evictions(cluster)
        assert trace
        for event in trace:
            if event.args["was_dirty"]:
                assert event.args["flushed"]

    def test_write_through_evictions_need_no_flush(self):
        cluster = pressured_cluster()
        data = cluster.create_set("s", durability="write-through", page_size=1 * MB)
        write_pages(data.shards[0], 8, seal=True)  # persisted at write time
        trace = evictions(cluster)
        assert trace
        assert all(not e.args["was_dirty"] for e in trace)

    def test_dead_set_evicted_first_in_trace(self):
        cluster = pressured_cluster()
        dead = cluster.create_set("dead", durability="write-back", page_size=1 * MB)
        live = cluster.create_set("live", durability="write-back", page_size=1 * MB)
        for shard in (dead.shards[0], live.shards[0]):
            for _ in range(2):
                page = shard.new_page()
                shard.unpin_page(page)
        dead.end_lifetime()
        live.shards[0].new_page()  # force one eviction round
        assert evictions(cluster)[0].args["set"] == "dead"

    def test_mru_trace_order(self):
        cluster = pressured_cluster(policy="mru")
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        pages = []
        for _ in range(4):
            page = shard.new_page()
            shard.unpin_page(page)
            pages.append(page)
        shard.new_page()  # eviction under MRU takes the newest unpinned
        assert evictions(cluster)[0].args["page_id"] == pages[-1].page_id

    def test_trace_is_bounded(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        tracer = cluster.enable_tracing(capacity=5)
        data = cluster.create_set("s", durability="write-back", page_size=256 * 1024)
        data.add_data(list(range(64)), nbytes_each=128 * 1024)
        assert cluster.nodes[0].paging.stats.pages_evicted > 5
        assert len(tracer) == 5
        assert tracer.dropped == tracer.emitted - 5 > 0

    def test_disable_trace(self):
        cluster = pressured_cluster()
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], 4)
        tracer = cluster.tracer
        recorded = evictions(cluster)
        cluster.disable_tracing()
        assert cluster.tracer is None
        assert cluster.nodes[0].paging.tracer is None
        evicted = cluster.nodes[0].paging.stats.pages_evicted
        write_pages(data.shards[0], 4)
        assert cluster.nodes[0].paging.stats.pages_evicted > evicted
        assert [e for e in tracer.events if e.name == "shard.evict"] == recorded


class TestEvictionEventFields:
    def test_fields_are_fully_populated(self):
        cluster = pressured_cluster()
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        known_ids = {page.page_id for page in write_pages(data.shards[0], 8, seal=True)}
        paging = cluster.nodes[0].paging
        trace = evictions(cluster)
        assert trace
        for event in trace:
            assert event.ph == "i"
            assert event.node == 0
            assert 0 < event.tick <= paging.current_tick
            assert event.args["set"] == "s"
            assert event.args["page_id"] in known_ids
            assert isinstance(event.args["was_dirty"], bool)
            assert isinstance(event.args["flushed"], bool)
            assert event.args["nbytes"] == 1 * MB

    def test_events_are_immutable(self):
        cluster = pressured_cluster()
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], 8)
        event = evictions(cluster)[0]
        with pytest.raises(AttributeError):
            event.tick = 999
        with pytest.raises(AttributeError):
            event.args = {"page_id": 999}

    def test_flushed_implies_was_dirty(self):
        cluster = pressured_cluster()
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], 8)
        for event in evictions(cluster):
            if event.args["flushed"]:
                assert event.args["was_dirty"]


@pytest.mark.parametrize("policy", NON_BLOCKING_POLICIES)
def test_evict_instants_account_for_every_eviction(policy):
    """Under every policy, one instant per pool eviction, and the dirty
    bit it reports agrees with what the flush did."""
    cluster = pressured_cluster(policy)
    pool = cluster.nodes[0].pool
    before = pool.stats.evictions
    spill = cluster.create_set("spill", durability="write-back", page_size=1 * MB)
    persist = cluster.create_set(
        "persist", durability="write-through", page_size=1 * MB
    )
    shards = (spill.shards[0], persist.shards[0])
    for i in range(12):
        write_pages(shards[i % 2], 1, seal=i % 2 == 1)
    for shard in shards:  # re-read both sets so clean pages are evicted too
        for page in list(shard.pages):
            shard.pin_page(page)
            shard.unpin_page(page)
    trace = evictions(cluster)
    assert len(trace) == pool.stats.evictions - before > 0
    for event in trace:
        if event.args["flushed"]:
            assert event.args["was_dirty"]
    assert not any(e.args["was_dirty"] for e in trace if e.args["set"] == "persist")
    assert any(e.args["flushed"] for e in trace if e.args["set"] == "spill")
    assert any(not e.args["was_dirty"] for e in trace)


def _spill_and_reread(cluster):
    data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
    shard = data.shards[0]
    write_pages(shard, 10)
    for page in list(shard.pages):
        shard.pin_page(page)
        shard.unpin_page(page)


@pytest.mark.parametrize("policy", NON_BLOCKING_POLICIES)
def test_tracing_changes_no_clock_or_counter(policy):
    """The eviction trace only observes: with the tracer on, every policy
    evicts the same pages at the same simulated cost."""
    runs = []
    for traced in (False, True):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB),
            policy=policy,
        )
        if traced:
            cluster.enable_tracing()
        _spill_and_reread(cluster)
        node = cluster.nodes[0]
        runs.append((
            node.clock.ticks,
            node.paging.current_tick,
            vars(node.paging.stats),
            vars(node.pool.stats),
            sorted((p.page_id, p.in_memory, p.dirty)
                   for p in cluster.get_set("s").shards[0].pages),
        ))
    assert runs[0] == runs[1]
    assert runs[0][2]["pages_evicted"] > 0


def test_victim_choice_names_the_set_it_evicts_from():
    """Each data-aware decision is attributed to the shard whose pages
    the round then evicts, and its cost sample lands on that shard."""
    cluster = pressured_cluster()
    hot = cluster.create_set("hot", durability="write-back", page_size=1 * MB)
    cold = cluster.create_set("cold", durability="write-through", page_size=1 * MB)
    for i in range(12):
        write_pages((hot, cold)[i % 2].shards[0], 1, seal=i % 2 == 1)
    events = [e for e in cluster.tracer.events
              if e.name in ("paging.victim", "shard.evict")]
    samples = {"hot": 0, "cold": 0}
    for i, event in enumerate(events):
        if event.name == "paging.victim":
            samples[event.args["set"]] += 1
            assert events[i + 1].name == "shard.evict"
            assert events[i + 1].args["set"] == event.args["set"]
    assert sum(samples.values()) > 0
    for data in (hot, cold):
        assert data.shards[0].metrics.cost_samples == samples[data.name]


def test_recreated_set_name_takes_the_cost_samples():
    """After a set is dropped, a new set under the same name is charged
    its own decisions; the dropped shard's retired counters stay put."""
    cluster = PangeaCluster(
        num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
    )
    old = cluster.create_set("s", durability="write-back", page_size=1 * MB)
    write_pages(old.shards[0], 8)
    old_samples = old.shards[0].metrics.cost_samples
    assert old_samples > 0
    cluster.drop_set("s")
    paging = cluster.nodes[0].paging
    assert paging.retired_set_metrics["s"].cost_samples == old_samples
    new = cluster.create_set("s", durability="write-back", page_size=1 * MB)
    write_pages(new.shards[0], 8)
    assert new.shards[0].metrics.cost_samples > 0
    assert old.shards[0].metrics.cost_samples == old_samples
    assert paging.retired_set_metrics["s"].cost_samples == old_samples


class TestTraceRingBounds:
    def evict_n_times(self, cluster, n):
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], n)

    def test_enable_trace_default_capacity(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB)
        )
        assert cluster.enable_tracing().capacity == DEFAULT_CAPACITY
        assert cluster.enable_tracing(capacity=None).capacity == DEFAULT_CAPACITY

    def test_ring_keeps_only_newest_events(self):
        def run(capacity):
            cluster = PangeaCluster(
                num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
            )
            tracer = cluster.enable_tracing(capacity=capacity)
            self.evict_n_times(cluster, 16)
            return cluster, tracer

        cluster, tracer = run(3)
        assert len(tracer) == 3
        assert tracer.dropped > 0
        ticks = [event.tick for event in tracer.events]
        assert ticks == sorted(ticks)
        assert ticks[-1] <= cluster.nodes[0].paging.current_tick
        _, full = run(None)
        assert full.dropped == 0
        assert tracer.events == full.events[-3:]

    def test_reenable_resets_the_ring(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        first = cluster.enable_tracing(capacity=1024)
        self.evict_n_times(cluster, 8)
        assert evictions(cluster)
        recorded = first.emitted
        second = cluster.enable_tracing(capacity=2)
        assert cluster.tracer is second
        assert len(second) == 0
        assert second.capacity == 2
        assert cluster.nodes[0].paging.tracer.tracer is second
        write_pages(cluster.get_set("s").shards[0], 8)
        assert first.emitted == recorded
        assert len(second) == 2

    def test_nonpositive_capacity_rejected(self):
        """A rejected capacity leaves the tracer already installed in place."""
        cluster = pressured_cluster()
        tracer = cluster.tracer
        with pytest.raises(ValueError):
            cluster.enable_tracing(capacity=0)
        assert cluster.tracer is tracer
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        write_pages(data.shards[0], 8)
        assert evictions(cluster)


class TestPagingStatsReset:
    def test_reset_zeroes_all_counters(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        for _ in range(6):
            page = shard.new_page()
            page.append("x", 10)
            shard.unpin_page(page)
        stats = cluster.nodes[0].paging.stats
        assert stats.eviction_rounds > 0
        assert stats.pages_evicted > 0
        stats.reset()
        assert stats.eviction_rounds == 0
        assert stats.pages_evicted == 0

    def test_counters_resume_after_reset(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        for _ in range(4):
            page = shard.new_page()
            page.append("x", 10)
            shard.unpin_page(page)
        cluster.nodes[0].paging.stats.reset()
        for _ in range(4):
            page = shard.new_page()
            page.append("x", 10)
            shard.unpin_page(page)
        assert cluster.nodes[0].paging.stats.pages_evicted > 0
