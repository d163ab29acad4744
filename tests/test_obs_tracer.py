"""Tests for the structured event tracer (repro.obs.tracer)."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.obs.tracer import DEFAULT_CAPACITY, NodeTracer, Tracer
from repro.sim.clock import TICKS_PER_SECOND, SimClock, TickCounter
from repro.sim.devices import KB, MB


class TestTracer:
    def test_span_instant_counter_phases(self):
        tracer = Tracer()
        tracer.span("disk.read", "disk", node=0, ts=1.0, dur=0.5, nbytes=64)
        tracer.instant("pool.pin", "buffer", node=1, ts=2.0, page_id=7)
        tracer.counter("pool.used_bytes", "buffer", node=0, ts=3.0, used=42)
        events = tracer.events
        assert [e.ph for e in events] == ["X", "i", "C"]
        assert events[0].dur == 0.5
        assert events[0].args == {"nbytes": 64}
        assert events[1].node == 1
        assert events[2].args == {"used": 42}

    def test_ring_overflow_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.instant("e", "c", node=0, ts=float(i))
        assert len(tracer) == 4
        assert tracer.emitted == 10
        assert tracer.dropped == 6
        # Oldest events dropped first.
        assert [e.ts for e in tracer.events] == [6.0, 7.0, 8.0, 9.0]

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=2)
        for i in range(5):
            tracer.instant("e", "c", node=0, ts=float(i))
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.emitted == 0
        assert tracer.dropped == 0

    def test_category_counts(self):
        tracer = Tracer()
        tracer.instant("a", "disk", node=0, ts=0.0)
        tracer.instant("b", "disk", node=0, ts=0.0)
        tracer.instant("c", "network", node=0, ts=0.0)
        assert tracer.category_counts() == {"disk": 2, "network": 1}

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)

    def test_default_capacity(self):
        assert Tracer().capacity == DEFAULT_CAPACITY


class TestNodeTracer:
    def test_stamps_node_clock_and_tick(self):
        tracer = Tracer()
        clock = SimClock()
        ticks = TickCounter()
        view = NodeTracer(tracer, node_id=3, clock=clock, ticks=ticks)
        clock.advance(1.5)
        ticks.next()
        ticks.next()
        view.instant("pool.pin", "buffer", page_id=1)
        event = tracer.events[0]
        assert event.node == 3
        assert event.ts == 1.5
        assert event.tick == 2

    def test_span_uses_explicit_start(self):
        tracer = Tracer()
        clock = SimClock()
        view = NodeTracer(tracer, node_id=0, clock=clock)
        start = view.now
        clock.advance(0.25)
        view.span("disk.read", "disk", start, clock.now - start)
        event = tracer.events[0]
        assert event.ts == 0.0
        assert event.dur == 0.25

    def test_now_tracks_clock(self):
        clock = SimClock()
        view = NodeTracer(Tracer(), node_id=0, clock=clock)
        clock.advance(2.0)
        assert view.now == 2.0


def _scan_workload(cluster):
    data = cluster.create_set("s", durability="write-back",
                              page_size=512 * KB, object_bytes=64 * KB)
    data.add_data(list(range(64)))  # 4MB over a 2MB pool
    for _ in range(2):
        list(data.scan_records())


class TestClusterTracing:
    def _cluster(self):
        return PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )

    def test_tracing_disabled_by_default(self):
        cluster = self._cluster()
        node = cluster.nodes[0]
        assert cluster.tracer is None
        assert node.tracer is None
        assert node.disks.tracer is None
        assert node.network.tracer is None
        assert node.pool.tracer is None
        assert node.paging.tracer is None

    def test_enable_tracing_covers_hot_paths(self):
        cluster = self._cluster()
        tracer = cluster.enable_tracing()
        assert cluster.tracer is tracer
        _scan_workload(cluster)
        cats = tracer.category_counts()
        # The paging-heavy scan touches pool, paging, shard, and disk paths.
        assert cats.get("buffer", 0) > 0
        assert cats.get("paging", 0) > 0
        assert cats.get("shard", 0) > 0
        assert cats.get("disk", 0) > 0
        names = {e.name for e in tracer.events}
        assert "paging.make_room" in names
        assert "paging.victim" in names
        assert "shard.evict" in names
        assert "pool.place" in names

    def test_victim_events_carry_cost_model_inputs(self):
        cluster = self._cluster()
        tracer = cluster.enable_tracing()
        _scan_workload(cluster)
        victims = [e for e in tracer.events if e.name == "paging.victim"]
        assert victims
        for event in victims:
            assert set(event.args) >= {"set", "cost", "cw", "vr", "wr",
                                       "preuse", "age", "policy"}
            assert event.args["cost"] >= 0.0
            assert 0.0 <= event.args["preuse"] <= 1.0

    def test_disable_tracing_detaches_everywhere(self):
        cluster = self._cluster()
        tracer = cluster.enable_tracing()
        cluster.disable_tracing()
        node = cluster.nodes[0]
        assert cluster.tracer is None
        assert node.tracer is None
        assert node.disks.tracer is None
        assert node.network.tracer is None
        assert node.pool.tracer is None
        assert node.paging.tracer is None
        before = tracer.emitted
        _scan_workload(cluster)
        assert tracer.emitted == before  # nothing emitted after detach

    def test_tracing_does_not_change_simulated_time(self):
        """Observability must not perturb the cost model."""
        plain = self._cluster()
        _scan_workload(plain)
        traced = self._cluster()
        traced.enable_tracing()
        _scan_workload(traced)
        assert traced.simulated_seconds() == plain.simulated_seconds()

    def _evict_one(self, dirty, ticks=None):
        """Evict one resident page of a write-back set with tracing on;
        returns the eviction's shard and disk events.  ``ticks``, if given,
        receives the node clock's reading before and after the eviction."""
        cluster = self._cluster()
        data = cluster.create_set("e", durability="write-back",
                                  page_size=512 * KB, object_bytes=64 * KB)
        data.add_data(list(range(8)))  # one dirty 512 KB page
        shard = data.shards[0]
        page = shard.pages[0]
        if not dirty:
            shard.evict_page(page)  # persists the image
            shard.pin_page(page)
            shard.unpin_page(page)
        tracer = cluster.enable_tracing()
        clock = shard.node.clock
        before = clock.ticks
        result = shard.evict_page(page)
        if ticks is not None:
            ticks.extend([before, clock.ticks])
        assert result.flushed is dirty
        return [e for e in tracer.events if e.cat in ("paging", "disk")]

    def test_dirty_single_eviction_traces_as_a_batch(self):
        events = self._evict_one(dirty=True)
        assert [(e.name, e.ph) for e in events] == [
            ("disk.write_many", "X"), ("shard.flush_batch", "X"),
            ("shard.evict", "i"),
        ]
        disk, flush, evict = events
        assert disk.args["pages"] == 1 and disk.args["nbytes"] == 512 * KB
        assert flush.args["pages"] == 1 and flush.args["nbytes"] == 512 * KB
        assert flush.dur == pytest.approx(disk.dur) and flush.dur > 0
        assert evict.args["was_dirty"] is True
        assert evict.args["flushed"] is True
        assert evict.args["nbytes"] == 512 * KB

    def test_flush_span_durations_are_the_seconds_charged(self):
        """Disk spans record the quantised charge, not the unrounded cost,
        so they nest exactly in the flush span and sum to clock time."""
        ticks = []
        disk, flush, _evict = self._evict_one(dirty=True, ticks=ticks)
        before, after = ticks
        charged = (after - before) / TICKS_PER_SECOND
        assert disk.dur == flush.dur == charged
        assert disk.dur * TICKS_PER_SECOND == after - before

    def test_clean_single_eviction_traces_only_the_instant(self):
        events = self._evict_one(dirty=False)
        assert [(e.name, e.ph) for e in events] == [("shard.evict", "i")]
        assert events[0].args["was_dirty"] is False
        assert events[0].args["flushed"] is False

    def test_custom_capacity(self):
        cluster = self._cluster()
        tracer = cluster.enable_tracing(capacity=8)
        _scan_workload(cluster)
        assert len(tracer) <= 8
        assert tracer.dropped == tracer.emitted - len(tracer)

    @pytest.mark.parametrize("capacity", [0, -1])
    def test_nonpositive_capacity_rejected_before_attaching(self, capacity):
        """Only ``None`` selects the default ring; zero is not a size."""
        cluster = self._cluster()
        with pytest.raises(ValueError):
            cluster.enable_tracing(capacity=capacity)
        assert cluster.tracer is None
        assert all(node.tracer is None for node in cluster.nodes)
        assert cluster.nodes[0].paging.tracer is None
