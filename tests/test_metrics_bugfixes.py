"""Regression tests for the cost-model and metrics accounting fixes:

1. ``eviction_cost`` prices striped I/O from the actual per-disk
   bandwidths (heterogeneous arrays), matching what ``DiskArray.read``/
   ``write`` charge — not disk 0's bandwidth divided by the disk count.
2. The ``shard.evict`` trace instant's ``flushed`` reports whether the
   eviction actually wrote the page image out, not a flag derived after
   the fact.
3. ``format_table`` renders every column with matching header/row widths.
4. ``metrics.collect`` surfaces ``PagingSystem.stats`` and the network
   receive-side counters.
"""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.core.policies import eviction_cost, eviction_cost_breakdown
from repro.sim.clock import TICKS_PER_SECOND, SimClock, to_ticks
from repro.sim.devices import DiskArray, DiskDevice, KB, MB
from repro.sim.metrics import (
    NODE_COLUMNS,
    ClusterMetrics,
    NodeMetrics,
    collect,
    format_table,
)


def heterogeneous_array(clock=None):
    """One fast disk and one 4x slower disk sharing the array."""
    fast = DiskDevice("fast", read_bandwidth=400 * MB,
                      write_bandwidth=400 * MB, io_latency=100e-6, clock=clock)
    slow = DiskDevice("slow", read_bandwidth=100 * MB,
                      write_bandwidth=100 * MB, io_latency=100e-6)
    return DiskArray([fast, slow])


class TestHeterogeneousEvictionCost:
    def test_estimate_matches_what_read_charges(self):
        clock = SimClock()
        disks = heterogeneous_array(clock)
        nbytes = 8 * MB
        estimated = disks.estimate_read_seconds(nbytes)
        charged = disks.read(nbytes)
        # The estimate stays an unrounded float; the charge is that
        # estimate quantised to whole clock ticks.
        assert charged == to_ticks(estimated) / TICKS_PER_SECOND
        assert clock.now == charged

    def test_estimate_bounded_by_slowest_disk(self):
        disks = heterogeneous_array()
        nbytes = 8 * MB
        chunks = disks.striped_chunks(nbytes)
        slow = disks.disks[1]
        slow_share = slow.io_latency + chunks[1] / slow.read_bandwidth
        assert disks.estimate_read_seconds(nbytes) == pytest.approx(slow_share)
        # The old formula (disk 0's bandwidth spread over the array) is a
        # 2x underestimate here and must NOT be what the model prices.
        old_formula = nbytes / disks.disks[0].read_bandwidth / disks.num_disks
        assert disks.estimate_read_seconds(nbytes) > 1.9 * old_formula

    def test_eviction_cost_uses_actual_striping(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=8 * MB)
        )
        node = cluster.nodes[0]
        slow = DiskDevice("slow", read_bandwidth=100 * MB,
                          write_bandwidth=100 * MB, io_latency=100e-6)
        node.disks.disks.append(slow)  # now heterogeneous: fast + slow
        data = cluster.create_set("s", durability="write-back",
                                  page_size=1 * MB, object_bytes=256 * KB)
        data.add_data(list(range(8)))
        shard = data.shards[0]
        page = next(p for p in shard.pages if p.in_memory)
        breakdown = eviction_cost_breakdown(
            shard, page, shard.paging.current_tick
        )
        assert breakdown.vr == node.disks.estimate_read_seconds(page.size)
        if breakdown.cw:
            assert breakdown.cw == node.disks.estimate_write_seconds(page.size)
        assert eviction_cost(
            shard, page, shard.paging.current_tick
        ) == pytest.approx(breakdown.total)

    def test_cost_still_ranks_dirty_above_clean(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=8 * MB)
        )
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        dirty = shard.new_page()
        dirty.append("x", 100)
        shard.unpin_page(dirty)
        clean = shard.new_page()
        shard.seal_page(clean)
        shard.unpin_page(clean)
        clean.on_disk = True
        clean.dirty = False
        now = shard.paging.current_tick
        assert eviction_cost(shard, dirty, now) > eviction_cost(shard, clean, now)


class TestEvictionFlushedFlag:
    def _one_page_shard(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=8 * MB)
        )
        data = cluster.create_set("s", durability="write-back", page_size=1 * MB)
        shard = data.shards[0]
        page = shard.new_page()
        page.append("x", 100)
        shard.seal_page(page)
        shard.unpin_page(page)
        return cluster, shard, page

    def test_dirty_unpersisted_page_reports_flushed(self):
        _cluster, shard, page = self._one_page_shard()
        result = shard.evict_page(page)
        assert result.flushed is True
        assert result.freed == page.size
        assert shard.pool.stats.pageouts == 1

    def test_already_persisted_dirty_page_not_reported_flushed(self):
        """The original bug: flushed was derived as ``on_disk and was_dirty``
        after eviction, claiming a flush for dirty pages whose image was
        already persisted even though no write happened."""
        _cluster, shard, page = self._one_page_shard()
        shard.evict_page(page)          # first eviction persists the image
        shard.pin_page(page)            # page back in memory, clean
        shard.unpin_page(page)
        page.dirty = True               # dirty again, but image exists
        pageouts_before = shard.pool.stats.pageouts
        written_before = shard.node.disks.total_bytes_written()
        result = shard.evict_page(page)
        assert result.flushed is False  # no write happened...
        assert shard.pool.stats.pageouts == pageouts_before
        assert shard.node.disks.total_bytes_written() == written_before

    def test_trace_event_flushed_matches_ground_truth(self):
        cluster = PangeaCluster(
            num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        tracer = cluster.enable_tracing()
        data = cluster.create_set("s", durability="write-back",
                                  page_size=512 * KB, object_bytes=64 * KB)
        data.add_data(list(range(64)))  # 4MB over a 2MB pool: must evict
        for _ in range(2):
            list(data.scan_records())
        events = [e.args for e in tracer.events if e.name == "shard.evict"]
        assert events
        flush_count = sum(1 for e in events if e["flushed"])
        # Every flushed=True event corresponds to a real pageout; clean
        # re-read pages evicted again must not claim a flush.
        assert flush_count <= cluster.nodes[0].pool.stats.pageouts
        assert any(e["was_dirty"] and e["flushed"] for e in events)
        assert any(not e["flushed"] for e in events)

    def test_dead_set_pages_never_flush(self):
        _cluster, shard, page = self._one_page_shard()
        shard.dataset.end_lifetime()
        result = shard.evict_page(page)
        assert result.flushed is False
        assert shard.pool.stats.pageouts == 0


def tiny_snapshot():
    return ClusterMetrics(nodes=[
        NodeMetrics(
            node_id=0, seconds=1.234, pool_used_bytes=3 * MB,
            pool_capacity_bytes=8 * MB, disk_bytes_read=12 * MB,
            disk_bytes_written=5 * MB, network_bytes_sent=2 * MB,
            evictions=7, pageouts=4, pageins=3, bytes_paged_out=4 * MB,
            bytes_paged_in=3 * MB, network_bytes_received=1 * MB,
            eviction_rounds=6, pages_evicted=7,
        ),
        NodeMetrics(
            node_id=1, seconds=1.5, pool_used_bytes=0,
            pool_capacity_bytes=8 * MB, disk_bytes_read=0,
            disk_bytes_written=0, network_bytes_sent=0,
            evictions=0, pageouts=0, pageins=0, bytes_paged_out=0,
            bytes_paged_in=0,
        ),
    ])


class TestFormatTableAlignment:
    def test_header_and_rows_share_column_edges(self):
        """The original bug: the net column printed 8 wide under a 9-wide
        header, shearing every column after it."""
        lines = format_table(tiny_snapshot()).splitlines()
        table_lines = lines[:3]  # header + one line per node
        assert len({len(line) for line in table_lines}) == 1
        # Every cell sits right-aligned inside its declared column span.
        start = 0
        for _name, width in NODE_COLUMNS:
            end = start + width
            for line in table_lines:
                cell = line[start:end]
                assert cell == cell.strip().rjust(width)
            # Columns are separated by exactly one space.
            for line in table_lines:
                if end < len(line):
                    assert line[end] == " "
            start = end + 1

    def test_every_value_lands_in_its_column(self):
        lines = format_table(tiny_snapshot()).splitlines()
        header, row0 = lines[0], lines[1]

        def column(line, index):
            start = sum(w + 1 for _n, w in NODE_COLUMNS[:index])
            return line[start:start + NODE_COLUMNS[index][1]].strip()

        assert column(header, 4) == "net(tx/rx,MB)"
        assert column(row0, 4) == "2/1"
        assert column(header, 6) == "rounds"
        assert column(row0, 6) == "6"
        assert column(row0, 7) == "4/3"

    def test_totals_line_present(self):
        text = format_table(tiny_snapshot())
        assert "total:" in text
        assert "6 eviction rounds" in text


class TestCollectSurfacesEverything:
    def _busy_cluster(self):
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=2 * MB)
        )
        data = cluster.create_set("s", durability="write-back",
                                  page_size=512 * KB, object_bytes=64 * KB)
        data.add_data(list(range(128)))  # 8MB over two 2MB pools
        list(data.scan_records())
        return cluster

    def test_paging_stats_surfaced(self):
        """The original bug: collect() dropped PagingSystem.stats entirely."""
        cluster = self._busy_cluster()
        snapshot = collect(cluster)
        for node_metrics, node in zip(snapshot.nodes, cluster.nodes):
            assert node_metrics.eviction_rounds == node.paging.stats.eviction_rounds
            assert node_metrics.pages_evicted == node.paging.stats.pages_evicted
        assert snapshot.total_eviction_rounds > 0

    def test_receive_counters_surfaced(self):
        cluster = self._busy_cluster()
        sender, receiver = cluster.nodes
        sender.network.transfer(3 * MB, num_messages=2, peer=receiver.network)
        snapshot = collect(cluster)
        assert snapshot.nodes[1].network_bytes_received == 3 * MB
        assert snapshot.nodes[1].network_messages_received == 2
        assert snapshot.nodes[0].network_bytes_received == 0
        assert snapshot.total_network_bytes_received == 3 * MB

    def test_transfer_to_self_not_double_counted(self):
        cluster = self._busy_cluster()
        node = cluster.nodes[0]
        before = node.network.stats.bytes_received
        node.network.transfer(1 * MB, peer=node.network)
        assert node.network.stats.bytes_received == before

    def test_per_set_metrics_in_snapshot(self):
        cluster = self._busy_cluster()
        snapshot = collect(cluster)
        for node_metrics in snapshot.nodes:
            assert "s" in node_metrics.sets
        assert snapshot.set_totals()["s"].created_pages == 16
