"""Tests for the hash service: virtual hash buffers, splits, spills."""

import dataclasses

import pytest

from repro import CurrentOperation, MachineProfile, PangeaCluster, ReadingPattern, WritingPattern
from repro.buffer.pool import BufferPoolFullError
from repro.services.hashsvc import VirtualHashBuffer
from repro.sim.devices import KB, MB


def make_cluster(pool=16 * MB):
    return PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=pool))


def make_buffer(cluster, roots=2, page_size=1 * MB, combiner=None, name="h"):
    data = cluster.create_set(name, durability="write-back", page_size=page_size)
    return VirtualHashBuffer(data, num_root_partitions=roots, combiner=combiner)


class TestBasicOperations:
    def test_insert_and_find(self):
        buffer = make_buffer(make_cluster())
        buffer.insert("k", 42, nbytes=50)
        assert buffer.find("k") == 42

    def test_find_missing_returns_none(self):
        buffer = make_buffer(make_cluster())
        assert buffer.find("nope") is None

    def test_set_overwrites(self):
        buffer = make_buffer(make_cluster())
        buffer.insert("k", 1, nbytes=50)
        buffer.set("k", 99, nbytes=50)
        assert buffer.find("k") == 99

    def test_insert_with_combiner_aggregates(self):
        buffer = make_buffer(make_cluster(), combiner=lambda a, b: a + b)
        for _ in range(10):
            buffer.insert("k", 1, nbytes=50)
        assert buffer.find("k") == 10

    def test_insert_without_combiner_keeps_newest(self):
        buffer = make_buffer(make_cluster())
        buffer.insert("k", 1, nbytes=50)
        buffer.insert("k", 2, nbytes=50)
        assert buffer.find("k") == 2

    def test_len_counts_keys(self):
        buffer = make_buffer(make_cluster())
        for i in range(25):
            buffer.insert(i, i, nbytes=50)
        assert len(buffer) == 25

    def test_attributes_inferred(self):
        cluster = make_cluster()
        data = cluster.create_set("h", durability="write-back", page_size=1 * MB)
        VirtualHashBuffer(data, num_root_partitions=2)
        assert data.attributes.writing_pattern is WritingPattern.RANDOM_MUTABLE_WRITE
        assert data.attributes.reading_pattern is ReadingPattern.RANDOM_READ
        assert data.attributes.current_operation is CurrentOperation.READ_AND_WRITE

    def test_items_match_plain_dict(self):
        buffer = make_buffer(make_cluster(), combiner=lambda a, b: a + b)
        expected: dict = {}
        for i in range(500):
            key = i % 37
            buffer.insert(key, 1, nbytes=60)
            expected[key] = expected.get(key, 0) + 1
        assert dict(buffer.items()) == expected

    def test_insert_after_finalize_rejected(self):
        buffer = make_buffer(make_cluster())
        buffer.insert("a", 1, nbytes=50)
        buffer.finalize()
        with pytest.raises(RuntimeError):
            buffer.insert("b", 2, nbytes=50)

    def test_zero_roots_rejected(self):
        cluster = make_cluster()
        data = cluster.create_set("h", durability="write-back", page_size=1 * MB)
        with pytest.raises(ValueError):
            VirtualHashBuffer(data, num_root_partitions=0)

    @pytest.mark.parametrize("nbytes", [8, None])
    def test_insert_many_rejects_misaligned_columns(self, nbytes):
        cluster = make_cluster()
        buffer = make_buffer(cluster)
        clock = cluster.nodes[0].clock.ticks
        with pytest.raises(ValueError, match="3 keys and 1 values"):
            buffer.insert_many([1, 2, 3], ["a"], nbytes=nbytes)
        # Nothing was charged, counted or stored, not even the first pair.
        assert cluster.nodes[0].clock.ticks == clock
        assert buffer.stats.inserts == buffer.stats.combines == 0
        assert len(buffer) == 0
        assert buffer.find(1) is None


class TestGrowthAndSpill:
    def test_partition_split_on_full_page(self):
        cluster = make_cluster(pool=16 * MB)
        buffer = make_buffer(cluster, roots=1, page_size=1 * MB)
        # ~1MB page fills after ~10000 x 100-byte entries; keep going.
        for i in range(15000):
            buffer.insert(("key", i), i, nbytes=68)
        assert buffer.stats.splits >= 1
        assert len(buffer) == 15000

    def test_split_preserves_lookups(self):
        cluster = make_cluster(pool=16 * MB)
        buffer = make_buffer(cluster, roots=1, page_size=1 * MB)
        for i in range(15000):
            buffer.insert(i, i * 2, nbytes=68)
        for probe in (0, 7777, 14999):
            assert buffer.find(probe) == probe * 2

    def test_spill_when_pool_exhausted(self):
        cluster = make_cluster(pool=4 * MB)
        buffer = make_buffer(cluster, roots=2, page_size=1 * MB)
        for i in range(60000):
            buffer.insert(i, i, nbytes=68)
        assert buffer.stats.spills >= 1
        assert cluster.nodes[0].fs.bytes_on_disk > 0

    def test_streaming_items_after_spill_are_complete(self):
        cluster = make_cluster(pool=4 * MB)
        buffer = make_buffer(cluster, roots=2, page_size=1 * MB,
                             combiner=lambda a, b: a + b)
        for i in range(60000):
            buffer.insert(i % 50000, 1, nbytes=68)
        result = dict(buffer.items())
        assert len(result) == 50000
        assert sum(result.values()) == 60000

    def test_spilled_reload_charges_reread_penalty(self):
        cluster = make_cluster(pool=4 * MB)
        buffer = make_buffer(cluster, roots=2, page_size=1 * MB)
        for i in range(60000):
            buffer.insert(i, i, nbytes=68)
        assert buffer.stats.spills > 0
        before = cluster.simulated_seconds()
        list(buffer.items())
        assert cluster.simulated_seconds() > before
        assert buffer.stats.reloads >= buffer.stats.spills

    def test_finalize_without_spill_keeps_exact_counts(self):
        # An 8 MB pool holds the whole build: nothing spills, so finalize
        # has nothing to reload and leaves every combined count as built.
        cluster = make_cluster(pool=8 * MB)
        buffer = make_buffer(cluster, roots=2, page_size=1 * MB,
                             combiner=lambda a, b: a + b)
        for i in range(30000):
            buffer.insert(i % 20000, 1, nbytes=68)
        buffer.finalize()
        assert buffer.stats.spills == 0
        assert buffer.stats.reloads == 0
        # Keys below 10,000 were inserted twice, the rest once.
        assert all(buffer.find(k) == (2 if k < 10000 else 1) for k in range(20000))
        assert buffer.find(20000) is None

    def test_finalize_folds_spilled_partials_back_for_lookups(self):
        # Pages pinned by another set squeeze the build into half the pool,
        # so it spills; once they are unpinned, finalize has room to fold
        # every spilled partial back into resident tables.
        cluster = make_cluster(pool=4 * MB)
        other = cluster.create_set("other", durability="write-back", page_size=1 * MB)
        held = [other.shards[0].new_page(pin=True) for _ in range(2)]
        buffer = make_buffer(cluster, roots=2, page_size=1 * MB,
                             combiner=lambda a, b: a + b)
        keys = list(range(30000))
        for rep in range(3):
            buffer.insert_many(keys, [[(k, rep)] for k in keys], nbytes=68)
        assert buffer.stats.spills > 0
        assert len(buffer) >= 30000
        for page in held:
            other.shards[0].unpin_page(page)
        buffer.finalize()
        assert buffer.stats.reloads == buffer.stats.spills
        # Every duplicate of every key is found, none twice.
        assert all(sorted(buffer.find(k)) == [(k, 0), (k, 1), (k, 2)] for k in keys)
        assert buffer.find(-1) is None
        assert len(buffer) == 30000
        buffer.release()
        buffer.dataset.end_lifetime()
        cluster.drop_set("h")
        assert "h" not in cluster.manager.set_names()

    def test_len_never_undercounts_evicted_spills(self):
        # Two passes over 60,000 keys through a 4 MB pool leave spilled
        # partials that are evicted (no resident records) and keys that
        # live in a table and in spills at once.
        cluster = make_cluster(pool=4 * MB)
        buffer = make_buffer(cluster, roots=2, page_size=1 * MB,
                             combiner=lambda a, b: a + b)
        keys = list(range(60000))
        for _ in range(2):
            buffer.insert_many(keys, [1] * 60000, nbytes=8)
        spilled = [page for root in buffer.roots for page in root.spilled_pages]
        assert spilled and not any(page.in_memory for page in spilled)
        ticks = cluster.nodes[0].clock.ticks
        reloads = buffer.stats.reloads
        assert len(buffer) >= 60000
        assert cluster.nodes[0].clock.ticks == ticks
        assert buffer.stats.reloads == reloads
        assert dict(buffer.items()) == {k: 2 for k in keys}

    def test_failed_construction_unpins_its_pages(self):
        # The pool holds three 1 MB pages, so the fourth of eight roots
        # gets none.
        cluster = make_cluster(pool=3 * MB)
        pool = cluster.nodes[0].pool
        used = pool.used_bytes
        data = cluster.create_set("h", durability="write-back", page_size=1 * MB)
        with pytest.raises(BufferPoolFullError):
            VirtualHashBuffer(data, num_root_partitions=8)
        assert data.active_writers == 0
        assert not any(p.pinned for p in data.shards[0].pages)
        data.end_lifetime()
        cluster.drop_set("h")
        assert pool.used_bytes == used

    def test_release_unpins_all_pages(self):
        cluster = make_cluster()
        data = cluster.create_set("h", durability="write-back", page_size=1 * MB)
        buffer = VirtualHashBuffer(data, num_root_partitions=4)
        buffer.insert("k", 1, nbytes=50)
        buffer.release()
        for shard in data.shards.values():
            assert all(not p.pinned for p in shard.pages)
        data.end_lifetime()
        cluster.drop_set("h")

    def test_writes_after_release_rejected(self):
        cluster = make_cluster(pool=4 * MB)
        data = cluster.create_set("h", durability="write-back", page_size=256 * KB)
        buffer = VirtualHashBuffer(data, num_root_partitions=2)
        for i in range(100):
            buffer.insert(i, i, nbytes=68)
        buffer.release()
        node = cluster.nodes[0]
        clock, pages, stats = node.clock.ticks, len(data.shards[0].pages), buffer.stats
        stats = dataclasses.replace(stats)
        # Enough new keys to split every root several times if accepted.
        for write in (
            lambda: buffer.insert(100, 0, nbytes=68),
            lambda: buffer.insert(100, 0),
            lambda: buffer.set(5, 0, nbytes=68),
            lambda: buffer.insert_many(list(range(100, 20000)), [0] * 19900),
            lambda: buffer.insert_many(list(range(100, 20000)), [0] * 19900, nbytes=68),
        ):
            with pytest.raises(RuntimeError, match="released"):
                write()
        # Nothing was stored, pinned, counted or charged.
        assert node.clock.ticks == clock
        assert len(data.shards[0].pages) == pages
        assert buffer.stats == stats
        assert not any(p.pinned for p in data.shards[0].pages)
        # Reads and a repeated release keep working.
        assert buffer.find(7) == 7 and buffer.find(100) is None
        assert len(buffer) == 100
        assert dict(buffer.items()) == {i: i for i in range(100)}
        buffer.release()
        data.end_lifetime()
        cluster.drop_set("h")

    def test_memory_bounded_by_pool(self):
        cluster = make_cluster(pool=4 * MB)
        buffer = make_buffer(cluster, roots=2, page_size=1 * MB)
        for i in range(60000):
            buffer.insert(i, i, nbytes=68)
        assert cluster.nodes[0].pool.used_bytes <= cluster.nodes[0].pool.capacity


class TestDistributedBuffer:
    def test_roots_spread_over_nodes(self):
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=16 * MB)
        )
        data = cluster.create_set("h", durability="write-back", page_size=1 * MB)
        buffer = VirtualHashBuffer(data, num_root_partitions=4)
        nodes_used = {root.shard.node.node_id for root in buffer.roots}
        assert nodes_used == {0, 1}

    def test_distributed_aggregation_correct(self):
        cluster = PangeaCluster(
            num_nodes=2, profile=MachineProfile.tiny(pool_bytes=16 * MB)
        )
        data = cluster.create_set("h", durability="write-back", page_size=1 * MB)
        buffer = VirtualHashBuffer(
            data, num_root_partitions=4, combiner=lambda a, b: a + b
        )
        for i in range(1000):
            buffer.insert(i % 10, 1, nbytes=60)
        result = dict(buffer.items())
        assert all(result[k] == 100 for k in range(10))


class TestNewestValueWins:
    """Without a combiner the newest value wins, also once pages spill:
    live tables over spilled partials, a later spill over an earlier one."""

    def test_items_after_spills(self):
        buffer = make_buffer(make_cluster(pool=4 * MB))
        keys = list(range(60000))
        buffer.insert_many(keys, ["old"] * 60000, nbytes=68)
        buffer.insert_many(keys, ["new"] * 60000, nbytes=68)
        assert buffer.stats.spills > 0
        assert dict(buffer.items()) == dict.fromkeys(keys, "new")

    def test_finalize_after_spills(self):
        # Two pinned ballast pages squeeze the buffer into the rest of the
        # pool while it is written; once they go, the whole map fits.
        cluster = make_cluster(pool=4 * MB)
        ballast = cluster.create_set("b", durability="write-back", page_size=1 * MB)
        shard = ballast.shards[0]
        pages = [shard.new_page(pin=True) for _ in range(2)]
        buffer = make_buffer(cluster)
        keys = list(range(22000))
        buffer.insert_many(keys, ["old"] * 22000, nbytes=68)
        buffer.insert_many(keys, ["new"] * 22000, nbytes=68)
        for page in pages:
            shard.unpin_page(page)
        ballast.end_lifetime()
        cluster.drop_set("b")
        assert buffer.stats.spills > 0
        buffer.finalize()
        assert all(not root.spilled_pages for root in buffer.roots)
        assert all(buffer.find(key) == "new" for key in keys)
        assert dict(buffer.items()) == dict.fromkeys(keys, "new")

    @pytest.mark.parametrize("finalize", [False, True])
    def test_a_later_spill_beats_an_earlier_one(self, finalize):
        buffer = make_buffer(make_cluster(pool=4 * MB), roots=1)
        root = buffer.roots[0]
        for value in ("first", "second"):
            buffer.insert("k", value, nbytes=68)
            buffer.insert(value, value, nbytes=68)
            root.spill_one()
        buffer.insert("first", "live", nbytes=68)
        assert len(root.spilled_pages) == 2
        if finalize:
            buffer.finalize()
            assert not root.spilled_pages
        assert dict(buffer.items()) == {"k": "second", "first": "live", "second": "second"}

