"""Tests for deterministic fault injection, retries, and page integrity."""

import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro import (
    FaultConfig,
    FaultInjector,
    MachineProfile,
    PageCorruptionError,
    PangeaCluster,
)
from repro.fs.page_file import SetFile, encode_image, page_checksum
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.replication import register_replica
from repro.placement.rsafety import ensure_r_safety, object_node_spread
from repro.sim.clock import SimClock
from repro.sim.devices import KB, MB, DiskArray, DiskDevice
from repro.sim.faults import TransientDiskError

from .conftest import flip_bit


def tiny_cluster(num_nodes=2, pool_mb=32):
    return PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=pool_mb * MB)
    )


def build_replicated(num_nodes=4, rows=600, page_size=1 * MB):
    cluster = tiny_cluster(num_nodes=num_nodes)
    src = cluster.create_set("src", page_size=page_size, object_bytes=100)
    src.add_data([{"a": i, "b": (i * 131) % 997, "id": i} for i in range(rows)])
    rep_a = cluster.create_set("rep_a", page_size=page_size, object_bytes=100)
    partition_set(src, rep_a, HashPartitioner(lambda r: r["a"], 16, key_name="a"))
    rep_b = cluster.create_set("rep_b", page_size=page_size, object_bytes=100)
    partition_set(src, rep_b, HashPartitioner(lambda r: r["b"], 16, key_name="b"))
    group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
    return cluster, group, rep_a, rep_b


class TestInjectorWiring:
    def test_attach_and_detach(self):
        cluster = tiny_cluster()
        injector = FaultInjector(seed=1).attach(cluster)
        for node in cluster.nodes:
            assert node.fault_injector is injector
            assert node.disks.fault_hook is not None
            assert node.network.fault_hook is not None
        injector.detach()
        for node in cluster.nodes:
            assert node.fault_injector is None
            assert node.disks.fault_hook is None
            assert node.network.fault_hook is None

    def test_disabled_injector_is_inert(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=1, config=FaultConfig(disk_write_error_rate=1.0)
        ).attach(cluster)
        injector.enabled = False
        handle = cluster.nodes[0].fs.create_file("quiet")
        handle.write_page(1, ["x"], 1 * MB)
        assert injector.stats.total == 0
        assert cluster.nodes[0].robustness.retries == 0


class TestTransientFaults:
    def test_write_faults_absorbed_by_bounded_retries(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=7, config=FaultConfig(disk_write_error_rate=0.4)
        ).attach(cluster)
        node = cluster.nodes[0]
        handle = node.fs.create_file("flaky")
        for page_id in range(1, 41):
            handle.write_page(page_id, [page_id], 1 * MB)
        assert injector.stats.disk_write_faults > 0
        assert node.robustness.retries >= injector.stats.disk_write_faults
        assert handle.num_pages == 40

    def test_streak_bound_keeps_certain_faults_survivable(self):
        """Even a 100% fault rate cannot out-streak the retry budget when
        max_consecutive_faults < max_attempts."""
        cluster = tiny_cluster(num_nodes=1)
        FaultInjector(
            seed=3,
            config=FaultConfig(disk_write_error_rate=1.0, max_consecutive_faults=2),
        ).attach(cluster)
        handle = cluster.nodes[0].fs.create_file("always")
        handle.write_page(1, ["x"], 1 * MB)  # must not raise
        assert cluster.nodes[0].robustness.retries > 0

    def test_unbounded_streak_exhausts_retries(self):
        cluster = tiny_cluster(num_nodes=1)
        FaultInjector(
            seed=3,
            config=FaultConfig(disk_write_error_rate=1.0, max_consecutive_faults=99),
        ).attach(cluster)
        handle = cluster.nodes[0].fs.create_file("doomed")
        with pytest.raises(TransientDiskError):
            handle.write_page(1, ["x"], 1 * MB)

    def test_retry_backoff_charges_simulated_time(self):
        plain = tiny_cluster(num_nodes=1)
        plain.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        baseline = plain.simulated_seconds()

        faulty = tiny_cluster(num_nodes=1)
        FaultInjector(
            seed=3, config=FaultConfig(disk_write_error_rate=1.0)
        ).attach(faulty)
        faulty.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        assert faulty.simulated_seconds() > baseline

    def test_latency_spike_charges_extra_time(self):
        plain = tiny_cluster(num_nodes=1)
        plain.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        baseline = plain.simulated_seconds()

        spiky = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=3,
            config=FaultConfig(
                disk_latency_spike_rate=1.0, disk_latency_spike_seconds=0.25
            ),
        ).attach(spiky)
        spiky.nodes[0].fs.create_file("s").write_page(1, ["x"], 1 * MB)
        assert injector.stats.latency_spikes == 1
        assert spiky.simulated_seconds() >= baseline + 0.25

    def test_net_drops_are_retried(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(
            seed=11, config=FaultConfig(net_drop_rate=0.5)
        ).attach(cluster)
        node = cluster.nodes[0]
        for _ in range(30):
            node.network.transfer(1 * MB)
        assert injector.stats.net_drops > 0
        assert node.robustness.retries >= injector.stats.net_drops
        assert node.network.stats.bytes_sent == 30 * MB


class TestSchedules:
    def test_scheduled_crash_fires_at_exact_count(self):
        cluster = tiny_cluster(num_nodes=2)
        injector = FaultInjector(seed=1).attach(cluster)
        injector.schedule_crash("disk.write", node_id=0, at_count=3)
        handle = cluster.nodes[0].fs.create_file("s")
        handle.write_page(1, ["x"], 1 * MB)
        handle.write_page(2, ["x"], 1 * MB)
        assert not cluster.nodes[0].failed
        handle.write_page(3, ["x"], 1 * MB)
        assert cluster.nodes[0].failed
        assert not cluster.nodes[1].failed
        assert injector.stats.crashes == 1

    def test_scheduled_corruption_hits_nth_write(self):
        cluster = tiny_cluster(num_nodes=1)
        injector = FaultInjector(seed=1).attach(cluster)
        injector.schedule_corruption("s", node_id=0, at_write=2)
        handle = cluster.nodes[0].fs.create_file("s")
        handle.write_page(1, ["good"], 1 * MB)
        handle.write_page(2, ["bad"], 1 * MB)
        assert handle.read_page(1)[0] == ["good"]
        with pytest.raises(PageCorruptionError):
            handle.read_page(2)
        assert injector.stats.corruptions_injected == 1


class TestReplayDeterminism:
    @staticmethod
    def _run(seed):
        cluster = tiny_cluster(num_nodes=2)
        injector = FaultInjector(
            seed=seed,
            config=FaultConfig(
                disk_read_error_rate=0.1,
                disk_write_error_rate=0.1,
                disk_latency_spike_rate=0.2,
                net_drop_rate=0.15,
            ),
        ).attach(cluster)
        for node in cluster.nodes:
            handle = node.fs.create_file("w")
            for page_id in range(1, 21):
                handle.write_page(page_id, [page_id], 1 * MB)
            for page_id in range(1, 21):
                handle.read_page(page_id)
            node.network.transfer(4 * MB)
        return (
            injector.stats.as_dict(),
            [node.robustness.as_dict() for node in cluster.nodes],
            cluster.simulated_seconds(),
        )

    def test_same_seed_same_schedule(self):
        assert self._run(42) == self._run(42)

    def test_faults_actually_occurred(self):
        stats, robustness, _seconds = self._run(42)
        assert stats["disk_read_faults"] + stats["disk_write_faults"] > 0
        assert sum(r["retries"] for r in robustness) > 0


def checksum(records) -> int:
    return page_checksum(encode_image(records))


@pytest.fixture
def disks():
    clock = SimClock()
    return DiskArray([DiskDevice(clock=clock), DiskDevice(clock=clock)])


class TestPageIntegrity:
    def test_checksum_is_payload_and_order_sensitive(self):
        assert checksum(["a", "b"]) == checksum(["a", "b"])
        assert checksum(["a", "b"]) != checksum(["b", "a"])
        assert checksum(["a"]) != checksum(["a", "a"])

    def test_checksum_covers_the_middle_of_large_arrays(self):
        """numpy's repr elides all but the ends of arrays over 1000 elements."""
        points = np.arange(5000, dtype=np.float64)
        changed = points.copy()
        changed[2500] += 1.0
        assert checksum([points]) != checksum([changed])

    def test_checksum_is_bit_exact_for_floats(self):
        """numpy's repr rounds to 8 significant digits."""
        assert checksum([np.array([1.0])]) != checksum([np.array([1.0 + 1e-12])])

    def test_checksum_is_stable_across_processes(self):
        """String hashing is salted per process; the checksum must not be."""
        script = (
            "from repro.fs.page_file import encode_image, page_checksum; "
            "import numpy as np; "
            "print(page_checksum(encode_image([{'l_comment': 'line', 'l_tax': 0.05}, "
            "(np.arange(4.0), 2.5), (7, 3), 'x', np.arange(12.0).reshape(3, 4)[1], "
            "np.arange(5, dtype=np.int32), np.arange(3, dtype='>f8'), "
            "np.array([1, 'a', (2.5,)], dtype=object)])))"
        )
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        values = {
            subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(values) == 1

    def test_one_ulp_flip_in_a_stored_array_detected_on_read(self, disks):
        handle = SetFile("s", disks)
        point = np.linspace(0.0, 1.0, 8)
        records = [point, (point * 2.0, 0.5)]
        handle.write_page(1, records, 1 * MB)
        # The lowest mantissa bit of point[3]: one ULP, in the stored bytes.
        offset = encode_image(records).index(point.tobytes()) + 3 * point.itemsize
        flip_bit(handle, 1, 8 * offset)
        with pytest.raises(PageCorruptionError):
            handle.read_page(1)
        assert handle.peek_records(1) == []

    @pytest.mark.parametrize("kind", ["object", "structured", "masked"])
    def test_changed_element_of_a_numpy_pickled_array_changes_the_checksum(self, kind):
        """Arrays outside the dtype/shape/bytes encoding keep numpy's own
        pickle, which must be exact too."""
        array = {
            "object": lambda: np.array([1, "a", (2.5,)], dtype=object),
            "structured": lambda: np.array(
                [(1, 0.5), (2, 1.5)], dtype=[("key", "<i8"), ("value", "<f8")]
            ),
            "masked": lambda: np.ma.MaskedArray([1.0, 2.0, 3.0], mask=[False, True, False]),
        }[kind]()
        before = checksum([array, "tail"])
        if kind == "structured":
            array[1]["value"] = np.nextafter(1.5, np.inf)
        elif kind == "masked":
            array.mask[0] = True
        else:
            array[1] = "b"
        assert checksum([array, "tail"]) != before

    def test_records_changed_in_place_after_a_write_do_not_reach_the_image(self, disks):
        handle = SetFile("s", disks)
        row, point = {"id": 7, "tags": ["a"]}, np.linspace(0.0, 1.0, 8)
        handle.write_page(1, [row, point], 1 * MB)
        row["id"] = 8
        row["tags"].append("b")
        point[3] = np.nextafter(point[3], np.inf)
        for got_row, got_point in (handle.read_page(1)[0], handle.peek_records(1)):
            assert got_row == {"id": 7, "tags": ["a"]}
            assert got_point.tobytes() == np.linspace(0.0, 1.0, 8).tobytes()
            assert not got_point.flags.writeable

    def test_records_changed_in_place_after_an_eviction_do_not_reach_the_image(self):
        cluster = tiny_cluster(num_nodes=1)
        data = cluster.create_set("d", durability="write-back", page_size=1 * MB)
        row, point = {"id": 7}, np.linspace(0.0, 1.0, 8)
        data.add_data([row, point])
        shard = data.shards[0]
        page = shard.pages[0]
        shard.evict_page(page)
        assert page.on_disk and not page.in_memory
        row["id"] = 8
        point[3] = np.nextafter(point[3], np.inf)
        assert shard.stored_records(page)[0] == {"id": 7}
        pinned = shard.pin_page(page)
        got_row, got_point = pinned.records
        assert got_row == {"id": 7}
        assert got_point.tobytes() == np.linspace(0.0, 1.0, 8).tobytes()
        shard.unpin_page(pinned)

    def test_unpicklable_payload_leaves_the_file_untouched(self, disks):
        handle = SetFile("s", disks)
        handle.write_page(1, ["a"], 1 * MB)
        footprint = (handle.bytes_on_disk, handle.disk_head_bytes, disks.total_bytes_written())
        with pytest.raises(TypeError, match="picklable"):
            handle.write_page(2, [threading.Lock()], 1 * MB)
        with pytest.raises(TypeError, match="picklable"):
            handle.write_page(1, ["b", threading.Lock()], 2 * MB)
        with pytest.raises(TypeError, match="picklable"):
            handle.write_many([(3, ["c"], 1 * MB), (4, [threading.Lock()], 1 * MB)])
        with pytest.raises(TypeError, match="picklable"):
            handle.write_page(5, [np.array([1, threading.Lock()], dtype=object)], 1 * MB)
        for page_id in (2, 3, 4, 5):
            assert not handle.contains(page_id)
        handle.assert_extent_accounting()
        assert (handle.bytes_on_disk, handle.disk_head_bytes, disks.total_bytes_written()) == footprint
        assert handle.read_page(1)[0] == ["a"]

    def test_corrupt_image_detected_on_read(self, disks):
        handle = SetFile("s", disks)
        handle.write_page(1, ["a", "b", "c"], 1 * MB)
        handle.corrupt_image(1)
        with pytest.raises(PageCorruptionError):
            handle.read_page(1)

    def test_corrupting_a_corrupt_image_keeps_it_corrupt(self, disks):
        handle = SetFile("s", disks)
        handle.write_page(1, ["a", "b", "c"], 1 * MB)
        handle.corrupt_image(1)
        handle.corrupt_image(1)
        assert not handle.image_intact(1)
        with pytest.raises(PageCorruptionError):
            handle.read_page(1)

    def test_rewrite_clears_corruption(self, disks):
        handle = SetFile("s", disks)
        handle.write_page(1, ["a"], 1 * MB)
        handle.corrupt_image(1)
        handle.write_page(1, ["a2"], 1 * MB)
        assert handle.read_page(1)[0] == ["a2"]


class TestReadRepair:
    def test_corrupted_page_repaired_from_replica(self):
        cluster, group, rep_a, rep_b = build_replicated()
        shard = rep_a.shards[1]
        victim = next(p for p in shard.pages if p.on_disk)
        if victim.in_memory:
            shard.evict_page(victim)
        expected_ids = set(
            group.object_id_fn(r) for r in shard.file.peek_records(victim.page_id)
        )
        shard.file.corrupt_image(victim.page_id)
        records = list(rep_a.scan_records())
        assert {r["id"] for r in records} == set(range(600))
        node = shard.node
        assert node.robustness.corruptions_detected == 1
        assert node.robustness.read_repairs == 1
        assert node.pool.stats.read_repairs == 1
        # The repaired on-disk image matches the original objects.
        repaired, _cost = shard.file.read_page(victim.page_id)
        assert {group.object_id_fn(r) for r in repaired} == expected_ids

    def test_unrepairable_corruption_raises(self):
        cluster = tiny_cluster(num_nodes=2)
        lone = cluster.create_set("lone", page_size=1 * MB, object_bytes=100)
        lone.add_data([{"id": i} for i in range(50)])
        shard = lone.shards[0]
        page = shard.pages[0]
        if not page.on_disk:
            shard.evict_page(page)  # flush forces an on-disk image
        elif page.in_memory:
            shard.evict_page(page)
        shard.file.corrupt_image(page.page_id)
        with pytest.raises(PageCorruptionError):
            list(lone.scan_records())
        assert shard.node.robustness.read_repairs == 0

    def test_repair_falls_back_past_damaged_replica_copy(self):
        """When a replica copy unrelated to the lost objects is also corrupt,
        the repair skips it and still reconstructs from the healthy copies."""
        cluster, group, rep_a, rep_b = build_replicated(page_size=8192)
        shard = rep_a.shards[1]
        victim = next(p for p in shard.pages if p.on_disk)
        if victim.in_memory:
            shard.evict_page(victim)
        victim_ids = {
            group.object_id_fn(r) for r in shard.file.peek_records(victim.page_id)
        }
        shard.file.corrupt_image(victim.page_id)
        # Damage a rep_b image holding *different* objects (corrupting the
        # only surviving copy would make the data genuinely unrecoverable).
        spoiled = None
        for node_id in sorted(rep_b.shards):
            other = rep_b.shards[node_id]
            for page in other.pages:
                if not page.on_disk:
                    continue
                ids = {
                    group.object_id_fn(r)
                    for r in other.file.peek_records(page.page_id)
                }
                if ids and not ids & victim_ids:
                    spoiled = (other, page)
                    break
            if spoiled:
                break
        if spoiled is None:
            pytest.skip("no disjoint replica page in this layout")
        other, page = spoiled
        if page.in_memory:
            other.evict_page(page)
        other.file.corrupt_image(page.page_id)
        records = list(rep_a.scan_records())
        assert {r["id"] for r in records} == set(range(600))


class TestCorruptImagesAtRegistration:
    """Replicas loaded while images are being corrupted can still join a
    group: a corrupt disk image is left out of the group's page index, so
    reading it raises instead of "repairing" from the corrupt payload."""

    @staticmethod
    def load_corrupting(seed, num_nodes=4):
        """``rep_a`` and ``rep_b`` of one 1600-row set, partitioned on a
        spilling cluster whose disk writes corrupt one image in five."""
        cluster = PangeaCluster(
            num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=256 * KB)
        )
        FaultInjector(seed=seed, config=FaultConfig(corruption_rate=0.2)).attach(cluster)

        def create(name, durability="write-through"):
            return cluster.create_set(
                name, durability=durability, page_size=16 * KB, object_bytes=256
            )

        src = create("src", durability="write-back")
        src.add_data([{"id": i, "a": i // 3, "b": (i * 131) % 997} for i in range(1600)])
        rep_a = create("rep_a")
        partition_set(src, rep_a, HashPartitioner(lambda r: r["a"], 16, key_name="a"))
        rep_b = create("rep_b")
        partition_set(src, rep_b, HashPartitioner(lambda r: r["b"], 16, key_name="b"))
        return cluster, rep_a, rep_b

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_register_replica_skips_corrupt_images(self, seed):
        _cluster, rep_a, rep_b = self.load_corrupting(seed)
        evicted = [
            (member, shard, page, not shard.file.image_intact(page.page_id))
            for member in (rep_a, rep_b)
            for shard in member.shards.values()
            for page in shard.pages
            if page.on_disk and not page.records
        ]
        assert any(corrupt for *_, corrupt in evicted), "the seed must corrupt an evicted image"

        register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])

        for member, shard, page, corrupt in evicted:
            ids = member.page_image_ids(shard.node.node_id, page.page_id)
            assert (ids is None) == corrupt
        _member, shard, page, _corrupt = next(entry for entry in evicted if entry[3])
        with pytest.raises(PageCorruptionError):
            shard.pin_page(page)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_ensure_r_safety_reads_corrupt_images_as_empty(self, seed):
        cluster, rep_a, rep_b = self.load_corrupting(seed, num_nodes=5)
        group = register_replica(rep_a, rep_b, object_id_fn=lambda r: r["id"])
        assert any(
            not shard.file.image_intact(page.page_id)
            for shard in rep_a.shards.values()
            for page in shard.pages
            if page.on_disk and not page.records
        ), "the seed must corrupt an evicted image of the first member"

        ensure_r_safety(cluster, group, r=2)

        intact_ids = {
            record["id"]
            for shard in rep_a.shards.values()
            for page in shard.pages
            if page.records or shard.file.image_intact(page.page_id)
            for record in shard.stored_records(page)
        }
        spread = object_node_spread(group)
        assert all(len(spread[oid]) >= 3 for oid in intact_ids)
