"""Tests for the device cost models."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.devices import GB, MB, CpuProfile, DiskArray, DiskDevice
from repro.sim.network import NetworkLink


class TestDiskDevice:
    def test_read_cost_is_latency_plus_bandwidth(self):
        disk = DiskDevice(read_bandwidth=100 * MB, io_latency=1e-3)
        cost = disk.read(100 * MB, num_ios=1)
        assert cost == pytest.approx(1e-3 + 1.0)

    def test_write_cost(self):
        disk = DiskDevice(write_bandwidth=50 * MB, io_latency=0.0)
        assert disk.write(100 * MB) == pytest.approx(2.0)

    def test_many_small_ios_cost_more(self):
        disk = DiskDevice(io_latency=100e-6)
        one = disk.read(64 * MB, num_ios=1)
        many = disk.read(64 * MB, num_ios=16384)
        assert many > one * 5

    def test_charges_attached_clock(self):
        clock = SimClock()
        disk = DiskDevice(clock=clock)
        cost = disk.read(10 * MB)
        assert clock.now == pytest.approx(cost)

    def test_stats_accumulate(self):
        disk = DiskDevice()
        disk.read(100, num_ios=2)
        disk.write(200, num_ios=3)
        assert disk.stats.bytes_read == 100
        assert disk.stats.bytes_written == 200
        assert disk.stats.num_reads == 2
        assert disk.stats.num_writes == 3

    def test_negative_bytes_rejected(self):
        disk = DiskDevice()
        with pytest.raises(ValueError):
            disk.read(-1)
        with pytest.raises(ValueError):
            disk.write(-1)

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DiskDevice(read_bandwidth=0)
        with pytest.raises(ValueError):
            DiskDevice(io_latency=-1)


class TestDiskArray:
    def test_two_disks_double_bandwidth(self):
        one = DiskArray([DiskDevice(io_latency=0)])
        two = DiskArray([DiskDevice(io_latency=0), DiskDevice(io_latency=0)])
        nbytes = 512 * MB
        assert two.read(nbytes) == pytest.approx(one.read(nbytes) / 2)

    def test_write_striping(self):
        two = DiskArray([DiskDevice(io_latency=0), DiskDevice(io_latency=0)])
        cost = two.write(512 * MB)
        single = 512 * MB / (380 * MB)
        assert cost == pytest.approx(single / 2)

    def test_stats_spread_across_disks(self):
        disks = [DiskDevice(), DiskDevice()]
        array = DiskArray(disks)
        array.write(1000)
        assert array.total_bytes_written() == 1000
        assert disks[0].stats.bytes_written > 0
        assert disks[1].stats.bytes_written > 0

    def test_empty_array_rejected(self):
        with pytest.raises(ValueError):
            DiskArray([])

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_negative_size_rejected_before_any_effect(self, op):
        clock = SimClock()
        array = DiskArray([DiskDevice(clock=clock)])
        hooked = []
        array.fault_hook = lambda point, nbytes: hooked.append(point) or 0.0
        with pytest.raises(ValueError):
            getattr(array, op)(-5)
        assert hooked == []
        assert array.total_bytes_read() == 0
        assert array.total_bytes_written() == 0
        assert array.disks[0].stats.num_reads == array.disks[0].stats.num_writes == 0
        assert clock.now == 0.0

    def test_reset_stats(self):
        array = DiskArray([DiskDevice()])
        array.read(100)
        array.reset_stats()
        assert array.total_bytes_read() == 0


class TestCpuProfile:
    def test_parallel_divides_by_workers(self):
        cpu = CpuProfile(cores=4)
        assert cpu.parallel(4.0, workers=4) == pytest.approx(1.0)

    def test_parallel_capped_at_cores(self):
        cpu = CpuProfile(cores=4)
        assert cpu.parallel(4.0, workers=100) == pytest.approx(1.0)

    def test_memcpy_uses_bandwidth(self):
        cpu = CpuProfile(memcpy_bandwidth=1 * GB)
        assert cpu.memcpy(1 * GB) == pytest.approx(1.0)

    def test_serialize_slower_than_memcpy(self):
        cpu = CpuProfile()
        assert cpu.serialize(1 * GB) > cpu.memcpy(1 * GB)

    def test_per_object(self):
        cpu = CpuProfile(per_object_overhead=100e-9)
        assert cpu.per_object(1000) == pytest.approx(100e-6)

    def test_per_object_factor(self):
        cpu = CpuProfile(per_object_overhead=100e-9)
        assert cpu.per_object(1000, factor=2.0) == pytest.approx(200e-6)

    def test_charges_clock(self):
        clock = SimClock()
        cpu = CpuProfile(clock=clock)
        cpu.compute(2.0)
        assert clock.now == pytest.approx(2.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            CpuProfile().compute(-1.0)


class TestNetworkLink:
    def test_transfer_cost(self):
        link = NetworkLink(bandwidth=1 * GB, latency=1e-3)
        assert link.transfer(1 * GB, num_messages=1) == pytest.approx(1.0 + 1e-3)

    def test_message_only_latency(self):
        link = NetworkLink(latency=1e-3)
        assert link.message(3) == pytest.approx(3e-3)

    def test_stats(self):
        link = NetworkLink()
        link.transfer(100, num_messages=2)
        assert link.stats.bytes_sent == 100
        assert link.stats.num_messages == 2

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NetworkLink(bandwidth=0)
        with pytest.raises(ValueError):
            NetworkLink(latency=-1)
        with pytest.raises(ValueError):
            NetworkLink().transfer(-5)
