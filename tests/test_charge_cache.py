"""The cached fixed-cost charges equal the formulas they replace.

``NetworkLink.message``, ``CpuProfile.parallel`` (and the calls built on
it) and ``DiskArray`` transfers read their clock ticks from per-device
caches.  These tests check, on fresh and on warmed devices, that every
charge is still ``to_ticks(formula)`` (``to_ticks(formula + extra)`` when a
fault hook adds seconds) and that the device counters move as before.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FaultConfig, FaultInjector, MachineProfile, PangeaCluster
from repro.sim.clock import TICKS_PER_SECOND, SimClock, to_ticks
from repro.sim.devices import MB, CpuProfile, DiskArray, DiskDevice
from repro.sim.network import NetworkLink


def make_disks() -> DiskArray:
    """Two unlike disks, so the slowest chunk decides the charge."""
    clock = SimClock()
    return DiskArray([
        DiskDevice("fast", read_bandwidth=450 * MB, write_bandwidth=380 * MB,
                   io_latency=100e-6, clock=clock),
        DiskDevice("slow", read_bandwidth=110 * MB, write_bandwidth=90 * MB,
                   io_latency=250e-6, clock=clock),
    ])


def disk_shares(disks: DiskArray, nbytes: int, num_ios: int) -> tuple:
    """(per-disk byte chunks, per-disk operations) of one striped transfer."""
    num_disks = len(disks.disks)
    share = nbytes // num_disks
    chunks = [nbytes - share * (num_disks - 1)] + [share] * (num_disks - 1)
    return chunks, max(1, num_ios // num_disks)


def disk_formula(disks: DiskArray, nbytes: int, num_ios: int, write: bool) -> float:
    chunks, ios = disk_shares(disks, nbytes, num_ios)
    return max(
        ios * disk.io_latency
        + chunk / (disk.write_bandwidth if write else disk.read_bandwidth)
        for disk, chunk in zip(disks.disks, chunks)
    )


def disk_counters(disks: DiskArray) -> list:
    return [
        (d.stats.bytes_read, d.stats.bytes_written, d.stats.num_reads, d.stats.num_writes)
        for d in disks.disks
    ]


def measure(clock: SimClock, call):
    """(clock delta in ticks, seconds returned) of one charge."""
    before = clock.ticks
    seconds = call()
    return clock.ticks - before, seconds


sizes = st.integers(min_value=0, max_value=256 * MB)
io_counts = st.integers(min_value=0, max_value=64)


@settings(max_examples=60, deadline=None)
@given(count=st.integers(min_value=0, max_value=1000), warm=st.integers(1, 3))
def test_message_charge_is_exact_fresh_and_warm(count, warm):
    expected = to_ticks(count * NetworkLink().latency)
    for warmups in (0, warm):
        link = NetworkLink(clock=SimClock())
        for _ in range(warmups):
            link.message(count + 1)
            link.message(count)
        link.stats.reset()
        ticks, seconds = measure(link.clock, lambda: link.message(count))
        assert ticks == expected
        assert seconds == expected / TICKS_PER_SECOND
        assert (link.stats.num_messages, link.stats.bytes_sent) == (count, 0)


@settings(max_examples=60, deadline=None)
@given(
    seconds=st.floats(min_value=0.0, max_value=1e4, allow_nan=False),
    workers=st.integers(min_value=-2, max_value=32),
    warm=st.integers(1, 3),
)
def test_parallel_charge_is_exact_fresh_and_warm(seconds, workers, warm):
    cores = CpuProfile().cores
    expected = to_ticks(seconds / max(1, min(workers, cores)))
    for warmups in (0, warm):
        cpu = CpuProfile(clock=SimClock())
        for _ in range(warmups):
            cpu.parallel(seconds, workers + 1)
            cpu.parallel(seconds * 0.5, workers)
            cpu.parallel(seconds, workers)
        ticks, charged = measure(cpu.clock, lambda: cpu.parallel(seconds, workers))
        assert ticks == expected
        assert charged == expected / TICKS_PER_SECOND
        # compute is parallel; memcpy prices bytes at memcpy bandwidth.
        assert measure(cpu.clock, lambda: cpu.compute(seconds, workers))[0] == expected
        nbytes = int(seconds * MB)
        assert measure(cpu.clock, lambda: cpu.memcpy(nbytes, workers))[0] == to_ticks(
            nbytes / cpu.memcpy_bandwidth / max(1, min(workers, cores))
        )


@settings(max_examples=60, deadline=None)
@given(
    nbytes=sizes,
    num_ios=io_counts,
    op=st.sampled_from(["read", "write", "write_many"]),
    warm=st.integers(1, 3),
)
def test_disk_charge_is_exact_fresh_and_warm(nbytes, num_ios, op, warm):
    write = op != "read"
    results = []
    for warmups in (0, warm):
        disks = make_disks()
        clock = disks.disks[0].clock
        if op == "write_many":
            half = nbytes // 2
            call = lambda: disks.write_many([half, nbytes - half], num_ios)  # noqa: E731
        else:
            call = lambda: getattr(disks, op)(nbytes, num_ios)  # noqa: E731
        for _ in range(warmups):
            (disks.read if write else disks.write)(nbytes, num_ios)
            (disks.write if write else disks.read)(nbytes, num_ios + 4)
            disks.read(nbytes + 1, num_ios)
            call()
        disks.reset_stats()
        ticks, seconds = measure(clock, call)
        expected = to_ticks(disk_formula(disks, nbytes, num_ios, write))
        assert ticks == expected
        assert seconds == expected / TICKS_PER_SECOND
        results.append(disk_counters(disks))
    fresh, warmed = results
    assert fresh == warmed
    chunks, ios = disk_shares(disks, nbytes, num_ios)
    assert fresh == [
        (0, chunk, 0, ios) if write else (chunk, 0, ios, 0) for chunk in chunks
    ]


class TestFaultExtraSeconds:
    """A hook's extra seconds are added before quantising, and do not
    change what a later charge without extra seconds reads."""

    def test_message(self):
        link = NetworkLink(clock=SimClock())
        link.message(1)
        link.fault_hook = lambda point, nbytes: 2.5e-3
        assert measure(link.clock, lambda: link.message(1))[0] == to_ticks(
            link.latency + 2.5e-3
        )
        link.fault_hook = lambda point, nbytes: 0.0
        assert measure(link.clock, lambda: link.message(1))[0] == to_ticks(link.latency)

    @pytest.mark.parametrize("op", ["read", "write"])
    def test_disk(self, op):
        disks = make_disks()
        clock = disks.disks[0].clock
        getattr(disks, op)(3 * MB)
        disks.fault_hook = lambda point, nbytes: 5e-3
        formula = disk_formula(disks, 3 * MB, 1, op == "write")
        assert measure(clock, lambda: getattr(disks, op)(3 * MB))[0] == to_ticks(
            formula + 5e-3
        )
        disks.fault_hook = None
        assert measure(clock, lambda: getattr(disks, op)(3 * MB))[0] == to_ticks(formula)


def chaos_run(seed: int, charges: list) -> tuple:
    """A seeded fault schedule over cached disk, network and CPU charges.

    ``charges`` receives one ``(to_ticks(formula + extra), ticks charged)``
    pair per page write or read: the hook's last call is the attempt that
    charged (earlier ones raised and were retried with backoff).
    """
    cluster = PangeaCluster(num_nodes=2, profile=MachineProfile.tiny(pool_bytes=32 * MB))
    injector = FaultInjector(seed=seed, config=FaultConfig(
        disk_read_error_rate=0.1,
        disk_write_error_rate=0.1,
        disk_latency_spike_rate=0.4,
        net_drop_rate=0.15,
        net_slow_rate=0.3,
    )).attach(cluster)
    for node in cluster.nodes:
        last = {}

        def recording_hook(point, nbytes, _hook=node.disks.fault_hook, _node=node,
                           _last=last):
            extra = _hook(point, nbytes)
            formula = disk_formula(_node.disks, nbytes, 1, point == "disk.write")
            _last["at"], _last["expected"] = _node.clock.ticks, to_ticks(formula + extra)
            return extra

        node.disks.fault_hook = recording_hook
        handle = node.fs.create_file("w")
        for page_id in range(1, 16):
            handle.write_page(page_id, [page_id], 1 * MB)
            charges.append((last["expected"], node.clock.ticks - last["at"]))
            node.network.message(1)
        for page_id in range(1, 16):
            handle.read_page(page_id)
            charges.append((last["expected"], node.clock.ticks - last["at"]))
            node.cpu.compute(1e-4)
        node.network.transfer(4 * MB)
    return (
        [node.clock.ticks for node in cluster.nodes],
        injector.stats.as_dict(),
        [node.robustness.as_dict() for node in cluster.nodes],
        [disk_counters(node.disks) for node in cluster.nodes],
        [node.network.stats for node in cluster.nodes],
    )


class TestChaosReplay:
    def test_seed_replays_identically(self):
        first, second = [], []
        assert chaos_run(2203, first) == chaos_run(2203, second)
        assert first == second

    def test_charges_include_the_extra_seconds(self):
        charges: list = []
        _ticks, faults, robustness, _disks, _net = chaos_run(2203, charges)
        assert all(expected == charged for expected, charged in charges)
        # The schedule really spiked and retried, so both paths ran.
        assert faults["latency_spikes"] > 0
        assert sum(r["retries"] for r in robustness) > 0


class TestNegativeMessageCount:
    def test_rejected_before_the_hook_or_any_counter(self):
        fired = []
        link = NetworkLink(clock=SimClock())
        link.fault_hook = lambda point, nbytes: fired.append(point) or 0.0
        with pytest.raises(ValueError, match="negative number of messages"):
            link.message(-1)
        assert fired == []
        assert link.stats.num_messages == 0
        assert link.clock.ticks == 0

    def test_rejected_without_a_clock(self):
        link = NetworkLink()
        with pytest.raises(ValueError):
            link.message(-3)
        assert link.stats.num_messages == 0
        assert link.message(1) == to_ticks(link.latency) / TICKS_PER_SECOND
