"""Cost models for the devices the paper's experiments exercise.

All costs are returned in simulated seconds and also charged to the owning
:class:`~repro.sim.clock.SimClock` when one is attached.  Parameters default
to values calibrated against the hardware in the paper's evaluation (AWS
r4.2xlarge workers and an m3.xlarge micro-benchmark instance with SSD
instance-store disks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sim.clock import TICKS_PER_SECOND, SimClock, charge, to_ticks

KB = 1024
MB = 1024 * KB
GB = 1024 * MB

#: Entries a device's fixed-charge tick cache holds at most.  The paper
#: workloads charge a handful of distinct shapes per device; a caller
#: with a new shape on every call just stops filling a full cache.
CHARGE_CACHE_ENTRIES = 256


@dataclass
class DiskStats:
    """Byte and operation counters for one disk."""

    bytes_read: int = 0
    bytes_written: int = 0
    num_reads: int = 0
    num_writes: int = 0

    def reset(self) -> None:
        self.bytes_read = 0
        self.bytes_written = 0
        self.num_reads = 0
        self.num_writes = 0


class DiskDevice:
    """A single SSD with sequential bandwidth and per-I/O latency.

    The cost of one operation is ``latency + nbytes / bandwidth``; issuing
    many small I/Os therefore costs far more than a few large ones, which is
    what makes the paper's 64MB pages beat the OS VM's 4KB pages (Sec. 9.2.1).
    """

    def __init__(
        self,
        name: str = "ssd0",
        read_bandwidth: float = 450 * MB,
        write_bandwidth: float = 380 * MB,
        io_latency: float = 100e-6,
        clock: SimClock | None = None,
    ) -> None:
        if read_bandwidth <= 0 or write_bandwidth <= 0:
            raise ValueError("disk bandwidth must be positive")
        if io_latency < 0:
            raise ValueError("disk latency cannot be negative")
        self.name = name
        self.read_bandwidth = float(read_bandwidth)
        self.write_bandwidth = float(write_bandwidth)
        self.io_latency = float(io_latency)
        self.clock = clock
        self.stats = DiskStats()

    def read(self, nbytes: int, num_ios: int = 1) -> float:
        """Charge a read of ``nbytes`` spread over ``num_ios`` operations."""
        if nbytes < 0:
            raise ValueError("cannot read a negative number of bytes")
        num_ios = max(1, num_ios)
        self.stats.bytes_read += nbytes
        self.stats.num_reads += num_ios
        return charge(self.clock, num_ios * self.io_latency + nbytes / self.read_bandwidth)

    def write(self, nbytes: int, num_ios: int = 1) -> float:
        """Charge a write of ``nbytes`` spread over ``num_ios`` operations."""
        if nbytes < 0:
            raise ValueError("cannot write a negative number of bytes")
        num_ios = max(1, num_ios)
        self.stats.bytes_written += nbytes
        self.stats.num_writes += num_ios
        return charge(self.clock, num_ios * self.io_latency + nbytes / self.write_bandwidth)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DiskDevice({self.name!r}, read={self.read_bandwidth / MB:.0f}MB/s)"


class DiskArray:
    """A set of disks a Pangea data file can be striped across.

    The paper shows 2-disk configurations roughly halving I/O time for
    large sequential transfers (Figs. 7-9, Tab. 3); striping across ``n``
    disks multiplies effective bandwidth by ``n`` while latency stays
    per-operation.

    A transfer's striped chunks, per-disk operation count and clock ticks
    depend only on ``(nbytes, num_ios, write)`` and the disks' cost
    fields, so they are computed once per key and then read back: the
    cached ticks are the very ``to_ticks`` value the formula gives, and a
    fault hook's extra seconds are charged as ``to_ticks(seconds +
    extra)`` from the formula.  The disks and their cost fields are fixed
    once the array has charged a transfer.
    """

    def __init__(self, disks: list[DiskDevice]) -> None:
        if not disks:
            raise ValueError("a disk array needs at least one disk")
        self.disks = list(disks)
        #: Optional fault hook ``(point, nbytes) -> extra_seconds``; installed
        #: by :meth:`repro.sim.faults.FaultInjector.attach`.  May raise
        #: :class:`~repro.sim.faults.TransientDiskError` (retried by the
        #: file layer) before any bytes are charged.
        self.fault_hook = None
        #: Optional :class:`~repro.obs.tracer.NodeTracer`; installed by
        #: :meth:`repro.cluster.node.WorkerNode.attach_tracer`.
        self.tracer = None
        #: (nbytes, num_ios, write) -> (chunks, per-disk I/Os, ticks).
        self._transfer_costs: dict = {}

    @property
    def num_disks(self) -> int:
        return len(self.disks)

    def striped_chunks(self, nbytes: int) -> list[int]:
        """The per-disk byte shares of one striped transfer.

        Disk 0 absorbs the remainder so the chunks always sum to
        ``nbytes``; this is the split :meth:`read`/:meth:`write` charge
        and the cost model must price (a heterogeneous array's slowest
        disk bounds the whole transfer).
        """
        num_disks = len(self.disks)
        share = nbytes // num_disks
        remainder = nbytes - share * (num_disks - 1)
        return [remainder] + [share] * (num_disks - 1)

    def _chunk_seconds(self, chunks: list[int], num_ios: int, write: bool) -> float:
        """The slowest disk's time for its chunk of one striped transfer."""
        ios = max(1, num_ios // len(self.disks))
        return max(
            ios * disk.io_latency
            + chunk / (disk.write_bandwidth if write else disk.read_bandwidth)
            for disk, chunk in zip(self.disks, chunks)
        )

    def estimate_read_seconds(self, nbytes: int, num_ios: int = 1) -> float:
        """The seconds :meth:`read` would charge — no stats, clock, or
        faults.  Used by the paging cost model (``cr``)."""
        return self._chunk_seconds(self.striped_chunks(nbytes), num_ios, False)

    def estimate_write_seconds(self, nbytes: int, num_ios: int = 1) -> float:
        """The seconds :meth:`write` would charge — no stats, clock, or
        faults.  Used by the paging cost model (``cw``)."""
        return self._chunk_seconds(self.striped_chunks(nbytes), num_ios, True)

    def read(self, nbytes: int, num_ios: int = 1) -> float:
        """Striped read: each disk serves an equal share in parallel."""
        return self._transfer("disk.read", "disk.read", nbytes, num_ios)

    def write(self, nbytes: int, num_ios: int = 1) -> float:
        """Striped write: each disk absorbs an equal share in parallel."""
        return self._transfer("disk.write", "disk.write", nbytes, num_ios)

    def write_many(self, sizes: list[int], num_ios: int = 1) -> float:
        """One coalesced striped write covering several page images.

        The batched victim-flush path uses this to charge an N-page
        write-back of one locality set as a single sequential transfer
        (``num_ios`` operations total, default one) instead of N separate
        :meth:`write` calls — N seeks become one while the bytes moved
        stay identical.
        """
        if any(nbytes < 0 for nbytes in sizes):
            raise ValueError("cannot write a negative number of bytes")
        return self._transfer(
            "disk.write", "disk.write_many", sum(sizes), num_ios, pages=len(sizes)
        )

    def _transfer(
        self, point: str, span: str, nbytes: int, num_ios: int, **args
    ) -> float:
        """Fault hook, per-disk counters, the clock charge, then a trace span
        whose duration is the seconds charged.

        A negative size is rejected before any of them is touched.
        """
        if nbytes < 0:
            raise ValueError(f"{span}: cannot move a negative number of bytes")
        write = point == "disk.write"
        extra = 0.0
        if self.fault_hook is not None:
            extra = self.fault_hook(point, nbytes)
        key = (nbytes, num_ios, write)
        costs = self._transfer_costs.get(key)
        if costs is None:
            chunks = tuple(self.striped_chunks(nbytes))
            costs = (chunks, max(1, num_ios // len(self.disks)),
                     to_ticks(self._chunk_seconds(chunks, num_ios, write)))
            if len(self._transfer_costs) < CHARGE_CACHE_ENTRIES:
                self._transfer_costs[key] = costs
        chunks, ios, ticks = costs
        for disk, chunk in zip(self.disks, chunks):
            if write:
                disk.stats.bytes_written += chunk
                disk.stats.num_writes += ios
            else:
                disk.stats.bytes_read += chunk
                disk.stats.num_reads += ios
        tracer = self.tracer
        start = tracer.now if tracer is not None else 0.0
        if extra:
            ticks = to_ticks(self._chunk_seconds(chunks, num_ios, write) + extra)
        clock = self.disks[0].clock
        if clock is not None:
            clock.advance_ticks(ticks)
        cost = ticks / TICKS_PER_SECOND
        if tracer is not None:
            tracer.span(span, "disk", start, cost,
                        nbytes=nbytes, **args, num_ios=num_ios)
        return cost

    def total_bytes_written(self) -> int:
        return sum(d.stats.bytes_written for d in self.disks)

    def total_bytes_read(self) -> int:
        return sum(d.stats.bytes_read for d in self.disks)

    def reset_stats(self) -> None:
        for disk in self.disks:
            disk.stats.reset()


@dataclass
class CpuProfile:
    """Per-node CPU cost model.

    ``memcpy_bandwidth`` covers raw in-memory moves; ``serialize_bandwidth``
    and ``deserialize_bandwidth`` cover object (de)objectification, the
    "interfacing overhead" the paper blames for much of the layered systems'
    slowdown; ``per_object_overhead`` charges fixed work per record (hashing,
    allocation bookkeeping).

    Charges are quantised to whole clock ticks.  One record of ``nbytes``
    costs the per-object ticks plus the ``memcpy(nbytes)`` ticks, and
    :meth:`records` charges ``count`` times that integer, so a charge for
    ``n`` records equals ``n`` one-record charges in any order or grouping.

    Both tick counts are cached: :meth:`record_ticks` per ``(nbytes,
    workers, factor)`` and :meth:`parallel` (and through it
    :meth:`compute`, :meth:`memcpy`, :meth:`serialize` and
    :meth:`deserialize`) per ``(seconds, workers)``.  Each entry is the
    ``to_ticks`` value the formula gives for its key, so a cached charge
    is exactly the uncached one.  The cost fields are fixed once a profile
    has charged anything.
    """

    cores: int = 8
    memcpy_bandwidth: float = 8 * GB
    serialize_bandwidth: float = 1.2 * GB
    deserialize_bandwidth: float = 1.0 * GB
    per_object_overhead: float = 25e-9
    clock: SimClock | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        #: (nbytes, workers, factor) -> ticks of one record.
        self._record_ticks: dict = {}
        #: (seconds, workers) -> ticks of one :meth:`parallel` charge.
        self._parallel_ticks: dict = {}

    def parallel(self, seconds: float, workers: int = 1) -> float:
        """Charge CPU work shared by ``workers`` threads (capped at cores).

        Only ``float`` seconds are cached: a numpy scalar of another
        precision compares equal to a float yet divides differently.
        """
        cached = type(seconds) is float
        key = (seconds, workers)
        ticks = self._parallel_ticks.get(key) if cached else None
        if ticks is None:
            if seconds < 0:
                raise ValueError("cannot charge negative CPU time")
            effective = max(1, min(workers, self.cores))
            ticks = to_ticks(seconds / effective)
            if cached and len(self._parallel_ticks) < CHARGE_CACHE_ENTRIES:
                self._parallel_ticks[key] = ticks
        if self.clock is not None:
            self.clock.advance_ticks(ticks)
        return ticks / TICKS_PER_SECOND

    def memcpy(self, nbytes: int, workers: int = 1) -> float:
        return self.parallel(nbytes / self.memcpy_bandwidth, workers)

    def serialize(self, nbytes: int, workers: int = 1) -> float:
        return self.parallel(nbytes / self.serialize_bandwidth, workers)

    def deserialize(self, nbytes: int, workers: int = 1) -> float:
        return self.parallel(nbytes / self.deserialize_bandwidth, workers)

    def record_ticks(self, nbytes: int = 0, workers: int = 1, factor: float = 1.0) -> int:
        """Ticks one record of ``nbytes`` costs: its per-object work plus
        the ``memcpy(nbytes)`` ticks (cached per argument triple)."""
        key = (nbytes, workers, factor)
        ticks = self._record_ticks.get(key)
        if ticks is None:
            if nbytes < 0 or factor < 0:
                raise ValueError("cannot charge negative CPU time")
            effective = max(1, min(workers, self.cores))
            ticks = to_ticks(
                self.per_object_overhead * factor / effective
            ) + to_ticks(nbytes / self.memcpy_bandwidth / effective)
            if len(self._record_ticks) < CHARGE_CACHE_ENTRIES:
                self._record_ticks[key] = ticks
        return ticks

    def records(
        self, count: int, nbytes: int = 0, workers: int = 1, factor: float = 1.0
    ) -> float:
        """Charge ``count`` records of ``nbytes`` each (see the class doc)."""
        if count < 0:
            raise ValueError("cannot charge a negative number of records")
        ticks = count * self.record_ticks(nbytes, workers, factor)
        if self.clock is not None:
            self.clock.advance_ticks(ticks)
        return ticks / TICKS_PER_SECOND

    def per_object(self, num_objects: int, workers: int = 1, factor: float = 1.0) -> float:
        """Charge fixed per-record work for ``num_objects`` records."""
        return self.records(num_objects, 0, workers, factor)

    def compute(self, seconds: float, workers: int = 1) -> float:
        """Charge arbitrary computation time (e.g. a UDF over records)."""
        return self.parallel(seconds, workers)
