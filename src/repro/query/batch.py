"""Batch-at-a-time kernels for the query data plane.

The query scheduler processes records in chunks instead of one Python
object at a time.  Every kernel in this module charges the simulated
costs of a record-at-a-time loop against the same per-node clocks.
Per-record charges are whole clock ticks, so a chunk's charge equals the
sum of its records' charges and batching changes only wall-clock speed.
``tests/test_query_golden.py`` checks the whole engine against pinned
results, and the kernel tests pin ``BatchStepRunner`` in closed form
(see its docstring) against a per-record reference.

The batched kernels assume the step/key/merge functions are pure (the
same assumption the cost model already makes): a batch applies one step
to every record before the next step, where a record loop finishes one
record before starting the next.  Both orders yield the same output
sequence because every step is element-wise and order-preserving.
"""

from __future__ import annotations

import typing

from repro.util import stable_hash

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.cluster.node import WorkerNode
    from repro.query.operators import JoinNode

#: Default chunk size for re-batching materialized record lists.  Any size
#: charges the same simulated time, so this only tunes Python call
#: overhead against peak list sizes.
DEFAULT_BATCH_SIZE = 4096


def iter_chunks(records: list, size: int = DEFAULT_BATCH_SIZE):
    """Yield ``records`` in order as slices of at most ``size``."""
    if size < 1:
        raise ValueError("batch size must be positive")
    for start in range(0, len(records), size):
        yield records[start:start + size]


class RecordBatch:
    """One chunk of records with lazily cached key/hash columns.

    The key column is cached per key-function identity, so repeated
    kernel calls over the same batch (partitioning, then grouping)
    evaluate ``key_fn`` once per record.
    """

    __slots__ = ("records", "_key_fn", "_keys", "_hashes")

    def __init__(self, records: list) -> None:
        self.records = records
        self._key_fn = None
        self._keys: "list | None" = None
        self._hashes: "list[int] | None" = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def keys(self, key_fn) -> list:
        """The key column ``[key_fn(r) for r in records]``, cached."""
        if self._keys is None or self._key_fn is not key_fn:
            self._key_fn = key_fn
            self._keys = [key_fn(record) for record in self.records]
            self._hashes = None
        return self._keys

    def hashes(self, key_fn) -> "list[int]":
        """The ``stable_hash`` column over :meth:`keys`, cached."""
        keys = self.keys(key_fn)
        if self._hashes is None:
            self._hashes = [stable_hash(key) for key in keys]
        return self._hashes

    def partitions(self, key_fn, num_partitions: int) -> "list[int]":
        """Destination partition per record (``hash % num_partitions``)."""
        return [h % num_partitions for h in self.hashes(key_fn)]


class BatchStepRunner:
    """Vectorized filter/map/flatmap, charged in closed form.

    Every input record costs ``max(1, len(steps))`` ``per_object`` units,
    whatever the steps keep or emit.  Per-object charges are whole ticks
    per unit, so charging each fed chunk's units directly advances the
    node clock by exactly ``per_object(records * max(1, len(steps)))`` for
    any chunking of the same record stream, and the output is the
    record-at-a-time one.
    """

    def __init__(self, node: "WorkerNode", steps: list) -> None:
        self.node = node
        self.steps = steps
        self._units = max(1, len(steps))
        self._finished = False
        #: Batch counters for SchedulerMetrics (read by the scheduler).
        self.batches = 0
        self.records_in = 0

    def feed(self, records: list) -> list:
        """Run one chunk through the steps; returns the surviving records.

        The input is never mutated: with no steps it is returned as-is
        (callers own their chunks), otherwise a fresh list is built per
        step.
        """
        if self._finished:
            raise RuntimeError("runner already finished")
        self.batches += 1
        self.records_in += len(records)
        data = records
        for kind, fn in self.steps:
            if not data:
                break
            if kind == "filter":
                data = list(filter(fn, data))
            elif kind == "map":
                data = list(map(fn, data))
            else:  # flatmap
                out: list = []
                extend = out.extend
                for record in data:
                    extend(fn(record))
                data = out
        self.node.cpu.per_object(len(records) * self._units)
        return data

    def finish(self) -> None:
        """End the stream; :meth:`feed` raises afterwards."""
        self._finished = True


def build_hash_table(records, key_fn) -> dict:
    """Pure build-side table ``{key: [records...]}`` (no cost charges)."""
    table: dict = {}
    get = table.get
    for record in records:
        key = key_fn(record)
        bucket = get(key)
        if bucket is None:
            table[key] = [record]
        else:
            bucket.append(record)
    return table


def build_batch(records, key_fn, node: "WorkerNode") -> dict:
    """Batched hash-join build: one ``per_object(n, factor=1.5)`` charge
    for the whole build side."""
    table = build_hash_table(records, key_fn)
    node.cpu.per_object(len(records), factor=1.5)
    return table


def probe_batch(join: "JoinNode", left_records, table: dict, node: "WorkerNode") -> list:
    """Batched hash-join probe for inner/left_semi/left_anti/left_outer.

    Emits matches in probe order (every strategy's output order), then
    charges one ``per_object(count, factor=2.0)`` call for the probe side.
    """
    get = table.get
    left_key = join.left_key
    merge = join.merge
    how = join.how
    if how == "inner":
        out = [
            merge(record, match)
            for record in left_records
            for match in get(left_key(record)) or ()
        ]
    elif how == "left_semi":
        out = [record for record in left_records if get(left_key(record))]
    elif how == "left_anti":
        out = [record for record in left_records if not get(left_key(record))]
    else:  # left_outer
        out = []
        extend = out.extend
        append = out.append
        for record in left_records:
            matches = get(left_key(record))
            if matches:
                extend(merge(record, match) for match in matches)
            else:
                append(merge(record, None))
    node.cpu.per_object(len(left_records), factor=2.0)
    return out
