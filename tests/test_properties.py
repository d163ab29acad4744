"""Cross-module property-based tests on core invariants."""

import copy
import pickle
import random
from collections import Counter
from functools import partial
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import FaultInjector, MachineProfile, PageCorruptionError, PangeaCluster
from repro.fs.page_file import encode_image, page_checksum
from repro.query.batch import BatchStepRunner
from repro.query.pipeline import run_steps
from repro.services.hashsvc import VirtualHashBuffer
from repro.services.sequential import NodeFailedError, ShardWriters
from repro.services.shuffle import ShuffleService
from repro.sim.clock import SimClock
from repro.sim.devices import KB, MB, CpuProfile
from repro.util import estimate_bytes, stable_hash

from .conftest import flip_bit


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=200), st.integers()),
        max_size=300,
    )
)
def test_hash_buffer_matches_dict_semantics(pairs):
    """The hash service is a dict with a combiner, whatever the pressure."""
    cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB))
    data = cluster.create_set("h", durability="write-back", page_size=256 * 1024)
    buffer = VirtualHashBuffer(data, num_root_partitions=2, combiner=lambda a, b: a + b)
    expected: dict = {}
    for key, value in pairs:
        buffer.insert(key, value, nbytes=60)
        expected[key] = expected.get(key, 0) + value
    assert dict(buffer.items()) == expected


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=100, max_value=1000),
)
def test_scan_preserves_records_under_any_pressure(pages_worth, object_bytes):
    """Write-back data survives eviction/reload for any sizing."""
    cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=1 * MB))
    data = cluster.create_set(
        "s", durability="write-back", page_size=128 * 1024, object_bytes=object_bytes
    )
    count = pages_worth * (128 * 1024 // object_bytes) // 4 + 1
    records = list(range(count))
    data.add_data(records)
    assert sorted(data.scan_records()) == records


@settings(max_examples=20, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1, max_size=200))
def test_paging_never_evicts_pinned_pages(sizes):
    """Whatever the allocation pattern, pinned pages stay resident."""
    cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB))
    data = cluster.create_set("s", durability="write-back", page_size=256 * 1024)
    shard = data.shards[0]
    pinned = [shard.new_page() for _ in range(4)]
    for size in sizes:
        page = shard.new_page()
        page.append(size, 10)
        shard.unpin_page(page)
    assert all(p.in_memory for p in pinned)


@settings(max_examples=50, deadline=None)
@given(st.one_of(st.integers(), st.text(), st.tuples(st.integers(), st.text())))
def test_stable_hash_is_deterministic_and_bounded(value):
    h1, h2 = stable_hash(value), stable_hash(value)
    assert h1 == h2
    assert 0 <= h1 < 2 ** 64


_FLOATS = st.floats(allow_nan=False, width=64)
_POINTS = hnp.arrays(np.float64, st.integers(min_value=1, max_value=8), elements=_FLOATS)
_SIDES = st.integers(min_value=1, max_value=8)
_MATRICES = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=5), elements=_FLOATS
)


def _arrays(dtype, elements=None):
    return hnp.arrays(dtype, _SIDES, elements=elements)


#: Arrays of other dtypes, shapes and memory layouts, which the checksum's
#: array encoding must treat exactly (``>f8`` keeps numpy's own pickle).
_ARRAY_RECORDS = {
    "ndarray-int32": _arrays(np.int32),
    "ndarray-int64": _arrays(np.int64),
    "ndarray-float32": _arrays(np.float32, st.floats(allow_nan=False, width=32)),
    "ndarray-big-endian-f8": _arrays(np.dtype(">f8"), _FLOATS),
    "ndarray-bool": _arrays(np.bool_),
    "ndarray-complex128": _arrays(np.complex128, st.complex_numbers(allow_nan=False)),
    "ndarray-0d": hnp.arrays(np.float64, (), elements=_FLOATS),
    "ndarray-empty": hnp.arrays(np.float64, st.sampled_from([(0,), (0, 3), (2, 0)])),
    "ndarray-2d": _MATRICES,
    "ndarray-row-view": _MATRICES.map(lambda matrix: matrix[len(matrix) // 2]),
    "ndarray-fortran": _MATRICES.map(np.asfortranarray),
    "ndarray-strided": hnp.arrays(
        np.int64, st.integers(min_value=1, max_value=16)
    ).map(lambda array: array[::3]),
}

#: Every record type the workloads store in pages: TPC-H rows, k-means
#: points (bare, and with their norm), shuffle pairs, and strings; plus
#: the arrays above.
STORED_RECORDS = {
    "tpch-row": st.fixed_dictionaries({
        "l_orderkey": st.integers(min_value=1, max_value=6_000_000),
        "l_quantity": st.integers(min_value=1, max_value=50),
        "l_extendedprice": _FLOATS,
        "l_discount": st.sampled_from([0.0, 0.01, 0.05, 0.1]),
        "l_returnflag": st.sampled_from(["R", "A", "N"]),
        "l_shipdate": st.integers(min_value=0, max_value=3000),
        "l_comment": st.text(max_size=20),
    }),
    "ndarray": _POINTS,
    "ndarray-float": st.tuples(_POINTS, _FLOATS),
    "int-pair": st.tuples(st.integers(), st.integers()),
    "str": st.text(max_size=30),
    **_ARRAY_RECORDS,
}


def _checksum(records) -> int:
    return page_checksum(encode_image(records))


def _same(a, b) -> bool:
    """``==`` that compares numpy arrays (and tuples holding them) element-wise."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, np.ndarray):
        return bool(np.array_equal(a, b))
    return a == b


@pytest.mark.parametrize("kind", sorted(STORED_RECORDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_page_checksum_is_deterministic_and_bounded(kind, data):
    records = data.draw(st.lists(STORED_RECORDS[kind], max_size=20))
    value = _checksum(records)
    assert value == _checksum(copy.deepcopy(records))
    assert 0 <= value < 2 ** 64


@pytest.mark.parametrize("kind", sorted(STORED_RECORDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_page_checksum_sees_any_replaced_record(kind, data):
    records = data.draw(st.lists(STORED_RECORDS[kind], min_size=1, max_size=20))
    index = data.draw(st.integers(min_value=0, max_value=len(records) - 1))
    replacement = data.draw(STORED_RECORDS[kind])
    assume(not _same(replacement, records[index]))
    changed = records[:index] + [replacement] + records[index + 1:]
    assert _checksum(changed) != _checksum(records)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_page_checksum_sees_a_one_ulp_change_to_any_array_element(data):
    records = data.draw(st.lists(_POINTS, min_size=1, max_size=20))
    before = _checksum(records)
    point = records[data.draw(st.integers(min_value=0, max_value=len(records) - 1))]
    index = data.draw(st.integers(min_value=0, max_value=point.size - 1))
    point[index] = np.nextafter(point[index], np.inf if point[index] < 0 else -np.inf)
    assert _checksum(records) != before


@pytest.mark.parametrize("kind", sorted(STORED_RECORDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_page_checksum_sees_any_swap(kind, data):
    records = data.draw(st.lists(STORED_RECORDS[kind], min_size=2, max_size=20))
    positions = st.integers(min_value=0, max_value=len(records) - 1)
    i, j = data.draw(st.lists(positions, min_size=2, max_size=2, unique=True))
    assume(not _same(records[i], records[j]))
    swapped = list(records)
    swapped[i], swapped[j] = swapped[j], swapped[i]
    assert _checksum(swapped) != _checksum(records)


#: (dtype, dtype) pairs whose ``view`` reinterprets the same bytes.
_REINTERPRETATIONS = [
    (np.float64, np.int64), (np.int64, np.float64), (np.float32, np.int32),
    (np.bool_, np.uint8), (np.complex128, np.float64),
]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_page_checksum_sees_a_dtype_or_shape_only_change(data):
    """The dtype string and the shape are encoded, not just the bytes."""
    dtype, other = data.draw(st.sampled_from(_REINTERPRETATIONS))
    array = data.draw(hnp.arrays(dtype, _SIDES))
    before = _checksum([array])
    assert _checksum([array.view(other)]) != before
    assert _checksum([array.reshape(1, -1)]) != before
    assert _checksum([array.reshape(-1, 1)]) != before
    if array.size == 1:
        assert _checksum([array.reshape(())]) != before


@settings(max_examples=40, deadline=None)
@given(
    array=st.one_of(
        _MATRICES,
        _MATRICES.map(lambda matrix: matrix[len(matrix) // 2]),
        _MATRICES.map(np.asfortranarray),
        _MATRICES.map(lambda matrix: matrix[::2, ::-1]),
        _MATRICES.map(lambda matrix: matrix.T),
        hnp.arrays(np.int32, st.integers(min_value=1, max_value=16)).map(lambda a: a[1::2]),
    )
)
def test_page_checksum_of_a_view_equals_its_copy(array):
    """Only contents count: layout, strides and a shared base do not."""
    value = _checksum([array])
    assert _checksum([array.copy()]) == value
    assert _checksum([np.asfortranarray(array)]) == value
    assert _checksum([np.ascontiguousarray(array)]) == value


@pytest.mark.parametrize("kind", sorted(STORED_RECORDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_encoded_image_decodes_to_equal_records(kind, data):
    records = data.draw(st.lists(STORED_RECORDS[kind], max_size=10))
    decoded = pickle.loads(encode_image(records))
    assert len(decoded) == len(records)
    for got, want in zip(decoded, records):
        assert _same_exactly(got, want)


@pytest.mark.parametrize("kind", sorted(STORED_RECORDS))
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_any_flipped_bit_of_a_stored_image_is_detected(kind, data):
    """Flipping any one bit of an on-disk page image fails the checked
    read and makes the image read as empty metadata-side."""
    records = data.draw(st.lists(STORED_RECORDS[kind], min_size=1, max_size=10))
    cluster = PangeaCluster(num_nodes=1, profile=MachineProfile.tiny(pool_bytes=4 * MB))
    dataset = cluster.create_set("s", durability="write-back", page_size=256 * KB)
    dataset.add_data(records)
    shard = dataset.shards[0]
    (page,) = shard.pages
    image = encode_image(page.records)
    shard.evict_page(page)
    assert shard.file.image_intact(page.page_id)
    bit = data.draw(st.integers(min_value=0, max_value=8 * len(image) - 1))
    flip_bit(shard.file, page.page_id, bit)
    with pytest.raises(PageCorruptionError):
        shard.file.read_page(page.page_id)
    assert shard.stored_records(page) == []


def _same_exactly(a, b) -> bool:
    """``_same`` that requires arrays to match in dtype, shape and bits."""
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same_exactly, a, b))
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    return a == b


@settings(max_examples=50, deadline=None)
@given(
    st.one_of(
        st.booleans(),
        st.integers(),
        st.floats(allow_nan=False),
        st.text(max_size=50),
        st.binary(max_size=50),
        st.lists(st.integers(), max_size=10),
        st.dictionaries(st.text(max_size=5), st.integers(), max_size=5),
    )
)
def test_estimate_bytes_positive(value):
    assert estimate_bytes(value) >= 1


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=0, max_value=10_000), min_size=5, max_size=100),
)
def test_partitioning_is_exhaustive_and_disjoint(num_nodes, keys):
    """partition_set moves every record exactly once."""
    from repro.placement.partitioner import HashPartitioner, partition_set

    cluster = PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=8 * MB)
    )
    src = cluster.create_set("src", page_size=256 * 1024, object_bytes=50)
    src.add_data([{"k": k, "i": i} for i, k in enumerate(keys)])
    dst = cluster.create_set("dst", page_size=256 * 1024, object_bytes=50)
    partition_set(src, dst, HashPartitioner(lambda r: r["k"], 8, key_name="k"))
    assert sorted(r["i"] for r in dst.scan_records()) == list(range(len(keys)))


@settings(max_examples=10, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=50),
                  st.integers(min_value=1, max_value=5)),
        min_size=1, max_size=150,
    ),
    st.sampled_from(["data-aware", "lru", "mru", "dbmin-1", "dbmin-tuned"]),
)
def test_aggregation_identical_under_every_policy(pairs, policy):
    """Paging policy affects time, never answers."""
    cluster = PangeaCluster(
        num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB), policy=policy
    )
    data = cluster.create_set("h", durability="write-back", page_size=256 * 1024)
    buffer = VirtualHashBuffer(data, num_root_partitions=2, combiner=lambda a, b: a + b)
    expected: dict = {}
    for key, value in pairs:
        buffer.insert(key, value, nbytes=60)
        expected[key] = expected.get(key, 0) + value
    assert dict(buffer.items()) == expected


# ----------------------------------------------------------------------
# Exact simulated time: a batched charge equals its per-record parts.
# ----------------------------------------------------------------------


def _chunks(items: list, sizes: list) -> list:
    """``items`` cut into consecutive slices whose lengths cycle ``sizes``
    (a size of 0 gives an empty slice)."""
    out, start, turn = [], 0, 0
    while start < len(items):
        size = sizes[turn % len(sizes)]
        out.append(items[start:start + size])
        start += size
        turn += 1
    return out


def _ticks(cluster) -> list:
    return [node.clock.ticks for node in cluster.nodes]


def _odd_profile(pool_bytes: int = 64 * MB) -> MachineProfile:
    """A tiny profile whose per-object cost is not a whole number of
    ticks, so charging a float total instead of per-record ticks shows."""
    profile = MachineProfile.tiny(pool_bytes=pool_bytes)
    profile.cpu_per_object_overhead = 25e-9 / 7
    return profile


def _per_record_add(buffer, record, nbytes=None) -> None:
    """The per-record reference write: roll the small page when the record
    does not fit its budget, then one ``Page.append`` and one
    ``records(1, nbytes)`` charge."""
    nbytes = buffer.allocator.shard.dataset.object_bytes if nbytes is None else nbytes
    small = buffer._small
    if small is None or small.budget - small.used < nbytes:
        buffer.close()
        small = buffer._small = buffer.allocator.get_small_page()
        if small.budget < nbytes:
            raise ValueError(f"{nbytes} bytes do not fit this small page")
    small.big.page.append(record, nbytes)
    small.used += nbytes
    (buffer.worker_node or buffer.allocator.shard.node).cpu.records(1, nbytes)


def _spilling_shuffle():
    """Three partitions over two nodes; 8 KB big pages, 2 KB small pages,
    and an 80 KB pool.  Node 0 homes two partitions, each of which can
    hold four big pages pinned (three writers' stale small pages plus the
    allocator's current page), so ten frames never run out of room, but
    a few dozen KB of shuffle output spills."""
    cluster = PangeaCluster(num_nodes=2, profile=_odd_profile(80 * KB))
    service = ShuffleService(
        cluster, "shuf", num_partitions=3, page_size=8 * KB,
        small_page_size=2 * KB, object_bytes=64,
    )
    return cluster, service


def _shuffle_outcome(cluster, service) -> dict:
    return {
        "ticks": _ticks(cluster),
        "sent": [node.network.stats.bytes_sent for node in cluster.nodes],
        "written": [node.disks.total_bytes_written() for node in cluster.nodes],
        "evictions": [node.pool.stats.evictions for node in cluster.nodes],
        # Each page's records as a multiset: writers sharing a big page
        # settle their runs at different moments, so order within a page
        # is not part of the contract.
        "pages": [
            [(page.page_id, page.on_disk, sorted(shard.stored_records(page)))
             for shard in ds.shards.values() for page in shard.pages]
            for ds in service.partition_sets
        ],
    }


def _partition_records(service) -> list:
    """Every partition's stored records, page by page in allocation order."""
    return [
        [record for shard in ds.shards.values() for page in shard.pages
         for record in shard.stored_records(page)]
        for ds in service.partition_sets
    ]


def _workload_shuffle():
    """The e2ebench shuffle-spill shape at small scale: four partitions
    over two nodes, 2 KB small pages that hold about 20 records of the
    default 100 bytes, 8 KB big pages and a 160 KB pool per node.  Each
    node homes two partitions, so at most ten big pages are pinned (four
    writers' stale small pages plus the allocator's current page per
    partition) and a few thousand records spill."""
    cluster = PangeaCluster(num_nodes=2, profile=_odd_profile(160 * KB))
    service = ShuffleService(
        cluster, "shuf", num_partitions=4, page_size=8 * KB,
        small_page_size=2 * KB, object_bytes=100,
    )
    return cluster, service


def _shuffle_run(writes, writer_nodes, staged, make=_spilling_shuffle):
    """Replay ``writes`` — (writer, nbytes, partitions, through write_batch)
    chunks — through the service (``staged``) or the per-record oracle.
    Returns the outcome, each (writer, partition)'s records in write order,
    and each partition's stored records."""
    cluster, service = make()
    written: dict = {}
    seq = 0
    for writer, nbytes, partitions, batched in writes:
        home = writer_nodes[writer]
        node = None if home is None else cluster.nodes[home]
        records = [(writer, seq + i) for i in range(len(partitions))]
        seq += len(partitions)
        for record, partition in zip(records, partitions):
            written.setdefault((writer, partition), []).append(record)
        if staged and batched:
            service.write_batch(writer, records, partitions, worker_node=node, nbytes=nbytes)
            continue
        for record, partition in zip(records, partitions):
            buffer = service.buffer_for(writer, partition, worker_node=node)
            if staged:
                buffer.add_object(record, nbytes)
            else:
                _per_record_add(buffer, record, nbytes)
    service.finish_writing()
    return _shuffle_outcome(cluster, service), written, _partition_records(service)


# (writer, nbytes, partitions, through write_batch) chunks.  A chunk cycles
# a short partition pattern over up to 200 records, so typical examples
# write enough to spill the pool.
_SHUFFLE_WRITES = st.lists(
    st.builds(
        lambda writer, nbytes, count, pattern, batched: (
            writer, nbytes, [pattern[i % len(pattern)] for i in range(count)], batched
        ),
        st.integers(min_value=0, max_value=2),
        st.sampled_from([None, 0, 8, 100, 1000, 2 * KB]),
        st.integers(min_value=1, max_value=200),
        st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=8),
        st.booleans(),
    ),
    max_size=12,
)


@settings(max_examples=50, deadline=None)
@given(_SHUFFLE_WRITES, st.lists(st.sampled_from([None, 0, 1]), min_size=3, max_size=3))
def test_staged_shuffle_writes_match_a_per_record_oracle(writes, writer_nodes):
    """Interleaved writers sharing partitions, mixed record sizes (the
    default included) and local/remote/absent worker nodes, on a pool that
    spills: after ``finish_writing`` the write-combining buffers leave every
    clock tick, network and disk byte, eviction and page's record multiset
    where one append and one charge per record leave them, and each
    (writer, partition)'s records read back in write order."""
    staged, written, stored = _shuffle_run(writes, writer_nodes, staged=True)
    oracle, _, oracle_stored = _shuffle_run(writes, writer_nodes, staged=False)
    assert staged == oracle
    for partition, records in enumerate(stored):
        assert Counter(records) == Counter(oracle_stored[partition])
        for writer in range(3):
            assert [r for r in records if r[0] == writer] == written.get(
                (writer, partition), []
            )


def _workload_writes(seed: int, size_runs: list, batched: bool, per_writer: int = 1000):
    """Four writers taking turns, each turn one run of ``size_runs`` (cycled,
    offset per writer, so sizes change mid-run in every buffer) over random
    partitions, until each writer has written ``per_writer`` records."""
    rng = random.Random(seed)
    writes, left, turn = [], [per_writer] * 4, 0
    while any(left):
        for writer in range(4):
            count, nbytes = size_runs[(turn + writer) % len(size_runs)]
            count = min(count, left[writer])
            left[writer] -= count
            if count:
                partitions = [rng.randrange(4) for _ in range(count)]
                writes.append((writer, nbytes, partitions, batched))
        turn += 1
    return writes


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.lists(st.sampled_from([None, 0, 1]), min_size=4, max_size=4),
    st.lists(
        st.tuples(st.integers(min_value=1, max_value=80),
                  st.sampled_from([None, 96, 100, 128])),
        min_size=1, max_size=6,
    ),
    st.booleans(),
)
def test_workload_shaped_shuffle_writes_match_a_per_record_oracle(
    seed, writer_nodes, size_runs, batched
):
    """4 writers x 4 partitions with about 20 records per small page, local,
    remote and absent worker nodes, and record sizes that change mid-run:
    the staged buffers leave every tick, byte, eviction and page where the
    per-record oracle leaves them, and each (writer, partition)'s records
    read back in write order."""
    writes = _workload_writes(seed, size_runs, batched)
    staged, written, stored = _shuffle_run(writes, writer_nodes, True, _workload_shuffle)
    oracle, _, oracle_stored = _shuffle_run(writes, writer_nodes, False, _workload_shuffle)
    assert staged == oracle
    for partition, records in enumerate(stored):
        assert Counter(records) == Counter(oracle_stored[partition])
        for writer in range(4):
            assert [r for r in records if r[0] == writer] == written.get(
                (writer, partition), []
            )


def test_workload_shaped_shuffle_spills_and_rolls_every_20_records():
    """The workload-shaped case really spills, and a default-size run fills
    a small page with 20 records."""
    writes = _workload_writes(7, [(60, None)], batched=False)
    cluster, service = _workload_shuffle()
    buffer = service.buffer_for(0, 0, worker_node=cluster.nodes[1])
    for i in range(20):
        buffer.add_object(("probe", i))
    first = buffer._small
    buffer.add_object(("probe", 20))
    assert buffer._small is not first and first.closed and first.used == 2000
    staged, _, _ = _shuffle_run(writes, [0, 1, None, 1], True, _workload_shuffle)
    assert sum(staged["evictions"]) > 0


def test_shuffle_oracle_pool_spills():
    """The property's pool really spills: a dense write evicts pages."""
    writes = [(w, 1000, [i % 3 for i in range(60)], w == 1) for w in (0, 1, 2, 0, 1, 2)]
    staged, _, _ = _shuffle_run(writes, [None, 0, 1], staged=True)
    assert sum(staged["evictions"]) > 0
    assert staged == _shuffle_run(writes, [None, 0, 1], staged=False)[0]


def test_oversized_shuffle_record_raises_and_stages_nothing():
    """A record larger than a small page raises where the per-record write
    raises, and leaves nothing staged: the finished shuffle matches the
    oracle's and holds only the records that fit."""
    outcomes = []
    for staged in (True, False):
        cluster, service = _spilling_shuffle()
        buffer = service.buffer_for(0, 1, worker_node=cluster.nodes[0])
        add = buffer.add_object if staged else partial(_per_record_add, buffer)
        for i in range(5):
            add(("fits", i), 100)
        with pytest.raises(ValueError):
            add(("oversized",), 3 * KB)
        for i in range(5, 8):
            add(("fits", i), 100)
        service.finish_writing()
        outcomes.append((_shuffle_outcome(cluster, service), _partition_records(service)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1][1] == [("fits", i) for i in range(8)]


def _writer_run(chunks, dests, page_size, nbytes, durability, crash_at, batched):
    cluster = PangeaCluster(num_nodes=2, profile=_odd_profile(16 * MB))
    if crash_at:
        FaultInjector(seed=0).attach(cluster).schedule_crash(
            "mid-write", node_id=0, at_count=crash_at
        )
    data = cluster.create_set("w", durability=durability, page_size=page_size)
    raised = None
    try:
        with ShardWriters(data, [0, 1]) as writers:
            for chunk, dest in zip(chunks, dests):
                if batched:
                    writers.add_many(dest, chunk, nbytes)
                else:
                    for record in chunk:
                        writers.add_object(dest, record, nbytes)
    except NodeFailedError as exc:
        raised = exc.node_id
    pages = [
        [(p.page_id, list(p.records), p.sealed, p.on_disk) for p in shard.pages]
        for shard in data.shards.values()
    ]
    written = [node.disks.total_bytes_written() for node in cluster.nodes]
    return raised, pages, _ticks(cluster), written


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=300),
    st.lists(st.integers(min_value=0, max_value=90), min_size=1, max_size=6),
    st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=6),
    st.sampled_from([4 * KB, 5 * KB, 64 * KB]),
    st.sampled_from([0, 1, 100, 256, 1000, 4 * KB]),
    st.sampled_from(["write-back", "write-through"]),
    st.integers(min_value=0, max_value=4),
)
def test_add_many_equals_a_loop_of_add_object(
    count, chunk_sizes, dest_cycle, page_size, nbytes, durability, crash_at
):
    """Batches of any size (empty ones included), to either node, land on
    the per-record loop's page ids, page contents, sealed/on-disk flags,
    clock ticks and disk bytes; a crash at the n-th ``mid-write`` on node 0
    raises at the same record in both runs.  4 KB records fit a 4 KB page
    exactly; 256-byte records fit 4 and 64 KB pages exactly."""
    assume(count == 0 or any(chunk_sizes))
    chunks = _chunks(list(range(count)), chunk_sizes)
    dests = [dest_cycle[i % len(dest_cycle)] for i in range(len(chunks))]
    args = (chunks, dests, page_size, nbytes, durability, crash_at)
    assert _writer_run(*args, batched=True) == _writer_run(*args, batched=False)


def test_empty_add_many_allocates_no_page_and_charges_nothing():
    cluster = PangeaCluster(num_nodes=2, profile=_odd_profile())
    data = cluster.create_set("w", durability="write-through", page_size=4 * KB)
    with ShardWriters(data, [0, 1]) as writers:
        writers.add_many(0, [], 100)
        writers.add_many(1, [], 100)
    assert _ticks(cluster) == [0, 0]
    assert all(shard.pages == [] for shard in data.shards.values())


_STEP_MENU = {
    "keep-odd": ("filter", lambda r: r % 2 == 1),
    "keep-small": ("filter", lambda r: r < 500),
    "square": ("map", lambda r: r * r),
    "inc": ("map", lambda r: r + 1),
    "fan": ("flatmap", lambda r: [r] * (r % 3)),
}


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), max_size=3000),
    st.lists(st.sampled_from(sorted(_STEP_MENU)), max_size=4),
    st.lists(st.integers(min_value=1, max_value=2500), min_size=1, max_size=5),
)
def test_batch_step_runner_equals_run_steps_for_any_chunking(records, names, chunk_sizes):
    steps = [_STEP_MENU[name] for name in names]
    profile = _odd_profile()
    legacy = PangeaCluster(num_nodes=1, profile=profile).nodes[0]
    batch = PangeaCluster(num_nodes=1, profile=profile).nodes[0]
    expected = list(run_steps(iter(records), steps, legacy))
    runner = BatchStepRunner(batch, steps)
    out: list = []
    for chunk in _chunks(records, chunk_sizes):
        out.extend(runner.feed(chunk))
    runner.finish()
    assert out == expected
    assert batch.clock.ticks == legacy.clock.ticks


def _record_at_a_time(records, steps) -> list:
    """The per-record reference: each record runs every step before the
    next record starts, and a flatmap's outputs run the rest one by one."""
    out: list = []

    def push(record, index):
        if index == len(steps):
            out.append(record)
            return
        kind, fn = steps[index]
        if kind == "filter":
            if fn(record):
                push(record, index + 1)
        elif kind == "map":
            push(fn(record), index + 1)
        else:
            for item in fn(record):
                push(item, index + 1)

    for record in records:
        push(record, 0)
    return out


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=1000), max_size=3000),
    st.lists(st.sampled_from(sorted(_STEP_MENU)), max_size=4),
    st.lists(st.integers(min_value=0, max_value=2500), min_size=1, max_size=5),
)
def test_batch_step_runner_charges_its_closed_form(records, names, chunk_sizes):
    """Any chunking yields the per-record output and advances the clock by
    exactly ``len(records) * max(1, len(steps))`` ``per_object`` units."""
    assume(any(chunk_sizes))
    steps = [_STEP_MENU[name] for name in names]
    profile = _odd_profile()
    node = PangeaCluster(num_nodes=1, profile=profile).nodes[0]
    reference = PangeaCluster(num_nodes=1, profile=profile).nodes[0]
    reference.cpu.per_object(len(records) * max(1, len(steps)))
    chunks = _chunks(records, chunk_sizes)
    runner = BatchStepRunner(node, steps)
    out: list = []
    with patch("repro.query.pipeline.run_steps", side_effect=AssertionError):
        for chunk in chunks:
            out.extend(runner.feed(chunk))
    runner.finish()
    assert out == _record_at_a_time(records, steps)
    assert node.clock.ticks == reference.clock.ticks
    assert (runner.batches, runner.records_in) == (len(chunks), len(records))


class _CombineFailed(Exception):
    pass


def _hash_run(keys, chunk_sizes, nbytes, batched, failing_combines=()):
    """Write ``keys`` a chunk at a time, batched or one ``insert`` per
    entry; the combiner raises on the given (1-based) calls, which ends
    that chunk either way.  Returns the failures, ticks, stats and pairs."""
    cluster = PangeaCluster(num_nodes=2, profile=_odd_profile(1 * MB))
    data = cluster.create_set("h", durability="write-back", page_size=64 * KB)
    combines = 0

    def combine(a, b):
        nonlocal combines
        combines += 1
        if combines in failing_combines:
            raise _CombineFailed(combines)
        return a + b

    buffer = VirtualHashBuffer(data, num_root_partitions=3, combiner=combine)
    failures = 0
    for chunk in _chunks(list(zip(keys, range(len(keys)))), chunk_sizes):
        try:
            if batched:
                buffer.insert_many([k for k, _ in chunk], [v for _, v in chunk], nbytes=nbytes)
            else:
                for key, value in chunk:
                    buffer.insert(key, value, nbytes=nbytes)
        except _CombineFailed:
            failures += 1
    failing_combines = ()
    ticks = _ticks(cluster)
    stats = copy.copy(buffer.stats)
    pairs = sorted(buffer.items())
    buffer.release()
    return failures, ticks, stats, pairs, _ticks(cluster)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=600), max_size=1500),
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=5),
    st.sampled_from([None, 16, 200, 3000]),
    st.sampled_from([(), (1,), (7, 150)]),
)
def test_insert_many_equals_a_loop_of_insert(keys, chunk_sizes, nbytes, failing):
    """Same clocks (in ticks), stats and final pairs, also when pages
    split and spill, the roots live on two nodes and a combine raises."""
    assert _hash_run(keys, chunk_sizes, nbytes, True, failing) == _hash_run(
        keys, chunk_sizes, nbytes, False, failing
    )


def test_insert_many_equals_a_loop_of_insert_when_a_combine_raises_mid_batch():
    keys = [(i * 7919) % 1000 for i in range(4000)]
    batched = _hash_run(keys, [300], 3000, True, failing_combines={40, 250})
    failures, _ticks, stats, _pairs, _after = batched
    assert failures == 2
    assert stats.splits > 0 and stats.spills > 0 and stats.combines > 0
    assert batched == _hash_run(keys, [300], 3000, False, failing_combines={40, 250})


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=0, max_value=10**6),
    st.sampled_from([1.0, 1.5, 2.0]),
    st.integers(min_value=1, max_value=8),
    st.sampled_from([25e-9, 1e-9 / 3, 7.3e-8]),
    st.integers(min_value=0, max_value=10_000),
)
def test_per_object_charges_add_exactly(a, b, factor, workers, overhead, nbytes):
    """``per_object(a) + per_object(b) == per_object(a + b)`` in clock
    ticks for every worker count up to ``cores``, and likewise for whole
    records of ``nbytes``."""
    apart, whole = SimClock(), SimClock()
    cpu_apart = CpuProfile(cores=8, per_object_overhead=overhead, clock=apart)
    cpu_whole = CpuProfile(cores=8, per_object_overhead=overhead, clock=whole)
    cpu_apart.per_object(a, workers=workers, factor=factor)
    cpu_apart.per_object(b, workers=workers, factor=factor)
    cpu_whole.per_object(a + b, workers=workers, factor=factor)
    assert apart.ticks == whole.ticks
    cpu_apart.records(a, nbytes, workers=workers, factor=factor)
    cpu_apart.records(b, nbytes, workers=workers, factor=factor)
    cpu_whole.records(a + b, nbytes, workers=workers, factor=factor)
    assert apart.ticks == whole.ticks
    one = SimClock()
    cpu_one = CpuProfile(cores=8, per_object_overhead=overhead, clock=one)
    cpu_one.per_object(1, workers=workers, factor=factor)
    cpu_one.memcpy(nbytes, workers=workers)
    assert one.ticks == cpu_one.record_ticks(nbytes, workers, factor)
