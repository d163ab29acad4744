"""Cross-module property-based tests on core invariants."""

import copy

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import FaultInjector, MachineProfile, PangeaCluster
from repro.fs.page_file import page_checksum
from repro.query.batch import BatchStepRunner
from repro.query.pipeline import run_steps
from repro.services.hashsvc import VirtualHashBuffer
from repro.services.sequential import NodeFailedError, ShardWriters
from repro.services.shuffle import ShuffleService
from repro.sim.clock import SimClock
from repro.sim.devices import KB, MB, CpuProfile
from repro.util import estimate_bytes, stable_hash


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

#: Every record type the workloads store in pages: TPC-H rows, k-means
#: points (bare, and with their norm), shuffle pairs, and strings.
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
}


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
    value = page_checksum(records)
    assert value == page_checksum(copy.deepcopy(records))
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
    assert page_checksum(changed) != page_checksum(records)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_page_checksum_sees_a_one_ulp_change_to_any_array_element(data):
    records = data.draw(st.lists(_POINTS, min_size=1, max_size=20))
    before = page_checksum(records)
    point = records[data.draw(st.integers(min_value=0, max_value=len(records) - 1))]
    index = data.draw(st.integers(min_value=0, max_value=point.size - 1))
    point[index] = np.nextafter(point[index], np.inf if point[index] < 0 else -np.inf)
    assert page_checksum(records) != before


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
    assert page_checksum(swapped) != page_checksum(records)


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


def _shuffle_run(partitions, chunk_sizes, nbytes, with_node, batched):
    cluster = PangeaCluster(num_nodes=2, profile=_odd_profile(4 * MB))
    service = ShuffleService(
        cluster, "shuf", num_partitions=3, page_size=64 * KB,
        small_page_size=4 * KB, object_bytes=64,
    )
    node = cluster.nodes[1] if with_node else None
    records = [{"i": i} for i in range(len(partitions))]
    if batched:
        for chunk in _chunks(list(zip(records, partitions)), chunk_sizes):
            service.write_batch(
                0, [r for r, _ in chunk], [p for _, p in chunk],
                worker_node=node, nbytes=nbytes,
            )
    else:
        for record, partition in zip(records, partitions):
            service.buffer_for(0, partition, worker_node=node).add_object(record, nbytes)
    ticks = _ticks(cluster)
    service.finish_writing()
    pages = [
        [list(page.records) for shard in ds.shards.values() for page in shard.pages]
        for ds in service.partition_sets
    ]
    sent = [n.network.stats.bytes_sent for n in cluster.nodes]
    return ticks, _ticks(cluster), pages, sent


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=2), max_size=400),
    st.lists(st.integers(min_value=1, max_value=120), min_size=1, max_size=6),
    st.sampled_from([8, 64, 100, 1000]),
    st.booleans(),
)
def test_write_batch_equals_per_record_add_object(partitions, chunk_sizes, nbytes, with_node):
    """Any chunking of write_batch lands every clock on the per-record
    loop's tick count and fills the same pages with the same records."""
    batched = _shuffle_run(partitions, chunk_sizes, nbytes, with_node, batched=True)
    per_record = _shuffle_run(partitions, chunk_sizes, nbytes, with_node, batched=False)
    assert batched == per_record


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


def _hash_run(keys, chunk_sizes, nbytes, batched):
    cluster = PangeaCluster(num_nodes=2, profile=_odd_profile(1 * MB))
    data = cluster.create_set("h", durability="write-back", page_size=64 * KB)
    buffer = VirtualHashBuffer(data, num_root_partitions=3, combiner=lambda a, b: a + b)
    values = list(range(len(keys)))
    if batched:
        for chunk in _chunks(list(zip(keys, values)), chunk_sizes):
            buffer.insert_many([k for k, _ in chunk], [v for _, v in chunk], nbytes=nbytes)
    else:
        for key, value in zip(keys, values):
            buffer.insert(key, value, nbytes=nbytes)
    ticks = _ticks(cluster)
    stats = copy.copy(buffer.stats)
    pairs = sorted(buffer.items())
    buffer.release()
    return ticks, stats, pairs, _ticks(cluster)


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=600), max_size=1500),
    st.lists(st.integers(min_value=1, max_value=400), min_size=1, max_size=5),
    st.sampled_from([None, 16, 200, 3000]),
)
def test_insert_many_equals_a_loop_of_insert(keys, chunk_sizes, nbytes):
    """Same clocks (in ticks), stats and final pairs, also when pages
    split and spill and the roots live on two nodes."""
    assert _hash_run(keys, chunk_sizes, nbytes, True) == _hash_run(
        keys, chunk_sizes, nbytes, False
    )


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
