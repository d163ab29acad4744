"""``PartitionComp.partition_many`` and ``stable_hash``'s inline int hashing.

``partition_many`` routes a whole page of records at once; it must give
exactly what ``partition_of`` gives record by record (and, for
round-robin, leave the cursor where record-at-a-time routing would).
``stable_hash`` hashes an int inside a tuple inline; it must equal the
recursive definition it replaced, kept below as the oracle.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.placement.partitioner import (
    HashPartitioner,
    RangePartitioner,
    RoundRobinPartitioner,
)
from repro.util import stable_hash


def recursive_stable_hash(value):
    """``stable_hash`` as it was defined before ints in tuples were inlined."""
    if isinstance(value, int):
        return value * 0x9E3779B97F4A7C15 & 0xFFFFFFFFFFFFFFFF
    if isinstance(value, tuple):
        acc = 0x345678
        for item in value:
            acc = (acc ^ recursive_stable_hash(item)) * 0x100000001B3 & 0xFFFFFFFFFFFFFFFF
        return acc
    data = value if isinstance(value, bytes) else str(value).encode("utf-8")
    acc = 0xCBF29CE484222325
    for byte in data:
        acc = ((acc ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc


scalars = st.one_of(
    st.integers(),
    st.integers(min_value=-(2 ** 70), max_value=-1),
    st.integers(min_value=2 ** 64, max_value=2 ** 90),
    st.booleans(),
    st.text(max_size=8),
    st.binary(max_size=8),
)
keys = st.recursive(
    scalars, lambda children: st.lists(children, max_size=4).map(tuple), max_leaves=10
)


@given(value=keys)
@settings(max_examples=300, deadline=None)
def test_stable_hash_equals_the_recursive_definition(value):
    assert stable_hash(value) == recursive_stable_hash(value)


@given(records=st.lists(keys, max_size=40), num_partitions=st.integers(1, 64))
@settings(max_examples=200, deadline=None)
def test_hash_partition_many_equals_partition_of(records, num_partitions):
    partitioner = HashPartitioner(lambda record: record, num_partitions)
    assert partitioner.partition_many(records) == [
        partitioner.partition_of(record) for record in records
    ]


@given(
    records=st.lists(st.fixed_dictionaries({"k": keys}), max_size=40),
    num_partitions=st.integers(1, 16),
)
@settings(max_examples=100, deadline=None)
def test_hash_partition_many_applies_the_key_function(records, num_partitions):
    partitioner = HashPartitioner(lambda record: record["k"], num_partitions)
    assert partitioner.partition_many(records) == [
        stable_hash(record["k"]) % num_partitions for record in records
    ]


@given(
    records=st.lists(st.integers(-1000, 1000), max_size=40),
    boundaries=st.lists(st.integers(-1000, 1000), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_range_partition_many_equals_partition_of(records, boundaries):
    partitioner = RangePartitioner(lambda record: record, boundaries)
    assert partitioner.partition_many(records) == [
        partitioner.partition_of(record) for record in records
    ]


@given(
    records=st.lists(st.integers(), max_size=40),
    num_partitions=st.integers(1, 16),
    already_routed=st.integers(0, 50),
)
@settings(max_examples=200, deadline=None)
def test_round_robin_partition_many_advances_the_cursor_alike(
    records, num_partitions, already_routed
):
    batched = RoundRobinPartitioner(num_partitions)
    single = RoundRobinPartitioner(num_partitions)
    for _ in range(already_routed):
        batched.partition_of(None)
        single.partition_of(None)
    assert batched.partition_many(records) == [
        single.partition_of(record) for record in records
    ]
    assert batched._cursor == single._cursor
    assert batched.partition_of(None) == single.partition_of(None)
