"""Deterministic seeded-scheduler interleavings of the page state machine.

No real threads here: operations are generators that yield at every
possible preemption point, and :class:`SeededInterleaver` replays them in
a seeded pseudo-random order with the invariant checker running after
every single step.  Same seed → same interleaving → same eviction trace,
which the determinism test asserts explicitly.
"""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.buffer.pool import BufferPoolFullError
from repro.sim.devices import MB

from .harness import SeededInterleaver, check_invariants, stress_seeds

PAGE = 256 * 1024


def make_node():
    cluster = PangeaCluster(
        num_nodes=1, profile=MachineProfile.tiny(pool_bytes=2 * MB)
    )
    cluster.enable_tracing()
    return cluster, cluster.nodes[0]


def writer_op(shard, count):
    """Create, fill, seal, unpin ``count`` pages, yielding between steps."""
    for i in range(count):
        yield
        try:
            page = shard.new_page(pin=True)
        except BufferPoolFullError:
            continue
        yield
        page.append(i, 64)
        shard.seal_page(page)
        yield
        shard.unpin_page(page)


def reader_op(shard, rounds):
    """Re-pin whatever pages exist, yielding around each transition."""
    for _ in range(rounds):
        yield
        for page in list(shard.pages):
            yield
            try:
                shard.pin_page(page)
            except BufferPoolFullError:
                continue
            yield
            shard.unpin_page(page)


def dropper_op(shard, rounds):
    for _ in range(rounds):
        yield
        unpinned = [p for p in shard.pages if not p.pinned]
        if unpinned:
            shard.drop_page(unpinned[0])


@pytest.mark.parametrize("seed", stress_seeds())
def test_interleaved_lifecycle_keeps_invariants(seed):
    cluster, node = make_node()
    sets = [
        cluster.create_set(f"s{i}", durability="write-back", page_size=PAGE)
        for i in range(3)
    ]
    shards = [s.shards[0] for s in sets]
    interleaver = SeededInterleaver(seed)
    interleaver.on_step = lambda: check_invariants(node)
    interleaver.run(
        [
            writer_op(shards[0], 10),
            writer_op(shards[1], 10),
            reader_op(shards[0], 3),
            reader_op(shards[2], 3),
            writer_op(shards[2], 6),
            dropper_op(shards[1], 4),
        ]
    )
    assert interleaver.steps_taken > 0
    check_invariants(node)


@pytest.mark.parametrize("seed", stress_seeds([11, 303]))
def test_same_seed_reproduces_same_eviction_trace(seed):
    def run_once():
        cluster, node = make_node()
        data = cluster.create_set("d", durability="write-back", page_size=PAGE)
        shard = data.shards[0]
        interleaver = SeededInterleaver(seed)
        interleaver.run(
            [writer_op(shard, 12), reader_op(shard, 2), writer_op(shard, 12)]
        )
        return [
            (e.args["set"], e.args["page_id"], e.args["was_dirty"],
             e.args["flushed"])
            for e in cluster.tracer.events
            if e.name == "shard.evict"
        ]

    first = run_once()
    assert first, "the interleaving evicted nothing"
    assert first == run_once()


def test_different_seeds_reach_different_interleavings():
    """Sanity: the scheduler shim really varies the order with the seed."""
    orders = set()
    for seed in stress_seeds():
        interleaver = SeededInterleaver(seed)
        trace = []

        def op(tag, steps=6, trace=trace):
            for i in range(steps):
                trace.append((tag, i))
                yield

        interleaver.run([op("a"), op("b"), op("c")])
        orders.add(tuple(trace))
    assert len(orders) > 1
