"""Multi-threaded producer/consumer tests for the circular buffer and
the sequential read service's shared cursor."""

import random
import threading
import time

import pytest

from repro import MachineProfile, PangeaCluster
from repro.compute.circular import CircularBuffer, PageMeta
from repro.sim.devices import GB, MB

from .harness import run_threads, stress_seeds


def meta(i: int) -> PageMeta:
    return PageMeta(page_id=i, offset=i * 64, size=64, num_objects=1)


def put_retrying(ring: CircularBuffer, item: PageMeta, timeout: float = 30) -> None:
    """Block a producer by retrying the non-blocking ``put`` until the ring
    accepts ``item``; a closed ring raises ``ValueError`` from ``put``."""
    deadline = time.monotonic() + timeout
    while not ring.put(item):
        assert time.monotonic() < deadline, "producer waited too long"
        time.sleep(0)


def get_retrying(ring: CircularBuffer, timeout: float = 30) -> "PageMeta | None":
    """Block a consumer by retrying ``get``; ``None`` once the ring is
    closed and drained."""
    deadline = time.monotonic() + timeout
    while True:
        item = ring.get()
        if item is not None or ring.drained:
            return item
        assert time.monotonic() < deadline, "consumer waited too long"
        time.sleep(0)


@pytest.mark.parametrize("seed", stress_seeds())
def test_blocking_producer_consumers_deliver_exactly_once(seed):
    ring = CircularBuffer(capacity=4)
    total = 200
    consumed: list[int] = []
    consumed_lock = threading.Lock()

    def producer():
        rng = random.Random(seed)
        ids = list(range(total))
        rng.shuffle(ids)
        for i in ids:
            put_retrying(ring, meta(i))
        ring.close()

    def consumer():
        while True:
            item = get_retrying(ring)
            if item is None:
                assert ring.drained
                return
            with consumed_lock:
                consumed.append(item.page_id)

    run_threads([producer, consumer, consumer, consumer, consumer])
    assert sorted(consumed) == list(range(total))
    assert ring.drained and ring.empty


def test_waiting_producer_raises_when_closed_mid_wait():
    ring = CircularBuffer(capacity=1)
    assert ring.put(meta(0))
    failure: list[BaseException] = []

    def blocked_producer():
        try:
            put_retrying(ring, meta(1))
        except ValueError as exc:
            failure.append(exc)

    thread = threading.Thread(target=blocked_producer, daemon=True)
    thread.start()
    # Let the producer wait on the full ring, then close it under them.
    time.sleep(0.05)
    ring.close()
    thread.join(10)
    assert not thread.is_alive()
    assert failure and "closed" in str(failure[0])
    # The waiting put never landed: only the first page is in the ring.
    assert ring.get().page_id == 0
    assert ring.drained


@pytest.mark.parametrize("seed", stress_seeds([5, 77]))
def test_nonblocking_api_stays_consistent_under_threads(seed):
    """Hammer the historical put/get pair from threads; every accepted
    put is matched by exactly one get and counts never go negative."""
    ring = CircularBuffer(capacity=8)
    per_thread = 150
    accepted: list[int] = []
    got: list[int] = []
    lock = threading.Lock()

    def producer(base):
        def run():
            for i in range(per_thread):
                item = meta(base + i)
                while not ring.put(item):
                    pass
                with lock:
                    accepted.append(item.page_id)

        return run

    stop = threading.Event()

    def consumer():
        while not stop.is_set() or not ring.empty:
            item = ring.get()
            if item is not None:
                with lock:
                    got.append(item.page_id)

    consumers = [threading.Thread(target=consumer, daemon=True) for _ in range(2)]
    for thread in consumers:
        thread.start()
    run_threads([producer(0), producer(10_000)])
    stop.set()
    for thread in consumers:
        thread.join(30)
        assert not thread.is_alive()
    assert sorted(got) == sorted(accepted)
    assert 0 <= ring.count <= ring.capacity


@pytest.mark.parametrize("seed", stress_seeds([13, 4711]))
def test_page_iterators_cover_every_page_exactly_once(seed):
    """Real threads each drive one PageIterator off the shared cursor."""
    cluster = PangeaCluster(
        num_nodes=2, profile=MachineProfile.r4_2xlarge(pool_bytes=4 * GB)
    )
    data = cluster.create_set(
        "scan", durability="write-back", page_size=1 * MB, object_bytes=64 * 1024
    )
    data.add_data(list(range(256)))
    iterators = data.get_page_iterators(num_threads=4)
    seen: list[int] = []
    lock = threading.Lock()

    def drive(iterator):
        def run():
            rng = random.Random(seed)
            for page in iterator:
                with lock:
                    seen.append(page.page_id)
                if rng.random() < 0.2:
                    # A slow worker: the cursor must not skip or dup pages
                    # while this thread lags.
                    threading.Event().wait(0.001)

        return run

    run_threads([drive(it) for it in iterators])
    expected = sorted(
        page.page_id for shard in data.shards.values() for page in shard.pages
    )
    assert sorted(seen) == expected
    for shard in data.shards.values():
        for page in shard.pages:
            assert not page.pinned
    # The read service detached exactly once.
    assert data.active_readers == 0
