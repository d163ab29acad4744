"""Golden charging of the hash service and page eviction under spill.

``tests/golden/storage_writes.json`` holds, for every case in
:data:`CASES`, what one storage-write workload did to a two-node cluster
with two disks per node and a 1 MB pool of 64 KB pages:

* every node's simulated clock in ticks (exact),
* per-disk ``bytes_written``/``bytes_read``/``num_writes``/``num_reads``,
* per-node pool ``placements``/``evictions``/``pageouts``/``pageins``,
* every :class:`~repro.services.hashsvc.HashServiceStats` field and a
  SHA-1 of the sorted final items (hash cases),
* the :class:`~repro.core.locality_set.EvictResult` of every direct
  eviction (eviction cases), and
* the fault injector's counters (fault cases).

The hash cases drive a write-back hash set through ``insert``, ``set``,
``insert_many`` without and with ``nbytes``, and ``finalize`` with spilled
partials.  The eviction cases evict dirty, clean and dead pages of a
write-back set one at a time, in batches, and through pool pressure.

To re-baseline after a deliberate change to simulated time, run
``PYTHONPATH=src python tests/test_storage_write_golden.py`` and say why in
the change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from pathlib import Path

import pytest

from repro import MachineProfile, PangeaCluster
from repro.services.hashsvc import VirtualHashBuffer
from repro.sim.devices import KB, MB
from repro.sim.faults import FaultConfig, FaultInjector

GOLDEN = Path(__file__).parent / "golden" / "storage_writes.json"

PAGE = 64 * KB
#: 16 pages per node, so the hash set spills while ballast pages are pinned.
POOL = 1 * MB

DISK_FAULTS = FaultConfig(
    disk_read_error_rate=0.2,
    disk_write_error_rate=0.3,
    disk_latency_spike_rate=0.2,
)


def make_cluster():
    return PangeaCluster(
        num_nodes=2, profile=MachineProfile.tiny(pool_bytes=POOL, num_disks=2)
    )


def hash_workload(cluster):
    """Every hash write entry point, spilling while ballast holds the pool."""
    data = cluster.create_set("agg", durability="write-back", page_size=PAGE)
    buffer = VirtualHashBuffer(data, num_root_partitions=4, combiner=lambda a, b: a + b)
    ballast = cluster.create_set("ballast", durability="write-back", page_size=PAGE)
    pinned = [
        ballast.shards[node_id].new_page(pin=True)
        for node_id in sorted(ballast.shards)
        for _ in range(6)
    ]
    for key in range(150):
        buffer.insert(key, 1)
    for key in range(0, 150, 3):
        buffer.set(key, 5, nbytes=200)
    buffer.insert_many(list(range(100, 400)), [2] * 300)
    buffer.insert_many([k % 900 for k in range(1800)], [3] * 1800, nbytes=600)
    for key in range(880, 960):
        buffer.insert(key, 7, nbytes=600)
    spilled = buffer.stats.spills
    # Free the ballast (dirty, so evicting it writes it back) for finalize.
    for page in pinned:
        page.records = ["ballast"]
        page.dirty = True
        page.shard.unpin_page(page)
    buffer.finalize()
    items = sorted(buffer.items(), key=repr)
    return {
        "spilled_before_finalize": spilled,
        "stats": dataclasses.asdict(buffer.stats),
        "len": len(buffer),
        "items_sha1": hashlib.sha1(repr(items).encode()).hexdigest(),
    }


def evict_workload(cluster):
    """Dirty, clean and dead pages evicted singly, in batches and by pressure."""
    data = cluster.create_set(
        "wb", durability="write-back", page_size=PAGE, object_bytes=1 * KB
    )
    data.add_data(list(range(900)))
    results = []

    def record(shard_results):
        results.append([[r.freed, r.flushed] for r in shard_results])

    for node_id in sorted(data.shards):
        shard = data.shards[node_id]
        pages = shard.pages
        record([shard.evict_page(pages[0])])
        record([shard.evict_page(pages[1])])
        record(shard.evict_pages(pages[2:5]))
        # Page back in: pages[0] stays clean, pages[2] is dirtied again
        # but keeps its on-disk image, so neither is flushed.
        for page in (pages[0], pages[2]):
            shard.pin_page(page)
            shard.unpin_page(page)
        pages[2].dirty = True
        record(shard.evict_pages([pages[0], pages[2], pages[5]]))
        record([shard.evict_page(pages[6])])
        record(shard.evict_pages([]))
    # Pool pressure: a second write-back set evicts through make_room.
    other = cluster.create_set(
        "other", durability="write-back", page_size=PAGE, object_bytes=1 * KB
    )
    other.add_data(list(range(2400)))
    # A dead set's dirty pages are dropped, not flushed.
    other.end_lifetime()
    for node_id in sorted(other.shards):
        shard = other.shards[node_id]
        resident = [p for p in shard.pages if p.in_memory and not p.pinned]
        record([shard.evict_page(resident[0])])
        record(shard.evict_pages(resident[1:4]))
    return {"evictions": results}


@dataclasses.dataclass(frozen=True)
class Case:
    run: typing.Callable
    faults: "FaultConfig | None" = None
    seed: int = 0


CASES = {
    "hash_spill": Case(run=hash_workload),
    "hash_spill_disk_faults": Case(run=hash_workload, faults=DISK_FAULTS, seed=11),
    "evict": Case(run=evict_workload),
    "evict_disk_faults": Case(run=evict_workload, faults=DISK_FAULTS, seed=5),
}


def run_case(case: Case) -> dict:
    cluster = make_cluster()
    injector = None
    if case.faults is not None:
        injector = FaultInjector(seed=case.seed, config=case.faults).attach(cluster)
    report = case.run(cluster)
    nodes = cluster.nodes
    observed = {
        "clock_ticks": [node.clock.ticks for node in nodes],
        "disks": [
            [
                [d.stats.bytes_written, d.stats.bytes_read,
                 d.stats.num_writes, d.stats.num_reads]
                for d in node.disks.disks
            ]
            for node in nodes
        ],
        "pool": [
            [node.pool.stats.placements, node.pool.stats.evictions,
             node.pool.stats.pageouts, node.pool.stats.pageins]
            for node in nodes
        ],
        "report": report,
        "faults": None if injector is None else injector.stats.as_dict(),
    }
    return json.loads(json.dumps(observed))


def capture_all() -> dict:
    return {name: run_case(case) for name, case in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_case_matches_golden(golden, name):
    assert run_case(CASES[name]) == golden[name]


def test_cases_spill_flush_and_fault(golden):
    # The fixture pins the write paths only if they really ran: the hash
    # set spilled and re-read partials, evictions flushed dirty pages, and
    # the fault cases drew disk-write faults.
    for name in ("hash_spill", "hash_spill_disk_faults"):
        report = golden[name]["report"]
        assert report["spilled_before_finalize"] > 0, name
        assert report["stats"]["reloads"] > 0, name
    for name, observed in golden.items():
        assert all(pageouts > 0 for _p, _e, pageouts, _i in observed["pool"]), name
    for name in ("hash_spill_disk_faults", "evict_disk_faults"):
        assert golden[name]["faults"]["disk_write_faults"] > 0, name
    flushed = [f for batch in golden["evict"]["report"]["evictions"] for _n, f in batch]
    assert True in flushed and False in flushed


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
