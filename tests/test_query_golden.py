"""Golden results of the query engine, pinned as data.

``tests/golden/query_engine.json`` was captured from the record-at-a-time
engine, ``QueryScheduler(vectorized=False)``, which the scheduler kept as
its oracle and fault fallback until the batch engine became its only
engine.  Every case in :data:`CASES` ran on that engine at its last
commit; each now runs on the batch engine and must reproduce the capture
exactly:

* the result row count and a SHA-256 digest of the rows' ``repr``,
* every node's simulated clock as ``float.hex`` (exact float equality),
* per-node network bytes sent and disk bytes read/written,
* the SchedulerMetrics strategy decisions,
* the injector's FaultStats, and
* the type of the exception a query raised (the crash cases).

Under an enabled fault injector the stage executor runs nodes serially in
node order, and the batch kernels replay their charges in record order,
so the shared fault RNG is drawn in the record engine's global event
order: the fault-seed and crash cases match the capture bit for bit too.

To re-baseline after a deliberate change to simulated time, run
``PYTHONPATH=src python tests/test_query_golden.py`` and say why in the
change.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import typing
from pathlib import Path

import pytest

from repro import MachineProfile, PangeaCluster
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.replication import register_replica
from repro.query.operators import ScanNode
from repro.query.scheduler import QueryScheduler
from repro.sim.devices import GB, KB, MB
from repro.sim.faults import FaultConfig, FaultInjector

GOLDEN = Path(__file__).parent / "golden" / "query_engine.json"

RATE_FAULTS = FaultConfig(
    disk_write_error_rate=0.02,
    disk_latency_spike_rate=0.05,
    net_slow_rate=0.05,
)


def make_cluster(num_nodes=3, page_size=1 * MB):
    cluster = PangeaCluster(
        num_nodes=num_nodes, profile=MachineProfile.tiny(pool_bytes=64 * MB)
    )
    orders = cluster.create_set("orders", page_size=page_size, object_bytes=64)
    items = cluster.create_set("items", page_size=page_size, object_bytes=64)
    orders.add_data([{"o_id": i, "cust": i % 7} for i in range(300)])
    items.add_data(
        [{"i_id": i, "i_order": i % 300, "qty": i % 5 + 1} for i in range(1200)]
    )
    return cluster


def make_small_page_cluster():
    """Several 4 KB pages per shard, so scans pin and read many pages."""
    return make_cluster(page_size=4 * KB)


def make_tpch_cluster():
    from repro.tpch import load_tpch, register_tpch_replicas

    cluster = PangeaCluster(num_nodes=4, profile=MachineProfile.tiny(pool_bytes=1 * GB))
    load_tpch(cluster, scale=0.002, page_size=4 * MB)
    register_tpch_replicas(cluster)
    return cluster


def add_replicas(cluster):
    orders, items = cluster.get_set("orders"), cluster.get_set("items")
    o_rep = cluster.create_set("orders_by_id", page_size=1 * MB, object_bytes=64)
    partition_set(
        orders, o_rep, HashPartitioner(lambda r: r["o_id"], 12, key_name="o_id")
    )
    i_rep = cluster.create_set("items_by_order", page_size=1 * MB, object_bytes=64)
    partition_set(
        items, i_rep, HashPartitioner(lambda r: r["i_order"], 12, key_name="i_order")
    )
    register_replica(orders, o_rep, object_id_fn=lambda r: r["o_id"])
    register_replica(items, i_rep, object_id_fn=lambda r: r["i_id"])


def spill_inputs(cluster):
    """Evict every input page, so the query reads each one back from disk."""
    for name in ("orders", "items"):
        for shard in cluster.get_set(name).shards.values():
            for page in shard.resident_unpinned_pages():
                shard.evict_page(page)


def join_plan(how="inner", key_names=True):
    return ScanNode("items").join(
        ScanNode("orders"),
        left_key=lambda r: r["i_order"],
        right_key=lambda r: r["o_id"],
        merge=lambda l, r: {**l, **(r or {"o_id": None, "cust": None})},
        left_key_name="i_order" if key_names else None,
        right_key_name="o_id" if key_names else None,
        how=how,
    )


def agg_plan(child):
    return child.aggregate(
        key_fn=lambda r: r["i_order"] % 16,
        seed_fn=lambda r: r["qty"],
        merge_fn=lambda a, b: a + b,
        final_fn=lambda k, acc: {"bucket": k, "qty": acc},
    )


@dataclasses.dataclass(frozen=True)
class Case:
    """One query run: cluster, optional setup and faults, and the query."""

    #: ``scheduler -> rows``.
    run: typing.Callable
    cluster: typing.Callable = make_cluster
    setup: "typing.Callable | None" = None
    broadcast_threshold: int = 64 * MB
    object_bytes: int = 64
    #: Attach a FaultInjector with this config (or with a crash schedule).
    faults: "FaultConfig | None" = None
    seed: int = 0
    #: ``(point, node_id, at_count)`` for ``schedule_crash``.
    crash: "tuple | None" = None
    self_healing: bool = False


def plan_case(plan_fn, **kw) -> Case:
    return Case(run=lambda scheduler: scheduler.execute(plan_fn()), **kw)


def tpch_case(query: str) -> Case:
    from repro.tpch import QUERIES

    return Case(
        run=lambda scheduler: QUERIES[query](scheduler),
        cluster=make_tpch_cluster,
        broadcast_threshold=512 * MB,
        object_bytes=144,
    )


def crash_case(point, node_id, at_count, self_healing) -> Case:
    # No key names: the join cannot use the replicas, so it scans the
    # replicated base sets and shuffles both sides.
    return plan_case(
        lambda: agg_plan(join_plan(key_names=False)),
        setup=add_replicas,
        broadcast_threshold=0,
        crash=(point, node_id, at_count),
        self_healing=self_healing,
    )


CASES = {
    "plain_scan": plan_case(lambda: ScanNode("orders")),
    "filter_map_pipeline": plan_case(
        lambda: ScanNode("items")
        .filter(lambda r: r["qty"] > 2)
        .map(lambda r: {**r, "double": r["qty"] * 2})
    ),
    "flatmap_fanout": plan_case(
        lambda: ScanNode("orders").flat_map(
            lambda r: [{"o_id": r["o_id"], "copy": c} for c in range(3)]
        )
    ),
    "filter_everything_out": plan_case(lambda: ScanNode("orders").filter(lambda r: False)),
    "copartitioned_join": plan_case(join_plan, setup=add_replicas),
    "broadcast_join": plan_case(join_plan),
    "repartition_join": plan_case(join_plan, broadcast_threshold=0),
    **{
        f"join_{how}": plan_case(lambda how=how: join_plan(how), broadcast_threshold=0)
        for how in ("left_semi", "left_anti", "left_outer")
    },
    "join_with_trailing_steps": plan_case(
        lambda: join_plan()
        .filter(lambda r: r["cust"] == 1)
        .map(lambda r: {"i_id": r["i_id"], "cust": r["cust"]})
    ),
    "aggregate_over_scan": plan_case(lambda: agg_plan(ScanNode("items"))),
    "aggregate_over_repartition_join": plan_case(
        lambda: agg_plan(join_plan()), broadcast_threshold=0
    ),
    "orderby": plan_case(
        lambda: ScanNode("orders").order_by(lambda r: (r["cust"], r["o_id"]))
    ),
    "limit": plan_case(lambda: ScanNode("items").limit(17)),
    **{
        f"rate_faults_seed{seed}": plan_case(
            join_plan, broadcast_threshold=0, faults=RATE_FAULTS, seed=seed
        )
        for seed in (3, 11, 1234)
    },
    "disk_read_faults": plan_case(
        lambda: agg_plan(join_plan()),
        cluster=make_small_page_cluster,
        setup=spill_inputs,
        broadcast_threshold=0,
        faults=FaultConfig(disk_read_error_rate=0.2, disk_latency_spike_rate=0.05),
        seed=5,
    ),
    "net_drop_faults": plan_case(
        lambda: agg_plan(join_plan()),
        broadcast_threshold=0,
        faults=FaultConfig(net_drop_rate=0.1, net_slow_rate=0.05),
        seed=9,
    ),
    **{
        f"{point}_crash{'_self_healing' if healing else ''}": crash_case(
            point, node_id, at_count, healing
        )
        for point, node_id, at_count in (("mid-scan", 2, 2), ("mid-shuffle", 1, 3))
        for healing in (False, True)
    },
    **{f"tpch_{query}": tpch_case(query) for query in ("Q01", "Q04", "Q12", "Q14")},
}


def run_case(case: Case) -> tuple:
    """Run one case; returns ``(observation, scheduler, rows)``."""
    cluster = case.cluster()
    if case.setup is not None:
        case.setup(cluster)
    if case.self_healing:
        cluster.enable_self_healing()
    injector = None
    if case.faults is not None or case.crash is not None:
        injector = FaultInjector(seed=case.seed, config=case.faults).attach(cluster)
        if case.crash is not None:
            injector.schedule_crash(*case.crash)
    scheduler = QueryScheduler(
        cluster,
        broadcast_threshold=case.broadcast_threshold,
        object_bytes=case.object_bytes,
    )
    rows, error = None, None
    try:
        rows = case.run(scheduler)
    except Exception as exc:  # noqa: BLE001 - the type is part of the capture
        error = type(exc).__name__
    observed = {
        "rows": None if rows is None else len(rows),
        "rows_sha256": (
            None if rows is None else hashlib.sha256(repr(rows).encode()).hexdigest()
        ),
        "clocks": [node.clock.now.hex() for node in cluster.nodes],
        "net_bytes_sent": [node.network.stats.bytes_sent for node in cluster.nodes],
        "disk_bytes": [
            [node.disks.total_bytes_read(), node.disks.total_bytes_written()]
            for node in cluster.nodes
        ],
        "decisions": scheduler.metrics.decision_counters(),
        "faults": None if injector is None else injector.stats.as_dict(),
        "error": error,
    }
    return observed, scheduler, rows


def capture_all() -> dict:
    return {name: run_case(case)[0] for name, case in CASES.items()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def assert_golden(golden: dict, name: str) -> dict:
    observed, scheduler, _rows = run_case(CASES[name])
    assert observed == golden[name]
    if CASES[name].crash is None:
        assert scheduler.metrics.batches_processed > 0
        assert scheduler.metrics.stages_run > 0
    return observed


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


class TestScansAndPipelines:
    def test_plain_scan(self, golden):
        assert_golden(golden, "plain_scan")

    def test_filter_map_pipeline(self, golden):
        assert_golden(golden, "filter_map_pipeline")

    def test_flatmap_fanout(self, golden):
        assert_golden(golden, "flatmap_fanout")

    def test_filter_everything_out(self, golden):
        assert_golden(golden, "filter_everything_out")


class TestJoins:
    def test_copartitioned_join(self, golden):
        observed = assert_golden(golden, "copartitioned_join")
        assert observed["decisions"]["copartitioned_joins"] == 1

    def test_broadcast_join(self, golden):
        observed = assert_golden(golden, "broadcast_join")
        assert observed["decisions"]["broadcast_joins"] == 1

    def test_repartition_join(self, golden):
        observed = assert_golden(golden, "repartition_join")
        assert observed["decisions"]["repartition_joins"] == 1

    @pytest.mark.parametrize("how", ["left_semi", "left_anti", "left_outer"])
    def test_join_semantics(self, golden, how):
        assert_golden(golden, f"join_{how}")

    def test_join_with_trailing_steps(self, golden):
        assert_golden(golden, "join_with_trailing_steps")


class TestAggregationOrderLimit:
    def test_aggregate_over_scan(self, golden):
        observed = assert_golden(golden, "aggregate_over_scan")
        assert observed["decisions"]["local_agg_stages"] == 1

    def test_aggregate_over_repartition_join(self, golden):
        assert_golden(golden, "aggregate_over_repartition_join")

    def test_orderby(self, golden):
        assert_golden(golden, "orderby")

    def test_limit(self, golden):
        assert_golden(golden, "limit")

    def test_limit_charges_driver_transfers(self):
        # Limit ships every child record to the driver before the cutoff,
        # and pays the same transfers order_by pays for that movement.
        limit, _, _ = run_case(plan_case(lambda: ScanNode("items").limit(17)))
        order, _, _ = run_case(
            plan_case(lambda: ScanNode("items").order_by(lambda r: r["i_id"]))
        )
        assert limit["net_bytes_sent"][1:] == order["net_bytes_sent"][1:]
        assert sum(limit["net_bytes_sent"]) > 0


class TestFaultInjectionSeeds:
    """Seeded rate faults: the batch engine replays the captured schedule."""

    @pytest.mark.parametrize("seed", [3, 11, 1234])
    def test_rate_faults_identical(self, golden, seed):
        assert_golden(golden, f"rate_faults_seed{seed}")

    def test_disk_read_faults(self, golden):
        observed = assert_golden(golden, "disk_read_faults")
        assert observed["faults"]["disk_read_faults"] > 0
        assert observed["error"] is None

    def test_net_drop_faults(self, golden):
        observed = assert_golden(golden, "net_drop_faults")
        assert observed["faults"]["net_drops"] > 0
        assert observed["error"] is None

    def test_engine_runs_under_faults_and_replays(self):
        case = CASES["aggregate_over_repartition_join"]
        case = dataclasses.replace(case, faults=RATE_FAULTS, seed=7)
        first, scheduler, rows = run_case(case)
        assert scheduler.metrics.batches_processed > 0
        assert scheduler.metrics.stages_run > 0
        assert scheduler.metrics.parallel_stages == 0
        second, _, rows_again = run_case(case)
        assert first == second
        assert rows == rows_again


class TestScheduledCrashes:
    """A node crashes at a named point while the query runs."""

    @pytest.mark.parametrize("healing", [False, True], ids=["plain", "self_healing"])
    @pytest.mark.parametrize("point", ["mid-scan", "mid-shuffle"])
    def test_crash(self, golden, point, healing):
        name = f"{point}_crash{'_self_healing' if healing else ''}"
        observed = assert_golden(golden, name)
        assert observed["faults"]["crashes"] == 1


class TestTpchShapedPlans:
    """Replica-served and shuffle TPC-H queries on a tiny generated scale."""

    @pytest.mark.parametrize("query", ["Q01", "Q04", "Q12", "Q14"])
    def test_query_golden(self, golden, query):
        assert_golden(golden, f"tpch_{query}")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(capture_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(CASES)} cases to {GOLDEN}")
