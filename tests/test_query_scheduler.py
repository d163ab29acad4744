"""Tests for the query scheduler: strategies, join types, aggregation."""

import pytest

from repro import MachineProfile, PangeaCluster
from repro.placement.partitioner import HashPartitioner, partition_set
from repro.placement.replication import register_replica
from repro.query.operators import (
    FilterNode,
    JoinNode,
    MapNode,
    ScanNode,
    peel_pipeline,
)
from repro.query.scheduler import QueryScheduler
from repro.sim.devices import MB


@pytest.fixture
def cluster():
    c = PangeaCluster(num_nodes=3, profile=MachineProfile.tiny(pool_bytes=64 * MB))
    orders = c.create_set("orders", page_size=1 * MB, object_bytes=64)
    items = c.create_set("items", page_size=1 * MB, object_bytes=64)
    orders.add_data([{"o_id": i, "cust": i % 7} for i in range(100)])
    items.add_data(
        [{"i_id": i, "i_order": i % 100, "qty": i % 5 + 1} for i in range(400)]
    )
    return c


def join_plan():
    return ScanNode("items").join(
        ScanNode("orders"),
        left_key=lambda r: r["i_order"],
        right_key=lambda r: r["o_id"],
        merge=lambda l, r: {**l, **r},
        left_key_name="i_order",
        right_key_name="o_id",
    )


def add_replicas(cluster):
    orders, items = cluster.get_set("orders"), cluster.get_set("items")
    o_rep = cluster.create_set("orders_by_id", page_size=1 * MB, object_bytes=64)
    partition_set(orders, o_rep, HashPartitioner(lambda r: r["o_id"], 12, key_name="o_id"))
    i_rep = cluster.create_set("items_by_order", page_size=1 * MB, object_bytes=64)
    partition_set(items, i_rep, HashPartitioner(lambda r: r["i_order"], 12, key_name="i_order"))
    register_replica(orders, o_rep, object_id_fn=lambda r: r["o_id"])
    register_replica(items, i_rep, object_id_fn=lambda r: r["i_id"])


class TestPeelPipeline:
    def test_peels_filter_map_chain(self):
        plan = ScanNode("x").filter(lambda r: True).map(lambda r: r)
        base, steps = peel_pipeline(plan)
        assert isinstance(base, ScanNode)
        assert [k for k, _ in steps] == ["filter", "map"]

    def test_order_preserved(self):
        plan = ScanNode("x").map(lambda r: r).filter(lambda r: True)
        _base, steps = peel_pipeline(plan)
        assert [k for k, _ in steps] == ["map", "filter"]

    def test_join_is_a_base(self):
        plan = join_plan().filter(lambda r: True)
        base, steps = peel_pipeline(plan)
        assert isinstance(base, JoinNode)
        assert len(steps) == 1


class TestScanAndPipeline:
    def test_scan_returns_everything(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        rows = sched.execute(ScanNode("orders"))
        assert len(rows) == 100

    def test_filter_pushes_into_pipeline(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        rows = sched.execute(ScanNode("orders").filter(lambda r: r["cust"] == 0))
        assert all(r["cust"] == 0 for r in rows)
        assert len(rows) == 15

    def test_map_transforms(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        rows = sched.execute(ScanNode("orders").map(lambda r: {"double": r["o_id"] * 2}))
        assert sorted(r["double"] for r in rows) == [i * 2 for i in range(100)]

    def test_flat_map_expands(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        rows = sched.execute(
            ScanNode("orders").flat_map(lambda r: [r, r] if r["o_id"] < 5 else [])
        )
        assert len(rows) == 10


class TestJoinStrategies:
    def test_broadcast_join_when_small(self, cluster):
        sched = QueryScheduler(cluster, broadcast_threshold=1 * MB, object_bytes=64)
        rows = sched.execute(join_plan())
        assert len(rows) == 400
        assert sched.metrics.broadcast_joins == 1
        assert sched.metrics.repartition_joins == 0

    def test_repartition_join_when_large(self, cluster):
        sched = QueryScheduler(cluster, broadcast_threshold=0, object_bytes=64)
        rows = sched.execute(join_plan())
        assert len(rows) == 400
        assert sched.metrics.repartition_joins == 1
        assert sched.metrics.shuffled_bytes > 0

    def test_copartitioned_join_with_replicas(self, cluster):
        add_replicas(cluster)
        sched = QueryScheduler(cluster, broadcast_threshold=0, object_bytes=64)
        rows = sched.execute(join_plan())
        assert len(rows) == 400
        assert sched.metrics.copartitioned_joins == 1
        assert sched.metrics.repartition_joins == 0
        assert sched.metrics.shuffled_bytes == 0

    def test_all_strategies_agree(self, cluster):
        def run(threshold, replicas):
            if replicas:
                add_replicas(cluster)
            sched = QueryScheduler(cluster, broadcast_threshold=threshold, object_bytes=64)
            rows = sched.execute(join_plan())
            return sorted((r["i_id"], r["cust"]) for r in rows)
        broadcast = run(1 * MB, replicas=False)
        repartition = run(0, replicas=False)
        copartition = run(0, replicas=True)
        assert broadcast == repartition == copartition

    def test_semi_join(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        plan = ScanNode("orders").join(
            ScanNode("items").filter(lambda r: r["qty"] == 5),
            left_key=lambda r: r["o_id"],
            right_key=lambda r: r["i_order"],
            merge=lambda l, r: l,
            how="left_semi",
        )
        rows = sched.execute(plan)
        matching = {i % 100 for i in range(400) if i % 5 + 1 == 5}
        assert sorted(r["o_id"] for r in rows) == sorted(matching)

    def test_anti_join(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        plan = ScanNode("orders").join(
            ScanNode("items").filter(lambda r: r["qty"] == 5),
            left_key=lambda r: r["o_id"],
            right_key=lambda r: r["i_order"],
            merge=lambda l, r: l,
            how="left_anti",
        )
        rows = sched.execute(plan)
        matching = {i % 100 for i in range(400) if i % 5 + 1 == 5}
        assert sorted(r["o_id"] for r in rows) == sorted(set(range(100)) - matching)

    def test_left_outer_join(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        plan = ScanNode("orders").join(
            ScanNode("items").filter(lambda r: r["i_order"] < 50),
            left_key=lambda r: r["o_id"],
            right_key=lambda r: r["i_order"],
            merge=lambda l, r: {"o_id": l["o_id"], "matched": r is not None},
            how="left_outer",
        )
        rows = sched.execute(plan)
        matched = [r for r in rows if r["matched"]]
        unmatched = [r for r in rows if not r["matched"]]
        assert len(matched) == 200  # 4 items per order for 50 orders
        assert sorted(r["o_id"] for r in unmatched) == list(range(50, 100))

    def test_invalid_join_type_rejected(self):
        with pytest.raises(ValueError):
            ScanNode("a").join(
                ScanNode("b"), left_key=id, right_key=id, merge=lambda l, r: l,
                how="full_outer",
            )


def orders_probe_items():
    """Orders probe a build side of items: four items share each key."""
    return ScanNode("orders").join(
        ScanNode("items"),
        left_key=lambda r: r["o_id"],
        right_key=lambda r: r["i_order"],
        merge=lambda l, r: {"o_id": l["o_id"], "i_id": r["i_id"]},
    )


class TestJoinBuildSide:
    def test_broadcast_reaches_nodes_that_hold_no_build_records(self, cluster):
        dim = cluster.create_set("dim", page_size=1 * MB, nodes=[0], object_bytes=64)
        dim.add_data([{"d_id": i, "label": f"v{i}"} for i in range(100)])
        assert sorted(cluster.get_set("items").shards) == [0, 1, 2]
        sched = QueryScheduler(cluster, broadcast_threshold=1 * MB, object_bytes=64)
        rows = sched.execute(
            ScanNode("items").join(
                ScanNode("dim"),
                left_key=lambda r: r["i_order"],
                right_key=lambda r: r["d_id"],
                merge=lambda l, r: {"i_id": l["i_id"], "label": r["label"]},
            )
        )
        assert sched.metrics.broadcast_joins == 1
        # Items on nodes 1 and 2 matched records that only node 0 stores.
        assert sorted((r["i_id"], r["label"]) for r in rows) == [
            (i, f"v{i % 100}") for i in range(400)
        ]

    def test_broadcast_join_drops_probes_without_a_match(self, cluster):
        sched = QueryScheduler(cluster, broadcast_threshold=1 * MB, object_bytes=64)
        rows = sched.execute(
            ScanNode("items").join(
                ScanNode("orders").filter(lambda r: r["o_id"] < 10),
                left_key=lambda r: r["i_order"],
                right_key=lambda r: r["o_id"],
                merge=lambda l, r: {**l, **r},
            )
        )
        assert sched.metrics.broadcast_joins == 1
        assert sorted(r["i_id"] for r in rows) == [
            i for i in range(400) if i % 100 < 10
        ]

    @pytest.mark.parametrize(
        "threshold, counter",
        [(1 * MB, "broadcast_joins"), (0, "repartition_joins")],
        ids=["broadcast", "repartition"],
    )
    def test_every_duplicate_build_match_is_emitted(self, cluster, threshold, counter):
        sched = QueryScheduler(cluster, broadcast_threshold=threshold, object_bytes=64)
        rows = sched.execute(orders_probe_items())
        assert getattr(sched.metrics, counter) == 1
        assert sorted((r["o_id"], r["i_id"]) for r in rows) == sorted(
            (i % 100, i) for i in range(400)
        )

    def test_broadcast_sends_the_build_side_to_every_other_node(self, cluster):
        def bytes_sent():
            return sum(node.network.stats.bytes_sent for node in cluster.nodes)

        sched = QueryScheduler(cluster, broadcast_threshold=1 * MB, object_bytes=64)
        before = bytes_sent()
        rows = sched.execute(join_plan())
        assert sched.metrics.broadcast_joins == 1
        # 100 orders go to each of the other two nodes, then the 400 joined
        # rows are collected.
        assert bytes_sent() - before == (100 * 2 + len(rows)) * 64

    def test_repartition_join_drops_its_shuffle_sets(self, cluster):
        names = cluster.manager.set_names()
        sched = QueryScheduler(cluster, broadcast_threshold=0, object_bytes=64)
        assert len(sched.execute(orders_probe_items())) == 400
        assert sched.metrics.repartition_joins == 1
        assert cluster.manager.set_names() == names
        assert not any(
            page.pinned for node in cluster.nodes for page in node.pool.resident_pages()
        )


class TestAggregation:
    def test_two_stage_aggregation(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        plan = ScanNode("items").aggregate(
            key_fn=lambda r: r["qty"],
            seed_fn=lambda r: 1,
            merge_fn=lambda a, b: a + b,
            final_fn=lambda key, count: {"qty": key, "count": count},
        )
        rows = sched.execute(plan)
        assert sorted(r["qty"] for r in rows) == [1, 2, 3, 4, 5]
        assert all(r["count"] == 80 for r in rows)
        assert sched.metrics.local_agg_stages == 1

    def test_aggregate_on_join_output(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        plan = join_plan().aggregate(
            key_fn=lambda r: r["cust"],
            seed_fn=lambda r: r["qty"],
            merge_fn=lambda a, b: a + b,
            final_fn=lambda key, total: {"cust": key, "total": total},
        )
        rows = sched.execute(plan)
        expected = {}
        for i in range(400):
            cust = (i % 100) % 7
            expected[cust] = expected.get(cust, 0) + i % 5 + 1
        assert {r["cust"]: r["total"] for r in rows} == expected

    def test_empty_input_aggregation(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        plan = (
            ScanNode("orders")
            .filter(lambda r: False)
            .aggregate(
                key_fn=lambda r: 0,
                seed_fn=lambda r: 1,
                merge_fn=lambda a, b: a + b,
                final_fn=lambda k, v: {"count": v},
            )
        )
        assert sched.execute(plan) == []


class TestOrderingAndLimits:
    def test_order_by(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        rows = sched.execute(ScanNode("orders").order_by(lambda r: -r["o_id"]))
        assert rows[0]["o_id"] == 99
        assert rows[-1]["o_id"] == 0

    def test_limit(self, cluster):
        sched = QueryScheduler(cluster, object_bytes=64)
        rows = sched.execute(
            ScanNode("orders").order_by(lambda r: r["o_id"]).limit(7)
        )
        assert [r["o_id"] for r in rows] == list(range(7))

    def test_unknown_plan_node_rejected(self, cluster):
        sched = QueryScheduler(cluster)

        class Bogus:
            pass

        with pytest.raises(TypeError):
            sched.execute(Bogus())
