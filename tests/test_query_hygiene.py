"""Queries leave a long-lived cluster as they found it.

A closed loop of TPC-H queries runs on one loaded, replicated cluster, so
a query that finishes, and one whose aggregation stage fails, must leave
no temporary set, pinned page, pool allocation or attached service behind.
"""

import random

import pytest

from repro import MachineProfile, PangeaCluster
from repro.query.operators import ScanNode
from repro.query.scheduler import QueryScheduler
from repro.sim.devices import GB, MB
from repro.tpch import QUERIES, REFERENCE_QUERIES, load_tpch, register_tpch_replicas

from .conftest import rows_match

SCALE = 0.001


def pinned_pages(cluster) -> int:
    return sum(
        1 for node in cluster.nodes for page in node.pool.resident_pages() if page.pinned
    )


def footprint(cluster) -> tuple:
    return (
        cluster.manager.set_names(),
        [node.pool.used_bytes for node in cluster.nodes],
        pinned_pages(cluster),
    )


def run_query(cluster, name: str) -> list:
    scheduler = QueryScheduler(cluster, broadcast_threshold=4 * MB, object_bytes=144)
    return QUERIES[name](scheduler)


def test_queries_leave_the_cluster_unchanged():
    cluster = PangeaCluster(num_nodes=4, profile=MachineProfile.tiny(pool_bytes=1 * GB))
    tables = load_tpch(cluster, scale=SCALE)
    register_tpch_replicas(cluster)
    before = footprint(cluster)
    order = sorted(QUERIES) * 2
    random.Random(20).shuffle(order)
    for name in order:
        assert rows_match(run_query(cluster, name), REFERENCE_QUERIES[name](tables)), name
    assert footprint(cluster) == before
    for name in cluster.manager.set_names():
        dataset = cluster.get_set(name)
        assert (dataset.active_readers, dataset.active_writers) == (0, 0), name


def test_failed_aggregation_drops_its_temp_sets():
    cluster = PangeaCluster(num_nodes=2, profile=MachineProfile.tiny(pool_bytes=1 * GB))
    tables = load_tpch(cluster, scale=SCALE)
    before = footprint(cluster)

    def failing_merge(a, b):
        raise RuntimeError("merge failed")

    plan = ScanNode("lineitem").aggregate(
        key_fn=lambda r: 0,
        seed_fn=lambda r: 1,
        merge_fn=failing_merge,
        final_fn=lambda key, count: {"count": count},
    )
    with pytest.raises(RuntimeError, match="merge failed"):
        QueryScheduler(cluster, object_bytes=144).execute(plan)
    assert not [n for n in cluster.manager.set_names() if n.startswith("__agg")]
    assert pinned_pages(cluster) == 0
    assert footprint(cluster) == before
    assert rows_match(run_query(cluster, "Q01"), REFERENCE_QUERIES["Q01"](tables))
