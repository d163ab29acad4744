"""The nine TPC-H queries as Pangea query-processor plans (paper Fig. 5).

Each query is a function ``run(scheduler) -> list[dict]`` whose output
matches the corresponding :mod:`repro.tpch.reference` oracle.

:func:`register_tpch_replicas` creates the heterogeneous replicas the
paper's evaluation uses: ``lineitem`` partitioned by ``l_orderkey`` and by
``l_partkey``; ``orders`` by ``o_orderkey`` and by ``o_custkey``; plus
``part`` by ``p_partkey`` and ``customer`` by ``c_custkey`` so that Q04,
Q12, Q13, Q14, Q17 and Q22 can run as co-partitioned, shuffle-free joins.
"""

from __future__ import annotations

import typing
from operator import add, itemgetter

from repro.query.operators import ScanNode
from repro.tpch import reference as ref
from repro.tpch.schema import ROW_BYTES

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.cluster.cluster import PangeaCluster
    from repro.query.scheduler import QueryScheduler


def _round(value: float, digits: int = 2) -> float:
    return round(value, digits)


# ----------------------------------------------------------------------
# replica registration (paper Sec. 9.1.2)
# ----------------------------------------------------------------------

_LINEITEM_ID = itemgetter("l_orderkey", "l_linenumber")
_ORDERS_ID = itemgetter("o_orderkey")

# One id function object per table: a group reuses its last colliding-object
# fold only when the next registration passes the very same function.
REPLICA_SPECS = [
    ("lineitem", "l_orderkey", _LINEITEM_ID),
    ("lineitem", "l_partkey", _LINEITEM_ID),
    ("orders", "o_orderkey", _ORDERS_ID),
    ("orders", "o_custkey", _ORDERS_ID),
    ("part", "p_partkey", itemgetter("p_partkey")),
    ("customer", "c_custkey", itemgetter("c_custkey")),
]


def register_tpch_replicas(
    cluster: "PangeaCluster",
    num_partitions: int | None = None,
    row_scale: float = 1.0,
) -> dict:
    """Create and register every heterogeneous replica the queries use.

    ``row_scale`` must match the value passed to ``load_tpch`` so replicas
    carry the same logical row sizes as their sources.
    """
    from repro.placement.partitioner import HashPartitioner, partition_set
    from repro.placement.replication import register_replica

    num_partitions = num_partitions or cluster.num_nodes * 4
    groups: dict = {}
    for table, key, object_id_fn in REPLICA_SPECS:
        source = cluster.get_set(table)
        replica_name = f"{table}_by_{key}"
        replica = cluster.create_set(
            replica_name,
            durability="write-through",
            page_size=source.page_size,
            object_bytes=max(1, int(ROW_BYTES[table] * row_scale)),
        )
        partitioner = HashPartitioner(itemgetter(key), num_partitions, key_name=key)
        partition_set(source, replica, partitioner)
        groups[table] = register_replica(source, replica, object_id_fn=object_id_fn)
    return groups


# ----------------------------------------------------------------------
# Q01 — pricing summary report
# ----------------------------------------------------------------------

def run_q01(scheduler: "QueryScheduler") -> list[dict]:
    def seed(li: dict) -> tuple:
        disc_price = li["l_extendedprice"] * (1 - li["l_discount"])
        return (
            li["l_quantity"],
            li["l_extendedprice"],
            disc_price,
            disc_price * (1 + li["l_tax"]),
            li["l_discount"],
            1,
        )

    def merge(a: tuple, b: tuple) -> tuple:
        return tuple(map(add, a, b))

    def final(key: tuple, acc: tuple) -> dict:
        qty, base, disc, charge, discount, count = acc
        return {
            "l_returnflag": key[0],
            "l_linestatus": key[1],
            "sum_qty": _round(qty),
            "sum_base_price": _round(base),
            "sum_disc_price": _round(disc),
            "sum_charge": _round(charge),
            "avg_qty": _round(qty / count, 4),
            "avg_price": _round(base / count, 4),
            "avg_disc": _round(discount / count, 4),
            "count_order": count,
        }

    plan = (
        ScanNode("lineitem")
        .filter(lambda li: li["l_shipdate"] <= ref.Q01_SHIP_CUTOFF)
        .aggregate(
            key_fn=lambda li: (li["l_returnflag"], li["l_linestatus"]),
            seed_fn=seed,
            merge_fn=merge,
            final_fn=final,
        )
        .order_by(lambda r: (r["l_returnflag"], r["l_linestatus"]))
    )
    return scheduler.execute(plan)


# ----------------------------------------------------------------------
# Q02 — minimum cost supplier
# ----------------------------------------------------------------------

def run_q02(scheduler: "QueryScheduler") -> list[dict]:
    region_f = ScanNode("region").filter(lambda r: r["r_name"] == ref.Q02_REGION)
    nation_r = ScanNode("nation").join(
        region_f,
        left_key=lambda n: n["n_regionkey"],
        right_key=lambda r: r["r_regionkey"],
        merge=lambda n, r: n,
    )
    supp_r = ScanNode("supplier").join(
        nation_r,
        left_key=lambda s: s["s_nationkey"],
        right_key=lambda n: n["n_nationkey"],
        merge=lambda s, n: {**s, "n_name": n["n_name"]},
    )
    part_f = ScanNode("part").filter(
        lambda p: p["p_size"] == ref.Q02_SIZE
        and p["p_type"].endswith(ref.Q02_TYPE_SUFFIX)
    )

    def eligible_partsupp():
        return (
            ScanNode("partsupp")
            .join(
                supp_r,
                left_key=lambda ps: ps["ps_suppkey"],
                right_key=lambda s: s["s_suppkey"],
                merge=lambda ps, s: {**ps, **s},
            )
            .join(
                part_f,
                left_key=lambda ps: ps["ps_partkey"],
                right_key=lambda p: p["p_partkey"],
                merge=lambda ps, p: {**ps, "p_mfgr": p["p_mfgr"]},
            )
        )

    min_cost = eligible_partsupp().aggregate(
        key_fn=lambda r: r["ps_partkey"],
        seed_fn=lambda r: r["ps_supplycost"],
        merge_fn=min,
        final_fn=lambda key, cost: {"mc_partkey": key, "min_cost": cost},
    )
    plan = (
        eligible_partsupp()
        .join(
            min_cost,
            left_key=lambda r: r["ps_partkey"],
            right_key=lambda r: r["mc_partkey"],
            merge=lambda r, mc: {**r, "min_cost": mc["min_cost"]},
        )
        .filter(lambda r: r["ps_supplycost"] == r["min_cost"])
        .map(
            lambda r: {
                "s_acctbal": r["s_acctbal"],
                "s_name": r["s_name"],
                "n_name": r["n_name"],
                "p_partkey": r["ps_partkey"],
                "p_mfgr": r["p_mfgr"],
                "s_phone": r["s_phone"],
            }
        )
        .order_by(
            lambda r: (-r["s_acctbal"], r["n_name"], r["s_name"], r["p_partkey"])
        )
        .limit(100)
    )
    return scheduler.execute(plan)


# ----------------------------------------------------------------------
# Q04 — order priority checking (semi join, co-partitionable)
# ----------------------------------------------------------------------

def run_q04(scheduler: "QueryScheduler") -> list[dict]:
    late_lines = ScanNode("lineitem").filter(
        lambda li: li["l_commitdate"] < li["l_receiptdate"]
    )
    plan = (
        ScanNode("orders")
        .filter(
            lambda o: ref.Q04_DATE_LO <= o["o_orderdate"] < ref.Q04_DATE_HI
        )
        .join(
            late_lines,
            left_key=lambda o: o["o_orderkey"],
            right_key=lambda li: li["l_orderkey"],
            merge=lambda o, li: o,
            left_key_name="o_orderkey",
            right_key_name="l_orderkey",
            how="left_semi",
        )
        .aggregate(
            key_fn=lambda o: o["o_orderpriority"],
            seed_fn=lambda o: 1,
            merge_fn=lambda a, b: a + b,
            final_fn=lambda key, count: {
                "o_orderpriority": key,
                "order_count": count,
            },
        )
        .order_by(lambda r: r["o_orderpriority"])
    )
    return scheduler.execute(plan)


# ----------------------------------------------------------------------
# Q06 — forecasting revenue change
# ----------------------------------------------------------------------

def run_q06(scheduler: "QueryScheduler") -> list[dict]:
    plan = (
        ScanNode("lineitem")
        .filter(
            lambda li: ref.Q06_DATE_LO <= li["l_shipdate"] < ref.Q06_DATE_HI
            and ref.Q06_DISCOUNT_LO - 1e-9
            <= li["l_discount"]
            <= ref.Q06_DISCOUNT_HI + 1e-9
            and li["l_quantity"] < ref.Q06_QUANTITY
        )
        .aggregate(
            key_fn=lambda li: 0,
            seed_fn=lambda li: li["l_extendedprice"] * li["l_discount"],
            merge_fn=lambda a, b: a + b,
            final_fn=lambda key, total: {"revenue": _round(total)},
        )
    )
    result = scheduler.execute(plan)
    return result if result else [{"revenue": 0.0}]


# ----------------------------------------------------------------------
# Q12 — shipping modes and order priority (co-partitionable)
# ----------------------------------------------------------------------

def run_q12(scheduler: "QueryScheduler") -> list[dict]:
    filtered = ScanNode("lineitem").filter(
        lambda li: li["l_shipmode"] in ref.Q12_MODES
        and li["l_shipdate"] < li["l_commitdate"] < li["l_receiptdate"]
        and ref.Q12_DATE_LO <= li["l_receiptdate"] < ref.Q12_DATE_HI
    )
    plan = (
        filtered.join(
            ScanNode("orders"),
            left_key=lambda li: li["l_orderkey"],
            right_key=lambda o: o["o_orderkey"],
            merge=lambda li, o: {
                "l_shipmode": li["l_shipmode"],
                "high": 1 if o["o_orderpriority"] in ("1-URGENT", "2-HIGH") else 0,
            },
            left_key_name="l_orderkey",
            right_key_name="o_orderkey",
        )
        .aggregate(
            key_fn=lambda r: r["l_shipmode"],
            seed_fn=lambda r: (r["high"], 1 - r["high"]),
            merge_fn=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            final_fn=lambda mode, acc: {
                "l_shipmode": mode,
                "high_line_count": acc[0],
                "low_line_count": acc[1],
            },
        )
        .order_by(lambda r: r["l_shipmode"])
    )
    return scheduler.execute(plan)


# ----------------------------------------------------------------------
# Q13 — customer distribution (left outer join, co-partitionable)
# ----------------------------------------------------------------------

def run_q13(scheduler: "QueryScheduler") -> list[dict]:
    def clean_comment(order: dict) -> bool:
        comment = order["o_comment"]
        i = comment.find(ref.Q13_WORD1)
        return not (i >= 0 and comment.find(ref.Q13_WORD2, i + len(ref.Q13_WORD1)) >= 0)

    orders_f = ScanNode("orders").filter(clean_comment)
    plan = (
        ScanNode("customer")
        .join(
            orders_f,
            left_key=lambda c: c["c_custkey"],
            right_key=lambda o: o["o_custkey"],
            merge=lambda c, o: {
                "c_custkey": c["c_custkey"],
                "has_order": 0 if o is None else 1,
            },
            left_key_name="c_custkey",
            right_key_name="o_custkey",
            how="left_outer",
        )
        .aggregate(
            key_fn=lambda r: r["c_custkey"],
            seed_fn=lambda r: r["has_order"],
            merge_fn=lambda a, b: a + b,
            final_fn=lambda custkey, count: {"c_count": count},
        )
        .aggregate(
            key_fn=lambda r: r["c_count"],
            seed_fn=lambda r: 1,
            merge_fn=lambda a, b: a + b,
            final_fn=lambda c_count, custdist: {
                "c_count": c_count,
                "custdist": custdist,
            },
        )
        .order_by(lambda r: (-r["custdist"], -r["c_count"]))
    )
    return scheduler.execute(plan)


# ----------------------------------------------------------------------
# Q14 — promotion effect (co-partitionable on partkey)
# ----------------------------------------------------------------------

def run_q14(scheduler: "QueryScheduler") -> list[dict]:
    filtered = ScanNode("lineitem").filter(
        lambda li: ref.Q14_DATE_LO <= li["l_shipdate"] < ref.Q14_DATE_HI
    )
    plan = filtered.join(
        ScanNode("part"),
        left_key=lambda li: li["l_partkey"],
        right_key=lambda p: p["p_partkey"],
        merge=lambda li, p: {
            "disc_price": li["l_extendedprice"] * (1 - li["l_discount"]),
            "promo": p["p_type"].startswith("PROMO"),
        },
        left_key_name="l_partkey",
        right_key_name="p_partkey",
    ).aggregate(
        key_fn=lambda r: 0,
        seed_fn=lambda r: (r["disc_price"] if r["promo"] else 0.0, r["disc_price"]),
        merge_fn=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        final_fn=lambda key, acc: {
            "promo_revenue": _round(100.0 * acc[0] / acc[1] if acc[1] else 0.0, 4)
        },
    )
    result = scheduler.execute(plan)
    return result if result else [{"promo_revenue": 0.0}]


# ----------------------------------------------------------------------
# Q17 — small-quantity-order revenue (co-partitionable on partkey)
# ----------------------------------------------------------------------

def run_q17(scheduler: "QueryScheduler") -> list[dict]:
    part_f = ScanNode("part").filter(
        lambda p: p["p_brand"] == ref.Q17_BRAND
        and p["p_container"] == ref.Q17_CONTAINER
    )

    def lines_of_target_parts():
        return ScanNode("lineitem").join(
            part_f,
            left_key=lambda li: li["l_partkey"],
            right_key=lambda p: p["p_partkey"],
            merge=lambda li, p: li,
            left_key_name="l_partkey",
            right_key_name="p_partkey",
        )

    avg_qty = lines_of_target_parts().aggregate(
        key_fn=lambda li: li["l_partkey"],
        seed_fn=lambda li: (li["l_quantity"], 1),
        merge_fn=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        final_fn=lambda partkey, acc: {
            "a_partkey": partkey,
            "avg_qty": acc[0] / acc[1],
        },
    )
    plan = (
        lines_of_target_parts()
        .join(
            avg_qty,
            left_key=lambda li: li["l_partkey"],
            right_key=lambda a: a["a_partkey"],
            merge=lambda li, a: {**li, "avg_qty": a["avg_qty"]},
        )
        .filter(lambda r: r["l_quantity"] < 0.2 * r["avg_qty"])
        .aggregate(
            key_fn=lambda r: 0,
            seed_fn=lambda r: r["l_extendedprice"],
            merge_fn=lambda a, b: a + b,
            final_fn=lambda key, total: {"avg_yearly": _round(total / 7.0)},
        )
    )
    result = scheduler.execute(plan)
    return result if result else [{"avg_yearly": 0.0}]


# ----------------------------------------------------------------------
# Q22 — global sales opportunity (anti join, co-partitionable)
# ----------------------------------------------------------------------

def run_q22(scheduler: "QueryScheduler") -> list[dict]:
    eligible = ScanNode("customer").filter(
        lambda c: c["c_phone"][:2] in ref.Q22_CODES
    )
    avg_plan = eligible.filter(lambda c: c["c_acctbal"] > 0.0).aggregate(
        key_fn=lambda c: 0,
        seed_fn=lambda c: (c["c_acctbal"], 1),
        merge_fn=lambda a, b: (a[0] + b[0], a[1] + b[1]),
        final_fn=lambda key, acc: {"avg_bal": acc[0] / acc[1] if acc[1] else 0.0},
    )
    scalar = scheduler.execute(avg_plan)
    avg_bal = scalar[0]["avg_bal"] if scalar else 0.0

    plan = (
        eligible.filter(lambda c: c["c_acctbal"] > avg_bal)
        .join(
            ScanNode("orders"),
            left_key=lambda c: c["c_custkey"],
            right_key=lambda o: o["o_custkey"],
            merge=lambda c, o: c,
            left_key_name="c_custkey",
            right_key_name="o_custkey",
            how="left_anti",
        )
        .aggregate(
            key_fn=lambda c: c["c_phone"][:2],
            seed_fn=lambda c: (1, c["c_acctbal"]),
            merge_fn=lambda a, b: (a[0] + b[0], a[1] + b[1]),
            final_fn=lambda code, acc: {
                "cntrycode": code,
                "numcust": acc[0],
                "totacctbal": _round(acc[1]),
            },
        )
        .order_by(lambda r: r["cntrycode"])
    )
    return scheduler.execute(plan)


QUERIES = {
    "Q01": run_q01,
    "Q02": run_q02,
    "Q04": run_q04,
    "Q06": run_q06,
    "Q12": run_q12,
    "Q13": run_q13,
    "Q14": run_q14,
    "Q17": run_q17,
    "Q22": run_q22,
}
