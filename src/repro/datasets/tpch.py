"""A deterministic TPC-H data generator for the embedded engine.

All eight TPC-H tables with the spec's key relationships and realistic value
distributions (skewed prices, date ranges, categorical segments).  The
``scale`` parameter mirrors the official scale factor: ``scale=1.0``
corresponds to SF1 row counts; the reproduction defaults to a much smaller
scale because the optimizer's estimates — not raw data volume — drive every
experiment.
"""

from __future__ import annotations

import numpy as np

from repro.sqldb import Database, SqlType, Table

REGIONS = ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"]
NATIONS = [
    ("ALGERIA", 0), ("ARGENTINA", 1), ("BRAZIL", 1), ("CANADA", 1),
    ("EGYPT", 4), ("ETHIOPIA", 0), ("FRANCE", 3), ("GERMANY", 3),
    ("INDIA", 2), ("INDONESIA", 2), ("IRAN", 4), ("IRAQ", 4),
    ("JAPAN", 2), ("JORDAN", 4), ("KENYA", 0), ("MOROCCO", 0),
    ("MOZAMBIQUE", 0), ("PERU", 1), ("CHINA", 2), ("ROMANIA", 3),
    ("SAUDI ARABIA", 4), ("VIETNAM", 2), ("RUSSIA", 3),
    ("UNITED KINGDOM", 3), ("UNITED STATES", 1),
]
MARKET_SEGMENTS = ["AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"]
ORDER_PRIORITIES = ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT SPECIFIED", "5-LOW"]
PART_TYPES = [
    f"{a} {b} {c}"
    for a in ("STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO")
    for b in ("ANODIZED", "BURNISHED", "PLATED", "POLISHED", "BRUSHED")
    for c in ("TIN", "NICKEL", "BRASS", "STEEL", "COPPER")
]
RETURN_FLAGS = ["R", "A", "N"]
LINE_STATUSES = ["O", "F"]
# Order dates span 1992-01-01 .. 1998-08-02, expressed as epoch days.
_DATE_LOW, _DATE_HIGH = 8035, 10440

# SF1 row counts, scaled linearly (region and nation are fixed size).
_SF1_ROWS = {
    "supplier": 10_000,
    "customer": 150_000,
    "part": 200_000,
    "partsupp": 800_000,
    "orders": 1_500_000,
    "lineitem": 6_000_000,
}

DEFAULT_SCALE = 0.01


def table_rows(scale: float) -> dict[str, int]:
    """Row counts per table at the given scale factor."""
    counts = {name: max(int(n * scale), 10) for name, n in _SF1_ROWS.items()}
    counts["region"] = len(REGIONS)
    counts["nation"] = len(NATIONS)
    return counts


def build_tpch(scale: float = DEFAULT_SCALE, seed: int = 7) -> Database:
    """Build a fully-loaded, analyzed TPC-H database."""
    rng = np.random.default_rng(seed)
    rows = table_rows(scale)
    db = Database("tpch")

    db.create_table(
        Table.from_dict(
            "region",
            {
                "r_regionkey": np.arange(len(REGIONS)),
                "r_name": REGIONS,
                "r_comment": [f"region comment {i}" for i in range(len(REGIONS))],
            },
            {
                "r_regionkey": SqlType.INTEGER,
                "r_name": SqlType.TEXT,
                "r_comment": SqlType.TEXT,
            },
        ),
        primary_key=["r_regionkey"],
    )

    db.create_table(
        Table.from_dict(
            "nation",
            {
                "n_nationkey": np.arange(len(NATIONS)),
                "n_name": [n for n, _ in NATIONS],
                "n_regionkey": [r for _, r in NATIONS],
            },
            {
                "n_nationkey": SqlType.INTEGER,
                "n_name": SqlType.TEXT,
                "n_regionkey": SqlType.INTEGER,
            },
        ),
        primary_key=["n_nationkey"],
    )

    n_supplier = rows["supplier"]
    db.create_table(
        Table.from_dict(
            "supplier",
            {
                "s_suppkey": np.arange(n_supplier),
                "s_name": [f"Supplier#{i:09d}" for i in range(n_supplier)],
                "s_nationkey": rng.integers(0, len(NATIONS), n_supplier),
                "s_acctbal": np.round(
                    rng.uniform(-999.99, 9999.99, n_supplier), 2
                ),
            },
            {
                "s_suppkey": SqlType.INTEGER,
                "s_name": SqlType.TEXT,
                "s_nationkey": SqlType.INTEGER,
                "s_acctbal": SqlType.DOUBLE,
            },
        ),
        primary_key=["s_suppkey"],
    )

    n_customer = rows["customer"]
    db.create_table(
        Table.from_dict(
            "customer",
            {
                "c_custkey": np.arange(n_customer),
                "c_name": [f"Customer#{i:09d}" for i in range(n_customer)],
                "c_nationkey": rng.integers(0, len(NATIONS), n_customer),
                "c_acctbal": np.round(
                    rng.uniform(-999.99, 9999.99, n_customer), 2
                ),
                "c_mktsegment": rng.choice(MARKET_SEGMENTS, n_customer),
            },
            {
                "c_custkey": SqlType.INTEGER,
                "c_name": SqlType.TEXT,
                "c_nationkey": SqlType.INTEGER,
                "c_acctbal": SqlType.DOUBLE,
                "c_mktsegment": SqlType.TEXT,
            },
        ),
        primary_key=["c_custkey"],
    )

    n_part = rows["part"]
    db.create_table(
        Table.from_dict(
            "part",
            {
                "p_partkey": np.arange(n_part),
                "p_name": [f"part {i % 500} name" for i in range(n_part)],
                "p_brand": [f"Brand#{1 + i % 25}" for i in range(n_part)],
                "p_type": rng.choice(PART_TYPES, n_part),
                "p_size": rng.integers(1, 51, n_part),
                "p_retailprice": np.round(
                    900.0 + rng.gamma(2.0, 150.0, n_part), 2
                ),
            },
            {
                "p_partkey": SqlType.INTEGER,
                "p_name": SqlType.TEXT,
                "p_brand": SqlType.TEXT,
                "p_type": SqlType.TEXT,
                "p_size": SqlType.INTEGER,
                "p_retailprice": SqlType.DOUBLE,
            },
        ),
        primary_key=["p_partkey"],
    )

    n_partsupp = rows["partsupp"]
    db.create_table(
        Table.from_dict(
            "partsupp",
            {
                "ps_partkey": rng.integers(0, n_part, n_partsupp),
                "ps_suppkey": rng.integers(0, n_supplier, n_partsupp),
                "ps_availqty": rng.integers(1, 10_000, n_partsupp),
                "ps_supplycost": np.round(
                    rng.uniform(1.0, 1000.0, n_partsupp), 2
                ),
            },
            {
                "ps_partkey": SqlType.INTEGER,
                "ps_suppkey": SqlType.INTEGER,
                "ps_availqty": SqlType.INTEGER,
                "ps_supplycost": SqlType.DOUBLE,
            },
        ),
    )

    n_orders = rows["orders"]
    order_dates = rng.integers(_DATE_LOW, _DATE_HIGH, n_orders)
    db.create_table(
        Table.from_dict(
            "orders",
            {
                "o_orderkey": np.arange(n_orders),
                "o_custkey": rng.integers(0, n_customer, n_orders),
                "o_orderstatus": rng.choice(
                    ["O", "F", "P"], n_orders, p=[0.49, 0.49, 0.02]
                ),
                "o_totalprice": np.round(
                    1000.0 + rng.gamma(2.2, 60_000.0, n_orders) / 1000.0 * 150, 2
                ),
                "o_orderdate": order_dates,
                "o_orderpriority": rng.choice(ORDER_PRIORITIES, n_orders),
            },
            {
                "o_orderkey": SqlType.INTEGER,
                "o_custkey": SqlType.INTEGER,
                "o_orderstatus": SqlType.TEXT,
                "o_totalprice": SqlType.DOUBLE,
                "o_orderdate": SqlType.DATE,
                "o_orderpriority": SqlType.TEXT,
            },
        ),
        primary_key=["o_orderkey"],
    )

    n_lineitem = rows["lineitem"]
    ship_dates = rng.integers(_DATE_LOW, _DATE_HIGH, n_lineitem)
    db.create_table(
        Table.from_dict(
            "lineitem",
            {
                "l_orderkey": rng.integers(0, n_orders, n_lineitem),
                "l_partkey": rng.integers(0, n_part, n_lineitem),
                "l_suppkey": rng.integers(0, n_supplier, n_lineitem),
                "l_linenumber": np.arange(n_lineitem) % 7 + 1,
                "l_quantity": rng.integers(1, 51, n_lineitem),
                "l_extendedprice": np.round(
                    rng.gamma(2.0, 18_000.0, n_lineitem) / 1000.0, 2
                ),
                "l_discount": np.round(rng.uniform(0.0, 0.1, n_lineitem), 2),
                "l_tax": np.round(rng.uniform(0.0, 0.08, n_lineitem), 2),
                "l_returnflag": rng.choice(RETURN_FLAGS, n_lineitem),
                "l_linestatus": rng.choice(LINE_STATUSES, n_lineitem),
                "l_shipdate": ship_dates,
                "l_commitdate": ship_dates + rng.integers(1, 60, n_lineitem),
            },
            {
                "l_orderkey": SqlType.INTEGER,
                "l_partkey": SqlType.INTEGER,
                "l_suppkey": SqlType.INTEGER,
                "l_linenumber": SqlType.INTEGER,
                "l_quantity": SqlType.INTEGER,
                "l_extendedprice": SqlType.DOUBLE,
                "l_discount": SqlType.DOUBLE,
                "l_tax": SqlType.DOUBLE,
                "l_returnflag": SqlType.TEXT,
                "l_linestatus": SqlType.TEXT,
                "l_shipdate": SqlType.DATE,
                "l_commitdate": SqlType.DATE,
            },
        ),
    )

    for fk in (
        ("nation", "n_regionkey", "region", "r_regionkey"),
        ("supplier", "s_nationkey", "nation", "n_nationkey"),
        ("customer", "c_nationkey", "nation", "n_nationkey"),
        ("partsupp", "ps_partkey", "part", "p_partkey"),
        ("partsupp", "ps_suppkey", "supplier", "s_suppkey"),
        ("orders", "o_custkey", "customer", "c_custkey"),
        ("lineitem", "l_orderkey", "orders", "o_orderkey"),
        ("lineitem", "l_partkey", "part", "p_partkey"),
        ("lineitem", "l_suppkey", "supplier", "s_suppkey"),
    ):
        db.add_foreign_key(*fk)
    return db
