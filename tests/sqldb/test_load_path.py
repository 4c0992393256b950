"""The load path's whole-array code against the per-value code it replaced.

``Column.from_values`` casts a numpy array whole, the dataset builders
pass arrays, and ``analyze_column`` sorts a numeric column once and tallies
TEXT values in a dict.  The former ``from_values`` and ``analyze_column``
are kept here verbatim as the reference.  Every dataset, built both ways
(the reference fed each array's ``tolist()``), must give the same columns
(dtype, values, each element's Python type, null mask) and the same
statistics (every field, types included, histogram bounds bit for bit).

The reference's TEXT statistics differ in one respect, on purpose: it
counted values through a fixed-width unicode array, which drops a trailing
NUL (and reads ``bytes`` as ASCII).  ANALYZE now counts the executor's
``str()`` values, as ``=``, joins and GROUP BY compare them.

Its DOUBLE histograms differ in one respect too: where ``np.quantile``'s
interpolation met an infinity it gave a NaN bound, and ANALYZE now gives
that interpolation's limit.  Every other bound is compared bit for bit.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import repro.sqldb.catalog as catalog_module
from repro.datasets import build_imdb, build_tpch
from repro.fuzz import build_fuzz_database
from repro.sqldb import Database, SqlType, Table, run_script
from repro.sqldb.stats import (
    DEFAULT_HISTOGRAM_BUCKETS,
    DEFAULT_MCV_COUNT,
    ColumnStats,
    Histogram,
    _to_python,
    analyze_column,
)
from repro.sqldb.storage import Column

from .test_ddl_differential import load_example_script

# -- the reference: the former per-value code, verbatim --------------------------------


def reference_from_values(name: str, sql_type: SqlType, values: Sequence) -> Column:
    """Build a column from a Python sequence, treating ``None`` as NULL."""
    nulls = np.array([v is None for v in values], dtype=bool)
    dtype = sql_type.numpy_dtype
    if dtype == np.dtype(object):
        data = np.array(list(values), dtype=object)
    else:
        fill: object = 0
        cleaned = [fill if v is None else v for v in values]
        data = np.array(cleaned, dtype=dtype)
    mask = nulls if nulls.any() else None
    return Column(name, sql_type, data, mask)


def reference_analyze_column(
    column: Column,
    histogram_buckets: int = DEFAULT_HISTOGRAM_BUCKETS,
    mcv_count: int = DEFAULT_MCV_COUNT,
) -> ColumnStats:
    """Compute :class:`ColumnStats` from actual column data (full scan)."""
    total = len(column)
    if total == 0:
        return ColumnStats(
            null_fraction=0.0, distinct_count=0.0,
            min_value=None, max_value=None, row_count=0,
        )
    values = column.non_null_values()
    null_fraction = 1.0 - len(values) / total
    if len(values) == 0:
        return ColumnStats(
            null_fraction=1.0, distinct_count=0.0,
            min_value=None, max_value=None, row_count=total,
        )

    if column.sql_type is SqlType.TEXT:
        uniques, counts = np.unique(values.astype(str), return_counts=True)
    elif column.sql_type is SqlType.BOOLEAN:
        uniques, counts = np.unique(values, return_counts=True)
    else:
        uniques, counts = np.unique(values, return_counts=True)
    distinct = float(len(uniques))

    order = np.argsort(counts)[::-1]
    mcv_take = min(mcv_count, len(uniques))
    mcv_values: list = []
    mcv_fractions: list[float] = []
    # Only store values that are genuinely "common" (above the uniform share).
    uniform_share = 1.0 / distinct if distinct else 1.0
    for idx in order[:mcv_take]:
        fraction = counts[idx] / total
        if fraction > 1.25 * uniform_share * (1.0 - null_fraction):
            mcv_values.append(_to_python(uniques[idx]))
            mcv_fractions.append(float(fraction))

    histogram = None
    min_value: float | str | None
    max_value: float | str | None
    if column.sql_type.is_numeric or column.sql_type is SqlType.DATE:
        numeric = values.astype(np.float64)
        min_value = float(numeric.min())
        max_value = float(numeric.max())
        buckets = min(histogram_buckets, max(len(numeric) // 2, 1))
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        bounds = np.quantile(numeric, quantiles)
        histogram = Histogram(bounds=bounds)
    elif column.sql_type is SqlType.TEXT:
        # np.unique returns sorted values, so the ends are min and max.
        min_value = str(uniques[0])
        max_value = str(uniques[-1])
    else:  # BOOLEAN
        min_value = bool(values.min())
        max_value = bool(values.max())

    return ColumnStats(
        null_fraction=float(null_fraction),
        distinct_count=distinct,
        min_value=min_value,
        max_value=max_value,
        mcv_values=mcv_values,
        mcv_fractions=mcv_fractions,
        histogram=histogram,
        row_count=total,
    )


# -- strict comparison -----------------------------------------------------------------


def same_scalar(a, b) -> bool:
    """Equal and of one Python type; floats bit for bit (so NaN, -0.0)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    return bool(a == b)


def assert_same_column(new: Column, ref: Column) -> None:
    assert (new.name, new.sql_type) == (ref.name, ref.sql_type)
    assert new.data.dtype == ref.data.dtype
    assert new.data.shape == ref.data.shape
    if ref.data.dtype == object:
        pairs = zip(new.data.tolist(), ref.data.tolist())
        assert all(same_scalar(a, b) for a, b in pairs), new.name
    else:
        assert new.data.tobytes() == ref.data.tobytes(), new.name
    if ref.null_mask is None:
        assert new.null_mask is None, new.name
    else:
        assert new.null_mask is not None and new.null_mask.dtype == bool
        assert np.array_equal(new.null_mask, ref.null_mask), new.name


def assert_same_stats(new: ColumnStats | None, ref: ColumnStats | None) -> None:
    if ref is None:
        assert new is None
        return
    for name in ("null_fraction", "distinct_count", "min_value", "max_value",
                 "row_count"):
        assert same_scalar(getattr(new, name), getattr(ref, name)), name
    assert len(new.mcv_values) == len(ref.mcv_values)
    assert all(same_scalar(a, b) for a, b in zip(new.mcv_values, ref.mcv_values))
    assert len(new.mcv_fractions) == len(ref.mcv_fractions)
    assert all(
        same_scalar(a, b) for a, b in zip(new.mcv_fractions, ref.mcv_fractions)
    )
    if ref.histogram is None:
        assert new.histogram is None
    else:
        assert new.histogram.bounds.dtype == ref.histogram.bounds.dtype
        assert new.histogram.bounds.tobytes() == ref.histogram.bounds.tobytes()


def limits_of_nan_bounds(column: Column, ref: ColumnStats) -> dict[int, float]:
    """The histogram bounds the reference's ``np.quantile`` made NaN at an
    infinity (the column holds no NaN), each with the interpolation's limit
    it must now be: the order statistic when ``t = 0``, otherwise the
    infinite endpoint, and between -inf and +inf the one numpy's lerp
    starts from (``a`` below ``t = 0.5``, ``b`` from it on)."""
    if ref.histogram is None:
        return {}
    values = sorted(column.non_null_values().astype(np.float64).tolist())
    if any(math.isnan(v) for v in values):
        return {}
    bounds = ref.histogram.bounds
    quantiles = np.linspace(0.0, 1.0, len(bounds))
    limits = {}
    for i in np.flatnonzero(np.isnan(bounds)).tolist():
        virtual = (len(values) - 1) * float(quantiles[i])
        below = math.floor(virtual)
        t = virtual - below
        a, b = values[below], values[min(below + 1, len(values) - 1)]
        if t == 0:
            limits[i] = a
        elif t < 0.5:
            limits[i] = a if math.isinf(a) else b
        else:
            limits[i] = b if math.isinf(b) else a
    return limits


def assert_same_stats_as_before(
    column: Column, new: ColumnStats, ref: ColumnStats
) -> None:
    """``assert_same_stats``, except that a bound the reference made NaN at
    an infinity must be the interpolation's limit, compared by value (which
    of two signed zeros a sort puts first is not defined)."""
    limits = limits_of_nan_bounds(column, ref)
    if limits:
        bounds = ref.histogram.bounds.copy()
        for i, limit in limits.items():
            assert new.histogram.bounds[i] == limit, (i, limit)
            bounds[i] = new.histogram.bounds[i]
        ref.histogram = Histogram(bounds=bounds)
    assert_same_stats(new, ref)


def assert_same_database(new: Database, ref: Database) -> None:
    assert new.catalog.table_names == ref.catalog.table_names
    for name in ref.catalog.table_names:
        new_data, ref_data = new.catalog.data(name), ref.catalog.data(name)
        assert new_data.column_names == ref_data.column_names
        for a, b in zip(new_data.columns, ref_data.columns):
            assert_same_column(a, b)
        new_meta, ref_meta = new.catalog.table(name), ref.catalog.table(name)
        for a, b in zip(new_meta.columns, ref_meta.columns):
            assert_same_stats(a.stats, b.stats)


# -- loading a database both ways ------------------------------------------------------


BUILDS = {
    "imdb": lambda: build_imdb(),
    "imdb-0.5": lambda: build_imdb(0.5),
    "tpch": lambda: build_tpch(),
    "tpch-0.0003": lambda: build_tpch(0.0003),
    "tpch-0.002": lambda: build_tpch(0.002),
    **{
        f"fuzz-{seed}": (lambda seed=seed: build_fuzz_database(seed))
        for seed in (0, 1, 7, 12345)
    },
    "custom-schema-example": lambda: run_script(
        Database("iot"), load_example_script()
    ),
}


def reference_load(build):
    """*build* with the former loader: arrays as their ``tolist()``, and
    the former ANALYZE."""
    calls = Counter()

    def from_values(name, sql_type, values, nulls=None):
        calls["from_values"] += 1
        if isinstance(values, np.ndarray):
            values = values.tolist()
        if nulls is not None:
            values = [None if null else v for v, null in zip(values, nulls)]
        return reference_from_values(name, sql_type, values)

    def analyze(column):
        calls["analyze"] += 1
        return reference_analyze_column(column)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Column, "from_values", staticmethod(from_values))
        patch.setattr(catalog_module, "analyze_column", analyze)
        db = build()
    assert calls["from_values"] and calls["analyze"]
    return db


class TestDatasetsLoadAsBefore:
    @pytest.mark.parametrize("name", sorted(BUILDS))
    def test_same_columns_and_statistics(self, name):
        build = BUILDS[name]
        assert_same_database(build(), reference_load(build))

    def test_null_bearing_builder_columns(self):
        users = build_fuzz_database(0).catalog.data("users")
        ages = users.column("age")
        assert ages.null_mask is not None and ages.null_mask.sum() == 10
        assert not ages.data[ages.null_mask].any()  # the list path's fill
        assert users.column("user_id").null_mask is None

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fuzz_columns_hold_the_former_values(self, seed):
        # The builder's former per-value expressions, on the same draws.
        rng = np.random.default_rng(seed + 1729)
        users, orders, items = 120, 600, 90
        former = {
            ("users", "age"): [None if i % 13 == 0 else int(a)
                               for i, a in enumerate(rng.integers(18, 80, users))],
            ("orders", "user_id"): rng.integers(0, users, orders).tolist(),
            ("orders", "item_id"): [
                None if i % 29 == 0 else int(v)
                for i, v in enumerate(rng.integers(0, items, orders))
            ],
            ("orders", "amount"): [
                None if i % 23 == 0 else float(v)
                for i, v in enumerate(rng.exponential(80.0, orders).round(2))
            ],
            ("orders", "order_date"): [10800 + (i * 7) % 400 for i in range(orders)],
            ("items", "price"): rng.uniform(1.0, 500.0, items).round(2).tolist(),
            ("items", "in_stock"): [bool(i % 3) for i in range(items)],
        }
        db = build_fuzz_database(seed)
        for (table, name), values in former.items():
            column = db.catalog.data(table).column(name)
            expected = reference_from_values(name, column.sql_type, values)
            assert_same_column(column, expected)

    def test_imdb_title_columns_hold_the_former_values(self):
        rng = np.random.default_rng(11)
        n_title = 12_000  # title's 4,000 base rows at the default scale 3
        former = {
            "kind_id": rng.integers(0, 7, n_title).tolist(),
            "production_year": np.clip(
                rng.normal(1995, 18, n_title).astype(int), 1900, 2024
            ).tolist(),
            "episode_nr": [
                int(v) if v < 50 else None for v in rng.integers(0, 200, n_title)
            ],
        }
        title = build_imdb().catalog.data("title")
        for name, values in former.items():
            column = title.column(name)
            assert_same_column(
                column, reference_from_values(name, column.sql_type, values)
            )

    def test_rounded_info_text_is_the_former_format(self):
        # movie_info_idx.info was f"{round(v, 1)}" of each np.float64.
        rng = np.random.default_rng(3)
        values = np.concatenate([
            rng.uniform(1.0, 10.0, 20_000),
            [1.0, 1.05, 1.25, 9.95, 9.99999, 2.675, 10.0],
        ])
        former = [f"{round(v, 1)}" for v in values]
        assert former == [repr(v) for v in np.round(values, 1).tolist()]


# -- Column.from_values: whole arrays ---------------------------------------------------

ARRAY_DTYPES = [
    np.dtype(name)
    for name in ("int8", "int16", "int32", "int64", "uint8", "uint16",
                 "uint32", "uint64", "float16", "float32", "float64", "bool",
                 "<U3")
]


@st.composite
def any_array(draw):
    size = draw(st.integers(0, 12))
    if draw(st.booleans()):
        return draw(arrays(draw(st.sampled_from(ARRAY_DTYPES)), size))
    items = st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=2),
                      st.floats(allow_nan=False))
    values = np.empty(size, dtype=object)
    values[:] = draw(st.lists(items, min_size=size, max_size=size))
    return values


class TestFromValuesWholeArrays:
    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_array_builds_the_tolist_column(self, data):
        values = data.draw(any_array())
        sql_type = data.draw(st.sampled_from(list(SqlType)))
        nulls = data.draw(st.none() | arrays(np.bool_, len(values)))
        listed = values.tolist()
        if nulls is not None:
            listed = [None if null else v for v, null in zip(listed, nulls)]
        try:
            expected = reference_from_values("c", sql_type, listed)
        except (TypeError, ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                Column.from_values("c", sql_type, values, nulls)
            return
        assert_same_column(Column.from_values("c", sql_type, values, nulls), expected)

    @pytest.mark.parametrize("values", [
        np.array([0, 2**64 - 1], dtype=np.uint64),
        np.array([2**63 - 1, -(2**63), 2**53 + 1], dtype=np.int64),
        np.array([1.5, np.nan, -0.0, np.inf], dtype=np.float64),
        np.array([1.5, 65504.0, -0.0], dtype=np.float16),
        np.array([True, False]),
        np.array(["a", "", "é😀"]),
    ], ids=lambda values: str(values.dtype))
    @pytest.mark.parametrize("sql_type", list(SqlType), ids=lambda t: t.name)
    def test_dtype_edges(self, values, sql_type):
        try:
            expected = reference_from_values("c", sql_type, values.tolist())
        except (TypeError, ValueError, OverflowError) as exc:
            with pytest.raises(type(exc)):
                Column.from_values("c", sql_type, values)
            return
        assert_same_column(Column.from_values("c", sql_type, values), expected)

    def test_column_does_not_share_the_callers_array(self):
        for values, sql_type in (
            (np.arange(4), SqlType.INTEGER),
            (np.array(["a", "b"]), SqlType.TEXT),
        ):
            nulls = np.array([True] + [False] * (len(values) - 1))
            column = Column.from_values("c", sql_type, values, nulls)
            assert column.data is not values and column.null_mask is not nulls
            assert not np.shares_memory(column.null_mask, nulls)

    def test_mask_of_the_wrong_length(self):
        with pytest.raises(ValueError, match="null mask length"):
            Column.from_values("c", SqlType.INTEGER, np.arange(3), np.ones(2, bool))
        with pytest.raises(ValueError, match="null mask length"):
            Column.from_values("c", SqlType.TEXT, ["a"], np.ones(2, bool))

    def test_from_dict_passes_masks_by_column(self):
        table = Table.from_dict(
            "t",
            {"a": np.array([1, 2, 3]), "b": ["x", "y", "z"]},
            {"a": SqlType.INTEGER, "b": SqlType.TEXT},
            nulls={"a": np.array([False, True, False])},
        )
        assert list(table.rows()) == [(1, "x"), (None, "y"), (3, "z")]
        assert table.column("b").null_mask is None


# -- analyze_column against the reference ----------------------------------------------

BIG_INTEGERS = st.sampled_from(
    [2**53, 2**53 + 1, 2**53 + 2, -(2**53) - 1, 2**63 - 1, -(2**63)]
)
INTEGERS = st.integers(-3, 3) | st.integers(-(2**63), 2**63 - 1) | BIG_INTEGERS
VALUES = {
    SqlType.INTEGER: INTEGERS,
    SqlType.BIGINT: INTEGERS,
    SqlType.DOUBLE: st.floats() | st.sampled_from(
        [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.5, 1.5]
    ),
    SqlType.DATE: st.integers(-3, 3) | st.integers(-800_000, 2_900_000),
    SqlType.BOOLEAN: st.booleans(),
    SqlType.TEXT: st.text(max_size=3)
    | st.sampled_from(["", "a", "é", "\U0001F600", "a\x00", "\x00", "b"])
    | st.integers(-3, 3)
    | st.floats(allow_nan=False)
    | st.booleans(),
}


@st.composite
def typed_column(draw):
    sql_type = draw(st.sampled_from(list(VALUES)))
    items = VALUES[sql_type]
    if draw(st.booleans()):
        items = st.none() | items
    values = draw(st.lists(items, max_size=40))
    return reference_from_values("c", sql_type, values)


def assert_text_rule(column: Column, stats: ColumnStats) -> None:
    """TEXT statistics over the executor's ``str()`` values."""
    texts = [str(v) for v in column.non_null_values().tolist()]
    tally = Counter(texts)
    assert stats.distinct_count == len(tally)
    assert stats.min_value == min(texts) and stats.max_value == max(texts)
    for value, fraction in zip(stats.mcv_values, stats.mcv_fractions):
        assert fraction == tally[value] / len(column)


# np.quantile interpolating between infinities warns, the reference too.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestAnalyzeColumnAsBefore:
    @settings(max_examples=600, deadline=None)
    @given(
        column=typed_column(),
        buckets=st.sampled_from([1, 2, 5, DEFAULT_HISTOGRAM_BUCKETS]),
        mcvs=st.sampled_from([0, 1, 3, DEFAULT_MCV_COUNT]),
    )
    def test_same_statistics(self, column, buckets, mcvs):
        stats = analyze_column(column, buckets, mcvs)
        nul_ended = column.sql_type is SqlType.TEXT and any(
            str(v).endswith("\x00") for v in column.non_null_values().tolist()
        )
        if nul_ended:
            assert_text_rule(column, stats)
        else:
            assert_same_stats_as_before(
                column, stats, reference_analyze_column(column, buckets, mcvs)
            )

    @pytest.mark.parametrize("values", [
        [0.0, -0.0, 0.0, 1.0, -0.0, 2.0],
        [-0.0, 0.0] * 50 + [1.0],
        [math.nan, 1.0, -math.nan, 2.0, math.nan, 0.0, -0.0],
        [math.inf, -math.inf, 0.0, math.inf, -0.0],
        [-0.0, -0.0, 3.0],
        [math.nan] * 4,
        [math.nan, -math.nan, math.nan, 7.0],
        # numpy's sort turns some of these 0.0 into -0.0.
        [1.0, 0.0, 0.0, -1.0, -0.0, 1.0, 1.0, -0.0, 0.0, -0.0],
    ])
    def test_signed_zeros_and_nans(self, values):
        column = reference_from_values("c", SqlType.DOUBLE, values)
        assert_same_stats_as_before(
            column, analyze_column(column), reference_analyze_column(column)
        )


# -- TEXT values that end in NUL -------------------------------------------------------


class TestTrailingNulTextIsKeptApart:
    @pytest.fixture()
    def db(self):
        db = Database("nul")
        db.create_table(Table.from_dict(
            "x", {"c": ["a", "a\x00", "b", "a\x00"]}, {"c": SqlType.TEXT}
        ))
        db.create_table(Table.from_dict("y", {"k": ["a"]}, {"k": SqlType.TEXT}))
        return db

    @staticmethod
    def count(db, sql: str) -> int:
        return int(db.execute(sql).table.columns[0].data[0])

    def test_analyze_counts_three_distinct_values(self, db):
        stats = db.catalog.column_stats("x", "c")
        assert stats.distinct_count == 3.0
        assert stats.mcv_values == ["a\x00"] and stats.mcv_fractions == [0.5]
        assert (stats.min_value, stats.max_value) == ("a", "b")

    def test_explain_estimates_one_row(self, db):
        assert db.explain("SELECT * FROM x WHERE c = 'a'").estimated_rows == 1.0

    def test_in_subquery_matches_as_equality_does(self, db):
        for sql in (
            "SELECT count(*) FROM x WHERE c = 'a'",
            "SELECT count(*) FROM x WHERE c IN ('a')",
            "SELECT count(*) FROM x JOIN y ON x.c = y.k",
            "SELECT count(*) FROM x WHERE c IN (SELECT k FROM y)",
        ):
            assert self.count(db, sql) == 1, sql
        assert self.count(db, "SELECT count(*) FROM x WHERE c NOT IN (SELECT k FROM y)") == 3

    def test_in_subquery_of_mixed_types_compares_text(self, db):
        db.create_table(Table.from_dict(
            "n", {"v": [1, 2, None]}, {"v": SqlType.INTEGER}
        ))
        db.create_table(Table.from_dict(
            "s", {"t": ["1", "2\x00", "3"]}, {"t": SqlType.TEXT}
        ))
        assert self.count(db, "SELECT count(*) FROM n WHERE v IN (SELECT t FROM s)") == 1
        assert self.count(db, "SELECT count(*) FROM s WHERE t IN (SELECT v FROM n)") == 1
