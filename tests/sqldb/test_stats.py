"""Statistics and selectivity estimation, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sqldb.stats import (
    ColumnStats,
    Histogram,
    analyze_column,
    join_selectivity,
    like_selectivity,
)
from repro.sqldb.storage import Column
from repro.sqldb.types import SqlType


def int_column(values):
    return Column.from_values("x", SqlType.INTEGER, values)


class TestAnalyzeColumn:
    def test_basic_fields(self):
        stats = analyze_column(int_column(list(range(100))))
        assert stats.row_count == 100
        assert stats.distinct_count == 100
        assert stats.null_fraction == 0.0
        assert stats.min_value == 0
        assert stats.max_value == 99
        assert stats.histogram is not None

    def test_null_fraction(self):
        stats = analyze_column(int_column([1, 2, None, None]))
        assert stats.null_fraction == pytest.approx(0.5)

    def test_all_null_column(self):
        stats = analyze_column(int_column([None, None]))
        assert stats.null_fraction == 1.0
        assert stats.distinct_count == 0.0

    def test_empty_column(self):
        stats = analyze_column(int_column([]))
        assert stats.row_count == 0

    def test_mcv_detection(self):
        # 7 is massively overrepresented
        values = [7] * 500 + list(range(100))  # 7 occurs 501 times in total
        stats = analyze_column(int_column(values))
        assert 7 in stats.mcv_values
        index = stats.mcv_values.index(7)
        assert stats.mcv_fractions[index] == pytest.approx(501 / 600)

    def test_uniform_column_has_no_mcvs(self):
        stats = analyze_column(int_column(list(range(1000))))
        assert stats.mcv_values == []

    def test_text_column(self):
        col = Column.from_values("s", SqlType.TEXT, ["b", "a", "c", "a"])
        stats = analyze_column(col)
        assert stats.min_value == "a"
        assert stats.max_value == "c"
        assert stats.distinct_count == 3
        assert stats.histogram is None


class TestEqSelectivity:
    def test_mcv_hit_is_exact(self):
        stats = analyze_column(int_column([7] * 90 + [1] * 10))
        assert stats.eq_selectivity(7) == pytest.approx(0.9)

    def test_non_mcv_uses_remaining_mass(self):
        stats = analyze_column(int_column(list(range(100))))
        assert stats.eq_selectivity(50) == pytest.approx(0.01, rel=0.5)

    def test_out_of_range_is_zero(self):
        stats = analyze_column(int_column(list(range(100))))
        assert stats.eq_selectivity(1000) == 0.0

    def test_null_value_is_zero(self):
        stats = analyze_column(int_column([1, 2, 3]))
        assert stats.eq_selectivity(None) == 0.0


class TestRangeSelectivity:
    @pytest.fixture()
    def stats(self):
        return analyze_column(int_column(list(range(1000))))

    def test_below_min(self, stats):
        assert stats.range_selectivity("<", -5) == pytest.approx(0.0, abs=0.01)

    def test_above_max(self, stats):
        assert stats.range_selectivity("<", 5000) == pytest.approx(1.0, abs=0.01)

    def test_median(self, stats):
        assert stats.range_selectivity("<", 500) == pytest.approx(0.5, abs=0.05)

    def test_complements_sum_to_one(self, stats):
        below = stats.range_selectivity("<=", 300)
        above = stats.range_selectivity(">", 300)
        assert below + above == pytest.approx(1.0, abs=0.02)

    def test_between(self, stats):
        sel = stats.between_selectivity(250, 750)
        assert sel == pytest.approx(0.5, abs=0.05)

    def test_between_inverted_bounds_zero(self, stats):
        assert stats.between_selectivity(750, 250) == pytest.approx(0.0, abs=0.01)

    @given(st.integers(min_value=-100, max_value=1100))
    @settings(max_examples=50, deadline=None)
    def test_monotone_in_value(self, value):
        stats = analyze_column(int_column(list(range(1000))))
        sel_a = stats.range_selectivity("<", value)
        sel_b = stats.range_selectivity("<", value + 10)
        assert sel_b >= sel_a - 1e-9

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=2, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_selectivity_always_in_unit_interval(self, values):
        stats = analyze_column(int_column(values))
        for op in ("<", "<=", ">", ">="):
            for probe in (min(values) - 1, values[0], max(values) + 1):
                sel = stats.range_selectivity(op, probe)
                assert 0.0 <= sel <= 1.0


class TestHistogram:
    def test_fraction_below_bounds(self):
        hist = Histogram(bounds=np.array([0.0, 10.0, 20.0]))
        assert hist.fraction_below(-1) == 0.0
        assert hist.fraction_below(100) == 1.0
        assert hist.fraction_below(10.0) == pytest.approx(0.5)

    def test_interpolation_within_bucket(self):
        hist = Histogram(bounds=np.array([0.0, 10.0]))
        assert hist.fraction_below(2.5) == pytest.approx(0.25)

    def test_empty_histogram(self):
        hist = Histogram(bounds=np.array([]))
        assert hist.fraction_below(1.0) == 0.5


def double_column(values):
    return Column("x", SqlType.DOUBLE, np.array(values, dtype=np.float64))


class TestInfiniteValues:
    """ANALYZE of a DOUBLE column holding an infinity: np.quantile's
    interpolation meets ``inf - inf`` or ``inf * 0`` there, and the bound
    must be its limit instead of NaN."""

    def test_bounds_take_the_limit(self):
        inf = np.inf
        bounds = analyze_column(double_column([-inf, 1, 2, 3, inf])).histogram.bounds
        assert bounds.tolist() == [-inf, 2.0, inf]
        bounds = analyze_column(double_column([1, 2, 3, inf])).histogram.bounds
        assert bounds.tolist() == [1.0, 2.5, inf]
        values = list(np.arange(200.0)) + [inf, -inf]
        bounds = analyze_column(double_column(values)).histogram.bounds
        assert len(bounds) == 101 and not np.isnan(bounds).any()
        assert bounds[0] == -inf and bounds[-1] == inf
        # From -inf to +inf: the endpoint numpy's lerp starts from, a below
        # t = 0.5 (the third bound, t = 1/3) and b from it on (t = 0.5).
        bounds = analyze_column(double_column([-inf] * 4 + [inf] * 2)).histogram.bounds
        assert bounds.tolist() == [-inf, -inf, -inf, inf]
        bounds = analyze_column(double_column([-inf, -inf, inf, inf])).histogram.bounds
        assert bounds.tolist() == [-inf, inf, inf]

    def test_an_overflowing_span_is_not_nan(self):
        bounds = analyze_column(double_column([-1e308, 1e308])).histogram.bounds
        assert bounds.tolist() == [-1e308, 1e308]

    def test_range_selectivity_is_a_fraction(self):
        stats = analyze_column(double_column([-np.inf, 1, 2, 3, np.inf]))
        for op in ("<", "<=", ">", ">="):
            sel = stats.range_selectivity(op, 1.5)
            assert np.isfinite(sel) and 0.0 <= sel <= 1.0
        assert stats.range_selectivity("<", 1.5) == pytest.approx(0.5)
        assert 0.0 <= stats.between_selectivity(0.0, 2.5) <= 1.0

    def test_infinite_buckets_interpolate_to_their_limit(self):
        hist = Histogram(bounds=np.array([-np.inf, 0.0, np.inf]))
        assert hist.fraction_below(-5.0) == 0.5  # all of the -inf end below
        assert hist.fraction_below(5.0) == 0.5  # all of the +inf end above
        assert Histogram(bounds=np.array([-np.inf, np.inf])).fraction_below(3.0) == 0.5

    @given(
        st.lists(
            st.one_of(
                # Finite values far from overflow: a span wider than the
                # largest double interpolates to ±inf, not NaN, in numpy.
                st.floats(min_value=-1e300, max_value=1e300),
                st.sampled_from([np.inf, -np.inf]),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_no_nan_unless_a_nan_value(self, values):
        stats = analyze_column(double_column(values))
        bounds = stats.histogram.bounds
        assert not np.isnan(bounds).any()
        assert (bounds[1:] >= bounds[:-1]).all()
        for probe in (-1e300, -1.0, 0.0, 0.5, 1e300, values[0]):
            for op in ("<", "<=", ">", ">="):
                sel = stats.range_selectivity(op, probe)
                assert np.isfinite(sel) and 0.0 <= sel <= 1.0

    def test_a_nan_value_still_gives_nan(self):
        bounds = analyze_column(double_column([np.nan, 1.0, np.inf])).histogram.bounds
        assert np.isnan(bounds).all()

    @pytest.mark.parametrize("seed", range(20))
    def test_finite_columns_keep_numpys_bounds(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(0.0, 10.0 ** rng.uniform(-3, 6), int(rng.integers(1, 500)))
        values[rng.random(len(values)) < 0.2] = 0.0
        values[rng.random(len(values)) < 0.1] = -0.0
        stats = analyze_column(double_column(values))
        buckets = min(100, max(len(values) // 2, 1))
        expected = np.quantile(values, np.linspace(0.0, 1.0, buckets + 1))
        assert stats.histogram.bounds.tobytes() == expected.tobytes()


class TestLikeSelectivity:
    def test_all_wildcard_is_one(self):
        assert like_selectivity("%") == 1.0

    def test_more_literals_more_selective(self):
        assert like_selectivity("%abcdef%") <= like_selectivity("%ab%")

    def test_bounds(self):
        for pattern in ("%", "a", "%x%", "a_b%c"):
            assert 0.0 < like_selectivity(pattern) <= 1.0

    def test_none_pattern(self):
        assert like_selectivity(None) == 0.0


class TestJoinSelectivity:
    def test_uses_larger_ndv(self):
        a = ColumnStats(0.0, 100.0, 0, 99)
        b = ColumnStats(0.0, 10.0, 0, 9)
        assert join_selectivity(a, b) == pytest.approx(1 / 100)

    def test_missing_stats(self):
        assert join_selectivity(None, None) == 1.0
