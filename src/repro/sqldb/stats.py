"""Column statistics and selectivity estimation.

This module is the engine's answer to PostgreSQL's ``pg_statistic``: each
analyzed column gets a null fraction, a distinct count, a most-common-values
list, and an equi-depth histogram.  The selectivity functions drive both the
cardinality estimates in ``EXPLAIN`` output and the cost-based plan choices —
which is exactly the signal SQLBarber's profiling and Bayesian optimization
loops consume, so the estimates here must respond smoothly to predicate
values.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .expr_eval import _text_values
from .storage import Column
from .types import SqlType

DEFAULT_HISTOGRAM_BUCKETS = 100
DEFAULT_MCV_COUNT = 10
# Fallback selectivities, mirroring PostgreSQL's defaults.
DEFAULT_EQ_SELECTIVITY = 0.005
DEFAULT_RANGE_SELECTIVITY = 1.0 / 3.0
DEFAULT_LIKE_SELECTIVITY = 0.05


@dataclass
class Histogram:
    """Equi-depth histogram over the non-null, non-MCV values of a column.

    ``bounds`` has ``buckets + 1`` entries; bucket *i* covers
    ``[bounds[i], bounds[i+1])`` and holds ~1/buckets of the rows.
    """

    bounds: np.ndarray

    @property
    def num_buckets(self) -> int:
        return max(len(self.bounds) - 1, 0)

    def fraction_below(self, value: float) -> float:
        """Estimated fraction of histogram values strictly below *value*."""
        # Bisect over a cached Python list: same index and same float
        # arithmetic as np.searchsorted over the ndarray (NaN sorts last
        # either way), without the per-call numpy scalar overhead — this
        # sits on the per-binding re-costing hot path.
        bounds = self.__dict__.get("_bounds_list")
        if bounds is None:
            bounds = self.bounds.tolist()
            self._bounds_list = bounds
        if self.num_buckets == 0:
            return 0.5
        if value <= bounds[0]:
            return 0.0
        if value >= bounds[-1]:
            return 1.0
        bucket = bisect_right(bounds, value) - 1
        bucket = min(bucket, self.num_buckets - 1)
        low, high = bounds[bucket], bounds[bucket + 1]
        within = 0.5 if high <= low else (value - low) / (high - low)
        return (bucket + within) / self.num_buckets

    def fraction_between(self, low: float, high: float) -> float:
        if high < low:
            return 0.0
        return max(self.fraction_below(high) - self.fraction_below(low), 0.0)


@dataclass
class ColumnStats:
    """Summary statistics for one column, produced by :func:`analyze_column`."""

    null_fraction: float
    distinct_count: float
    min_value: float | str | None
    max_value: float | str | None
    mcv_values: list = field(default_factory=list)
    mcv_fractions: list[float] = field(default_factory=list)
    histogram: Histogram | None = None
    row_count: int = 0

    @property
    def mcv_total_fraction(self) -> float:
        return float(sum(self.mcv_fractions))

    # -- selectivity estimators --------------------------------------------

    def eq_selectivity(self, value) -> float:
        """Selectivity of ``col = value``."""
        if value is None:
            return 0.0
        nonnull = 1.0 - self.null_fraction
        if nonnull <= 0.0:
            return 0.0
        # Compare against Python-native MCV values (cached): numpy scalar
        # equality costs a ufunc dispatch per MCV, and this loop runs for
        # every equality/range estimate on the re-costing hot path.  The
        # values are identical, so the matches (and fractions) are too.
        mcvs = self.__dict__.get("_mcv_native")
        if mcvs is None:
            mcvs = [_to_python(v) for v in self.mcv_values]
            self._mcv_native = mcvs
        for mcv, fraction in zip(mcvs, self.mcv_fractions):
            try:
                if mcv == value:
                    return fraction
            except Exception:
                pass
        remaining_fraction = max(nonnull - self.mcv_total_fraction, 0.0)
        remaining_distinct = max(self.distinct_count - len(self.mcv_values), 1.0)
        if _is_numeric(value) and self.min_value is not None:
            # Out-of-range equality matches nothing.
            try:
                if value < self.min_value or value > self.max_value:
                    return 0.0
            except TypeError:
                pass
        return min(remaining_fraction / remaining_distinct, 1.0)

    def range_selectivity(self, op: str, value) -> float:
        """Selectivity of ``col <op> value`` for ``<, <=, >, >=``."""
        if value is None:
            return 0.0
        nonnull = 1.0 - self.null_fraction
        if self.histogram is None or not _is_numeric(value):
            return DEFAULT_RANGE_SELECTIVITY * nonnull
        below = self.histogram.fraction_below(float(value))
        eq = self.eq_selectivity(value) / max(nonnull, 1e-12)
        if op == "<":
            fraction = below
        elif op == "<=":
            fraction = below + eq
        elif op == ">":
            fraction = 1.0 - below - eq
        elif op == ">=":
            fraction = 1.0 - below
        else:
            raise ValueError(f"not a range operator: {op}")
        # MCVs are folded into the histogram fraction proportionally, which is
        # a simplification of PostgreSQL's split accounting but monotone in
        # the predicate value — the property the BO loop needs.  Scalar
        # min/max clamps exactly like np.clip here, including NaN
        # passthrough (max(nan, 0.0) keeps the NaN first argument).
        return float(min(max(fraction, 0.0), 1.0)) * nonnull

    def between_selectivity(self, low, high) -> float:
        if low is None or high is None:
            return 0.0
        nonnull = 1.0 - self.null_fraction
        if self.histogram is None or not (_is_numeric(low) and _is_numeric(high)):
            return DEFAULT_RANGE_SELECTIVITY * nonnull * 0.5
        fraction = self.histogram.fraction_between(float(low), float(high))
        return float(min(max(fraction, 0.0), 1.0)) * nonnull


def like_selectivity(pattern: str) -> float:
    """Heuristic selectivity of a LIKE pattern, PostgreSQL-style.

    A leading wildcard prevents index-range reasoning, so the estimate only
    depends on the number of literal characters: each literal character
    multiplies selectivity by a fixed factor (``0.9`` per char, ``0.2`` per
    leading literal run), bounded to PostgreSQL-like defaults.
    """
    if pattern is None:
        return 0.0
    literals = sum(1 for ch in pattern if ch not in "%_")
    if literals == 0:
        return 1.0
    sel = DEFAULT_LIKE_SELECTIVITY * (0.9 ** max(literals - 4, 0))
    return float(np.clip(sel, 1e-5, 1.0))


def analyze_column(
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

    orderable = column.sql_type.is_numeric or column.sql_type is SqlType.DATE
    if column.sql_type is SqlType.TEXT:
        # The executor's text values, tallied: a fixed-width unicode array
        # would drop trailing NULs and merge 'a\x00' into 'a'.  Python
        # and numpy both order strings by code point.
        tally = Counter(_text_values(values).tolist())
        uniques = sorted(tally)
        counts = np.array([tally[text] for text in uniques], dtype=np.intp)
    elif orderable:
        # One sort feeds the distinct counts and the histogram.
        ordered = np.sort(values)
        uniques, counts = _sorted_unique_counts(ordered)
    else:  # BOOLEAN
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
    if orderable:
        numeric = ordered.astype(np.float64, copy=False)
        if _order_ambiguous(values, ordered):
            # Which of the equal values the quantile picks, and their
            # bits, depend on the input order: use the values as stored.
            numeric = values.astype(np.float64)
        min_value = float(numeric.min())
        max_value = float(numeric.max())
        buckets = min(histogram_buckets, max(len(numeric) // 2, 1))
        quantiles = np.linspace(0.0, 1.0, buckets + 1)
        bounds = np.quantile(numeric, quantiles)
        histogram = Histogram(bounds=bounds)
    elif column.sql_type is SqlType.TEXT:
        # The distinct texts are sorted, so the ends are min and max.
        min_value = uniques[0]
        max_value = uniques[-1]
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


def _sorted_unique_counts(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_counts=True)`` given ``np.sort(values)``.

    The same sort numpy's ``unique`` runs, then its run detection: equal
    neighbours start no new run, and every NaN joins the first one.
    """
    starts = np.empty(len(ordered), dtype=bool)
    starts[:1] = True
    if ordered.dtype.kind == "f" and len(ordered) and np.isnan(ordered[-1]):
        first_nan = int(np.searchsorted(ordered, ordered[-1], side="left"))
        if first_nan > 0:
            starts[1:first_nan] = ordered[1:first_nan] != ordered[: first_nan - 1]
        starts[first_nan] = True
        starts[first_nan + 1 :] = False
    else:
        starts[1:] = ordered[1:] != ordered[:-1]
    bounds = np.concatenate(np.nonzero(starts) + ([len(ordered)],))
    return ordered[starts], np.diff(bounds)


def _order_ambiguous(values: np.ndarray, ordered: np.ndarray) -> bool:
    """Whether float *values* (sorted: *ordered*) hold a NaN, or zeros of
    both signs: equal values whose bits differ.  numpy's vectorized sort
    need not keep those bits (it can turn a 0.0 into -0.0)."""
    if values.dtype.kind != "f":
        return False
    if np.isnan(ordered[-1]):
        return True
    negative = np.signbit(values[values == 0.0])
    return bool(negative.any() and not negative.all())


def join_selectivity(left: ColumnStats | None, right: ColumnStats | None) -> float:
    """Equi-join selectivity: ``1 / max(ndv_left, ndv_right)`` (System R)."""
    ndv_left = left.distinct_count if left else 0.0
    ndv_right = right.distinct_count if right else 0.0
    largest = max(ndv_left, ndv_right, 1.0)
    return 1.0 / largest


def _is_numeric(value) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )


def _to_python(value):
    return value.item() if hasattr(value, "item") else value
