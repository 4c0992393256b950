"""Target cost distributions and the Wasserstein alignment metric.

A :class:`CostDistribution` is what the paper calls a *target cost
distribution* (Def. 2.12): a cost range split into intervals, each with a
target query count.  The Wasserstein (earth mover's) distance between the
target histogram and the histogram of generated query costs is the paper's
quality metric; both histograms live on interval midpoints, so an exact
per-interval count match yields distance zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np


def _require_intervals(num_intervals: int) -> None:
    if num_intervals < 1:
        raise ValueError("at least one interval is required")


@dataclass(frozen=True)
class CostDistribution:
    """A histogram-shaped target: intervals over a cost range + counts."""

    lower: float
    upper: float
    target_counts: tuple[int, ...]
    name: str = "custom"
    cost_type: str = "plan_cost"  # 'plan_cost' | 'cardinality' | 'execution_time'

    def __post_init__(self) -> None:
        if self.upper <= self.lower:
            raise ValueError("upper bound must exceed lower bound")
        if not self.target_counts:
            raise ValueError("at least one interval is required")
        if any(c < 0 for c in self.target_counts):
            raise ValueError("target counts must be non-negative")

    # -- geometry -------------------------------------------------------------

    @property
    def num_intervals(self) -> int:
        return len(self.target_counts)

    @property
    def total_queries(self) -> int:
        return int(sum(self.target_counts))

    @property
    def interval_width(self) -> float:
        return (self.upper - self.lower) / self.num_intervals

    @property
    def boundaries(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.num_intervals + 1)

    @property
    def midpoints(self) -> np.ndarray:
        bounds = self.boundaries
        return (bounds[:-1] + bounds[1:]) / 2.0

    def interval_bounds(self, index: int) -> tuple[float, float]:
        bounds = self.boundaries
        return float(bounds[index]), float(bounds[index + 1])

    def interval_of(self, cost: float) -> int | None:
        """The interval index containing *cost*, or None if out of range."""
        if cost < self.lower or cost > self.upper:
            return None
        index = int((cost - self.lower) / self.interval_width)
        return min(index, self.num_intervals - 1)

    # -- histograms over generated costs -------------------------------------------

    def coverage(self, costs: Iterable[float]) -> np.ndarray:
        """Per-interval counts of *costs* (out-of-range costs are dropped)."""
        counts = np.zeros(self.num_intervals, dtype=np.int64)
        for cost in costs:
            index = self.interval_of(float(cost))
            if index is not None:
                counts[index] += 1
        return counts

    def deficits(self, costs: Iterable[float]) -> np.ndarray:
        """target - achieved per interval, floored at zero."""
        achieved = self.coverage(costs)
        target = np.asarray(self.target_counts, dtype=np.int64)
        return np.maximum(target - achieved, 0)

    def wasserstein(self, costs: Sequence[float]) -> float:
        """W1 distance between the target histogram and the cost histogram.

        Both distributions are normalized and placed on interval midpoints.
        An empty *costs* sequence compares against a point mass at the lower
        bound, so the metric starts high and decreases toward zero as the
        target fills — matching how the paper plots convergence.
        """
        return self.wasserstein_of_counts(self.coverage(costs))

    def wasserstein_of_counts(self, achieved: np.ndarray) -> float:
        """:meth:`wasserstein` of costs whose :meth:`coverage` is *achieved*."""
        target = np.asarray(self.target_counts, dtype=np.float64)
        target_total = target.sum()
        if target_total == 0:
            return 0.0
        target_pmf = target / target_total
        achieved = np.asarray(achieved, dtype=np.float64)
        achieved_total = achieved.sum()
        if achieved_total == 0:
            achieved_pmf = np.zeros_like(target_pmf)
            achieved_pmf[0] = 1.0
        else:
            achieved_pmf = achieved / achieved_total
        # W1 over an ordered 1-D support = sum |CDF differences| * spacing.
        cdf_gap = np.cumsum(target_pmf - achieved_pmf)
        return float(np.abs(cdf_gap[:-1]).sum() * self.interval_width)

    def count_distance(self, costs: Sequence[float]) -> int:
        """Total absolute per-interval count mismatch (0 = exact match)."""
        achieved = self.coverage(costs)
        target = np.asarray(self.target_counts, dtype=np.int64)
        return int(np.abs(target - achieved).sum())

    def is_satisfied_by(self, costs: Sequence[float]) -> bool:
        """Every interval has at least its target number of queries."""
        return bool((self.deficits(costs) == 0).all())

    # -- constructors -----------------------------------------------------------

    @staticmethod
    def uniform(
        lower: float,
        upper: float,
        num_queries: int,
        num_intervals: int,
        name: str = "uniform",
        cost_type: str = "plan_cost",
    ) -> "CostDistribution":
        _require_intervals(num_intervals)
        base, extra = divmod(num_queries, num_intervals)
        counts = tuple(
            base + (1 if i < extra else 0) for i in range(num_intervals)
        )
        return CostDistribution(lower, upper, counts, name, cost_type)

    @staticmethod
    def normal(
        lower: float,
        upper: float,
        num_queries: int,
        num_intervals: int,
        mean_fraction: float = 0.5,
        std_fraction: float = 0.18,
        name: str = "normal",
        cost_type: str = "plan_cost",
    ) -> "CostDistribution":
        """A discretized Gaussian over the cost range."""
        _require_intervals(num_intervals)
        mids = np.linspace(0, 1, num_intervals + 1)
        mids = (mids[:-1] + mids[1:]) / 2
        density = np.exp(-0.5 * ((mids - mean_fraction) / std_fraction) ** 2)
        return CostDistribution.from_weights(
            lower, upper, density, num_queries, name, cost_type
        )

    @staticmethod
    def from_weights(
        lower: float,
        upper: float,
        weights: Sequence[float],
        num_queries: int,
        name: str = "weighted",
        cost_type: str = "plan_cost",
    ) -> "CostDistribution":
        """Allocate *num_queries* across intervals proportionally to weights.

        Rounding is largest-remainder so the counts sum exactly to
        *num_queries*.
        """
        weights = np.asarray(weights, dtype=np.float64)
        if (weights < 0).any() or weights.sum() <= 0:
            raise ValueError("weights must be non-negative and not all zero")
        shares = weights / weights.sum() * num_queries
        counts = np.floor(shares).astype(np.int64)
        remainder = num_queries - int(counts.sum())
        if remainder > 0:
            order = np.argsort(shares - counts)[::-1]
            counts[order[:remainder]] += 1
        return CostDistribution(lower, upper, tuple(int(c) for c in counts), name, cost_type)

    @staticmethod
    def from_samples(
        samples: Sequence[float],
        lower: float,
        upper: float,
        num_queries: int,
        num_intervals: int,
        name: str = "sampled",
        cost_type: str = "plan_cost",
    ) -> "CostDistribution":
        """Fit the target histogram to empirical samples (fleet statistics)."""
        _require_intervals(num_intervals)
        bounds = np.linspace(lower, upper, num_intervals + 1)
        clipped = np.clip(np.asarray(samples, dtype=np.float64), lower, upper)
        histogram, _ = np.histogram(clipped, bins=bounds)
        weights = histogram.astype(np.float64)
        if weights.sum() == 0:
            weights[:] = 1.0
        return CostDistribution.from_weights(
            lower, upper, weights, num_queries, name, cost_type
        )

    def scaled_to(self, num_queries: int) -> "CostDistribution":
        """The same shape re-normalized to a different total query count."""
        return CostDistribution.from_weights(
            self.lower,
            self.upper,
            np.maximum(np.asarray(self.target_counts, dtype=np.float64), 1e-9),
            num_queries,
            self.name,
            self.cost_type,
        )

    def with_intervals(self, num_intervals: int) -> "CostDistribution":
        """The same shape re-binned to a different interval count."""
        mids = np.linspace(0, 1, num_intervals + 1)
        mids = (mids[:-1] + mids[1:]) / 2
        old_mids = (np.linspace(0, 1, self.num_intervals + 1)[:-1]
                    + np.linspace(0, 1, self.num_intervals + 1)[1:]) / 2
        weights = np.interp(mids, old_mids, np.asarray(self.target_counts, float))
        return CostDistribution.from_weights(
            self.lower, self.upper, np.maximum(weights, 1e-9),
            self.total_queries, self.name, self.cost_type,
        )


@dataclass
class DistributionTracker:
    """Mutable view of generation progress against one target distribution.

    ``add`` keeps a per-interval count vector up to date, so reading the
    progress costs the same however many costs were kept; every read equals
    the recount ``target.coverage(costs)`` would give.  Record costs through
    ``add``/``add_many``: the vector does not see a direct edit of ``costs``.
    """

    target: CostDistribution
    costs: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._counts = self.target.coverage(self.costs)
        self._target_counts = np.asarray(self.target.target_counts, dtype=np.int64)

    def add(self, cost: float) -> int | None:
        """Record a generated query cost; returns the interval it landed in."""
        cost = float(cost)
        self.costs.append(cost)
        index = self.target.interval_of(cost)
        if index is not None:
            self._counts[index] += 1
        return index

    def add_many(self, costs: Iterable[float]) -> None:
        for cost in costs:
            self.add(cost)

    @property
    def achieved(self) -> np.ndarray:
        return self._counts.copy()

    @property
    def deficits(self) -> np.ndarray:
        return np.maximum(self._target_counts - self._counts, 0)

    @property
    def wasserstein(self) -> float:
        return self.target.wasserstein_of_counts(self._counts)

    @property
    def complete(self) -> bool:
        return bool((self._counts >= self._target_counts).all())
