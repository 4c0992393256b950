"""Cost distributions, trackers, and the Wasserstein metric."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workload import CostDistribution, DistributionTracker, GeneratedQuery, Workload


class TestConstruction:
    def test_uniform_counts(self):
        dist = CostDistribution.uniform(0, 100, 103, 10)
        assert dist.total_queries == 103
        assert max(dist.target_counts) - min(dist.target_counts) <= 1

    def test_normal_is_peaked_in_middle(self):
        dist = CostDistribution.normal(0, 100, 1000, 10)
        counts = dist.target_counts
        assert counts[4] + counts[5] > counts[0] + counts[9]
        assert dist.total_queries == 1000

    def test_from_weights_exact_total(self):
        dist = CostDistribution.from_weights(0, 10, [1, 2, 3], 100)
        assert dist.total_queries == 100

    def test_from_samples(self):
        samples = np.concatenate([np.full(90, 5.0), np.full(10, 95.0)])
        dist = CostDistribution.from_samples(samples, 0, 100, 200, 10)
        assert dist.target_counts[0] == 180
        assert dist.target_counts[9] == 20

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            CostDistribution(10, 10, (1,))

    @pytest.mark.parametrize("num_intervals", [0, -1])
    @pytest.mark.parametrize(
        "build",
        [
            lambda n: CostDistribution.uniform(0, 100, 10, n),
            lambda n: CostDistribution.normal(0, 100, 10, n),
            lambda n: CostDistribution.from_samples([1.0, 50.0], 0, 100, 10, n),
        ],
        ids=["uniform", "normal", "from_samples"],
    )
    def test_no_intervals_rejected(self, build, num_intervals):
        with pytest.raises(ValueError, match="at least one interval is required"):
            build(num_intervals)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            CostDistribution(0, 10, (1, -1))

    def test_scaled_to_preserves_shape(self):
        dist = CostDistribution.normal(0, 100, 1000, 10)
        scaled = dist.scaled_to(100)
        assert scaled.total_queries == 100
        assert np.argmax(scaled.target_counts) in (4, 5)

    def test_with_intervals_rebins(self):
        dist = CostDistribution.uniform(0, 100, 1000, 10)
        rebinned = dist.with_intervals(20)
        assert rebinned.num_intervals == 20
        assert rebinned.total_queries == 1000


class TestGeometry:
    dist = CostDistribution.uniform(0, 100, 100, 10)

    def test_interval_of_interior(self):
        assert self.dist.interval_of(25) == 2

    def test_interval_of_boundary_goes_right(self):
        assert self.dist.interval_of(10) == 1

    def test_upper_bound_in_last_interval(self):
        assert self.dist.interval_of(100) == 9

    def test_out_of_range(self):
        assert self.dist.interval_of(-1) is None
        assert self.dist.interval_of(101) is None

    def test_interval_bounds(self):
        assert self.dist.interval_bounds(0) == (0.0, 10.0)
        assert self.dist.interval_bounds(9) == (90.0, 100.0)

    def test_midpoints(self):
        assert self.dist.midpoints[0] == pytest.approx(5.0)


class TestCoverageAndDistance:
    dist = CostDistribution.uniform(0, 100, 100, 10)

    def perfect_costs(self):
        costs = []
        for i, count in enumerate(self.dist.target_counts):
            low, high = self.dist.interval_bounds(i)
            costs.extend(np.linspace(low, high - 0.01, count))
        return costs

    def test_coverage_counts(self):
        coverage = self.dist.coverage([5, 15, 15, 95])
        assert coverage[0] == 1 and coverage[1] == 2 and coverage[9] == 1

    def test_out_of_range_dropped(self):
        assert self.dist.coverage([-5, 105]).sum() == 0

    def test_exact_match_distance_zero(self):
        assert self.dist.wasserstein(self.perfect_costs()) == pytest.approx(0.0)

    def test_empty_costs_max_distance(self):
        assert self.dist.wasserstein([]) > 0

    def test_distance_decreases_as_target_fills(self):
        costs = self.perfect_costs()
        partial = self.dist.wasserstein(costs[: len(costs) // 2])
        full = self.dist.wasserstein(costs)
        assert full < partial or full == pytest.approx(0.0)

    def test_count_distance_zero_iff_exact(self):
        assert self.dist.count_distance(self.perfect_costs()) == 0
        assert self.dist.count_distance([]) == 100

    def test_deficits(self):
        deficits = self.dist.deficits([5.0] * 10)
        assert deficits[0] == 0
        assert deficits[1] == 10

    def test_is_satisfied_by(self):
        assert self.dist.is_satisfied_by(self.perfect_costs())
        assert not self.dist.is_satisfied_by([])

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_wasserstein_nonnegative_and_bounded(self, costs):
        dist = CostDistribution.uniform(0, 100, 50, 10)
        value = dist.wasserstein(costs)
        assert 0.0 <= value <= 100.0


class TestTracker:
    def test_add_reports_interval(self):
        tracker = DistributionTracker(CostDistribution.uniform(0, 10, 10, 2))
        assert tracker.add(2.0) == 0
        assert tracker.add(7.0) == 1
        assert tracker.add(99.0) is None

    def test_complete_flag(self):
        dist = CostDistribution(0, 10, (1, 1))
        tracker = DistributionTracker(dist)
        assert not tracker.complete
        tracker.add_many([2.0, 7.0])
        assert tracker.complete

    def test_wasserstein_delegates(self):
        dist = CostDistribution(0, 10, (1, 1))
        tracker = DistributionTracker(dist)
        tracker.add_many([2.0, 7.0])
        assert tracker.wasserstein == pytest.approx(0.0)


def tracker_costs(rng: np.random.Generator, dist: CostDistribution) -> list[float]:
    """Costs inside, below and above the range, on every boundary and at
    ``upper`` itself."""
    boundaries = [float(b) for b in dist.boundaries]
    pool = boundaries + [dist.upper, dist.lower - 1.0, dist.upper + 1e-9]
    costs = []
    for _ in range(int(rng.integers(1, 60))):
        roll = rng.random()
        if roll < 0.3:
            costs.append(pool[int(rng.integers(0, len(pool)))])
        elif roll < 0.4:
            costs.append(float(rng.uniform(dist.lower - 50, dist.upper + 50)))
        else:
            costs.append(float(rng.uniform(dist.lower, dist.upper)))
    return costs


class TestTrackerCounts:
    @pytest.mark.parametrize("seed", range(40))
    def test_reads_equal_a_recount_after_every_add(self, seed):
        rng = np.random.default_rng(seed)
        lower = float(rng.uniform(-100, 100))
        upper = lower + float(rng.uniform(0.5, 1000))
        counts = tuple(int(c) for c in rng.integers(0, 4, int(rng.integers(1, 21))))
        dist = CostDistribution(lower, upper, counts)
        tracker = DistributionTracker(dist)
        kept: list[float] = []
        for cost in tracker_costs(rng, dist):
            landed = tracker.add(cost)
            kept.append(cost)
            assert landed == dist.interval_of(cost)
            assert tracker.costs == kept
            recount = dist.coverage(kept)
            achieved = tracker.achieved
            assert achieved.dtype == recount.dtype
            assert np.array_equal(achieved, recount)
            assert np.array_equal(tracker.deficits, dist.deficits(kept))
            assert tracker.wasserstein == dist.wasserstein(kept)
            assert tracker.complete == dist.is_satisfied_by(kept)
            achieved[:] += 7  # a copy: the tracker must not see this
            assert np.array_equal(tracker.achieved, recount)

    def test_initial_costs_are_counted(self):
        dist = CostDistribution(0, 10, (1, 2))
        tracker = DistributionTracker(dist, costs=[1.0, 6.0, 10.0, 11.0])
        assert tracker.achieved.tolist() == [1, 2]
        assert tracker.complete
        tracker.add(3.0)
        assert tracker.achieved.tolist() == [2, 2]


class TestWorkloadContainer:
    def test_jsonl_roundtrip(self):
        workload = Workload(name="w")
        workload.add(
            GeneratedQuery(
                sql="SELECT 1",
                cost=12.5,
                template_id="t1",
                predicate_values={"p_1": 3},
            )
        )
        workload.add(GeneratedQuery(sql="SELECT 2", cost=99.0))
        restored = Workload.from_jsonl(workload.to_jsonl())
        assert len(restored) == 2
        assert restored.queries[0].predicate_values == {"p_1": 3}
        assert restored.costs == [12.5, 99.0]

    def test_template_ids(self):
        workload = Workload()
        workload.extend(
            [
                GeneratedQuery("SELECT 1", 1.0, template_id="a"),
                GeneratedQuery("SELECT 2", 2.0, template_id="a"),
                GeneratedQuery("SELECT 3", 3.0),
            ]
        )
        assert workload.template_ids == {"a"}
