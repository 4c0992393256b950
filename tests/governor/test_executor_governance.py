"""The executor under governance: operator-boundary checks on real queries.

The executor charges each operator's output frame once, when it has
materialized; inside operators it pre-admits nested-loop cross products
and re-checks hash-join growth every 8,192 pairs.
"""

import pytest

from repro.governor import GovernorLimits, QueryGovernor, clock_for, use_governor
from repro.sqldb import (
    MemoryBudgetExceeded,
    QueryTimeout,
    ResourceExceeded,
    RowBudgetExceeded,
)
from repro.sqldb.errors import QueryCancelled

RUNAWAY = "SELECT * FROM users, orders, items WHERE users.age > 30"
JOINED = (
    "SELECT users.name, orders.amount FROM users "
    "JOIN orders ON users.user_id = orders.user_id "
    "WHERE orders.amount > 50.0"
)
# Each of the 600 orders pairs with every order of its status: 72,000 pairs.
SKEWED_JOIN = (
    "SELECT a.order_id, b.order_id FROM orders a "
    "JOIN orders b ON a.status = b.status "
    "WHERE a.user_id IN (SELECT users.user_id FROM users)"
)


def governed(**limits):
    return QueryGovernor(
        GovernorLimits(**limits), clock=clock_for("simulated")
    )


class TestCrossJoinRefusal:
    def test_row_budget_refuses_cross_product(self, gov_db):
        gov = governed(row_budget=10_000)
        with use_governor(gov):
            with pytest.raises(RowBudgetExceeded, match="would materialize"):
                gov_db.execute(RUNAWAY)
        # Refused at pre-admission: well under the full 72k-row product.
        assert gov.rows_processed < 10_000

    def test_error_carries_source_snippet(self, gov_db):
        with use_governor(governed(row_budget=10_000)):
            with pytest.raises(ResourceExceeded) as excinfo:
                gov_db.execute(RUNAWAY)
        assert "SELECT * FROM users" in excinfo.value.context_snippet()

    def test_memory_budget_refuses_cross_product(self, gov_db):
        with use_governor(governed(memory_budget_bytes=64 * 1024)):
            with pytest.raises(MemoryBudgetExceeded):
                gov_db.execute(RUNAWAY)


class TestHashJoinGrowth:
    def test_row_budget_trips_while_the_pairs_grow(self, gov_db):
        gov = governed(row_budget=20_000)
        with use_governor(gov):
            with pytest.raises(
                RowBudgetExceeded, match="HashJoinNode would materialize 24576"
            ):
                gov_db.execute(SKEWED_JOIN)
        # Refused mid-build: only the scans and the subplan were charged,
        # never the 72,000-pair output.
        assert gov.rows_processed == 1_440

    def test_generous_budget_lets_the_join_finish(self, gov_db):
        bare = gov_db.execute(SKEWED_JOIN)
        gov = governed(row_budget=10_000_000)
        with use_governor(gov):
            ruled = gov_db.execute(SKEWED_JOIN)
        assert ruled.row_count == bare.row_count == 72_000


class TestOperatorBoundaries:
    def test_row_budget_charges_the_whole_operator_output(self, gov_db):
        gov = governed(row_budget=100)
        with use_governor(gov):
            with pytest.raises(RowBudgetExceeded, match="processed 600 rows"):
                gov_db.execute("SELECT * FROM orders")
        # One charge per materialized operator: the full 600-row scan.
        assert gov.rows_processed == 600

    def test_memory_budget_trips_on_wide_scan(self, gov_db):
        with use_governor(governed(memory_budget_bytes=1_000)):
            with pytest.raises(MemoryBudgetExceeded):
                gov_db.execute("SELECT * FROM orders")

    def test_charged_deadline_trips_deterministically(self, gov_db):
        gov = governed(query_timeout_seconds=0.01, cost_per_row_seconds=1e-3)
        with use_governor(gov):
            with pytest.raises(QueryTimeout):
                gov_db.execute("SELECT * FROM orders ORDER BY orders.amount")

    def test_generous_limits_change_nothing(self, gov_db):
        sql = "SELECT * FROM orders WHERE orders.amount > 50.0"
        bare = gov_db.execute(sql)
        gov = governed(
            query_timeout_seconds=300.0,
            row_budget=10_000_000,
            memory_budget_bytes=1 << 30,
        )
        with use_governor(gov):
            ruled = gov_db.execute(sql)
        assert ruled.row_count == bare.row_count
        assert gov.rows_processed > 0
        assert gov.peak_bytes > 0

    def test_accounting_is_deterministic(self, gov_db):
        stats = []
        for _ in range(2):
            gov = governed(row_budget=10_000_000)
            with use_governor(gov):
                gov_db.execute(
                    "SELECT * FROM orders WHERE orders.amount > 10.0 "
                    "ORDER BY orders.amount"
                )
            stats.append(gov.stats())
        assert stats[0] == stats[1]

    def test_ungoverned_execution_untouched(self, gov_db):
        # No ambient governor: the pathological query is only survivable
        # because the engine materializes it; it must still succeed.
        result = gov_db.execute(
            "SELECT COUNT(*) FROM users WHERE users.age > 30"
        )
        assert result.row_count == 1


class _CancelAfterFrames(QueryGovernor):
    """Flips the cooperative-cancel flag after *after* charged frames."""

    def __init__(self, limits, after, **kwargs):
        super().__init__(limits, **kwargs)
        self.charged: list[tuple[str, int]] = []
        self._after = after

    def charge_frame(self, node_name, rows, est_bytes):
        super().charge_frame(node_name, rows, est_bytes)
        self.charged.append((node_name, rows))
        if len(self.charged) == self._after:
            self.cancel("test: operator boundary reached")


class TestCooperativeCancel:
    def test_pre_cancelled_governor_refuses_the_query(self, gov_db):
        gov = governed()
        gov.cancel("benched before start")
        with use_governor(gov):
            with pytest.raises(QueryCancelled, match="benched"):
                gov_db.execute("SELECT * FROM orders")
        assert gov.rows_processed == 0

    def test_cancel_lands_at_the_next_operator_boundary(self, gov_db):
        gov = _CancelAfterFrames(
            GovernorLimits(row_budget=10_000_000),
            after=1,
            clock=clock_for("simulated"),
        )
        with use_governor(gov):
            with pytest.raises(QueryCancelled, match="operator boundary"):
                gov_db.execute(JOINED)
        # The users scan was charged, then cancelled; the orders scan's
        # begin_operator check refused to start it.
        assert gov.charged == [("SeqScanNode", 120)]
        assert gov.rows_processed == 120
