"""Resource governance on the write path.

Two contracts under test.  First, statement-level rollback under budgets:
a budget that trips mid-UPDATE/INSERT/DELETE must leave the target table,
its statistics epoch, and its mutation counter exactly as they were —
``note_mutation`` is the single commit point, and the governor always
fires before it.  Second, write-template quarantine: a write template that
keeps busting its budget is quarantined, with the same strikes and
offending bindings on every run, while a healthy one profiles and commits.
"""

import pytest

from repro.core import BarberConfig
from repro.core.profiler import TemplateProfiler
from repro.fuzz import build_fuzz_database
from repro.governor import GovernorLimits, QueryGovernor, clock_for, use_governor
from repro.sqldb import (
    MemoryBudgetExceeded,
    QueryTimeout,
    RowBudgetExceeded,
)
from repro.workload import SqlTemplate


def governed(**limits):
    return QueryGovernor(
        GovernorLimits(**limits), clock=clock_for("simulated")
    )


def snapshot(db, table):
    """Everything rollback must preserve: rows, epoch, mutation counter."""
    return (
        [tuple(row) for row in db.catalog.data(table).rows()],
        db.catalog.statistics_epoch,
        db.catalog.mutation_count(table),
        db.catalog.table(table).row_count,
    )


@pytest.fixture()
def db():
    # Function-scoped on purpose: these tests commit (or almost commit)
    # real mutations and must not leak state into each other.
    return build_fuzz_database(0)


class TestStatementRollback:
    def test_row_budget_trips_mid_update_table_untouched(self, db):
        before = snapshot(db, "orders")
        with use_governor(governed(row_budget=100)):
            with pytest.raises(RowBudgetExceeded):
                db.execute("UPDATE orders SET amount = orders.amount + 1.0")
        assert snapshot(db, "orders") == before

    def test_write_admission_trips_after_a_clean_scan(self, db):
        # 700 rows admits the full 600-row scan, then the UpdateNode's own
        # pre-admission of 600 written rows busts the budget — after the
        # scan, before the commit.  The table must still be untouched.
        before = snapshot(db, "orders")
        gov = governed(row_budget=700)
        with use_governor(gov):
            with pytest.raises(RowBudgetExceeded):
                db.execute("UPDATE orders SET amount = orders.amount + 1.0")
        assert gov.rows_processed >= 600  # the scan really ran
        assert snapshot(db, "orders") == before

    def test_memory_budget_trips_mid_insert_select(self, db):
        before = snapshot(db, "orders")
        sql = (
            "INSERT INTO orders (order_id, user_id, item_id, amount, "
            "status, order_date) "
            "SELECT s0.order_id, s0.user_id, s0.item_id, s0.amount, "
            "s0.status, s0.order_date FROM orders AS s0"
        )
        with use_governor(governed(memory_budget_bytes=1_000)):
            with pytest.raises(MemoryBudgetExceeded):
                db.execute(sql)
        assert snapshot(db, "orders") == before

    def test_timeout_trips_mid_delete_table_untouched(self, db):
        before = snapshot(db, "orders")
        gov = governed(
            query_timeout_seconds=0.01, cost_per_row_seconds=1e-3
        )
        with use_governor(gov):
            with pytest.raises(QueryTimeout):
                db.execute("DELETE FROM orders WHERE orders.amount > 0.0")
        assert snapshot(db, "orders") == before

    def test_engine_stays_healthy_after_a_trip(self, db):
        epoch = db.catalog.statistics_epoch
        with use_governor(governed(row_budget=100)):
            with pytest.raises(RowBudgetExceeded):
                db.execute("UPDATE orders SET amount = orders.amount + 1.0")
        # The refused statement committed nothing; the next one commits
        # normally and the epoch advances exactly once.
        assert db.catalog.statistics_epoch == epoch
        result = db.execute(
            "UPDATE items SET price = items.price + 1.0 "
            "WHERE items.item_id = 0"
        )
        assert result.row_count == 1
        assert db.catalog.statistics_epoch == epoch + 1

    def test_rows_written_are_charged_like_rows_read(self, db):
        # Both statements scan all 90 items; only one writes.  The charge
        # difference is exactly the 90 written rows.
        no_writes = governed(row_budget=10_000_000)
        with use_governor(no_writes):
            db.execute(
                "UPDATE items SET price = items.price + 1.0 "
                "WHERE items.item_id < 0"
            )
        write = governed(row_budget=10_000_000)
        with use_governor(write):
            db.execute("UPDATE items SET price = items.price + 1.0")
        assert write.rows_processed == no_writes.rows_processed + 90

    def test_generous_limits_leave_dml_results_unchanged(self, db):
        bare = build_fuzz_database(0)
        unruled = bare.execute(
            "DELETE FROM orders WHERE orders.amount > 100.0"
        )
        with use_governor(governed(row_budget=10_000_000)):
            ruled = db.execute(
                "DELETE FROM orders WHERE orders.amount > 100.0"
            )
        assert ruled.row_count == unruled.row_count
        assert snapshot(db, "orders")[0] == snapshot(bare, "orders")[0]


WRITE_TEMPLATES = [
    SqlTemplate(
        template_id="healthy_write",
        sql=(
            "UPDATE items SET price = items.price + {bump} "
            "WHERE items.item_id = 0"
        ),
    ),
    SqlTemplate(
        template_id="runaway_write",
        # Unfiltered: a 600-row scan plus 600 written rows per sample —
        # over the 500-row budget at every binding.
        sql="UPDATE orders SET amount = orders.amount + {bump}",
    ),
]


def profiler(db, **overrides):
    base = dict(
        seed=3,
        row_budget=500,
        query_timeout_seconds=2.0,
        governor_cost_per_row_seconds=1e-4,
        governor_clock="simulated",
        quarantine_after=2,
    )
    base.update(overrides)
    return TemplateProfiler(
        db, BarberConfig(**base), cost_metric="actual_rows"
    )


def decisions(profiles):
    return [
        (
            p.template.template_id,
            p.quarantined,
            p.resource_strikes,
            p.quarantine_reason,
            p.offending_bindings,
            len(p.observations),
        )
        for p in profiles
    ]


class TestWriteTemplateQuarantine:
    def test_runaway_write_template_is_quarantined(self):
        db = build_fuzz_database(0)
        before = snapshot(db, "orders")
        profile = profiler(db).profile(WRITE_TEMPLATES[1])
        assert profile.quarantined
        assert profile.resource_strikes == 2
        assert not profile.is_usable
        assert all("bump" in b for b in profile.offending_bindings)
        # Every strike fired pre-commit: profiling never mutated the table.
        assert snapshot(db, "orders") == before

    def test_healthy_write_template_profiles_and_commits(self):
        db = build_fuzz_database(0)
        profile = profiler(db).profile(WRITE_TEMPLATES[0])
        assert not profile.quarantined
        assert profile.is_usable
        assert profile.observations
        assert db.catalog.mutation_count("items") == len(profile.observations)

    def test_quarantine_decision_is_repeatable(self):
        first = decisions(
            [profiler(build_fuzz_database(0)).profile(WRITE_TEMPLATES[1])]
        )
        second = decisions(
            [profiler(build_fuzz_database(0)).profile(WRITE_TEMPLATES[1])]
        )
        assert first == second
