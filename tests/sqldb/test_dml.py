"""The DML engine: parser, binder, executor semantics, and the
epoch/invalidate + index-maintenance contract.

The write path is statement-level atomic: every statement materializes its
full effect first and publishes through ``Catalog.note_mutation`` last, so
any error — constraint violation, bad cast, governor trip — leaves the
table, the statistics epoch, and the mutation counter untouched.
"""

from __future__ import annotations

import pytest

from repro.sqldb import (
    BindError,
    ColumnType,
    ConstraintError,
    Database,
    SqlType,
    SqlSyntaxError,
    Table,
    is_dml,
    parse_select,
    parse_sql,
)
from repro.sqldb import ast_nodes as ast
from repro.sqldb.sql_render import render_statement


@pytest.fixture()
def mdb() -> Database:
    """A small mutable database, fresh per test (DML mutates it)."""
    db = Database("mutable")
    people = Table.from_dict(
        "people",
        {
            "person_id": [1, 2, 3, 4, 5],
            "name": ["ann", "bo", "cy", "di", "ed"],
            "age": [30, None, 44, 22, 61],
            "joined": [11000, 11010, 11020, 11030, 11040],
        },
        {
            "person_id": SqlType.INTEGER,
            "name": SqlType.TEXT,
            "age": SqlType.INTEGER,
            "joined": SqlType.DATE,
        },
    )
    db.create_table(
        people,
        primary_key=["person_id"],
        column_types={
            "person_id": ColumnType(SqlType.INTEGER, nullable=False),
            "name": ColumnType(SqlType.TEXT, nullable=False),
            "age": ColumnType(SqlType.INTEGER),
            "joined": ColumnType(SqlType.DATE),
        },
    )
    scores = Table.from_dict(
        "scores",
        {
            "person_id": [1, 1, 2, 3, 3],
            "points": [10.0, 7.5, 3.0, None, 12.25],
        },
        {"person_id": SqlType.INTEGER, "points": SqlType.DOUBLE},
    )
    db.create_table(scores)
    return db


def rows(db: Database, sql: str) -> list[tuple]:
    return list(db.execute(sql).table.rows())


def affected(db: Database, sql: str) -> int:
    result = db.execute(sql)
    assert result.table.column_names == ["rows_affected"]
    [(count,)] = result.table.rows()
    return count


class TestParser:
    def test_insert_values_round_trips(self):
        sql = "INSERT INTO t (a, b) VALUES (1, 'x'), (2, NULL)"
        statement = parse_sql(sql)
        assert isinstance(statement, ast.InsertStatement)
        assert statement.columns == ["a", "b"]
        assert len(statement.rows) == 2
        assert parse_sql(render_statement(statement)) == statement

    def test_insert_without_column_list(self):
        statement = parse_sql("INSERT INTO t VALUES (1, 2)")
        assert statement.columns is None

    def test_insert_select_source(self):
        statement = parse_sql(
            "INSERT INTO t (a) SELECT s.a FROM s WHERE s.a > 3"
        )
        assert isinstance(statement.source, ast.SelectStatement)
        assert statement.rows == []
        assert parse_sql(render_statement(statement)) == statement

    def test_update_round_trips(self):
        sql = "UPDATE t SET a = a + 1, b = 'x' WHERE t.a > 2"
        statement = parse_sql(sql)
        assert isinstance(statement, ast.UpdateStatement)
        assert [a.column for a in statement.assignments] == ["a", "b"]
        assert parse_sql(render_statement(statement)) == statement

    def test_delete_round_trips(self):
        for sql in ("DELETE FROM t", "DELETE FROM t WHERE t.a IS NULL"):
            statement = parse_sql(sql)
            assert isinstance(statement, ast.DeleteStatement)
            assert parse_sql(render_statement(statement)) == statement

    def test_parse_select_still_rejects_dml(self):
        with pytest.raises(SqlSyntaxError, match="SELECT"):
            parse_select("DELETE FROM t")

    def test_parse_sql_is_parse_select_for_selects(self):
        sql = "SELECT t.a FROM t WHERE t.a BETWEEN 1 AND 2"
        assert parse_sql(sql) == parse_select(sql)

    def test_syntax_errors_carry_source(self):
        with pytest.raises(SqlSyntaxError) as excinfo:
            parse_sql("UPDATE t a = 1")
        assert "UPDATE t a = 1" in excinfo.value.context_snippet()

    def test_is_dml(self):
        assert is_dml(parse_sql("DELETE FROM t"))
        assert not is_dml(parse_sql("SELECT 1"))


class TestBinder:
    def test_unknown_target_table(self, mdb):
        with pytest.raises(BindError, match="does not exist"):
            mdb.plan("INSERT INTO nope (a) VALUES (1)")

    def test_unknown_insert_column(self, mdb):
        with pytest.raises(BindError, match='column "zzz"'):
            mdb.plan("INSERT INTO people (zzz) VALUES (1)")

    def test_duplicate_insert_column(self, mdb):
        with pytest.raises(BindError, match="more than once"):
            mdb.plan("INSERT INTO people (person_id, person_id) VALUES (1, 2)")

    def test_insert_arity_mismatch(self, mdb):
        with pytest.raises(BindError, match="target columns"):
            mdb.plan("INSERT INTO people (person_id, name) VALUES (1)")

    def test_insert_select_arity_mismatch(self, mdb):
        with pytest.raises(BindError, match="target columns"):
            mdb.plan(
                "INSERT INTO people (person_id) "
                "SELECT s.person_id, s.points FROM scores AS s"
            )

    def test_static_type_mismatch(self, mdb):
        with pytest.raises(BindError, match="of type integer"):
            mdb.plan("INSERT INTO people (person_id, name) VALUES ('x', 'y')")

    def test_null_literal_is_statically_writable(self, mdb):
        # Nullability is a runtime constraint, not a binder one.
        assert mdb.validate("UPDATE people SET name = NULL")[0]

    def test_unknown_update_column(self, mdb):
        with pytest.raises(BindError, match='column "zzz"'):
            mdb.plan("UPDATE people SET zzz = 1")

    def test_duplicate_assignment(self, mdb):
        with pytest.raises(BindError, match="multiple assignments"):
            mdb.plan("UPDATE people SET age = 1, age = 2")

    def test_dml_binds_to_rows_affected_schema(self, mdb):
        for sql in (
            "INSERT INTO people (person_id, name) VALUES (9, 'zz')",
            "UPDATE people SET age = 1",
            "DELETE FROM people",
        ):
            plan = mdb.plan(sql)
            assert plan.output_names == ["rows_affected"]
            assert plan.output_types == [SqlType.BIGINT]


class TestInsert:
    def test_values_append(self, mdb):
        assert affected(
            mdb,
            "INSERT INTO people (person_id, name, age) "
            "VALUES (6, 'fi', 28), (7, 'gus', NULL)",
        ) == 2
        assert rows(
            mdb,
            "SELECT people.name, people.age FROM people "
            "WHERE people.person_id >= 6 ORDER BY people.person_id",
        ) == [("fi", 28), ("gus", None)]

    def test_missing_nullable_columns_default_to_null(self, mdb):
        affected(mdb, "INSERT INTO people (person_id, name) VALUES (6, 'fi')")
        assert rows(
            mdb,
            "SELECT people.age, people.joined FROM people "
            "WHERE people.person_id = 6",
        ) == [(None, None)]

    def test_insert_select(self, mdb):
        count = affected(
            mdb,
            "INSERT INTO scores (person_id, points) "
            "SELECT s.person_id, s.points FROM scores AS s "
            "WHERE s.points > 5.0",
        )
        assert count == 3
        assert mdb.catalog.table("scores").row_count == 8

    def test_date_text_coercion(self, mdb):
        affected(
            mdb,
            "INSERT INTO people (person_id, name, joined) "
            "VALUES (6, 'fi', '2001-06-01')",
        )
        [(joined,)] = rows(
            mdb,
            "SELECT people.joined FROM people WHERE people.person_id = 6",
        )
        assert joined == 11474  # 2001-06-01 as days since the epoch

    def test_not_null_violation_rolls_back(self, mdb):
        with pytest.raises(ConstraintError, match="not-null"):
            mdb.execute("INSERT INTO people (person_id, name) VALUES (6, NULL)")
        assert mdb.catalog.table("people").row_count == 5

    def test_omitting_a_required_column_is_a_constraint_error(self, mdb):
        with pytest.raises(ConstraintError, match="not-null"):
            mdb.execute("INSERT INTO people (person_id) VALUES (6)")

    def test_bad_date_text_is_a_constraint_error(self, mdb):
        with pytest.raises(ConstraintError, match="invalid value"):
            mdb.execute(
                "INSERT INTO people (person_id, name, joined) "
                "VALUES (6, 'fi', 'not-a-date')"
            )


class TestUniqueness:
    """PK/unique-index enforcement on the write path.

    Like every other constraint, a violation is raised before the
    statement's result is published, so the table (and its mutation
    counter) is left exactly as it was.
    """

    def test_insert_duplicate_primary_key(self, mdb):
        with pytest.raises(ConstraintError, match='"people_pkey"'):
            mdb.execute("INSERT INTO people (person_id, name) VALUES (3, 'zz')")
        assert mdb.catalog.table("people").row_count == 5
        assert mdb.catalog.mutation_count("people") == 0

    def test_insert_duplicate_within_batch(self, mdb):
        with pytest.raises(ConstraintError, match="duplicate key"):
            mdb.execute(
                "INSERT INTO people (person_id, name) "
                "VALUES (6, 'fi'), (6, 'gus')"
            )
        assert mdb.catalog.table("people").row_count == 5

    def test_insert_select_duplicating_pk_rolls_back(self, mdb):
        with pytest.raises(ConstraintError, match="people_pkey"):
            mdb.execute(
                "INSERT INTO people (person_id, name) "
                "SELECT s0.person_id, s0.name FROM people AS s0"
            )
        assert mdb.catalog.table("people").row_count == 5

    def test_fresh_pk_values_are_accepted(self, mdb):
        assert affected(
            mdb,
            "INSERT INTO people (person_id, name) VALUES (6, 'fi'), (7, 'gus')",
        ) == 2

    def test_update_into_duplicate_pk(self, mdb):
        with pytest.raises(ConstraintError, match="people_pkey"):
            mdb.execute(
                "UPDATE people SET person_id = 1 WHERE people.person_id = 2"
            )
        assert rows(
            mdb, "SELECT people.person_id FROM people ORDER BY people.person_id"
        ) == [(1,), (2,), (3,), (4,), (5,)]

    def test_update_not_touching_key_columns_is_unchecked(self, mdb):
        # Both matched rows get the same age — fine, age is not a key.
        assert affected(
            mdb, "UPDATE people SET age = 50 WHERE people.person_id <= 2"
        ) == 2

    def test_pk_swap_within_one_statement_still_conflicts(self, mdb):
        # Unlike deferred constraints, enforcement sees the statement's
        # final table: setting two rows to the same value trips even though
        # each row's old value is vacated.
        with pytest.raises(ConstraintError, match="people_pkey"):
            mdb.execute("UPDATE people SET person_id = 9")

    def test_unique_index_enforced_and_nulls_never_conflict(self, mdb):
        mdb.add_index("people", "age", unique=True)
        # Two NULL ages already exist? No — one (person 2).  Add another:
        assert affected(
            mdb, "INSERT INTO people (person_id, name) VALUES (6, 'fi')"
        ) == 1  # age NULL, no conflict with person 2's NULL age
        with pytest.raises(ConstraintError, match="people_age_idx"):
            mdb.execute(
                "INSERT INTO people (person_id, name, age) VALUES (7, 'gus', 44)"
            )

    def test_non_unique_index_allows_duplicates(self, mdb):
        mdb.add_index("scores", "person_id")
        assert affected(
            mdb, "INSERT INTO scores (person_id, points) VALUES (1, 2.0)"
        ) == 1

    def test_violation_is_positioned_with_source(self, mdb):
        try:
            mdb.execute("INSERT INTO people (person_id, name) VALUES (3, 'zz')")
        except ConstraintError as error:
            assert error.position == 0
            assert error.line == 1
            snippet = error.context_snippet()
            assert snippet is not None and snippet.startswith("LINE 1:")
        else:  # pragma: no cover
            raise AssertionError("duplicate PK was accepted")


class TestUpdate:
    def test_in_place_update(self, mdb):
        assert affected(
            mdb, "UPDATE people SET age = age + 1 WHERE people.age > 40"
        ) == 2
        assert rows(
            mdb,
            "SELECT people.person_id, people.age FROM people "
            "ORDER BY people.person_id",
        ) == [(1, 30), (2, None), (3, 45), (4, 22), (5, 62)]

    def test_unfiltered_update_touches_every_row(self, mdb):
        assert affected(mdb, "UPDATE scores SET points = 0.0") == 5
        assert {r[0] for r in rows(mdb, "SELECT scores.points FROM scores")} == {0.0}

    def test_set_null(self, mdb):
        affected(mdb, "UPDATE people SET age = NULL WHERE people.person_id = 1")
        assert rows(
            mdb, "SELECT people.age FROM people WHERE people.person_id = 1"
        ) == [(None,)]

    def test_assignments_only_evaluate_on_matched_rows(self, mdb):
        # 10 / points errors on points = 0; rows where points IS NULL or
        # points <> 0 are safe, and the WHERE excludes the zero row.
        affected(mdb, "UPDATE scores SET points = 0.0 WHERE scores.person_id = 2")
        count = affected(
            mdb,
            "UPDATE scores SET points = 10.0 / points "
            "WHERE scores.points > 1.0",
        )
        assert count == 3

    def test_null_into_not_null_rolls_back(self, mdb):
        before = rows(mdb, "SELECT people.name FROM people ORDER BY 1")
        with pytest.raises(ConstraintError, match="not-null"):
            mdb.execute("UPDATE people SET name = NULL WHERE people.age > 40")
        assert rows(mdb, "SELECT people.name FROM people ORDER BY 1") == before

    def test_primary_key_is_implicitly_not_null(self, mdb):
        with pytest.raises(ConstraintError, match="not-null"):
            mdb.execute("UPDATE people SET person_id = NULL")

    def test_failed_update_does_not_bump_epoch_or_counter(self, mdb):
        epoch = mdb.catalog.statistics_epoch
        mutations = mdb.catalog.mutation_count("people")
        with pytest.raises(ConstraintError):
            mdb.execute("UPDATE people SET name = NULL")
        assert mdb.catalog.statistics_epoch == epoch
        assert mdb.catalog.mutation_count("people") == mutations


class TestDelete:
    def test_filtered_delete(self, mdb):
        assert affected(
            mdb, "DELETE FROM people WHERE people.age IS NULL"
        ) == 1
        assert mdb.catalog.table("people").row_count == 4

    def test_unfiltered_delete_empties_the_table(self, mdb):
        assert affected(mdb, "DELETE FROM scores") == 5
        assert mdb.catalog.table("scores").row_count == 0
        assert rows(mdb, "SELECT COUNT(*) FROM scores") == [(0,)]

    def test_insert_after_full_delete(self, mdb):
        affected(mdb, "DELETE FROM scores")
        affected(mdb, "INSERT INTO scores (person_id, points) VALUES (9, 1.5)")
        assert rows(mdb, "SELECT scores.person_id, scores.points FROM scores") == [
            (9, 1.5)
        ]


class TestEpochContract:
    """Every committed DML bumps the epoch; caches re-cost, never stale."""

    def test_each_committed_dml_bumps_epoch(self, mdb):
        epochs = [mdb.catalog.statistics_epoch]
        for sql in (
            "INSERT INTO scores (person_id, points) VALUES (8, 2.0)",
            "UPDATE scores SET points = 1.0 WHERE scores.person_id = 8",
            "DELETE FROM scores WHERE scores.person_id = 8",
        ):
            mdb.execute(sql)
            epochs.append(mdb.catalog.statistics_epoch)
        assert epochs == sorted(set(epochs)), "epoch must strictly increase"

    def test_mutation_counter_tracks_committed_statements(self, mdb):
        assert mdb.catalog.mutation_count("scores") == 0
        mdb.execute("INSERT INTO scores (person_id, points) VALUES (8, 2.0)")
        mdb.execute("DELETE FROM scores WHERE scores.person_id = 8")
        assert mdb.catalog.mutation_count("scores") == 2
        assert mdb.catalog.mutation_count("people") == 0

    def test_cached_explain_recosts_after_dml(self, mdb):
        probe = "SELECT * FROM scores"
        before = mdb.explain_estimates(probe)
        assert round(before.estimated_rows) == 5
        mdb.execute("DELETE FROM scores WHERE scores.points IS NULL")
        after = mdb.explain_estimates(probe)
        assert round(after.estimated_rows) == 4, "stale cached costing served"

    def test_stats_stay_stale_until_reanalyze(self, mdb):
        # Row counts refresh on commit, but column statistics do not —
        # reanalyze is the explicit refresh, like ANALYZE.
        stats_before = mdb.catalog.table("scores").column("points").stats
        mdb.execute("UPDATE scores SET points = 99.0")
        assert mdb.catalog.table("scores").column("points").stats is stats_before
        mdb.catalog.reanalyze("scores")
        stats_after = mdb.catalog.table("scores").column("points").stats
        assert stats_after is not stats_before


class TestIndexMaintenance:
    def test_insert_extends_index_incrementally(self, mdb):
        assert mdb.catalog.index_lookup("people", "name", "ann") == [0]
        mdb.execute("INSERT INTO people (person_id, name) VALUES (6, 'ann')")
        assert mdb.catalog.index_lookup("people", "name", "ann") == [0, 5]

    def test_update_invalidates_assigned_column_only(self, mdb):
        mdb.catalog.index_lookup("people", "name", "ann")
        mdb.catalog.index_lookup("people", "age", 44)
        mdb.execute("UPDATE people SET name = 'zed' WHERE people.person_id = 1")
        assert mdb.catalog.index_lookup("people", "name", "ann") == []
        assert mdb.catalog.index_lookup("people", "name", "zed") == [0]
        assert mdb.catalog.index_lookup("people", "age", 44) == [2]

    def test_delete_renumbers_positions(self, mdb):
        assert mdb.catalog.index_lookup("people", "name", "ed") == [4]
        mdb.execute("DELETE FROM people WHERE people.person_id = 1")
        assert mdb.catalog.index_lookup("people", "name", "ed") == [3]
        assert mdb.catalog.index_lookup("people", "name", "ann") == []

    def test_null_positions_tracked(self, mdb):
        assert mdb.catalog.index_lookup("people", "age", None) == [1]
        mdb.execute("UPDATE people SET age = NULL WHERE people.person_id = 5")
        assert mdb.catalog.index_lookup("people", "age", None) == [1, 4]
