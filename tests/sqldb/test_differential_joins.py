"""Differential testing of joins: engine vs. a naive Python reference."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fuzz import build_fuzz_database
from repro.sqldb import Database, SqlType, Table

N_LEFT, N_RIGHT = 120, 80


@pytest.fixture(scope="module")
def jdb():
    rng = np.random.default_rng(17)
    left = {
        "lid": list(range(N_LEFT)),
        "key": rng.integers(0, 40, N_LEFT).tolist(),
        "lv": rng.integers(0, 100, N_LEFT).tolist(),
    }
    right = {
        "rid": list(range(N_RIGHT)),
        "key": rng.integers(0, 40, N_RIGHT).tolist(),
        "rv": rng.integers(0, 100, N_RIGHT).tolist(),
    }
    db = Database("joins")
    db.create_table(
        Table.from_dict("l", left, {
            "lid": SqlType.INTEGER, "key": SqlType.INTEGER,
            "lv": SqlType.INTEGER,
        }),
        primary_key=["lid"],
    )
    db.create_table(
        Table.from_dict("r", right, {
            "rid": SqlType.INTEGER, "key": SqlType.INTEGER,
            "rv": SqlType.INTEGER,
        }),
        primary_key=["rid"],
    )
    left_rows = [dict(zip(left.keys(), row)) for row in zip(*left.values())]
    right_rows = [dict(zip(right.keys(), row)) for row in zip(*right.values())]
    return db, left_rows, right_rows


def reference_inner(left_rows, right_rows, predicate=lambda l, r: True):
    return sorted(
        (l["lid"], r["rid"])
        for l in left_rows
        for r in right_rows
        if l["key"] == r["key"] and predicate(l, r)
    )


class TestInnerJoin:
    def test_plain_equi_join(self, jdb):
        db, left_rows, right_rows = jdb
        got = sorted(
            db.execute(
                "SELECT l.lid, r.rid FROM l JOIN r ON l.key = r.key"
            ).table.rows()
        )
        assert got == reference_inner(left_rows, right_rows)

    def test_join_with_filters(self, jdb):
        db, left_rows, right_rows = jdb
        got = sorted(
            db.execute(
                "SELECT l.lid, r.rid FROM l JOIN r ON l.key = r.key "
                "WHERE l.lv > 50 AND r.rv < 40"
            ).table.rows()
        )
        expected = reference_inner(
            left_rows, right_rows,
            lambda l, r: l["lv"] > 50 and r["rv"] < 40,
        )
        assert got == expected

    def test_join_with_cross_table_residual(self, jdb):
        db, left_rows, right_rows = jdb
        got = sorted(
            db.execute(
                "SELECT l.lid, r.rid FROM l JOIN r ON l.key = r.key "
                "WHERE l.lv > r.rv"
            ).table.rows()
        )
        expected = reference_inner(
            left_rows, right_rows, lambda l, r: l["lv"] > r["rv"]
        )
        assert got == expected

    def test_join_aggregate(self, jdb):
        db, left_rows, right_rows = jdb
        got = {
            row[0]: row[1]
            for row in db.execute(
                "SELECT l.key, count(*) FROM l JOIN r ON l.key = r.key "
                "GROUP BY l.key"
            ).table.rows()
        }
        expected: dict[int, int] = {}
        for lid, rid in reference_inner(left_rows, right_rows):
            key = left_rows[lid]["key"]
            expected[key] = expected.get(key, 0) + 1
        assert got == expected


class TestOuterJoins:
    def test_left_join_row_count(self, jdb):
        db, left_rows, right_rows = jdb
        got = db.execute(
            "SELECT l.lid, r.rid FROM l LEFT JOIN r ON l.key = r.key"
        )
        matches = reference_inner(left_rows, right_rows)
        matched_lids = {lid for lid, _ in matches}
        expected_count = len(matches) + (N_LEFT - len(matched_lids))
        assert got.row_count == expected_count

    def test_left_join_unmatched_are_null(self, jdb):
        db, left_rows, right_rows = jdb
        rows = list(
            db.execute(
                "SELECT l.lid, r.rid FROM l LEFT JOIN r ON l.key = r.key"
            ).table.rows()
        )
        matched_lids = {l for l, _ in reference_inner(left_rows, right_rows)}
        for lid, rid in rows:
            if lid not in matched_lids:
                assert rid is None

    def test_full_join_covers_both_sides(self, jdb):
        db, left_rows, right_rows = jdb
        rows = list(
            db.execute(
                "SELECT l.lid, r.rid FROM l FULL JOIN r ON l.key = r.key"
            ).table.rows()
        )
        left_seen = {lid for lid, _ in rows if lid is not None}
        right_seen = {rid for _, rid in rows if rid is not None}
        assert left_seen == set(range(N_LEFT))
        assert right_seen == set(range(N_RIGHT))


class TestNonEquiOuterJoins:
    """Outer joins whose ON has no equality run as nested loops."""

    @pytest.mark.parametrize("join", ["LEFT", "RIGHT", "FULL"])
    def test_matches_reference(self, jdb, join):
        db, left_rows, right_rows = jdb
        got = sorted(
            db.execute(
                f"SELECT l.lid, r.rid FROM l {join} JOIN r ON l.lv > r.rv + 60"
            ).table.rows(),
            key=repr,
        )
        pairs = [
            (l["lid"], r["rid"])
            for l in left_rows
            for r in right_rows
            if l["lv"] > r["rv"] + 60
        ]
        expected = list(pairs)
        if join in ("LEFT", "FULL"):
            matched = {lid for lid, _ in pairs}
            expected += [(l["lid"], None) for l in left_rows if l["lid"] not in matched]
        if join in ("RIGHT", "FULL"):
            matched = {rid for _, rid in pairs}
            expected += [(None, r["rid"]) for r in right_rows if r["rid"] not in matched]
        assert got == sorted(expected, key=repr)

    @pytest.mark.parametrize(
        "on, expected",
        [
            # 28,035 pairs + 10 unmatched users + 236 unmatched orders.
            ("users.age > orders.amount", 28_281),
            # Nothing matches: all 120 users and all 600 orders, padded.
            ("users.age > 1000", 720),
        ],
    )
    def test_full_join_keeps_unmatched_rows_of_both_sides(self, on, expected):
        db = build_fuzz_database(0)
        sql = f"SELECT count(*) FROM users FULL JOIN orders ON {on}"
        assert "Nested Loop" in db.explain(sql).plan_text
        assert list(db.execute(sql).table.rows()) == [(expected,)]


class TestSemiJoinEquivalence:
    def test_in_subquery_equals_distinct_join(self, jdb):
        db, left_rows, right_rows = jdb
        via_in = sorted(
            r[0]
            for r in db.execute(
                "SELECT lid FROM l WHERE key IN (SELECT key FROM r WHERE rv > 60)"
            ).table.rows()
        )
        keys = {r["key"] for r in right_rows if r["rv"] > 60}
        expected = sorted(l["lid"] for l in left_rows if l["key"] in keys)
        assert via_in == expected

    def test_cross_join_cardinality(self, jdb):
        db, *_ = jdb
        got = db.execute("SELECT count(*) FROM l, r")
        assert list(got.table.rows()) == [(N_LEFT * N_RIGHT,)]

    def test_self_join(self, jdb):
        db, left_rows, _ = jdb
        got = list(
            db.execute(
                "SELECT count(*) FROM l a JOIN l b ON a.key = b.key"
            ).table.rows()
        )[0][0]
        by_key: dict[int, int] = {}
        for row in left_rows:
            by_key[row["key"]] = by_key.get(row["key"], 0) + 1
        assert got == sum(v * v for v in by_key.values())
