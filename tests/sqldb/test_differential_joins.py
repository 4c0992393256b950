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


def reference_inner(
    left_rows, right_rows, predicate=lambda l, r: True, keys=("key",)
):
    """The (lid, rid) pairs whose *keys* are all equal and non-NULL."""
    return sorted(
        (l["lid"], r["rid"])
        for l in left_rows
        for r in right_rows
        if all(l[k] is not None and l[k] == r[k] for k in keys)
        and predicate(l, r)
    )


def reference_left(left_rows, right_rows, keys):
    """LEFT JOIN: the inner pairs plus (lid, None) for each unmatched lid."""
    pairs = reference_inner(left_rows, right_rows, keys=keys)
    matched = {lid for lid, _ in pairs}
    padded = [(l["lid"], None) for l in left_rows if l["lid"] not in matched]
    return sorted(pairs + padded, key=repr)


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


@pytest.fixture(scope="module")
def kdb():
    """Two tables joined on two-column keys, each key column with NULLs."""
    rng = np.random.default_rng(23)

    def side(ids, n):
        def column(values):
            picked = [values[i] for i in rng.integers(0, len(values), n)]
            return [None if rng.random() < 0.12 else v for v in picked]

        return {
            ids: list(range(n)),
            "k1": column([0, 1, 2, 3]),
            "k2": column([10, 20, 30]),
            "t1": column(["a", "b", "c"]),
            "t2": column(["x", "yy"]),
        }

    types = {
        "k1": SqlType.INTEGER, "k2": SqlType.INTEGER,
        "t1": SqlType.TEXT, "t2": SqlType.TEXT,
    }
    left, right = side("lid", 90), side("rid", 70)
    db = Database("composite_joins")
    db.create_table(
        Table.from_dict("lk", left, {"lid": SqlType.INTEGER, **types}),
        primary_key=["lid"],
    )
    db.create_table(
        Table.from_dict("rk", right, {"rid": SqlType.INTEGER, **types}),
        primary_key=["rid"],
    )
    left_rows = [dict(zip(left.keys(), row)) for row in zip(*left.values())]
    right_rows = [dict(zip(right.keys(), row)) for row in zip(*right.values())]
    return db, left_rows, right_rows


KEY_PAIRS = [("k1", "k2"), ("t1", "t2"), ("t1", "k1")]
KEY_IDS = ["int-int", "text-text", "text-int"]


class TestCompositeKeys:
    """Equi-joins on two key pairs run as one hash join on both keys."""

    @pytest.mark.parametrize("keys", KEY_PAIRS, ids=KEY_IDS)
    @pytest.mark.parametrize("form", ["on", "where", "comma"])
    def test_inner_matches_reference(self, kdb, keys, form):
        db, left_rows, right_rows = kdb
        a, b = keys
        sql = {
            "on": f"SELECT l.lid, r.rid FROM lk l JOIN rk r "
                  f"ON l.{a} = r.{a} AND l.{b} = r.{b}",
            "where": f"SELECT l.lid, r.rid FROM lk l JOIN rk r "
                     f"ON l.{a} = r.{a} WHERE l.{b} = r.{b}",
            "comma": f"SELECT l.lid, r.rid FROM lk l, rk r "
                     f"WHERE l.{a} = r.{a} AND l.{b} = r.{b}",
        }[form]
        assert "Hash Join" in db.explain(sql).plan_text
        got = sorted(db.execute(sql).table.rows())
        expected = reference_inner(left_rows, right_rows, keys=keys)
        assert expected and got == expected

    @pytest.mark.parametrize("keys", KEY_PAIRS, ids=KEY_IDS)
    def test_left_matches_reference(self, kdb, keys):
        db, left_rows, right_rows = kdb
        a, b = keys
        sql = (
            f"SELECT l.lid, r.rid FROM lk l LEFT JOIN rk r "
            f"ON l.{a} = r.{a} AND l.{b} = r.{b}"
        )
        assert "Hash" in db.explain(sql).plan_text
        got = sorted(db.execute(sql).table.rows(), key=repr)
        assert got == reference_left(left_rows, right_rows, keys)

    def test_fuzz_database_self_joins(self):
        db = build_fuzz_database(0)
        users = db.execute(
            "SELECT users.user_id, users.age, users.city, users.name FROM users"
        ).table.rows()
        users = [dict(zip(("lid", "age", "city", "name"), row)) for row in users]
        for row in users:
            row["rid"] = row["lid"]
        inner = len(reference_inner(users, users, keys=("lid", "age")))
        left = len(reference_left(users, users, ("city", "name")))
        for sql, expected in [
            ("SELECT COUNT(*) FROM users a JOIN users b "
             "ON a.user_id = b.user_id AND a.age = b.age", inner),
            ("SELECT COUNT(*) FROM users a JOIN users b "
             "ON a.user_id = b.user_id WHERE a.age = b.age", inner),
            ("SELECT COUNT(*) FROM users a LEFT JOIN users b "
             "ON a.city = b.city AND a.name = b.name", left),
        ]:
            assert list(db.execute(sql).table.rows()) == [(expected,)], sql


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
