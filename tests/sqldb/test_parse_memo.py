"""The parse memo behind ``parse_select``/``parse_sql`` and ``Node.children``.

Every call returns a fresh copy of the memo's tree, so a caller may mutate
what it gets; these tests mutate returned trees and check that the next
call still equals a parse that never went through the memo.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import fields

import numpy as np
import pytest

from repro.core import BarberConfig, SQLBarber
from repro.datasets import COST_RANGE, fleet_samples, registry
from repro.fuzz.grammar import FuzzGrammar
from repro.fuzz.runner import build_fuzz_database
from repro.sqldb import ast_nodes as ast
from repro.sqldb.errors import SqlError, SqlSyntaxError
from repro.sqldb.parser import _parse_once, _Parser, parse_select, parse_sql
from repro.workload import CostDistribution, TemplateSpec, analyze_sql

SELECT_TEXT = (
    "select t.a, case when t.b > 1 then 'x' when t.b < 0 then 'y' else 'z' end "
    "from t join u on t.id = u.id where t.a = 1 and (t.b < 2 or t.c = {p_1}) "
    "group by t.a order by t.a desc limit 5"
)
INSERT_TEXT = "insert into t (a, b) values (1, 'x'), (2 + 3, 'y')"
UPDATE_TEXT = "update t set a = a + 1, b = 'z' where c between 1 and {hi}"
DELETE_TEXT = "delete from t where a in (1, 2, 3)"

#: The ``_Parser`` method behind each entry point.
ENTRIES = {
    parse_select: _Parser.parse_statement,
    parse_sql: _Parser.parse_any_statement,
}


def uncached(parse, sql):
    """The parse the memo sits in front of, called around it."""
    return _parse_once.__wrapped__(ENTRIES[parse], sql)


def containers(tree) -> list:
    """Every Node, list and tuple reachable from *tree*."""
    found, pending = [], [tree]
    while pending:
        value = pending.pop()
        if isinstance(value, ast.Node):
            found.append(value)
            pending.extend(value.__dict__.values())
        elif isinstance(value, (list, tuple)):
            found.append(value)
            pending.extend(value)
    return found


def shape(tree) -> list:
    """Node types and leaf values in walk order; unlike ``==`` this does
    not recurse, so it works on trees of any depth."""
    return [
        (type(node).__name__, [
            getattr(node, f.name) for f in fields(node)
            if not isinstance(getattr(node, f.name), (ast.Node, list, tuple))
        ])
        for node in tree.walk()
    ]


def mutate_limit(tree):
    tree.limit = 99


def mutate_from(tree):
    tree.from_clause = ast.TableRef("elsewhere")


def mutate_group_by(tree):
    tree.group_by.append(ast.ColumnRef("extra"))


def mutate_nested_right(tree):
    # where = (t.a = 1) AND (t.b < 2 OR t.c = {p_1}): rewrite inside the OR.
    tree.where.right.right.right = ast.Literal(7)


def mutate_case_whens(tree):
    case = tree.select_items[1].expression
    case.whens[0] = (ast.Literal(True), ast.Literal("changed"))
    case.whens.pop()


class TestMutationDoesNotReachTheMemo:
    @pytest.mark.parametrize("parse", [parse_select, parse_sql])
    @pytest.mark.parametrize(
        "mutate",
        [mutate_limit, mutate_from, mutate_group_by, mutate_nested_right,
         mutate_case_whens],
    )
    def test_select_mutations(self, parse, mutate):
        reference = uncached(parse, SELECT_TEXT)
        mutate(parse(SELECT_TEXT))
        assert parse(SELECT_TEXT) == reference

    def test_insert_row_mutation(self):
        reference = uncached(parse_sql, INSERT_TEXT)
        first = parse_sql(INSERT_TEXT)
        first.rows[0][1] = ast.Literal("other")
        first.rows[0].append(ast.Literal(3))
        first.columns.append("c")
        assert parse_sql(INSERT_TEXT) == reference

    def test_every_call_returns_a_new_tree(self):
        first, second = parse_select(SELECT_TEXT), parse_select(SELECT_TEXT)
        assert first == second
        assert first is not second


class TestNoSharing:
    @pytest.mark.parametrize(
        "parse, sql",
        [(parse_select, SELECT_TEXT), (parse_sql, SELECT_TEXT),
         (parse_sql, INSERT_TEXT), (parse_sql, UPDATE_TEXT),
         (parse_sql, DELETE_TEXT)],
    )
    def test_two_results_share_no_node_list_or_tuple(self, parse, sql):
        first, second = parse(sql), parse(sql)
        memo = _parse_once(ENTRIES[parse], sql)
        ids = [{id(c) for c in containers(t)} for t in (first, second, memo)]
        assert not ids[0] & ids[1]
        assert not (ids[0] | ids[1]) & ids[2]

    def test_positions_are_kept(self):
        tree = parse_select("select a from t where b = 1")
        assert tree.from_clause.position == 14
        assert tree.where.left.position == 22


class TestErrors:
    @pytest.mark.parametrize("parse", [parse_select, parse_sql])
    def test_repeated_bad_text_raises_fresh_positioned_errors(self, parse):
        bad = "select a from t where b = = 1"
        raised = []
        for _ in range(3):
            with pytest.raises(SqlSyntaxError) as info:
                parse(bad)
            raised.append(info.value)
        assert {str(e) for e in raised} == {str(raised[0])}
        assert {e.position for e in raised} == {26}
        assert raised[0] is not raised[1]

    def test_failed_parse_is_not_stored(self):
        before = _parse_once.cache_info()
        for _ in range(2):
            with pytest.raises(SqlError):
                parse_select("select from from")
        after = _parse_once.cache_info()
        assert (after.hits, after.misses) == (before.hits, before.misses + 2)

    def test_dml_to_parse_select_raises_after_parse_sql(self):
        assert isinstance(parse_sql(DELETE_TEXT), ast.DeleteStatement)
        with pytest.raises(SqlSyntaxError):
            parse_select(DELETE_TEXT)


class TestThreads:
    def test_concurrent_parse_and_mutate(self):
        texts = [SELECT_TEXT, INSERT_TEXT, UPDATE_TEXT, DELETE_TEXT,
                 "select count(*) from t union all select 1 from u"]
        references = [uncached(parse_sql, sql) for sql in texts]
        errors: list[str] = []

        def work():
            for _ in range(200):
                for sql, reference in zip(texts, references):
                    tree = parse_sql(sql)
                    if tree != reference:
                        errors.append(sql)
                    tree.__dict__.clear()  # the harshest mutation there is

        threads = [threading.Thread(target=work) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []


class TestDeepTrees:
    CONJUNCTS = 900

    @pytest.fixture(scope="class")
    def deep_sql(self):
        where = " and ".join(f"a = {i}" for i in range(self.CONJUNCTS))
        return f"select a from t where {where}"

    def test_parse_select_copies_deep_trees(self, deep_sql):
        reference = shape(uncached(parse_select, deep_sql))
        assert len(reference) == 4 + 4 * self.CONJUNCTS - 1
        for _ in range(2):
            assert shape(parse_select(deep_sql)) == reference

    def test_analyze_sql_on_deep_trees(self, deep_sql):
        assert analyze_sql(deep_sql) == analyze_sql(deep_sql)


def reference_children(node):
    """``Node.children`` as it was: dataclass ``fields()`` per visit."""
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, ast.Node):
            yield value
        elif isinstance(value, (list, tuple)):
            for item in value:
                if isinstance(item, ast.Node):
                    yield item


@pytest.fixture(scope="module")
def corpus() -> list[str]:
    """The fuzz grammar's first 200 statements at seed 7 (the CI fuzz
    smoke's), plus the templates, refined templates and queries of the
    first perfbench ``plan_cost`` request at seed 101 (IMDB, one 2-join
    spec, 10 queries in 2 intervals)."""
    db = build_fuzz_database(0)
    texts = [g.sql for g in FuzzGrammar(db.catalog, seed=7).statements(200)]
    request_seed = int(
        np.random.SeedSequence([101, 101, 0]).generate_state(1)[0] >> 1
    )
    distribution = CostDistribution.from_samples(
        fleet_samples("redset_cost", n=5000, seed=request_seed),
        0.0, COST_RANGE[1], 10, 2, name="redset_cost-0", cost_type="plan_cost",
    )
    imdb = registry.build_database("imdb", scale=None, cached=False)
    barber = SQLBarber(imdb, config=BarberConfig(seed=request_seed))
    result = barber.generate_workload(
        [TemplateSpec(spec_id="spec", num_joins=2)], distribution
    )
    texts += [t.sql for t in result.templates]
    if result.refinement is not None:
        texts += [t.sql for t in result.refinement.accepted]
    texts += [q.sql for q in result.workload.queries]
    return texts


class TestChildren:
    def test_children_order_matches_fields(self, corpus):
        compared = 0
        for sql in corpus:
            for node in parse_sql(sql).walk():
                if type(node).children is not ast.Node.children:
                    continue  # CaseWhen and InsertStatement define their own
                expected = list(reference_children(node))
                got = list(node.children())
                assert [id(n) for n in got] == [id(n) for n in expected], sql
                compared += 1
        assert compared >= 3_000
