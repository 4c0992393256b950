"""The planner's two phases: a template's skeleton, costed per binding.

``Planner.prepare`` on a template bound in the binder's template mode, then
``PlanSkeleton.plan(literals)``, must give exactly the plan of the
statement with those literals written in — rows, costs, and plan text —
for every shape the planner handles: index choice, residual join
filters, outer joins, derived tables, subqueries, UNION, HAVING,
select-list placeholders, and a bare boolean placeholder.  Executing that
plan, which carries the binding's literals, must return exactly the
instantiated statement's result table.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.datasets import build_tpch
from repro.fuzz.oracles import table_diff
from repro.sqldb.binder import Binder
from repro.sqldb.errors import ExecutionError
from repro.sqldb.explain import explain_plan
from repro.sqldb.parser import parse_select
from repro.sqldb.planner import Planner
from repro.sqldb.types import SqlType

INT, DOUBLE, TEXT, BOOL = (
    SqlType.INTEGER, SqlType.DOUBLE, SqlType.TEXT, SqlType.BOOLEAN,
)

# (template, placeholder types, bindings as SQL literal text).  Between them
# the cases put a placeholder under each estimator a literal can feed:
# comparisons either way round, AND/OR/NOT, [NOT] BETWEEN, IN, LIKE, a bare
# boolean, and constant arithmetic and negation.
CASES = [
    (
        "select c_name from customer where c_acctbal > {p}",
        {"p": DOUBLE},
        [{"p": "-100.5"}, {"p": "2500.0"}],
    ),
    (
        "select o_orderkey from orders where o_orderdate between {lo} and {hi}",
        {"lo": TEXT, "hi": TEXT},
        [{"lo": "'1994-01-01'", "hi": "'1995-06-30'"}],
    ),
    (
        "select o_orderkey from orders where o_orderkey = {p} and o_totalprice < {q}",
        {"p": INT, "q": DOUBLE},
        [{"p": "5", "q": "1000.0"}, {"p": "-5", "q": "-1.0"}],
    ),
    (
        "select p_partkey from part where p_type like {s} or not p_size > {n}",
        {"s": TEXT, "n": INT},
        [{"s": "'%BRASS'", "n": "10"}],
    ),
    (
        "select p_partkey from part where {n} > p_size "
        "and p_retailprice not between {lo} and {hi} "
        "and p_retailprice > {lo} * 2 + 1 and p_size > -{n}",
        {"n": INT, "lo": DOUBLE, "hi": DOUBLE},
        [{"n": "20", "lo": "900.0", "hi": "1500.0"}],
    ),
    (
        "select n_name from nation where n_regionkey in ({a}, 2, {b})",
        {"a": INT, "b": INT},
        [{"a": "1", "b": "-4"}],
    ),
    (
        "select c_name from customer c join orders o on c.c_custkey = o.o_custkey "
        "where o.o_totalprice > c.c_acctbal * {p}",
        {"p": INT},
        [{"p": "2"}, {"p": "-3"}],
    ),
    (
        "select c_name from customer c left join orders o "
        "on c.c_custkey = o.o_custkey and o.o_totalprice > {p} "
        "where c.c_acctbal < {q}",
        {"p": DOUBLE, "q": DOUBLE},
        [{"p": "500.0", "q": "0.0"}],
    ),
    (
        "select x.k from (select o_custkey as k, o_totalprice as t from orders "
        "where o_totalprice > {p}) x where x.t < {q}",
        {"p": DOUBLE, "q": DOUBLE},
        [{"p": "100.0", "q": "90000.0"}],
    ),
    (
        "select c_name from customer c where c.c_nationkey in "
        "(select n_nationkey from nation where n_regionkey > {p}) "
        "and c.c_acctbal + (select min(c_acctbal) from customer) * 2 > {q}",
        {"p": INT, "q": DOUBLE},
        [{"p": "1", "q": "-50.0"}],
    ),
    (
        "select c_name from customer where c_acctbal > {p} "
        "union all select c_name from customer where c_nationkey < {q}",
        {"p": DOUBLE, "q": INT},
        [{"p": "1000.0", "q": "7"}],
    ),
    (
        "select o_custkey, count(*) from orders where o_totalprice > {p} "
        "group by o_custkey having count(*) > {q} order by o_custkey",
        {"p": DOUBLE, "q": INT},
        [{"p": "10.0", "q": "3"}],
    ),
    (
        "select distinct l_quantity + {p} from lineitem "
        "where l_discount < {q} limit 5",
        {"p": INT, "q": DOUBLE},
        [{"p": "-7", "q": "0.05"}, {"p": "7", "q": "0.05"}],
    ),
    (
        "select n_name from nation where {p}",
        {"p": BOOL},
        [{"p": "TRUE"}, {"p": "FALSE"}],
    ),
]


@pytest.fixture(scope="module")
def db():
    return build_tpch(scale=0.002, seed=3)


def literal(text: str):
    return parse_select(f"select {text}").select_items[0].expression


def instantiate(template: str, binding: dict[str, str]) -> str:
    for name, text in binding.items():
        template = template.replace(f"{{{name}}}", text)
    return template


def prepare(db, template: str, types):
    bound = Binder(db.catalog, placeholder_types=types).bind(parse_select(template))
    return Planner(db.catalog, placeholder_types=types).prepare(bound)


CASE_IDS = [f"case{i}" for i in range(len(CASES))]


@pytest.mark.parametrize("template, types, bindings", CASES, ids=CASE_IDS)
def test_skeleton_plan_matches_the_instantiated_statement(
    db, template, types, bindings
):
    skeleton = prepare(db, template, types)
    assert not skeleton.prints_placeholders
    for binding in bindings:
        literals = {name: literal(text) for name, text in binding.items()}
        fast = explain_plan(skeleton.plan(literals))
        cold = explain_plan(db.plan(instantiate(template, binding)))
        assert fast == cold, (template, binding)


@pytest.mark.parametrize("template, types, bindings", CASES, ids=CASE_IDS)
def test_skeleton_plan_executes_as_the_instantiated_statement(
    db, template, types, bindings
):
    skeleton = prepare(db, template, types)
    for binding in bindings:
        sql = instantiate(template, binding)
        plan = skeleton.plan(
            {name: literal(text) for name, text in binding.items()}
        )
        fast = db.execute(sql, plan=plan).table
        cold = db.execute(sql).table
        assert table_diff(sql, fast, cold) is None


def test_plan_without_its_binding_refuses_to_execute(db):
    template = (
        "select c_name from customer where c_acctbal > {p} "
        "and c_nationkey in (select n_nationkey from nation where n_regionkey < {q})"
    )
    bound = prepare(db, template, {"p": DOUBLE, "q": INT}).plan(
        {"p": literal("1.5"), "q": literal("3")}
    )
    # The IN subquery runs first, so with no literals {q} is the one missed.
    for literals, missing in (({}, "q"), ({"q": literal("3")}, "p")):
        plan = dataclasses.replace(bound, literals=literals)
        with pytest.raises(ExecutionError, match=f"placeholder {{{missing}}}"):
            db.execute(template, plan=plan)


@pytest.mark.parametrize(
    "template",
    [
        "select o_custkey from orders order by o_totalprice + {p}",
        "select o_custkey, o_totalprice * {p} as t from orders order by t",
        "select o_totalprice + {p}, count(*) from orders group by o_totalprice + {p}",
        "select x.k from (select o_custkey as k from orders order by o_orderkey + {p}) x",
    ],
)
def test_printed_sort_and_group_keys_are_flagged(db, template):
    types = {"p": INT}
    bound = Binder(db.catalog, placeholder_types=types).bind(parse_select(template))
    assert Planner(db.catalog, placeholder_types=types).prepare(
        bound
    ).prints_placeholders
