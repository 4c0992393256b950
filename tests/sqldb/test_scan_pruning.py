"""Scans carry only the columns their plan reads.

A base-table scan puts into its frame only the columns that some
expression of the statement's plan reads (``SeqScanNode.reads``), and the
frame keeps the per-row bytes of the others so that the governor is charged
for full rows.  Every case here runs twice: as planned, and with the
planner's read set patched to None, which makes every scan carry every
column.  Both runs must give the same result
(names, dtypes, values, null masks, row order) or the same error, the same
governor calls with the same arguments, and the same peak bytes, also under
a memory budget small enough that some cases trip it.
"""

from __future__ import annotations

import pytest

from repro.datasets import build_tpch
from repro.fastpath.compiled import (
    CompiledTemplate,
    bound_literal_type,
    literal_expression,
)
from repro.fuzz import build_fuzz_database
from repro.fuzz.grammar import FuzzGrammar
from repro.fuzz.oracles import templatize
from repro.governor import GovernorLimits, QueryGovernor, clock_for, use_governor
from repro.sqldb import planner
from repro.sqldb.binder import Binder
from repro.sqldb.errors import MemoryBudgetExceeded
from repro.sqldb.executor import Executor
from repro.sqldb.explain import explain_plan
from repro.sqldb.parser import parse_sql
from repro.sqldb.plan_nodes import IndexScanNode, SeqScanNode
from repro.sqldb.planner import Planner

# Small enough that a scan of the 600 orders (about 58 kB) trips it.
TIGHT_BUDGET = 48_000

SPIKE = (
    "SELECT t0.ps_partkey, t0.ps_availqty, t0.ps_supplycost FROM partsupp AS t0 "
    "JOIN part AS t1 ON t1.p_partkey = t0.ps_partkey "
    "JOIN lineitem AS t2 ON t2.l_partkey = t1.p_partkey "
    "JOIN lineitem AS t3 ON t3.l_partkey = t2.l_partkey "
    "WHERE t0.ps_availqty > 4638 AND t0.ps_suppkey <= 6 AND t0.ps_partkey <= 40"
)

SELECTS = [
    # joins: inner, outer, comma, nested loop, two-key
    "SELECT u.name, o.amount FROM users u JOIN orders o ON u.user_id = o.user_id "
    "WHERE o.amount > 50",
    "SELECT u.name, o.status FROM users u LEFT JOIN orders o "
    "ON u.user_id = o.user_id AND o.amount > 300",
    "SELECT o.order_id, i.label FROM orders o RIGHT JOIN items i "
    "ON o.item_id = i.item_id WHERE i.price < 100",
    "SELECT u.city, o.order_id FROM users u FULL JOIN orders o "
    "ON u.user_id = o.user_id AND u.age > 60",
    "SELECT u.name, i.label FROM users u, items i WHERE u.age > 75 AND i.price > 450",
    "SELECT u.name, o.amount FROM users u JOIN orders o ON o.amount > u.age * 5 "
    "WHERE u.age > 70",
    "SELECT a.name FROM users a JOIN users b ON a.user_id = b.user_id AND a.age = b.age",
    "SELECT o.order_id FROM orders o JOIN users u ON o.order_date = u.city",
    # grouping, HAVING, sorting, DISTINCT, UNION, LIMIT
    "SELECT o.status, count(*), sum(o.amount) FROM orders o GROUP BY o.status "
    "HAVING count(*) > 10",
    "SELECT o.status, max(o.order_date) FROM orders o JOIN users u "
    "ON o.user_id = u.user_id GROUP BY o.status HAVING min(u.age) > 18 "
    "ORDER BY o.status",
    "SELECT u.name FROM users u ORDER BY u.age DESC, u.user_id LIMIT 7",
    "SELECT o.order_id FROM orders o ORDER BY o.amount LIMIT 5 OFFSET 3",
    "SELECT DISTINCT u.city FROM users u WHERE u.age > 30",
    "SELECT u.name FROM users u WHERE u.age < 25 "
    "UNION SELECT i.label FROM items i WHERE i.price > 400",
    "SELECT u.name FROM users u WHERE u.age < 25 "
    "UNION ALL SELECT i.label FROM items i WHERE i.price < 20",
    "SELECT count(*) FROM orders o JOIN items i ON o.item_id = i.item_id",
    "SELECT count(*) FROM users u WHERE u.age < 0 HAVING count(*) >= 0",
    "SELECT max(u.age) FROM users u WHERE u.age < 0 HAVING max(u.age) IS NULL",
    # subqueries and derived tables
    "SELECT o.order_id FROM orders o WHERE o.user_id IN "
    "(SELECT u.user_id FROM users u WHERE u.age > 70)",
    "SELECT u.name FROM users u WHERE EXISTS "
    "(SELECT o.order_id FROM orders o WHERE o.amount > 400)",
    "SELECT o.order_id, o.amount FROM orders o "
    "WHERE o.amount > (SELECT avg(p.amount) FROM orders p)",
    "SELECT d.status, d.n FROM (SELECT o.status, count(*) AS n FROM orders o "
    "GROUP BY o.status) d WHERE d.n > 100",
    "SELECT d.name, o.amount FROM (SELECT u.user_id, u.name FROM users u "
    "WHERE u.age > 50) d JOIN orders o ON d.user_id = o.user_id",
    # stars
    "SELECT * FROM items i WHERE i.price > 300",
    "SELECT o.*, u.name FROM orders o JOIN users u ON o.user_id = u.user_id "
    "WHERE o.amount > 200",
    "SELECT * FROM users u, items i WHERE u.age > 78",
    # errors
    "SELECT user_id FROM users u JOIN orders o ON u.user_id = o.user_id",
    "SELECT o.order_id FROM orders o WHERE o.amount > (SELECT u.age FROM users u)",
]

MUTATIONS = [
    "INSERT INTO items (item_id, label, price, in_stock) "
    "SELECT i.item_id + 1000, i.label, i.price * 2, i.in_stock FROM items i "
    "WHERE i.price > 250",
    "INSERT INTO items SELECT * FROM items i WHERE i.price < 50",
    "UPDATE orders SET amount = amount + 1 WHERE status = 'paid'",
    "UPDATE users SET city = 'x' WHERE age > (SELECT avg(u.age) FROM users u)",
    "DELETE FROM orders WHERE amount > 300",
    "DELETE FROM users WHERE user_id IN (SELECT o.user_id FROM orders o)",
]


class RecordingGovernor(QueryGovernor):
    """A governor that keeps the arguments of every charge and admission."""

    def __init__(self, memory_budget_bytes=None):
        super().__init__(
            GovernorLimits(memory_budget_bytes=memory_budget_bytes),
            clock=clock_for("simulated"),
        )
        self.calls = []

    def charge_rows(self, rows):
        self.calls.append(("charge_rows", rows))
        super().charge_rows(rows)

    def charge_frame(self, node_name, rows, est_bytes):
        self.calls.append(("charge_frame", node_name, rows, est_bytes))
        super().charge_frame(node_name, rows, est_bytes)

    def admit(self, rows, est_bytes, node_name):
        self.calls.append(("admit", rows, est_bytes, node_name))
        super().admit(rows, est_bytes, node_name)


def table_signature(table):
    return [
        (
            column.name,
            column.sql_type,
            str(column.data.dtype),
            [repr(value) for value in column.data.tolist()],
            None if column.null_mask is None else column.null_mask.tolist(),
        )
        for column in table.columns
    ]


def outcome(run, budget=None):
    """What *run* (a zero-argument execution) returns or raises, and what
    the governor saw."""
    governor = RecordingGovernor(budget)
    with use_governor(governor):
        try:
            result = run()
        except Exception as exc:  # the error itself is the outcome
            observed = ("error", type(exc).__name__, str(exc))
        else:
            observed = ("ok", table_signature(result.table))
    return observed, governor.calls, governor.peak_bytes


@pytest.fixture
def carry_all(monkeypatch):
    """Run a callable with every scan carrying every column."""

    def run(call):
        with monkeypatch.context() as patch:
            patch.setattr(
                planner._QueryContext, "scan_reads", lambda self, binding: None
            )
            return call()

    return run


def assert_same_both_ways(
    pruned_db, full_db, sql, carry_all, budgets=(None, TIGHT_BUDGET)
):
    """Run *sql* on *pruned_db* as planned and on *full_db* carrying every
    column, under each budget; returns the pruned outcomes."""
    outcomes = []
    for budget in budgets:
        pruned = outcome(lambda: pruned_db.execute(sql), budget)
        full = carry_all(lambda: outcome(lambda: full_db.execute(sql), budget))
        assert pruned == full, sql
        outcomes.append(pruned)
    return outcomes


def scans(plan):
    """The base-table scans of *plan*, nested plans excluded."""
    found, stack = [], [plan.root]
    while stack:
        node = stack.pop()
        if isinstance(node, (SeqScanNode, IndexScanNode)):
            found.append(node)
        stack.extend(
            child for name in ("left", "right", "child")
            if (child := getattr(node, name, None)) is not None
        )
    return found


class TestDifferential:
    def test_handwritten_selects(self, carry_all):
        pruned_db, full_db = build_fuzz_database(0), build_fuzz_database(0)
        kinds = set()
        for sql in SELECTS:
            for observed, _, _ in assert_same_both_ways(
                pruned_db, full_db, sql, carry_all
            ):
                kinds.add(observed[0] if observed[0] == "ok" else observed[1])
        assert {"ok", "MemoryBudgetExceeded", "BindError"} <= kinds

    def test_mutations(self, carry_all):
        pruned_db, full_db = build_fuzz_database(1), build_fuzz_database(1)
        for sql in MUTATIONS + SELECTS[:4]:
            assert_same_both_ways(pruned_db, full_db, sql, carry_all)
        for name in pruned_db.catalog.table_names:
            assert table_signature(pruned_db.catalog.data(name)) == table_signature(
                full_db.catalog.data(name)
            )

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_fuzz_grammar_statements(self, seed, carry_all):
        pruned_db, full_db = build_fuzz_database(seed), build_fuzz_database(seed)
        grammar = FuzzGrammar(pruned_db.catalog, seed=seed)
        tripped = succeeded = 0
        for generated in grammar.statements(60):
            for sql in filter(None, (generated.sql, generated.tightened_sql)):
                for observed, _, _ in assert_same_both_ways(
                    pruned_db, full_db, sql, carry_all
                ):
                    tripped += observed[:2] == ("error", "MemoryBudgetExceeded")
                    succeeded += observed[0] == "ok"
        assert tripped and succeeded

    def test_spike_query(self, carry_all):
        pruned_db, full_db = build_tpch(0.0003), build_tpch(0.0003)
        ((observed, _, _),) = assert_same_both_ways(
            pruned_db, full_db, SPIKE, carry_all, budgets=(None,)
        )
        assert observed[0] == "ok" and len(observed[1][0][3]) == 46_233
        # The four scans hold 34 columns, of which the plan reads 7.
        plan = pruned_db.plan(SPIKE)
        held = [pruned_db.catalog.data(n.table_name).columns for n in scans(plan)]
        assert sum(map(len, held)) == 34
        carried = {node.binding: node.reads for node in scans(plan)}
        assert carried == {
            "t0": {"ps_partkey", "ps_availqty", "ps_supplycost", "ps_suppkey"},
            "t1": {"p_partkey"},
            "t2": {"l_partkey"},
            "t3": {"l_partkey"},
        }
        assert explain_plan(plan) == carry_all(lambda: explain_plan(full_db.plan(SPIKE)))

    def test_explain_text_and_costs_do_not_change(self, carry_all):
        db = build_fuzz_database(0)

        def explain(sql):
            try:
                return db.explain(sql)
            except Exception as exc:
                return type(exc).__name__, str(exc)

        for sql in SELECTS + MUTATIONS:
            assert explain(sql) == carry_all(lambda: explain(sql)), sql


class TestColumnReads:
    def test_read_sets(self):
        db = build_fuzz_database(0)
        plan = db.plan(
            "SELECT u.name FROM users u JOIN orders o ON u.user_id = o.user_id "
            "WHERE o.amount > 10 ORDER BY o.order_date"
        )
        assert {n.binding: n.reads for n in scans(plan)} == {
            "u": {"name", "user_id"},
            "o": {"user_id", "amount", "order_date"},
        }
        star = db.plan("SELECT * FROM items i WHERE i.price > 1")
        assert scans(star)[0].reads == {"item_id", "label", "price", "in_stock"}
        count = db.plan("SELECT count(*) FROM orders o")
        assert scans(count)[0].reads == frozenset()

    def test_outer_joins_and_dml_carry_every_column(self):
        db = build_fuzz_database(0)
        outer = db.plan(
            "SELECT u.name FROM users u LEFT JOIN orders o ON u.user_id = o.user_id"
        )
        assert [n.reads for n in scans(outer)] == [None, None]
        for sql in ("UPDATE orders SET amount = 1 WHERE status = 'new'",
                    "DELETE FROM orders WHERE amount > 1"):
            assert scans(db.plan(sql))[0].reads is None

    def test_subqueries_are_their_own_plans(self):
        db = build_fuzz_database(0)
        plan = db.plan(
            "SELECT o.order_id FROM orders o WHERE o.user_id IN "
            "(SELECT u.user_id FROM users u WHERE u.age > 70)"
        )
        assert scans(plan)[0].reads == {"order_id", "user_id"}
        (subplan,) = plan.subplans.values()
        assert scans(subplan.plan)[0].reads == {"user_id", "age"}


class TestBareColumnNames:
    """An unqualified reference that reaches the executor resolves by its
    bare name (``EvalContext.column``'s fallback), so every binding carries
    a column of that name: the resolution and its ambiguity error stay."""

    @staticmethod
    def run_unqualified(db, sql):
        statement = parse_sql(sql)
        bound = Binder(db.catalog).bind(statement)
        for item in statement.select_items:
            item.expression.table = None
        return Executor(db.catalog).execute(Planner(db.catalog).plan(bound))

    @pytest.mark.parametrize(
        "sql",
        [
            # resolves: only orders has a status column
            "SELECT o.status FROM users u JOIN orders o ON u.user_id = o.user_id",
            # ambiguous: both bindings have age, and no other expression reads it
            "SELECT a.age FROM users a JOIN users b ON a.user_id = b.user_id",
        ],
    )
    def test_same_both_ways(self, sql, carry_all):
        db = build_fuzz_database(0)

        def run():
            try:
                return ("ok", table_signature(self.run_unqualified(db, sql)))
            except Exception as exc:
                return ("error", type(exc).__name__, str(exc))

        assert run() == carry_all(run)

    def test_ambiguity_error_stays(self):
        db = build_fuzz_database(0)
        with pytest.raises(Exception, match="not found at execution time"):
            self.run_unqualified(
                db, "SELECT a.age FROM users a JOIN users b ON a.user_id = b.user_id"
            )


class TestPreparedExecution:
    """``CompiledTemplate.execute`` returns ``Database.execute``'s table for
    the instantiated SQL, and the governor sees the same calls."""

    @pytest.mark.parametrize("seed", [0, 5])
    def test_compiled_equals_instantiated(self, seed, carry_all):
        db = build_fuzz_database(seed)
        grammar = FuzzGrammar(db.catalog, seed=seed)
        compared = 0
        for generated in grammar.statements(80):
            if generated.shape in ("insert", "update", "delete"):
                continue
            template, values = templatize(generated.sql, db)
            if template is None:
                continue
            render_types = {p.name: p.sql_type for p in template.placeholders}
            types = {
                name: bound_literal_type(
                    literal_expression(value, render_types.get(name))
                )
                for name, value in values.items()
            }
            try:
                compiled = CompiledTemplate(db, template, types)
            except Exception:
                continue
            sql = template.instantiate(values)
            for budget in (None, TIGHT_BUDGET):
                prepared = outcome(lambda: compiled.execute(values), budget)
                cold = outcome(lambda: db.execute(sql), budget)
                full = carry_all(lambda: outcome(lambda: db.execute(sql), budget))
                assert prepared == cold == full, sql
            compared += 1
        assert compared >= 10


def test_memory_budget_trips_at_the_same_operator(carry_all):
    db = build_fuzz_database(0)
    sql = "SELECT o.order_id FROM orders o WHERE o.amount > 1"
    pruned = outcome(lambda: db.execute(sql), TIGHT_BUDGET)
    full = carry_all(lambda: outcome(lambda: db.execute(sql), TIGHT_BUDGET))
    assert pruned == full
    assert pruned[0][:2] == ("error", MemoryBudgetExceeded.__name__)
