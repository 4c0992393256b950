"""Differential battery: the fastpath must be byte-identical to the cold path.

Every assertion here compares a fastpath result (compiled-template re-cost or
EXPLAIN-cache hit) against the cold full pipeline (lex → parse → bind → plan)
on the same SQL.  ``ExplainResult`` is a frozen dataclass, so ``==`` compares
estimated rows, startup cost, total cost, and the rendered plan text — any
divergence in any field fails.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.baselines import build_template_pool
from repro.bo import lhs_configs
from repro.core import BarberConfig, TemplateProfiler, schema_payload
from repro.datasets import build_tpch, redset_spec_workload
from repro.fastpath import normalize_sql
from repro.fastpath.compiled import literal_expression
from repro.fuzz.runner import build_fuzz_database
from repro.obs import Telemetry, use_telemetry
from repro.sqldb.ast_nodes import Literal, UnaryOp
from repro.sqldb.errors import BindError, SqlSyntaxError
from repro.sqldb.explain import explain_plan
from repro.sqldb.lexer import TokenType, tokenize
from repro.sqldb.types import SqlType
from repro.workload import SqlTemplate

# Hand-written corpus covering every predicate shape the generator emits:
# point/range comparisons, BETWEEN, LIKE, IN, joins, aggregation, ORDER BY
# with LIMIT, date placeholders, text placeholders, and a column whose domain
# includes negative values (c_acctbal), which exercises the unary-minus
# literal representation.
CORPUS = [
    SqlTemplate(
        "diff_eq",
        "select l_orderkey from lineitem where l_linenumber = {v1}",
    ),
    SqlTemplate(
        "diff_range",
        "select l_orderkey, l_quantity from lineitem "
        "where l_quantity < {v1} and l_discount between {v2} and {v3}",
    ),
    SqlTemplate(
        "diff_negative",
        "select c_name from customer where c_acctbal > {v1} and c_acctbal < {v2}",
    ),
    SqlTemplate(
        "diff_date",
        "select o_orderkey from orders where o_orderdate < {d1}",
    ),
    SqlTemplate(
        "diff_text",
        "select p_partkey from part where p_type like {s1}",
    ),
    SqlTemplate(
        "diff_in",
        "select s_name from supplier where s_nationkey in ({v1}, {v2})",
    ),
    SqlTemplate(
        "diff_join",
        "select c_name, o_totalprice from customer c "
        "join orders o on c.c_custkey = o.o_custkey "
        "where o.o_totalprice > {v1} and c.c_acctbal > {v2}",
    ),
    SqlTemplate(
        "diff_group",
        "select o_orderdate, count(*), sum(o_totalprice) from orders "
        "where o_totalprice > {v1} group by o_orderdate "
        "order by o_orderdate limit 10",
    ),
    SqlTemplate(
        "diff_agg_having",
        "select l_orderkey, avg(l_extendedprice) from lineitem "
        "where l_quantity > {v1} group by l_orderkey "
        "having avg(l_extendedprice) > {v2}",
    ),
]

SAMPLES_PER_TEMPLATE = 10


@pytest.fixture(scope="module")
def db():
    return build_tpch(scale=0.002, seed=3)


@pytest.fixture(scope="module")
def profiler(db):
    return TemplateProfiler(db, BarberConfig(seed=0))


def cold_explain(db, sql):
    """The uncached, uncompiled reference: full pipeline, no counters."""
    return explain_plan(db.plan(sql))


def bindings_for(profiler, template, count=SAMPLES_PER_TEMPLATE):
    import zlib

    space = profiler.build_space(template)
    rng = np.random.default_rng(zlib.crc32(template.template_id.encode()))
    return lhs_configs(space, count, rng)


@pytest.fixture
def uncached(db):
    """Compiled re-costs must reach the template, not an EXPLAIN cache hit."""
    db.set_explain_cache(False)
    yield db
    db.set_explain_cache(True)


class TestCompiledDifferential:
    @pytest.mark.parametrize("template", CORPUS, ids=lambda t: t.template_id)
    def test_replan_matches_cold_pipeline(self, uncached, profiler, template):
        compiled = profiler._compiled_for(template)
        assert compiled is not None, f"{template.template_id} failed to compile"
        for values in bindings_for(profiler, template):
            sql = template.instantiate(values)
            assert compiled.explain(values) == cold_explain(uncached, sql), (
                template.template_id,
                values,
            )

    @pytest.mark.parametrize("template", CORPUS, ids=lambda t: t.template_id)
    def test_evaluate_matches_cold_evaluate(self, uncached, template):
        fast = TemplateProfiler(uncached, BarberConfig(seed=0))
        for values in bindings_for(fast, template):
            cold = uncached.explain(template.instantiate(values))
            assert fast.evaluate(template, values) == cold.total_cost

    def test_generated_pool_differential(self, uncached, profiler):
        """Randomly generated templates (the baseline pool generator) must
        also re-cost identically — the corpus above is not the only shape."""
        db = uncached
        pool = build_template_pool(
            db,
            redset_spec_workload(num_specs=4, seed=21),
            pool_size=12,
            profiler=profiler,
            schema=schema_payload(db),
            seed=21,
        )
        compiled_count = 0
        checked = 0
        for profile in pool:
            template = profile.template
            compiled = profiler._compiled_for(template)
            if compiled is None:
                continue
            compiled_count += 1
            for values in bindings_for(profiler, template, count=4):
                try:
                    sql = template.instantiate(values)
                except KeyError:
                    continue
                try:
                    cold = cold_explain(db, sql)
                except Exception:
                    # The cold path rejects this instantiation; the compiled
                    # path must reject it too (profiler maps both to None).
                    with pytest.raises(Exception):
                        compiled.explain(values)
                    continue
                assert compiled.explain(values) == cold
                checked += 1
        assert compiled_count >= len(pool) // 2, "most pool templates should compile"
        assert checked >= 10


# Templates whose EXPLAIN prints a placeholder, so every binding plans its
# instantiated SQL cold: a GROUP BY key and an ORDER BY alias over one.
PRINTED_PLACEHOLDERS = [
    SqlTemplate(
        "diff_group_key",
        "select l_quantity + {v1}, count(*) from lineitem "
        "where l_discount < {v2} group by l_quantity + {v1}",
    ),
    SqlTemplate(
        "diff_order_key",
        "select l_orderkey, l_quantity + {v1} as q from lineitem "
        "where l_quantity < {v2} order by q",
    ),
]


def outcome(call):
    """``call()``'s result, or the class and message of what it raised."""
    try:
        return ("ok", call())
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return (type(exc), str(exc))


def error_bindings(template, good):
    """Bindings *explain* rejects or sends cold, derived from *good*."""
    names = list(good)
    yield {}  # every placeholder missing: the first one named
    yield {name: value for name, value in good.items() if name != names[-1]}
    for name in names:
        yield {**good, name: float("inf")}  # a DOUBLE literal that is no number
        yield {**good, name: float("nan")}
        yield {**good, name: 2**40}  # binds as BIGINT: the type guard sends it cold
    if len(names) > 1:
        yield {**good, names[0]: float("nan"), names[-1]: float("-inf")}


class TestEstimateDifferential:
    """``estimate`` against the cold instantiated EXPLAIN: the same two
    numbers or the same error, no EXPLAIN-cache traffic, and one
    ``sqldb.explain.calls`` per call."""

    def check(self, db, compiled, template, bindings):
        telemetry = Telemetry()
        checked = {"ok": 0, "error": 0}
        for values in bindings:
            db.set_explain_cache(False)
            try:
                expected = outcome(lambda: compiled.explain(values))
            finally:
                db.set_explain_cache(True)
            if expected[0] == "ok":
                cold = cold_explain(db, template.instantiate(values))
                assert expected[1] == cold
                expected = ("ok", (cold.estimated_rows, cold.total_cost))
            stats = db.explain_cache.stats()
            with use_telemetry(telemetry):
                before = telemetry.metrics.total("sqldb.explain.calls")
                got = outcome(lambda: compiled.estimate(values))
                after = telemetry.metrics.total("sqldb.explain.calls")
            assert got == expected, (template.template_id, values)
            assert after == before + 1, (template.template_id, values)
            assert db.explain_cache.stats() == stats
            checked["ok" if got[0] == "ok" else "error"] += 1
        return checked

    @pytest.mark.parametrize(
        "template", CORPUS + PRINTED_PLACEHOLDERS, ids=lambda t: t.template_id
    )
    def test_estimate_matches_cold_explain(self, db, profiler, template):
        compiled = profiler._compiled_for(template)
        assert compiled is not None, f"{template.template_id} failed to compile"
        bindings = bindings_for(profiler, template)
        checked = self.check(db, compiled, template, bindings)
        assert checked == {"ok": len(bindings), "error": 0}

    @pytest.mark.parametrize(
        "template", CORPUS + PRINTED_PLACEHOLDERS, ids=lambda t: t.template_id
    )
    def test_estimate_raises_what_explain_raises(self, db, profiler, template):
        compiled = profiler._compiled_for(template)
        good = bindings_for(profiler, template, count=1)[0]
        checked = self.check(db, compiled, template, error_bindings(template, good))
        assert checked["error"] >= 2  # at least the two missing-placeholder cases

    def test_error_kinds_are_covered(self, db, profiler):
        """The battery above meets each kind of failure it is meant to."""
        template = CORPUS[2]  # diff_negative: two DOUBLE placeholders
        compiled = profiler._compiled_for(template)
        good = bindings_for(profiler, template, count=1)[0]
        kinds = {
            outcome(lambda v=values: compiled.estimate(v))[0]
            for values in error_bindings(template, good)
        }
        assert {KeyError, BindError, "ok"} <= kinds
        eq = CORPUS[0]  # diff_eq: an INTEGER placeholder
        wide = {"v1": 2**40}  # out of int32: the type guard plans it cold
        compiled = profiler._compiled_for(eq)
        assert compiled._skeleton_plan(wide) is None
        cold = cold_explain(db, eq.instantiate(wide))
        assert compiled.estimate(wide) == (cold.estimated_rows, cold.total_cost)
        for template in PRINTED_PLACEHOLDERS:
            compiled = profiler._compiled_for(template)
            assert compiled._skeleton() is None

    def test_profiler_costs_through_estimate(self, db):
        """``plan_cost`` and ``cardinality`` profiling reads no cache."""
        db.explain_cache.clear()
        stats = db.explain_cache.stats()
        for metric in ("plan_cost", "cardinality", "execution_time"):
            profiler = TemplateProfiler(db, BarberConfig(seed=0), cost_metric=metric)
            for template in CORPUS:
                for values in bindings_for(profiler, template, count=3):
                    cold = cold_explain(db, template.instantiate(values))
                    expected = (
                        cold.estimated_rows
                        if metric == "cardinality"
                        else cold.total_cost
                    )
                    assert profiler.evaluate(template, values) == expected
        assert db.explain_cache.stats() == stats


class TestExplainCacheDifferential:
    def test_cache_hits_return_identical_results(self, db):
        db.explain_cache.clear()
        for template in CORPUS:
            profiler = TemplateProfiler(db, BarberConfig(seed=1))
            for values in bindings_for(profiler, template, count=3):
                sql = template.instantiate(values)
                reference = cold_explain(db, sql)
                first = db.explain(sql)
                second = db.explain(sql)
                assert first == reference
                assert second == reference

    def test_normalized_variants_share_one_entry(self, db):
        db.explain_cache.clear()
        base = "select count(*) from nation where n_regionkey = 2"
        variants = [
            base,
            "select  count(*)   from nation\n where n_regionkey = 2 ;",
            "\tselect count(*) from nation where n_regionkey = 2;",
        ]
        results = [db.explain(sql) for sql in variants]
        assert results[0] == results[1] == results[2]
        key = normalize_sql(variants[1])
        assert key == normalize_sql(base)
        assert db.explain_cache.contains(key)

    def test_disabled_cache_still_matches(self, db):
        sql = "select count(*) from region"
        cached = db.explain(sql)
        db.set_explain_cache(False)
        try:
            assert db.explain(sql) == cached == cold_explain(db, sql)
        finally:
            db.set_explain_cache(True)


class TestNormalizeSql:
    def test_collapses_whitespace_outside_strings(self):
        assert (
            normalize_sql("select  a ,\n b\tfrom t")
            == "select a , b from t"
        )

    def test_preserves_string_literals(self):
        sql = "select * from t where name = 'a  b\tc'"
        assert normalize_sql(sql) == sql

    def test_strips_trailing_semicolons(self):
        assert normalize_sql("select 1 ; ") == "select 1"

    def test_quote_escape_stays_inside_string(self):
        # '' is an escaped quote: the parser sees one literal, and the
        # normalizer must not treat the text after it as code.
        sql = "select * from t where name = 'it''s  a' and x = 1"
        assert normalize_sql(sql) == sql

    def test_line_comment_keeps_its_newline(self):
        assert normalize_sql("select a -- c\n  from t") == "select a -- c\n from t"
        assert normalize_sql("select a -- c\nfrom t") != normalize_sql(
            "select a -- c from t"
        )

    def test_quoted_identifiers_are_copied_verbatim(self):
        sql = 'select "a  b" from "t\tx"'
        assert normalize_sql(sql) == sql
        assert normalize_sql('select "a b"') != normalize_sql('select "a  b"')

    def test_only_one_trailing_semicolon_is_dropped(self):
        # "select 1;;" is a syntax error; it must not share "select 1"'s key.
        assert normalize_sql("select 1 ;; ") == "select 1 ;"

    def test_comment_boundary_case_gets_its_own_explain(self):
        db = build_fuzz_database(0)
        commented = db.explain("select user_id from users -- c\nwhere user_id < 3")
        whole_comment = db.explain("select user_id from users -- c where user_id < 3")
        assert whole_comment == cold_explain(
            db, "select user_id from users -- c where user_id < 3"
        )
        assert whole_comment.estimated_rows == 120
        assert commented.estimated_rows < 120

    FRAGMENTS = (
        "select", "a", "b", "from", "t", "where", "=", "1", "1e", "-", "--",
        "/*", "*/", "/", "*", "'", "''", '"', "{", "}", "p_1", "(", ")", ";",
        "x y", "e",
    )
    SPACES = (" ", "  ", "\n", "\t", " \n ", "\n\n", "")

    def test_equal_keys_tokenize_equally(self):
        """Seeded property: texts with one key tokenize to one (type, value)
        stream, up to one trailing semicolon, or all fail to tokenize."""
        rng = random.Random(18)

        def tokens(sql):
            try:
                stream = [(t.type, t.value) for t in tokenize(sql)[:-1]]
            except SqlSyntaxError:
                return "error"
            if stream and stream[-1] == (TokenType.PUNCTUATION, ";"):
                stream.pop()
            return stream

        collisions = 0
        by_key: dict[str, object] = {}
        for _ in range(1500):
            fragments = rng.choices(self.FRAGMENTS, k=rng.randint(1, 10))
            for _ in range(6):  # the same fragments, different whitespace
                sql = "".join(
                    rng.choice(self.SPACES) + fragment for fragment in fragments
                ) + rng.choice(self.SPACES)
                key = normalize_sql(sql)
                if key in by_key:
                    collisions += 1
                    assert tokens(sql) == by_key[key], (sql, key)
                else:
                    by_key[key] = tokens(sql)
        assert collisions > 1000


class TestLiteralExpression:
    """literal_expression must mirror what parsing render_literal() yields."""

    def test_negative_int_is_unary_minus(self):
        expr = literal_expression(-7)
        assert expr == UnaryOp("-", Literal(7))

    def test_negative_float_is_unary_minus(self):
        assert literal_expression(-2.5) == UnaryOp("-", Literal(2.5))

    def test_negative_zero_float_keeps_sign_shape(self):
        # repr(-0.0) == "-0.0" parses as unary minus over 0.0.
        assert literal_expression(-0.0) == UnaryOp("-", Literal(0.0))

    def test_int_for_date_column_renders_iso_text(self):
        expr = literal_expression(0, SqlType.DATE)
        assert isinstance(expr, Literal) and isinstance(expr.value, str)

    def test_float_for_integer_column_rounds(self):
        assert literal_expression(41.6, SqlType.INTEGER) == Literal(42)

    def test_nonfinite_float_raises_like_cold_path(self):
        from repro.sqldb import SqlError

        with pytest.raises(SqlError):
            literal_expression(float("inf"))
        with pytest.raises(SqlError):
            literal_expression(float("nan"))
