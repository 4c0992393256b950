"""Batched re-costing (``CompiledTemplate.explain_many``) differential tests.

``explain_many`` has a true fast path — with the EXPLAIN cache disabled it
skips per-call SQL rendering and cache dispatch and runs the template's
plan skeleton directly — so this battery pins its contract: byte-identical
results, identical telemetry counters, and identical errors to the
equivalent per-call loop ``[compiled.explain(v) for v in bindings]`` and to
the cold pipeline.  ``fastpath.compiled.replayed`` counts the bindings
costed through the skeleton rather than re-planned from their SQL.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bo import lhs_configs
from repro.core import BarberConfig, TemplateProfiler
from repro.datasets import build_tpch
from repro.obs import Telemetry, use_telemetry
from repro.sqldb.errors import BindError
from repro.sqldb.explain import explain_plan
from repro.workload import SqlTemplate

PROJECTION = SqlTemplate(
    "batch_projection",
    "select l_orderkey + {v1} from lineitem where l_quantity < {v2}",
)

TEMPLATES = [
    SqlTemplate(
        "batch_scan",
        "select l_orderkey from lineitem where l_quantity < {v1}",
    ),
    SqlTemplate(
        "batch_range",
        "select l_orderkey, l_quantity from lineitem "
        "where l_quantity < {v1} and l_discount between {v2} and {v3}",
    ),
    SqlTemplate(
        "batch_negative",
        "select c_name from customer where c_acctbal > {v1} and c_acctbal < {v2}",
    ),
    SqlTemplate(
        "batch_date",
        "select o_orderkey from orders where o_orderdate < {d1}",
    ),
    SqlTemplate(
        "batch_text",
        "select p_partkey from part where p_type like {s1}",
    ),
    SqlTemplate(
        "batch_join",
        "select c_name, o_totalprice from customer c "
        "join orders o on c.c_custkey = o.o_custkey "
        "where o.o_totalprice > {v1} and c.c_acctbal > {v2}",
    ),
    SqlTemplate(
        "batch_having",
        "select l_orderkey, avg(l_extendedprice) from lineitem "
        "where l_quantity > {v1} group by l_orderkey "
        "having avg(l_extendedprice) > {v2}",
    ),
    PROJECTION,
    # The synthesizer's nested-subquery and UNION ALL shapes.
    SqlTemplate(
        "batch_in_subquery",
        "select c_name from customer c where c.c_nationkey in "
        "(select n_nationkey from nation where n_regionkey > {v1})",
    ),
    SqlTemplate(
        "batch_scalar_subquery",
        "select o_orderkey from orders o "
        "where o.o_totalprice + (select min(o_totalprice) from orders) * 2 > {v1}",
    ),
    SqlTemplate(
        "batch_union_all",
        "select c_name, c_acctbal from customer c where c.c_acctbal > {v1} "
        "union all "
        "select c_name, c_acctbal from customer c where c.c_nationkey < 10",
    ),
]

# Compiles, but EXPLAIN prints its placeholder (the ORDER BY alias resolves
# to a sort key holding {v1}), so every binding re-plans its SQL cold.
UNREPLAYABLE = SqlTemplate(
    "batch_order_key",
    "select l_orderkey, l_quantity + {v1} as q from lineitem "
    "where l_quantity < {v2} order by q",
)


@pytest.fixture(scope="module")
def db():
    return build_tpch(scale=0.002, seed=3)


@pytest.fixture(scope="module")
def profiler(db):
    return TemplateProfiler(db, BarberConfig(seed=0))


def bindings_for(profiler, template, count=8):
    import zlib

    space = profiler.build_space(template)
    rng = np.random.default_rng(zlib.crc32(template.template_id.encode()))
    return lhs_configs(space, count, rng)


def counters(telemetry):
    counts = dict(telemetry.metrics._counters)
    # The only intended difference: the batch entry point counts itself.
    counts.pop("fastpath.compiled.batches", None)
    counts.pop("fastpath.compiled.batched_explains", None)
    return counts


class TestBatchedFastPath:
    @pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.template_id)
    def test_matches_per_call_loop_and_cold(self, db, profiler, template):
        compiled = profiler._compiled_for(template)
        assert compiled is not None
        bindings = bindings_for(profiler, template)
        telemetry = Telemetry()
        db.set_explain_cache(False)
        try:
            with use_telemetry(telemetry):
                batched = compiled.explain_many(bindings)
            per_call = [compiled.explain(values) for values in bindings]
        finally:
            db.set_explain_cache(True)
        # Every binding was costed through the template's skeleton.
        assert telemetry.metrics.total("fastpath.compiled.replayed") == len(
            bindings
        )
        for values, fast, slow in zip(bindings, batched, per_call):
            assert fast == slow, values
            cold = explain_plan(db.plan(template.instantiate(values)))
            assert fast == cold, values
            assert fast.plan_text == cold.plan_text

    @pytest.mark.parametrize("template", TEMPLATES[:3], ids=lambda t: t.template_id)
    def test_telemetry_counters_match_per_call_loop(self, db, profiler, template):
        compiled = profiler._compiled_for(template)
        bindings = bindings_for(profiler, template)
        db.set_explain_cache(False)
        try:
            batched_t, per_call_t = Telemetry(), Telemetry()
            with use_telemetry(batched_t):
                compiled.explain_many(bindings)
            with use_telemetry(per_call_t):
                for values in bindings:
                    compiled.explain(values)
        finally:
            db.set_explain_cache(True)
        assert counters(batched_t) == dict(per_call_t.metrics._counters)
        assert batched_t.metrics.total("fastpath.compiled.batches") == 1
        assert batched_t.metrics.total(
            "fastpath.compiled.batched_explains"
        ) == len(bindings)
        # Every binding was replayed *and* recorded as an explain call.
        assert batched_t.metrics.total("fastpath.compiled.replayed") == len(
            bindings
        )
        assert batched_t.metrics.total("sqldb.explain.calls") == len(bindings)

    def test_cache_enabled_path_matches(self, db, profiler):
        template = TEMPLATES[0]
        compiled = profiler._compiled_for(template)
        bindings = bindings_for(profiler, template)
        db.explain_cache.clear()
        batched = compiled.explain_many(bindings)
        for values, fast in zip(bindings, batched):
            assert fast == explain_plan(db.plan(template.instantiate(values)))
        # The cache saw the statements: a second batch is served from it.
        assert compiled.explain_many(bindings) == batched

    def test_epoch_bump_invalidates_the_replayer(self, db, profiler):
        template = TEMPLATES[1]
        compiled = profiler._compiled_for(template)
        bindings = bindings_for(profiler, template, count=4)
        db.set_explain_cache(False)
        try:
            before = compiled.explain_many(bindings)
            db.catalog.bump_statistics_epoch()
            after = compiled.explain_many(bindings)
        finally:
            db.set_explain_cache(True)
        for values, fast in zip(bindings, after):
            assert fast == explain_plan(db.plan(template.instantiate(values)))
        assert before == after  # same stats, new epoch: same estimates

    def test_unreplayable_template_falls_back_per_call(self, db, profiler):
        compiled = profiler._compiled_for(UNREPLAYABLE)
        assert compiled is not None
        bindings = bindings_for(profiler, UNREPLAYABLE, count=4)
        telemetry = Telemetry()
        db.set_explain_cache(False)
        try:
            with use_telemetry(telemetry):
                batched = compiled.explain_many(bindings)
        finally:
            db.set_explain_cache(True)
        assert telemetry.metrics.total("fastpath.compiled.replayed") == 0
        assert telemetry.metrics.total("sqldb.explain.calls") == len(bindings)
        for values, fast in zip(bindings, batched):
            assert fast == explain_plan(
                db.plan(UNREPLAYABLE.instantiate(values))
            )

    def test_negative_select_list_literal_costs_its_unary_minus(
        self, db, profiler
    ):
        # A negative value renders as unary minus over a literal, one more
        # operator for the projection to charge per row.
        compiled = profiler._compiled_for(PROJECTION)
        bindings = [{"v1": -5, "v2": 20}, {"v1": 5, "v2": 20}]
        db.set_explain_cache(False)
        try:
            negative, positive = compiled.explain_many(bindings)
        finally:
            db.set_explain_cache(True)
        assert negative == explain_plan(
            db.plan(PROJECTION.instantiate(bindings[0]))
        )
        assert negative.total_cost > positive.total_cost


class TestBatchedErrorParity:
    """Errors out of explain_many match the per-call loop exactly."""

    def _compiled(self, profiler, template=TEMPLATES[0]):
        return profiler._compiled_for(template)

    def test_missing_placeholder_raises_the_instantiate_keyerror(
        self, db, profiler
    ):
        compiled = self._compiled(profiler)
        db.set_explain_cache(False)
        try:
            with pytest.raises(KeyError) as batched_exc:
                compiled.explain_many([{}])
            with pytest.raises(KeyError) as per_call_exc:
                compiled.explain({})
        finally:
            db.set_explain_cache(True)
        assert str(batched_exc.value) == str(per_call_exc.value)

    def test_non_finite_double_raises_the_same_binderror(self, db, profiler):
        template = TEMPLATES[2]  # c_acctbal: DOUBLE placeholders
        compiled = self._compiled(profiler, template)
        binding = {"v1": float("inf"), "v2": 100.0}
        db.set_explain_cache(False)
        try:
            with pytest.raises(BindError) as batched_exc:
                compiled.explain_many([binding])
            with pytest.raises(BindError) as per_call_exc:
                compiled.explain(binding)
        finally:
            db.set_explain_cache(True)
        assert str(batched_exc.value) == str(per_call_exc.value)

    def test_error_mid_batch_leaves_no_partial_result(self, db, profiler):
        compiled = self._compiled(profiler)
        good = bindings_for(profiler, TEMPLATES[0], count=2)
        db.set_explain_cache(False)
        try:
            with pytest.raises(KeyError):
                compiled.explain_many([good[0], {}, good[1]])
        finally:
            db.set_explain_cache(True)

    def test_type_mismatch_binding_replans_cold(self, db, profiler):
        # l_quantity is INTEGER-typed in the compiled assumption; an
        # out-of-int32-range value binds as BIGINT, forcing the per-call
        # cold re-plan inside the batch.  The result must still match.
        compiled = self._compiled(profiler)
        binding = {"v1": 2**40}
        db.set_explain_cache(False)
        try:
            batched = compiled.explain_many([binding])
            per_call = compiled.explain(binding)
        finally:
            db.set_explain_cache(True)
        cold = explain_plan(db.plan(TEMPLATES[0].instantiate(binding)))
        assert batched[0] == per_call == cold
