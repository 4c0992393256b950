"""Work the generate path does once.

* One ``Database.validate`` per distinct template text in a
  ``CustomizedTemplateGenerator.generate`` call, with the rewrite trace, the
  template and every LLM call unchanged from validating on every check.
* One ``check_template`` per distinct template text in a
  ``check_and_rewrite`` call, with the same outcome as checking every time.
* One parse per template text: compiling a template reads the parse-memo
  entry ``SqlTemplate.parse`` filled; a DML template stays on the cold path.
* One text domain per column per statistics epoch, however many templates
  profile a placeholder on it.
"""

from __future__ import annotations

import pytest

import repro.core.check_rewrite as check_rewrite_module
import repro.core.template_generator as template_generator_module
from repro.core import (
    BarberConfig,
    CustomizedTemplateGenerator,
    TemplateProfiler,
    template_error,
)
from repro.core.check_rewrite import (
    AttemptStatus,
    RewriteTrace,
    _llm_fix_execution,
    _llm_fix_semantics,
    _llm_validate,
    spec_to_payload,
)
from repro.obs import current as current_telemetry
from repro.datasets import build_tpch
from repro.fastpath.compiled import CompiledTemplate
from repro.llm import SimulatedLLM
from repro.sqldb import SqlError
from repro.sqldb import catalog as catalog_module
from repro.sqldb.parser import _parse_once
from repro.sqldb.types import SqlType
from repro.workload import SqlTemplate, TemplateSpec, infer_placeholder_bindings

SPECS = [
    TemplateSpec(spec_id="s1", num_joins=2, num_predicates=2),
    TemplateSpec(
        spec_id="s2", num_joins=1, num_aggregations=1, require_group_by=True
    ),
    TemplateSpec(spec_id="s3", num_tables=1, require_order_by=True),
]


def record_validate(db, monkeypatch) -> list[str]:
    calls: list[str] = []
    validate = db.validate

    def recording(sql):
        calls.append(sql)
        return validate(sql)

    monkeypatch.setattr(db, "validate", recording)
    return calls


def validate_every_time(sql, db, config, memo=None):
    """``template_error`` without its memo: every check validates."""
    return template_error(sql, db, config)


def generate_all(db, seed: int):
    """Generate one template per spec; returns the outcome of each call and
    the LLM transcript."""
    llm = SimulatedLLM(seed=seed)
    transcript = []
    complete = llm.complete

    def recording(prompt, task):
        response = complete(prompt, task=task)
        transcript.append((task, prompt, response.text))
        return response

    llm.complete = recording
    generator = CustomizedTemplateGenerator(
        db, llm=llm, config=BarberConfig(seed=seed)
    )
    outcomes = []
    for spec in SPECS:
        template, trace = generator.generate(spec)
        outcomes.append(
            (
                trace,
                None
                if template is None
                else (template.template_id, template.sql, template.placeholders),
            )
        )
    return outcomes, transcript


class TestOneValidationPerText:
    @pytest.mark.parametrize("seed", range(4))
    def test_each_text_validates_once_per_generate(
        self, small_tpch, monkeypatch, seed
    ):
        calls = record_validate(small_tpch, monkeypatch)
        generator = CustomizedTemplateGenerator(
            small_tpch, config=BarberConfig(seed=seed)
        )
        for spec in SPECS:
            calls.clear()
            generator.generate(spec)
            assert calls
            assert len(calls) == len(set(calls)), spec.spec_id

    @pytest.mark.parametrize("seed", range(4))
    def test_outcome_equals_validating_every_time(
        self, small_tpch, monkeypatch, seed
    ):
        calls = record_validate(small_tpch, monkeypatch)
        once = generate_all(small_tpch, seed)
        once_calls = len(calls)
        for module in (check_rewrite_module, template_generator_module):
            monkeypatch.setattr(module, "template_error", validate_every_time)
        calls.clear()
        every_time = generate_all(small_tpch, seed)
        assert once == every_time
        assert len(calls) > once_calls


def check_and_rewrite_checking_every_time(
    sql, spec, db, llm, schema, config, verdicts=None
):
    """``check_and_rewrite`` as it was before it kept each text's spec
    verdict: ``check_template`` on every check."""
    if verdicts is None:
        verdicts = {}
    telemetry = current_telemetry()
    trace = RewriteTrace(spec_id=spec.spec_id)
    spec_payload = spec_to_payload(spec)
    current = sql
    for iteration in range(config.max_rewrite_iterations):
        truth_spec_ok, _ = check_rewrite_module.check_template(current, spec)
        truth_syntax_ok = template_error(current, db, config, verdicts) is None
        trace.attempts.append(AttemptStatus(truth_spec_ok, truth_syntax_ok))
        telemetry.count("generator.attempts")

        # Phase 1: specification compliance, judged and fixed by the LLM.
        satisfied, violations = _llm_validate(current, spec, llm, schema, spec_payload)
        if not satisfied:
            current = _llm_fix_semantics(
                current, spec, violations, llm, schema, spec_payload, iteration
            )
            trace.rewrites += 1
            telemetry.count("generator.rewrites", phase="semantics")

        # Phase 2: executability, judged by the DBMS and fixed by the LLM.
        error = template_error(current, db, config, verdicts)
        if error is not None:
            current = _llm_fix_execution(
                current, error, llm, schema, spec_payload, iteration
            )
            trace.rewrites += 1
            telemetry.count("generator.rewrites", phase="execution")
            error = template_error(current, db, config, verdicts)

        if satisfied and error is None:
            break

    trace.final_sql = current
    final_spec_ok, _ = check_rewrite_module.check_template(current, spec)
    trace.final_ok = (
        final_spec_ok and template_error(current, db, config, verdicts) is None
    )
    return trace


class TestOneSpecCheckPerText:
    def record_checks(self, monkeypatch) -> list[str]:
        calls: list[str] = []
        check = check_rewrite_module.check_template

        def recording(sql, spec):
            calls.append(sql)
            return check(sql, spec)

        monkeypatch.setattr(check_rewrite_module, "check_template", recording)
        return calls

    @pytest.mark.parametrize("seed", range(6))
    def test_each_text_is_checked_once_per_call(
        self, small_tpch, monkeypatch, seed
    ):
        calls = self.record_checks(monkeypatch)
        generator = CustomizedTemplateGenerator(
            small_tpch, config=BarberConfig(seed=seed)
        )
        for spec in SPECS:
            calls.clear()
            generator.generate(spec)  # one check_and_rewrite call
            assert calls
            assert len(calls) == len(set(calls)), spec.spec_id

    @pytest.mark.parametrize("seed", range(6))
    def test_outcome_equals_checking_every_time(
        self, small_tpch, monkeypatch, seed
    ):
        calls = self.record_checks(monkeypatch)
        once = generate_all(small_tpch, seed)
        once_calls = len(calls)
        monkeypatch.setattr(
            template_generator_module,
            "check_and_rewrite",
            check_and_rewrite_checking_every_time,
        )
        calls.clear()
        every_time = generate_all(small_tpch, seed)
        assert once == every_time
        # checking every time re-checks unchanged texts
        assert len(calls) > once_calls


def text_template(template_id: str, sql: str, db) -> SqlTemplate:
    template = SqlTemplate(template_id, sql)
    template.placeholders = infer_placeholder_bindings(template.parse(), db.catalog)
    return template


class TestOneParsePerText:
    def test_compiling_reads_the_entry_sqltemplate_parse_filled(self, small_tpch):
        template = SqlTemplate(
            "shared",
            "SELECT o_orderkey FROM orders "
            "WHERE o_totalprice < {p_1} AND o_custkey > 7321",
        )
        start = _parse_once.cache_info()
        template.placeholders = infer_placeholder_bindings(
            template.parse(), small_tpch.catalog
        )
        parsed = _parse_once.cache_info()
        assert parsed.misses == start.misses + 1
        profiler = TemplateProfiler(small_tpch, BarberConfig(seed=0))
        assert profiler._compiled_for(template) is not None
        compiled = _parse_once.cache_info()
        assert compiled.misses == parsed.misses
        assert compiled.hits == parsed.hits + 1

    def test_non_select_does_not_compile(self, small_tpch):
        template = text_template(
            "dml",
            "DELETE FROM orders WHERE o_totalprice > {p_1}",
            small_tpch,
        )
        with pytest.raises(SqlError, match="only a SELECT template compiles"):
            CompiledTemplate(small_tpch, template, {"p_1": SqlType.DOUBLE})

    @pytest.mark.parametrize(
        "sql",
        [
            "UPDATE orders SET o_orderpriority = 'x' WHERE o_totalprice > {p_1}",
            "DELETE FROM orders WHERE o_totalprice > {p_1}",
        ],
        ids=["update", "delete"],
    )
    def test_dml_template_profiles_on_the_cold_path(self, small_tpch, sql):
        template = SqlTemplate("dml", sql)
        profiler = TemplateProfiler(small_tpch, BarberConfig(seed=0))
        assert profiler._compiled_for(template) is None
        profile = profiler.profile(template)
        assert profile.errors == 0
        assert len(profile.observations) == 8
        for values, cost in profile.observations:
            cold = small_tpch.explain(template.instantiate(values))
            assert cost == cold.total_cost


class TestOneTextDomainPerColumn:
    def test_profiles_share_each_column_domain_within_an_epoch(self, monkeypatch):
        db = build_tpch(scale=0.002)
        builds: dict[str, int] = {}
        build = catalog_module._text_domain_of

        def counting(column):
            builds[column.name] = builds.get(column.name, 0) + 1
            return build(column)

        monkeypatch.setattr(catalog_module, "_text_domain_of", counting)
        profiler = TemplateProfiler(db, BarberConfig(seed=0))
        templates = [
            text_template(
                "eq", "SELECT * FROM customer WHERE c_mktsegment = {seg}", db
            ),
            text_template(
                "like", "SELECT * FROM customer WHERE c_mktsegment LIKE {pat}", db
            ),
            text_template(
                "two",
                "SELECT count(*) FROM customer WHERE c_mktsegment = {seg} "
                "AND c_name = {name}",
                db,
            ),
        ]
        spaces = [profiler.build_space(t) for t in templates]
        assert builds == {"c_mktsegment": 1, "c_name": 1}
        segments = spaces[0].parameters[0].choices
        assert list(segments) == sorted(set(segments))
        db.analyze("customer")
        assert profiler.build_space(templates[0]).parameters[0].choices == segments
        assert builds == {"c_mktsegment": 2, "c_name": 1}
