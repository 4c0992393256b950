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
* One schema summary, and one encoding of it as JSON, per database and
  statistics epoch, however many pipelines and prompts carry it.
* One ``CompiledTemplate`` per distinct (text, placeholders, literal types)
  in a profiler, however many templates refinement proposes with that text.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import repro.core.check_rewrite as check_rewrite_module
import repro.core.schema_summary as schema_summary_module
import repro.core.template_generator as template_generator_module
import repro.fastpath.compiled as compiled_module
from repro.core import (
    BarberConfig,
    CustomizedTemplateGenerator,
    SQLBarber,
    TemplateProfiler,
    schema_json,
    schema_payload,
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
from repro.sqldb import Database, SqlError, run_script
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


SCRIPT = """
CREATE TABLE city (city_id integer PRIMARY KEY, name text);
CREATE TABLE people (
    person_id integer PRIMARY KEY, city_id integer, age integer, name text
);
INSERT INTO city VALUES (1, 'a'), (2, 'b');
INSERT INTO people VALUES (1, 1, 30, 'x'), (2, 2, 40, 'y'), (3, 1, 50, 'z');
"""


def table_entry(schema: dict, name: str) -> dict:
    return next(t for t in schema["tables"] if t["name"] == name)


def rows_of(name):
    return lambda schema: table_entry(schema, name)["rows"]


# Each epoch bump: (prepare, bump, what the bump shows in the summary).
EPOCH_BUMPS = {
    "create_table": (
        None,
        lambda db: run_script(db, "CREATE TABLE extra (id integer);"),
        lambda schema: [t["name"] for t in schema["tables"]],
    ),
    "insert": (
        None,
        lambda db: db.execute("INSERT INTO people VALUES (4, 2, 60, 'w')"),
        rows_of("people"),
    ),
    "update": (
        None,
        # Statistics stay stale until re-analyzed: a rebuild, no change.
        lambda db: db.execute("UPDATE people SET age = 99"),
        None,
    ),
    "delete": (
        None,
        lambda db: db.execute("DELETE FROM people WHERE age > 35"),
        rows_of("people"),
    ),
    "add_foreign_key": (
        None,
        lambda db: db.add_foreign_key("people", "city_id", "city", "city_id"),
        lambda schema: schema["join_edges"],
    ),
    "add_index": (
        None,
        lambda db: db.add_index("people", "age"),
        lambda schema: table_entry(schema, "people")["indexes"],
    ),
    "reanalyze": (
        lambda db: db.execute("UPDATE people SET age = 99"),
        lambda db: db.analyze("people"),
        lambda schema: table_entry(schema, "people")["columns"],
    ),
}


class TestOneSchemaSummaryPerEpoch:
    def count_builds(self, monkeypatch) -> list[int]:
        """The epoch of every summary built from now on."""
        builds: list[int] = []
        build = schema_summary_module._schema_of

        def counting(db):
            builds.append(db.catalog.statistics_epoch)
            return build(db)

        monkeypatch.setattr(schema_summary_module, "_schema_of", counting)
        return builds

    def test_one_build_per_epoch(self, monkeypatch):
        db = run_script(Database("people_db"), SCRIPT)
        builds = self.count_builds(monkeypatch)
        schema, text = schema_payload(db), schema_json(db)
        barber = SQLBarber(db, config=BarberConfig(seed=0))
        generator = barber.template_generator()
        assert barber.schema is schema
        assert generator.schema is schema
        assert schema_payload(db) is schema
        assert schema_json(db) is text
        assert builds == [db.catalog.statistics_epoch]
        assert text == json.dumps(schema, sort_keys=True)
        assert schema == schema_summary_module._schema_of(db)

    def test_renamed_database_gets_its_own_summary(self):
        db = run_script(Database("before"), SCRIPT)
        assert schema_payload(db)["database"] == "before"
        db.name = "after"
        assert schema_payload(db)["database"] == "after"
        assert json.loads(schema_json(db))["database"] == "after"

    @pytest.mark.parametrize("bump", list(EPOCH_BUMPS))
    def test_every_epoch_bump_rebuilds(self, monkeypatch, bump):
        prepare, action, shown = EPOCH_BUMPS[bump]
        db = run_script(Database("people_db"), SCRIPT)
        if prepare is not None:
            prepare(db)
        before, before_text = schema_payload(db), schema_json(db)
        epoch = db.catalog.statistics_epoch
        builds = self.count_builds(monkeypatch)
        action(db)
        assert db.catalog.statistics_epoch > epoch
        after, after_text = schema_payload(db), schema_json(db)
        assert len(builds) == 1
        assert after is not before
        fresh = schema_summary_module._schema_of(db)
        assert after == fresh
        assert after_text == json.dumps(fresh, sort_keys=True)
        if shown is None:
            assert after == before and after_text == before_text
        else:
            assert shown(after) != shown(before)
            assert after_text != before_text


TWO_PLACEHOLDERS = (
    "SELECT o_orderkey FROM orders "
    "WHERE o_totalprice < {p_1} AND o_custkey > {p_2}"
)


class TestOneCompilePerText:
    @pytest.fixture()
    def compiles(self, monkeypatch) -> list[str]:
        """The text of every compilation attempted from now on."""
        texts: list[str] = []

        class Counting(CompiledTemplate):
            def __init__(self, database, template, types):
                texts.append(template.sql)
                super().__init__(database, template, types)

        monkeypatch.setattr(compiled_module, "CompiledTemplate", Counting)
        return texts

    def bindings(self, profiler, template, count=12):
        profile = profiler.profile(template, num_samples=count)
        return [values for values, _ in profile.observations]

    @pytest.mark.parametrize("metric", ["plan_cost", "actual_rows"])
    def test_equal_text_and_placeholders_share(self, small_tpch, compiles, metric):
        profiler = TemplateProfiler(small_tpch, BarberConfig(seed=0), metric)
        first = text_template("t", TWO_PLACEHOLDERS, small_tpch)
        again = text_template("t_r1", TWO_PLACEHOLDERS, small_tpch)
        compiled = profiler._compiled_for(first)
        assert compiled is not None
        assert profiler._compiled_for(again) is compiled
        assert compiles == [TWO_PLACEHOLDERS]
        alone = TemplateProfiler(small_tpch, BarberConfig(seed=0), metric)
        for values in self.bindings(profiler, first):
            cost = profiler.evaluate(again, values)
            assert cost == alone.evaluate(again, values)
            sql = again.instantiate(values)
            if metric == "plan_cost":
                assert cost == small_tpch.explain(sql).total_cost
            else:
                assert cost == small_tpch.execute(sql).row_count

    def test_different_text_or_placeholders_do_not_share(
        self, small_tpch, compiles
    ):
        profiler = TemplateProfiler(small_tpch, BarberConfig(seed=0))
        first = text_template("t", TWO_PLACEHOLDERS, small_tpch)
        other_text = text_template(
            "u", TWO_PLACEHOLDERS.replace("o_custkey >", "o_custkey <"), small_tpch
        )
        other_placeholders = text_template("v", TWO_PLACEHOLDERS, small_tpch)
        other_placeholders.placeholders = [
            dataclasses.replace(p, operator="<=")
            for p in other_placeholders.placeholders
        ]
        compiled = {
            t.template_id: profiler._compiled_for(t)
            for t in (first, other_text, other_placeholders)
        }
        assert len({id(c) for c in compiled.values()}) == 3
        assert None not in compiled.values()
        assert len(compiles) == 3

    @pytest.mark.parametrize(
        "sql, attempts",
        [
            ("DELETE FROM orders WHERE o_totalprice > {p_1}", 1),
            # A text that does not parse is never handed to the compiler.
            ("SELEC o_orderkey FROM orders WHERE o_totalprice > {p_1}", 0),
        ],
        ids=["dml", "syntax_error"],
    )
    def test_text_that_does_not_compile_stays_cold(
        self, small_tpch, compiles, sql, attempts
    ):
        profiler = TemplateProfiler(small_tpch, BarberConfig(seed=0))
        first, again = SqlTemplate("t", sql), SqlTemplate("t_r1", sql)
        assert profiler._compiled_for(first) is None
        assert profiler._compiled_for(again) is None
        assert len(compiles) == attempts
        for template in (first, again):
            if sql.startswith("SELEC "):
                assert profiler.evaluate(template, {"p_1": 5.0}) is None
            else:
                cold = small_tpch.explain(template.instantiate({"p_1": 5.0}))
                assert profiler.evaluate(template, {"p_1": 5.0}) == cold.total_cost

    def test_plan_cost_requests_compile_each_text_once(self, compiles):
        """150 perfbench ``plan_cost`` requests at seed 101 compile 792
        templates, one per distinct text; keyed by template id they
        compiled 1,007."""
        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "perfbench"))
        try:
            import workloads
        finally:
            sys.path.pop(0)
        workload = workloads.WORKLOADS["plan_cost"]
        db = workloads.build_db(workload)
        for request in workloads.generate_requests(workload, 101, 150):
            workloads.generate(db, request)
        assert len(compiles) == 792
        assert len(set(compiles)) == 792
