"""End-to-end telemetry: a generate_workload run emits spans for all four
stages, with token totals consistent between MetricsRegistry and UsageMeter."""

import pytest

from repro.core import BarberConfig, SQLBarber
from repro.datasets import build_tpch
from repro.obs import InMemoryCollector
from repro.workload import CostDistribution, TemplateSpec

STAGES = ("stage:templates", "stage:profile", "stage:refine", "stage:search")


@pytest.fixture(scope="module")
def run_result():
    barber = SQLBarber(
        build_tpch(scale=0.002),
        config=BarberConfig(seed=0),
        sinks=[InMemoryCollector()],
    )
    specs = [
        TemplateSpec.from_natural_language(
            "one join and two predicate values", spec_id="obs_0"
        ),
        TemplateSpec.from_natural_language(
            "an aggregation with a group by", spec_id="obs_1"
        ),
    ]
    distribution = CostDistribution.uniform(0, 800, 12, 3)
    return barber.generate_workload(
        specs, distribution, time_budget_seconds=60
    )


class TestStageSpans:
    def test_all_four_stages_present(self, run_result):
        root = run_result.telemetry.tracer.find("generate_workload")
        assert len(root) == 1
        assert [child.name for child in root[0].children] == list(STAGES)

    def test_stage_seconds_sum_to_elapsed(self, run_result):
        total = sum(run_result.stage_seconds.values())
        assert total == pytest.approx(run_result.elapsed_seconds, rel=0.05)

    def test_stage_seconds_match_span_durations(self, run_result):
        root = run_result.telemetry.tracer.find("generate_workload")[0]
        for child in root.children:
            stage = child.name.removeprefix("stage:")
            assert child.duration == pytest.approx(
                run_result.stage_seconds[stage], abs=0.05
            )

    def test_setup_seconds_excludes_search(self, run_result):
        assert run_result.setup_seconds == pytest.approx(
            sum(
                seconds
                for stage, seconds in run_result.stage_seconds.items()
                if stage != "search"
            )
        )

    def test_distance_trace_offset_by_setup(self, run_result):
        # The distance trace starts exactly at the directly-measured setup
        # boundary (no back-computation from the search trace).
        assert run_result.distance_trace[0][0] == pytest.approx(
            run_result.setup_seconds, abs=1e-6
        )


class TestTokenConsistency:
    def test_metrics_match_usage_meter(self, run_result):
        metrics = run_result.telemetry.metrics
        usage = run_result.llm_usage
        assert metrics.total("llm.tokens.prompt") == usage["prompt_tokens"]
        assert (
            metrics.total("llm.tokens.completion")
            == usage["completion_tokens"]
        )
        assert metrics.total("llm.calls") == usage["num_calls"]

    def test_tokens_by_task_sums_to_totals(self, run_result):
        usage = run_result.llm_usage
        by_task = usage["tokens_by_task"]
        assert sum(
            bucket["prompt_tokens"] for bucket in by_task.values()
        ) == usage["prompt_tokens"]
        assert sum(
            bucket["completion_tokens"] for bucket in by_task.values()
        ) == usage["completion_tokens"]
        assert set(by_task) == set(usage["calls_by_task"])

    def test_stage_span_deltas_cover_all_tokens(self, run_result):
        root = run_result.telemetry.tracer.find("generate_workload")[0]
        stage_tokens = sum(
            child.attributes.get("llm_tokens", 0) for child in root.children
        )
        assert stage_tokens == run_result.llm_usage["total_tokens"]


class TestSubstrateMetrics:
    def test_engine_calls_recorded(self, run_result):
        metrics = run_result.telemetry.metrics
        assert metrics.total("sqldb.explain.calls") > 0
        histogram = metrics.histogram("sqldb.explain.seconds")
        assert histogram is not None
        assert histogram.count == metrics.total("sqldb.explain.calls")

    def test_llm_call_spans_carry_tokens(self, run_result):
        spans = run_result.telemetry.tracer.find("llm.call")
        assert spans, "llm.call spans missing"
        assert sum(
            s.attributes["prompt_tokens"] + s.attributes["completion_tokens"]
            for s in spans
        ) == run_result.llm_usage["total_tokens"]
        assert all("fault_injected" in s.attributes for s in spans)

    def test_profile_spans_nested_under_profile_stage(self, run_result):
        root = run_result.telemetry.tracer.find("generate_workload")[0]
        profile_stage = root.children[1]
        names = {s.name for s in profile_stage.iter_subtree()}
        assert "profile.template" in names

    def test_collector_saw_every_span(self, run_result):
        collector = run_result.telemetry.sinks[0]
        exported = [e for e in collector.events if e["type"] == "span"]
        in_tree = list(run_result.telemetry.tracer.iter_spans())
        assert len(exported) == len(in_tree)

    def test_queries_kept_counter_matches_workload(self, run_result):
        metrics = run_result.telemetry.metrics
        assert metrics.total("search.queries.kept") == len(
            run_result.workload
        )


class TestExplainAnalyzeCacheCounters:
    """Regression: explain_analyze must route its estimate through the same
    cache-aware entry as explain, so cached estimates never re-count as
    fresh engine calls and the seconds histogram stays consistent."""

    def test_analyze_after_explain_is_a_cache_hit(self):
        from repro.obs import Telemetry, use_telemetry

        db = build_tpch(scale=0.002, seed=3)
        sql = "select count(*) from nation where n_regionkey = 1"
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            first = db.explain(sql)
            estimates, execution = db.explain_analyze(sql)
        metrics = telemetry.metrics
        assert estimates == first
        assert execution.row_count == 1
        # One computed estimate (the cold explain); the analyze reused it.
        assert metrics.total("sqldb.explain.calls") == 1
        assert metrics.total("sqldb.explain.cache.misses") == 1
        assert metrics.total("sqldb.explain.cache.hits") == 1
        histogram = metrics.histogram("sqldb.explain.seconds")
        assert histogram.count == metrics.total("sqldb.explain.calls")

    def test_analyze_with_cache_disabled_counts_each_call(self):
        from repro.obs import Telemetry, use_telemetry

        db = build_tpch(scale=0.002, seed=3)
        db.set_explain_cache(False)
        sql = "select count(*) from nation where n_regionkey = 1"
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            db.explain(sql)
            db.explain_analyze(sql)
        metrics = telemetry.metrics
        assert metrics.total("sqldb.explain.calls") == 2
        assert metrics.total("sqldb.explain.cache.hits") == 0
        histogram = metrics.histogram("sqldb.explain.seconds")
        assert histogram.count == 2

    def test_analyze_counts_its_execution(self):
        from repro.obs import Telemetry, use_telemetry

        db = build_tpch(scale=0.002, seed=3)
        sql = "select count(*) from nation where n_regionkey = 1"
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            _, execution = db.explain_analyze(sql)
        metrics = telemetry.metrics
        assert execution.row_count == 1
        assert metrics.total("sqldb.execute.calls") == 1
        assert metrics.total("sqldb.execute.errors") == 0
        assert metrics.histogram("sqldb.execute.seconds").count == 1

    def test_analyze_counts_its_execution_error(self):
        from repro.obs import Telemetry, use_telemetry
        from repro.sqldb import ExecutionError

        db = build_tpch(scale=0.002, seed=3)
        sql = "select 1/0 from nation"
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            with pytest.raises(ExecutionError) as excinfo:
                db.explain_analyze(sql)
        metrics = telemetry.metrics
        assert excinfo.value.source == sql
        assert metrics.total("sqldb.execute.calls") == 1
        assert metrics.total("sqldb.execute.errors") == 1
