"""Section 5.1: search-space construction and LHS profiling."""

import pytest

from repro.bo import CategoricalParameter, FloatParameter, IntegerParameter
from repro.core import TemplateProfiler, interval_distance
from repro.workload import SqlTemplate

RANGE_TEMPLATE = SqlTemplate(
    "t_range", "SELECT * FROM orders WHERE o_totalprice < {p_1}"
)
TWO_DIM_TEMPLATE = SqlTemplate(
    "t_2d",
    "SELECT * FROM orders WHERE o_totalprice < {p_1} AND o_orderdate > {p_2}",
)
TEXT_TEMPLATE = SqlTemplate(
    "t_text", "SELECT * FROM customer WHERE c_mktsegment = {seg}"
)


class TestBuildSpace:
    def test_numeric_bounds_from_stats(self, profiler, small_tpch):
        space = profiler.build_space(RANGE_TEMPLATE)
        param = space.parameters[0]
        assert isinstance(param, FloatParameter)
        stats = small_tpch.catalog.column_stats("orders", "o_totalprice")
        assert param.low == pytest.approx(stats.min_value)
        assert param.high == pytest.approx(stats.max_value)

    def test_date_becomes_integer_parameter(self, profiler):
        space = profiler.build_space(TWO_DIM_TEMPLATE)
        by_name = {p.name: p for p in space.parameters}
        assert isinstance(by_name["p_2"], IntegerParameter)

    def test_text_becomes_categorical(self, profiler):
        space = profiler.build_space(TEXT_TEMPLATE)
        param = space.parameters[0]
        assert isinstance(param, CategoricalParameter)
        assert "BUILDING" in param.choices

    def test_like_patterns(self, profiler):
        template = SqlTemplate(
            "t_like", "SELECT * FROM customer WHERE c_mktsegment LIKE {pat}"
        )
        space = profiler.build_space(template)
        assert all("%" in c for c in space.parameters[0].choices)

    def test_unbound_placeholder_default_range(self, profiler, config):
        template = SqlTemplate(
            "t_unbound",
            "SELECT o_orderpriority FROM orders GROUP BY o_orderpriority "
            "HAVING count(*) > {p_1}",
        )
        space = profiler.build_space(template)
        param = space.parameters[0]
        assert (param.low, param.high) == config.unbound_placeholder_range


class TestProfile:
    def test_profile_collects_costs(self, profiler):
        profile = profiler.profile(RANGE_TEMPLATE, num_samples=12)
        assert len(profile.observations) == 12
        assert profile.errors == 0
        assert profile.min_cost < profile.max_cost

    def test_costs_vary_with_predicate(self, profiler):
        profile = profiler.profile(RANGE_TEMPLATE, num_samples=16)
        assert profile.variety > 0.5

    def test_unparseable_template_yields_unusable_profile(self, profiler):
        broken = SqlTemplate("t_bad", "SELEC nonsense FROM nowhere")
        profile = profiler.profile(broken, num_samples=5)
        assert not profile.is_usable
        assert profile.errors >= 1

    def test_hallucinated_column_counts_errors(self, profiler):
        broken = SqlTemplate(
            "t_ghost", "SELECT * FROM orders WHERE o_ghost > {p_1}"
        )
        profile = profiler.profile(broken, num_samples=5)
        assert not profile.is_usable

    def test_placeholder_free_template(self, profiler):
        fixed = SqlTemplate("t_fixed", "SELECT count(*) FROM orders")
        profile = profiler.profile(fixed)
        assert len(profile.observations) == 1

    def test_cardinality_metric(self, small_tpch, config):
        from repro.core import TemplateProfiler

        profiler = TemplateProfiler(small_tpch, config, cost_metric="cardinality")
        profile = profiler.profile(RANGE_TEMPLATE, num_samples=10)
        max_rows = small_tpch.catalog.table("orders").row_count
        assert all(0 <= c <= max_rows for c in profile.costs)

    def test_execution_time_maps_to_plan_cost(self, small_tpch, config):
        from repro.core import TemplateProfiler

        profiler = TemplateProfiler(
            small_tpch, config, cost_metric="execution_time"
        )
        assert profiler.cost_metric == "plan_cost"

    def test_unknown_metric_rejected(self, small_tpch, config):
        from repro.core import TemplateProfiler

        with pytest.raises(ValueError):
            TemplateProfiler(small_tpch, config, cost_metric="joules")


class TestPreparedExecution:
    """``actual_rows`` runs each binding's prepared plan: the template is
    parsed, bound and planned once, never once per sample, and the costs
    are those of executing the instantiated SQL."""

    @pytest.fixture()
    def plans(self, monkeypatch):
        from repro.sqldb import Database

        calls: list[str] = []
        plan = Database.plan

        def counting(db, sql):
            calls.append(sql)
            return plan(db, sql)

        monkeypatch.setattr(Database, "plan", counting)
        return calls

    @pytest.fixture()
    def rows_profiler(self, small_tpch, config):
        return TemplateProfiler(small_tpch, config, cost_metric="actual_rows")

    def assert_cold_costs(self, db, template, profile):
        for values, cost in profile.observations:
            assert cost == db.execute(template.instantiate(values)).row_count

    def test_samples_execute_without_planning(
        self, small_tpch, rows_profiler, plans
    ):
        profile = rows_profiler.profile(TWO_DIM_TEMPLATE, num_samples=20)
        assert len(profile.observations) == 20
        assert plans == []
        assert profile.variety > 0.5
        self.assert_cold_costs(small_tpch, TWO_DIM_TEMPLATE, profile)

    def test_order_by_placeholder_plans_each_sample(
        self, small_tpch, rows_profiler, plans
    ):
        template = SqlTemplate(
            "t_order",
            "SELECT o_orderkey FROM orders WHERE o_totalprice < {p_1} "
            "ORDER BY o_totalprice * {p_2}",
        )
        profile = rows_profiler.profile(template, num_samples=20)
        assert len(profile.observations) == 20
        assert len(plans) == 20
        self.assert_cold_costs(small_tpch, template, profile)

    def test_out_of_int32_binding_plans_cold(
        self, small_tpch, rows_profiler, plans
    ):
        template = SqlTemplate(
            "t_wide", "SELECT o_orderkey FROM orders WHERE o_orderkey < {p_1}"
        )
        values = {"p_1": 2**40}  # binds as BIGINT: the type guard misses
        cost = rows_profiler.evaluate(template, values)
        assert len(plans) == 1
        assert cost == small_tpch.execute(template.instantiate(values)).row_count


class TestClosenessScore:
    def test_interval_distance(self):
        assert interval_distance(5, 0, 10) == 0
        assert interval_distance(-3, 0, 10) == 3
        assert interval_distance(15, 0, 10) == 5

    def test_closer_profile_scores_higher(self, profiler):
        profile = profiler.profile(RANGE_TEMPLATE, num_samples=16)
        low, high = profile.min_cost, profile.max_cost
        inside = profile.closeness(low, high)
        far = profile.closeness(high * 100, high * 101)
        assert inside > far

    def test_empty_profile_scores_zero(self, profiler):
        broken = profiler.profile(
            SqlTemplate("t_none", "SELECT * FROM ghosts"), num_samples=3
        )
        assert broken.closeness(0, 10) == 0.0

    def test_space_accounting(self, profiler):
        profile = profiler.profile(TWO_DIM_TEMPLATE, num_samples=10)
        assert profile.remaining_space() < profile.space_size()
        assert profile.space_size() > 0

    def test_budget_heuristic(self, profiler, config):
        per_template = profiler.profile_samples_per_template(1000, 10)
        assert config.min_profile_samples <= per_template
        assert per_template <= config.max_profile_samples
