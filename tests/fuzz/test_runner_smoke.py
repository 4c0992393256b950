"""Tier-1 fuzz smoke: 200 statements through every oracle, twice.

This is the PR-gate guarantee: the engine's independent implementations
(cold pipeline, compiled templates, EXPLAIN cache, parallel profiler,
executor) agree on 200 grammar-generated statements, and the whole run is
reproducible down to the report bytes.
"""

from __future__ import annotations

from repro.fuzz import FuzzRunner, build_fuzz_database
from repro.fuzz.oracles import CompiledTemplateOracle, ExplainCacheOracle
from repro.obs import Telemetry, use_telemetry


def _run(seed: int, budget: int):
    runner = FuzzRunner(db=build_fuzz_database(0), seed=seed)
    return runner.run(budget)


class TestSmoke:
    def test_200_statements_zero_disagreements(self):
        report = _run(seed=3, budget=200)
        assert report.ok, report.to_json()
        assert report.statements == 200
        assert report.invalid == 0
        assert report.disagreements == []
        # Every oracle actually ran.
        for name in (
            "round_trip",
            "explain_cache",
            "compiled_template",
            "execution",
            "dml_epoch",
        ):
            assert report.oracles[name]["checks"] > 0, name

    def test_repeated_run_reports_are_byte_identical(self):
        first = _run(seed=3, budget=60).to_json()
        second = _run(seed=3, budget=60).to_json()
        assert first == second

    def test_fuzz_counters_are_emitted(self):
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            report = _run(seed=3, budget=20)
        assert report.ok
        metrics = telemetry.metrics
        assert metrics.total("fuzz.statements") == 20
        assert metrics.total("fuzz.checks") > 0
        assert metrics.total("fuzz.runs") == 1
        assert metrics.total("fuzz.disagreements") == 0

    def test_compiled_oracle_recosts_both_bindings_through_the_template(self):
        # explain_cache runs first and caches every statement it checks;
        # compiled_template must still re-cost both of its bindings through
        # CompiledTemplate instead of reading them back from that cache.
        runner = FuzzRunner(
            db=build_fuzz_database(0),
            seed=7,
            oracles=[ExplainCacheOracle(), CompiledTemplateOracle()],
        )
        telemetry = Telemetry()
        with use_telemetry(telemetry):
            report = runner.run(200)
        assert report.ok, report.to_json()
        checks = report.oracles["compiled_template"]["checks"]
        assert checks > 0
        assert telemetry.metrics.total("fastpath.compiled.explains") == 2 * checks
