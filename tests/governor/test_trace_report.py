"""`repro trace-report` grows a Resource governance section — but only
for traces where the governor actually acted."""

from repro.core import BarberConfig, SQLBarber
from repro.llm import SimulatedLLM
from repro.obs import (
    JsonlSink,
    governor_rows,
    read_events,
    render_report,
    render_report_file,
)


def _span(span_id, parent_id, name, duration, attributes=None):
    return {
        "type": "span", "span_id": span_id, "parent_id": parent_id,
        "name": name, "start_s": 0.0, "duration_s": duration,
        "attributes": attributes or {}, "error": None,
    }


GOVERNED = [
    _span(2, 1, "stage:profile", 0.5, {
        "db_calls": 40, "governor_strikes": 4, "governor_quarantines": 1,
        "governor_peak_bytes": 123_456,
    }),
    _span(3, 1, "stage:refine", 0.2, {"db_calls": 10}),
    _span(1, None, "generate_workload", 1.0),
    {
        "type": "metrics",
        "metrics": {
            "counters": {
                "governor.strikes": 4,
                "governor.quarantines": 1,
                "governor.faults_injected": 9,
            },
            "gauges": {"governor.peak_bytes{template=t1}": 123_456.0},
            "histograms": {},
        },
    },
]

UNGOVERNED = [
    _span(2, 1, "stage:profile", 0.5, {"db_calls": 40}),
    _span(1, None, "generate_workload", 1.0),
    {"type": "metrics",
     "metrics": {"counters": {}, "gauges": {}, "histograms": {}}},
]


class TestGovernorRows:
    def test_only_stages_with_activity(self):
        rows = governor_rows([e for e in GOVERNED if e["type"] == "span"])
        assert len(rows) == 1
        row = rows[0]
        assert row["stage"] == "profile"
        assert row["strikes"] == 4
        assert row["quarantines"] == 1
        assert row["peak_bytes"] == 123_456
        assert set(row) == {"stage", "strikes", "quarantines", "peak_bytes"}

    def test_ungoverned_trace_yields_nothing(self):
        assert governor_rows(
            [e for e in UNGOVERNED if e["type"] == "span"]
        ) == []


class TestRenderedSections:
    def test_governed_trace_gets_both_sections(self):
        text = render_report(GOVERNED)
        assert "Resource governance" in text
        assert "Governor counters" in text
        assert "governor.faults_injected" in text

    def test_ungoverned_trace_unchanged(self):
        text = render_report(UNGOVERNED)
        assert "Resource governance" not in text
        assert "Governor counters" not in text


class TestEndToEnd:
    def test_governed_run_trace_renders_section(
        self, gov_db, planted_templates, rows_distribution, tmp_path
    ):
        trace = tmp_path / "trace.jsonl"
        barber = SQLBarber(
            gov_db,
            llm=SimulatedLLM(seed=3),
            config=BarberConfig(
                seed=3,
                row_budget=5_000,
                query_timeout_seconds=2.0,
                governor_cost_per_row_seconds=1e-4,
                governor_clock="simulated",
                quarantine_after=2,
            ),
            sinks=[JsonlSink(str(trace))],
        )
        result = barber.generate_workload(
            [], rows_distribution, templates=list(planted_templates)
        )
        assert result.quarantined
        text = render_report_file(str(trace))
        assert "Resource governance" in text
        assert "governor.quarantines" in text
        rows = governor_rows(
            [e for e in read_events(str(trace)) if e.get("type") == "span"]
        )
        assert any(r["quarantines"] > 0 for r in rows)
        assert any(r["peak_bytes"] > 0 for r in rows)
