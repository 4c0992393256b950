"""Observability determinism of template profiling.

Operator-profile fingerprints and event-stream fingerprints are pure
functions of the profiled templates: a rerun reproduces them bit for bit,
and the per-template progress events arrive in input order.
"""

import pytest

from repro.core import BarberConfig, TemplateProfiler
from repro.datasets import build_tpch
from repro.obs import InMemoryCollector, Telemetry, event_fingerprint, use_telemetry
from repro.workload import SqlTemplate

TEMPLATES = [
    SqlTemplate(
        "det_scan",
        "select l_orderkey from lineitem where l_quantity < {v1}",
    ),
    SqlTemplate(
        "det_join",
        "select c_name, o_totalprice from customer c "
        "join orders o on c.c_custkey = o.o_custkey "
        "where o.o_totalprice > {v1}",
    ),
    SqlTemplate(
        "det_group",
        "select o_orderdate, count(*) from orders "
        "where o_totalprice > {v1} group by o_orderdate limit 5",
    ),
]
SAMPLES = 4


@pytest.fixture(scope="module")
def db():
    return build_tpch(scale=0.002, seed=3)


def profile_run(db, profile=True, sink=None):
    """Profile every template under an armed telemetry; returns telemetry."""
    profiler = TemplateProfiler(
        db, BarberConfig(seed=0), cost_metric="actual_rows"
    )
    sinks = [sink] if sink is not None else []
    telemetry = Telemetry(sinks=sinks, profile=profile)
    with use_telemetry(telemetry):
        for template in TEMPLATES:
            profiler.profile(template, SAMPLES)
    return telemetry


class TestProfileFingerprintParallel:
    @pytest.fixture(scope="class")
    def serial_fingerprint(self, db):
        return profile_run(db).profiler.fingerprint()

    def test_serial_reruns_are_identical(self, db, serial_fingerprint):
        assert profile_run(db).profiler.fingerprint() == serial_fingerprint

    def test_fingerprint_counts_expected_queries(self, serial_fingerprint):
        # actual_rows executes every sample once per template.
        assert serial_fingerprint["queries"] == len(TEMPLATES) * SAMPLES


class TestEventStreamParallel:
    def events_for(self, db):
        sink = InMemoryCollector()
        profile_run(db, sink=sink)
        return event_fingerprint(sink.events)

    @pytest.fixture(scope="class")
    def serial_events(self, db):
        return self.events_for(db)

    def test_serial_stream_nonempty(self, serial_events):
        names = [e["event"] for e in serial_events]
        assert names.count("template_profiled") == len(TEMPLATES)

    def test_profiled_events_in_input_order(self, serial_events):
        profiled = [
            e["template_id"]
            for e in serial_events
            if e["event"] == "template_profiled"
        ]
        assert profiled == [t.template_id for t in TEMPLATES]
