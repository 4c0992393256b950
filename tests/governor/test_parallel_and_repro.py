"""The reproducibility bar: a run with quarantined templates completes,
and is bit-identical across checkpoint/resume."""

import pytest

from repro.core import BarberConfig, SQLBarber
from repro.llm import SimulatedLLM
from repro.obs import Telemetry
from repro.resilience import InjectedCrash

SEED = 3


def governed_barber(gov_db, **overrides):
    base = dict(
        seed=SEED,
        row_budget=5_000,
        query_timeout_seconds=2.0,
        governor_cost_per_row_seconds=1e-4,
        governor_clock="simulated",
        quarantine_after=2,
    )
    base.update(overrides)
    return SQLBarber(
        gov_db, llm=SimulatedLLM(seed=SEED), config=BarberConfig(**base)
    )


def run(barber, planted_templates, rows_distribution, **kwargs):
    return barber.generate_workload(
        [],  # planted templates skip spec-driven generation
        rows_distribution,
        templates=list(planted_templates),
        telemetry=Telemetry(),
        **kwargs,
    )


class TestCheckpointResume:
    def test_quarantine_survives_kill_and_resume(
        self, gov_db, planted_templates, rows_distribution, tmp_path
    ):
        control = run(
            governed_barber(gov_db),
            planted_templates, rows_distribution,
        )
        assert control.quarantined  # the planted runaway was benched
        assert any(q.template_id == "runaway" for q in control.quarantined)
        assert control.complete

        fired = {"saves": 0}

        def killer(_manager, _payload):
            fired["saves"] += 1
            if fired["saves"] == 2:
                raise InjectedCrash("dead after save #2")

        barber = governed_barber(gov_db, checkpoint_every_templates=1)
        with pytest.raises(InjectedCrash):
            run(
                barber, planted_templates, rows_distribution,
                checkpoint_dir=str(tmp_path), on_checkpoint_save=killer,
            )
        resumed = run(
            governed_barber(gov_db, checkpoint_every_templates=1),
            planted_templates, rows_distribution,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        assert resumed.fingerprint_json() == control.fingerprint_json()
        assert [q.to_dict() for q in resumed.quarantined] == [
            q.to_dict() for q in control.quarantined
        ]

    def test_resume_after_profile_stage_keeps_records(
        self, gov_db, planted_templates, rows_distribution, tmp_path
    ):
        # Kill late (after profiling finished) so the quarantine records
        # must come back from the checkpoint, not from re-profiling.
        control = run(
            governed_barber(gov_db),
            planted_templates, rows_distribution,
        )
        fired = {"saves": 0}

        def killer(_manager, payload):
            fired["saves"] += 1
            if payload["state"].get("stage") == "refined":
                raise InjectedCrash("dead after refine")

        barber = governed_barber(gov_db)
        with pytest.raises(InjectedCrash):
            run(
                barber, planted_templates, rows_distribution,
                checkpoint_dir=str(tmp_path), on_checkpoint_save=killer,
            )
        resumed = run(
            governed_barber(gov_db),
            planted_templates, rows_distribution,
            checkpoint_dir=str(tmp_path), resume=True,
        )
        assert resumed.fingerprint_json() == control.fingerprint_json()
        assert [q.to_dict() for q in resumed.quarantined] == [
            q.to_dict() for q in control.quarantined
        ]
