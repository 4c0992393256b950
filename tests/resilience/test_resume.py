"""End-to-end checkpoint/resume: resumed runs are bit-identical.

The fingerprint (queries, templates, profiles, distance, usage) of a run
that crashed and resumed must equal the fingerprint of a run that never
crashed — at *every* possible crash point.
"""

import pytest

from repro.core import BarberConfig, SQLBarber
from repro.llm import SimulatedLLM, TransportFaultModel
from repro.obs import Telemetry
from repro.resilience import CheckpointError, InjectedCrash, ResilientLLMClient
from repro.resilience.client import RetryPolicy
from repro.resilience.clock import SimulatedClock

SEED = 5


def make_barber(db, storm=None, max_tokens=None):
    inner = SimulatedLLM(seed=SEED, transport_faults=storm)
    if storm is not None or max_tokens is not None:
        llm = ResilientLLMClient(
            inner,
            retry=RetryPolicy(max_attempts=6, base_delay_seconds=0.01),
            clock=SimulatedClock(),
            jitter_seed=SEED + 1,
            max_tokens=max_tokens,
        )
    else:
        llm = inner
    config = BarberConfig(seed=SEED, checkpoint_every_templates=1)
    return SQLBarber(db, llm=llm, config=config)


def run_pipeline(db, specs, distribution, storm=None, max_tokens=None, **kwargs):
    barber = make_barber(db, storm=storm, max_tokens=max_tokens)
    return barber.generate_workload(
        specs, distribution, telemetry=Telemetry(), **kwargs
    )


class TestCheckpointingIsInvisible:
    def test_checkpointed_run_matches_plain_run(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        plain = run_pipeline(chaos_db, tiny_specs, tiny_distribution)
        checkpointed = run_pipeline(
            chaos_db,
            tiny_specs,
            tiny_distribution,
            checkpoint_dir=tmp_path,
        )
        assert checkpointed.fingerprint_json() == plain.fingerprint_json()
        assert checkpointed.checkpoint_path == str(tmp_path / "checkpoint.jsonl")
        assert (tmp_path / "checkpoint.jsonl").exists()

    def test_resume_from_finished_checkpoint_matches(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        plain = run_pipeline(chaos_db, tiny_specs, tiny_distribution)
        run_pipeline(
            chaos_db, tiny_specs, tiny_distribution, checkpoint_dir=tmp_path
        )
        resumed = run_pipeline(
            chaos_db,
            tiny_specs,
            tiny_distribution,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert resumed.fingerprint_json() == plain.fingerprint_json()


class TestKillAndResume:
    @pytest.mark.parametrize("kill_at", [1, 2, 4, 6, 8, 10, 11])
    def test_resume_after_kill_at_every_save_point(
        self, kill_at, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        reference = run_pipeline(chaos_db, tiny_specs, tiny_distribution)
        saves = {"count": 0}

        def killer(manager, payload):
            saves["count"] += 1
            if saves["count"] == kill_at:
                raise InjectedCrash(f"dead after save #{kill_at}")

        try:
            outcome = run_pipeline(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                checkpoint_dir=tmp_path,
                on_checkpoint_save=killer,
            )
        except InjectedCrash:
            outcome = run_pipeline(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                checkpoint_dir=tmp_path,
                resume=True,
            )
        assert outcome.fingerprint_json() == reference.fingerprint_json()

    def test_kill_under_storm_still_resumes_identically(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        storm = TransportFaultModel.storm(0.25)
        reference = run_pipeline(chaos_db, tiny_specs, tiny_distribution, storm=storm)

        def killer(manager, payload):
            if manager.saves == 5:
                raise InjectedCrash("dead after save #5")

        try:
            outcome = run_pipeline(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                storm=storm,
                checkpoint_dir=tmp_path,
                on_checkpoint_save=killer,
            )
        except InjectedCrash:
            outcome = run_pipeline(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                storm=storm,
                checkpoint_dir=tmp_path,
                resume=True,
            )
        assert outcome.fingerprint_json() == reference.fingerprint_json()


class TestBudgetTopUp:
    def test_budget_abort_then_topped_up_resume_matches_uncapped_run(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        uncapped = run_pipeline(chaos_db, tiny_specs, tiny_distribution)
        capped = run_pipeline(
            chaos_db,
            tiny_specs,
            tiny_distribution,
            max_tokens=9_000,
            checkpoint_dir=tmp_path,
        )
        assert capped.aborted
        assert not capped.complete
        # max_tokens is execution-only, so the run key matches and the
        # topped-up resume picks up where the capped run checkpointed.
        resumed = run_pipeline(
            chaos_db,
            tiny_specs,
            tiny_distribution,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert not resumed.aborted
        assert resumed.fingerprint_json() == uncapped.fingerprint_json()


class TestResumeSafety:
    def test_changed_specs_reject_the_checkpoint(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        from repro.workload import TemplateSpec

        run_pipeline(
            chaos_db, tiny_specs, tiny_distribution, checkpoint_dir=tmp_path
        )
        other_specs = [TemplateSpec(spec_id="z", num_joins=2)]
        with pytest.raises(CheckpointError, match="different run"):
            run_pipeline(
                chaos_db,
                other_specs,
                tiny_distribution,
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_resume_without_checkpoint_runs_fresh(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        plain = run_pipeline(chaos_db, tiny_specs, tiny_distribution)
        resumed = run_pipeline(
            chaos_db,
            tiny_specs,
            tiny_distribution,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert resumed.fingerprint_json() == plain.fingerprint_json()
