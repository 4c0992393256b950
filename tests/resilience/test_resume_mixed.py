"""Checkpoint/kill-resume with a mixed read/write workload.

The mixer is a deterministic post-pass, so a run configured with
``workload_mix`` must fingerprint bit-identically across crash/resume at
any save point, just like the read-only pipeline — and because the mix is
part of the run's identity (not an execution-only knob), a checkpoint
written without it must refuse to resume into a mixed run.
"""

import pytest

from repro.core import BarberConfig, SQLBarber
from repro.llm import SimulatedLLM
from repro.obs import Telemetry
from repro.resilience import CheckpointError, InjectedCrash

SEED = 5
MIX = (0.5, 0.2, 0.2, 0.1)


def run_mixed(db, specs, distribution, mix=MIX, **kwargs):
    config = BarberConfig(
        seed=SEED,
        checkpoint_every_templates=1,
        workload_mix=mix,
    )
    barber = SQLBarber(db, llm=SimulatedLLM(seed=SEED), config=config)
    return barber.generate_workload(
        specs, distribution, telemetry=Telemetry(), **kwargs
    )


def dml_count(result):
    return sum(
        1
        for q in result.workload.queries
        if (q.template_id or "").startswith("mix_")
    )


class TestMixedResume:
    def test_mixed_run_is_repeatable_and_contains_dml(
        self, chaos_db, tiny_specs, tiny_distribution
    ):
        first = run_mixed(chaos_db, tiny_specs, tiny_distribution)
        second = run_mixed(chaos_db, tiny_specs, tiny_distribution)
        assert first.fingerprint_json() == second.fingerprint_json()
        assert dml_count(first) > 0

    @pytest.mark.parametrize("kill_at", [1, 3, 5, 8, 11])
    def test_resume_after_kill_matches_uninterrupted_mixed_run(
        self, kill_at, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        reference = run_mixed(chaos_db, tiny_specs, tiny_distribution)
        saves = {"count": 0}

        def killer(manager, payload):
            saves["count"] += 1
            if saves["count"] == kill_at:
                raise InjectedCrash(f"dead after save #{kill_at}")

        try:
            outcome = run_mixed(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                checkpoint_dir=tmp_path,
                on_checkpoint_save=killer,
            )
        except InjectedCrash:
            outcome = run_mixed(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                checkpoint_dir=tmp_path,
                resume=True,
            )
        assert outcome.fingerprint_json() == reference.fingerprint_json()
        assert dml_count(outcome) == dml_count(reference) > 0

    def test_mix_is_part_of_the_run_identity(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        # A checkpoint from a read-only run must not resume into a mixed
        # run: the mix changes the generated content, not just execution.
        run_mixed(
            chaos_db,
            tiny_specs,
            tiny_distribution,
            mix=None,
            checkpoint_dir=tmp_path,
        )
        with pytest.raises(CheckpointError, match="different run"):
            run_mixed(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_different_mixes_are_different_runs(
        self, tmp_path, chaos_db, tiny_specs, tiny_distribution
    ):
        run_mixed(
            chaos_db, tiny_specs, tiny_distribution, checkpoint_dir=tmp_path
        )
        with pytest.raises(CheckpointError, match="different run"):
            run_mixed(
                chaos_db,
                tiny_specs,
                tiny_distribution,
                mix=(0.25, 0.25, 0.25, 0.25),
                checkpoint_dir=tmp_path,
                resume=True,
            )
