"""DirectoryLock contention during recovery: one winner, ever.

A barrier releases every contender into ``acquire`` (or
``ServeCore.recover``) at once, with nothing in the lock patched: the
kernel's ``flock`` lets exactly one through and every loser gets a clean
:class:`LockHeld`.  A service killed with SIGKILL holds nothing: the
next recovery comes up at once.
"""

import json
import os
import sys
import threading

import pytest

from repro.resilience import DirectoryLock, LockHeld
from repro.serve import ServeConfig, ServeCore, TenantQuota


def race(count: int, attempt) -> dict:
    """Release *count* threads at once into ``attempt(index)``; collect
    each one's result, or the :class:`LockHeld` it raised."""
    barrier = threading.Barrier(count)
    outcomes: dict[int, object] = {}

    def run(index):
        barrier.wait(timeout=10.0)
        try:
            outcomes[index] = attempt(index)
        except LockHeld as error:
            outcomes[index] = error

    threads = [
        threading.Thread(target=run, args=(i,), daemon=True)
        for i in range(count)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60.0)
    assert not any(t.is_alive() for t in threads), "a contender never finished"
    assert len(outcomes) == count
    return outcomes


def split(outcomes: dict, kind) -> tuple[list, list]:
    winners = [o for o in outcomes.values() if isinstance(o, kind)]
    losers = [o for o in outcomes.values() if isinstance(o, LockHeld)]
    return winners, losers


def serve_config(tmp_path) -> ServeConfig:
    return ServeConfig(
        workers=1,
        checkpoint_root=str(tmp_path / "ckpts"),
        state_dir=str(tmp_path / "state"),
        journal_fsync="off",
        default_quota=TenantQuota(max_queued_jobs=16),
    )


#: A whole service in another process: journals one accepted job, says
#: so, then waits to die.
SERVICE_WITH_ONE_JOB = """
import sys, time
from repro.serve import ServeConfig, ServeCore, TenantQuota
config = ServeConfig(
    workers=1,
    checkpoint_root=sys.argv[2],
    state_dir=sys.argv[1],
    journal_fsync="off",
    default_quota=TenantQuota(max_queued_jobs=16),
)
core = ServeCore(config, store=ServeCore.open_store(config))
status, _ = core.submit(
    {"tenant": "acme", "specs": [{"num_joins": 1}], "seed": 1}
)
assert status == 202, status
print("ready", flush=True)
time.sleep(120)
"""


class TestTakeoverRace:
    def test_two_racing_stealers_one_winner_one_lockheld(self, tmp_path):
        # A dead holder's payload is left over: it blocks nobody.
        (tmp_path / DirectoryLock.LOCK_NAME).write_text(
            json.dumps({"owner": "dead-service", "pid": 999_999})
        )
        contenders = [
            DirectoryLock(tmp_path, owner=f"stealer-{i}") for i in range(2)
        ]
        winners, losers = split(
            race(2, lambda i: contenders[i].acquire()), DirectoryLock
        )
        assert len(winners) == 1 and len(losers) == 1
        winner = winners[0]
        assert json.loads(winner.path.read_text()) == {
            "owner": winner.owner,
            "pid": os.getpid(),
        }
        # The loser holds nothing, and its release leaves the winner's
        # lock in place.
        losing_lock = next(c for c in contenders if c is not winner)
        assert losing_lock.held is False
        assert losing_lock.release() is False
        with pytest.raises(LockHeld) as excinfo:
            DirectoryLock(tmp_path, owner="late").acquire()
        assert excinfo.value.holder["owner"] == winner.owner
        winner.release()

    def test_crowd_of_stealers_still_one_winner(self, tmp_path):
        # More contenders than cores and a short switch interval, round
        # after round: every round has exactly one winner.
        count, rounds = 8, 20
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_index in range(rounds):
                winners, losers = split(
                    race(
                        count,
                        lambda i: DirectoryLock(
                            tmp_path, owner=f"r{round_index}-s{i}"
                        ).acquire(),
                    ),
                    DirectoryLock,
                )
                assert len(winners) == 1, round_index
                assert len(losers) == count - 1
                on_disk = json.loads(winners[0].path.read_text())["owner"]
                assert on_disk == winners[0].owner
                winners[0].release()
        finally:
            sys.setswitchinterval(interval)


class TestReplaceThenVerify:
    def test_crashed_mid_takeover_holder_is_taken_over_cleanly(
        self, tmp_path, spawn_holder
    ):
        """A service SIGKILLed with a journaled job: while it lives,
        recovery gets LockHeld naming it; the moment it dies, recovery
        comes up and owes the job."""
        config = serve_config(tmp_path)
        service = spawn_holder(
            SERVICE_WITH_ONE_JOB, config.state_dir, config.checkpoint_root
        )
        with pytest.raises(LockHeld) as excinfo:
            ServeCore.recover(config)
        assert excinfo.value.holder == {"owner": "serve", "pid": service.pid}
        service.kill()
        service.wait(timeout=30)
        recovered = ServeCore.recover(config)
        try:
            assert recovered.recovery["records_replayed"] >= 1
            assert len(recovered.jobs) == 1
            assert recovered.audit_lost_jobs() == []
        finally:
            recovered.close()


class TestRecoveryContention:
    def test_two_recoveries_race_one_service_comes_up(self, tmp_path):
        """Two supervisors restart the same dead service concurrently:
        exactly one recovery wins the state dir, the other gets a clean
        LockHeld — never two services journaling into one directory."""
        config = serve_config(tmp_path)
        core = ServeCore(config, store=ServeCore.open_store(config))
        status, _ = core.submit(
            {"tenant": "acme", "specs": [{"num_joins": 1}], "seed": 1}
        )
        assert status == 202
        core.close()

        cores, held = split(
            race(2, lambda _i: ServeCore.recover(config)), ServeCore
        )
        assert len(cores) == 1 and len(held) == 1
        winner = cores[0]
        try:
            # The winning recovery is complete and sound.
            assert winner.recovery["records_replayed"] >= 1
            assert winner.audit_lost_jobs() == []
            assert len(winner.jobs) == 1
        finally:
            winner.close()
