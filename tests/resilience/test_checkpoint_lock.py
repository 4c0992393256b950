"""Directory locking for checkpoint directories.

Covers the lock protocol in isolation (atomic create, contention, stale
takeover, lost-lock release), the CheckpointManager integration
(acquire-on-construct, heartbeat-on-save, close), and the barber-level
behavior (lock held during generate_workload, released on every exit
path including an injected crash).
"""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.core import BarberConfig, SQLBarber
from repro.llm import SimulatedLLM
from repro.resilience import (
    CheckpointManager,
    DirectoryLock,
    InjectedCrash,
    LockError,
    LockHeld,
)


@pytest.fixture
def lock_dir(tmp_path):
    return tmp_path / "ckpt"


class TestDirectoryLock:
    def test_acquire_creates_lockfile(self, lock_dir):
        lock = DirectoryLock(lock_dir, owner="t1").acquire()
        holder = json.loads(lock.path.read_text())
        assert holder["owner"] == "t1"
        assert holder["pid"] == os.getpid()
        assert holder["token"] == lock.token
        assert lock.held

    def test_live_holder_blocks_second_acquire(self, lock_dir):
        with DirectoryLock(lock_dir, owner="first"):
            with pytest.raises(LockHeld) as excinfo:
                DirectoryLock(lock_dir, owner="second").acquire()
            assert excinfo.value.holder["owner"] == "first"

    def test_release_then_reacquire(self, lock_dir):
        first = DirectoryLock(lock_dir, owner="a").acquire()
        assert first.release() is True
        assert not first.path.exists()
        second = DirectoryLock(lock_dir, owner="b").acquire()
        assert second.takeover_reason is None
        second.release()

    def test_context_manager(self, lock_dir):
        with DirectoryLock(lock_dir, owner="ctx") as lock:
            assert lock.path.exists()
        assert not lock.path.exists()

    def test_double_acquire_same_object_rejected(self, lock_dir):
        lock = DirectoryLock(lock_dir, owner="x").acquire()
        with pytest.raises(LockError):
            lock.acquire()
        lock.release()

    def test_dead_pid_is_taken_over(self, lock_dir):
        # A real process that has already exited: its pid is provably dead
        # (pid reuse inside one test run is effectively impossible).
        proc = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(proc.stdout)
        lock_dir.mkdir(parents=True)
        (lock_dir / DirectoryLock.LOCK_NAME).write_text(
            json.dumps(
                {
                    "owner": "crashed",
                    "pid": dead_pid,
                    "token": f"{dead_pid}.1",
                    "heartbeat_unix": time.time(),
                }
            )
        )
        lock = DirectoryLock(lock_dir, owner="survivor").acquire()
        assert lock.takeover_reason == f"holder pid {dead_pid} is dead"
        assert json.loads(lock.path.read_text())["owner"] == "survivor"
        lock.release()

    def test_expired_heartbeat_is_taken_over(self, lock_dir):
        holder = DirectoryLock(lock_dir, owner="slow").acquire()
        stale = json.loads(holder.path.read_text())
        stale["heartbeat_unix"] = time.time() - 1000.0
        holder.path.write_text(json.dumps(stale))
        thief = DirectoryLock(
            lock_dir, owner="thief", stale_after_seconds=5.0
        ).acquire()
        assert "heartbeat" in thief.takeover_reason
        thief.release()

    def test_corrupt_lockfile_is_taken_over(self, lock_dir):
        lock_dir.mkdir(parents=True)
        (lock_dir / DirectoryLock.LOCK_NAME).write_text("{not json")
        lock = DirectoryLock(lock_dir, owner="fixer").acquire()
        assert lock.takeover_reason == "corrupt lockfile"
        lock.release()

    def test_heartbeat_refreshes_timestamp(self, lock_dir):
        lock = DirectoryLock(lock_dir, owner="hb").acquire()
        before = json.loads(lock.path.read_text())["heartbeat_unix"]
        time.sleep(0.01)
        lock.heartbeat()
        after = json.loads(lock.path.read_text())["heartbeat_unix"]
        assert after > before
        lock.release()

    def test_lost_lock_release_is_silent_noop(self, lock_dir):
        # Our heartbeat expired and someone else took over: release must
        # not delete the new holder's lockfile, and must not raise (it
        # runs in finally blocks).
        victim = DirectoryLock(
            lock_dir, owner="victim", stale_after_seconds=5.0
        ).acquire()
        stale = json.loads(victim.path.read_text())
        stale["heartbeat_unix"] = time.time() - 1000.0
        victim.path.write_text(json.dumps(stale))
        thief = DirectoryLock(
            lock_dir, owner="thief", stale_after_seconds=5.0
        ).acquire()
        assert victim.release() is False
        assert json.loads(thief.path.read_text())["owner"] == "thief"
        thief.release()

    def test_lost_lock_heartbeat_raises(self, lock_dir):
        victim = DirectoryLock(lock_dir, owner="victim").acquire()
        victim.path.unlink()
        DirectoryLock(lock_dir, owner="thief").acquire()
        with pytest.raises(LockError, match="taken over"):
            victim.heartbeat()
        assert not victim.held

    def test_break_lock_removes_any_holder(self, lock_dir):
        DirectoryLock(lock_dir, owner="gone").acquire()
        supervisor = DirectoryLock(lock_dir, owner="supervisor")
        assert supervisor.break_lock() is True
        assert supervisor.break_lock() is False
        supervisor.acquire()
        supervisor.release()


class TestManagerIntegration:
    def test_manager_acquires_and_closes(self, lock_dir):
        manager = CheckpointManager(lock_dir, "key", lock_owner="m1")
        assert (lock_dir / DirectoryLock.LOCK_NAME).exists()
        with pytest.raises(LockHeld):
            CheckpointManager(lock_dir, "key", lock_owner="m2")
        manager.close()
        assert not (lock_dir / DirectoryLock.LOCK_NAME).exists()
        second = CheckpointManager(lock_dir, "key", lock_owner="m2")
        second.close()

    def test_lockless_manager_unchanged(self, lock_dir):
        manager = CheckpointManager(lock_dir, "key")
        manager.save({"stage": "x"})
        assert not (lock_dir / DirectoryLock.LOCK_NAME).exists()
        manager.close()  # no-op

    def test_save_heartbeats(self, lock_dir):
        manager = CheckpointManager(lock_dir, "key", lock_owner="m")
        before = json.loads(
            (lock_dir / DirectoryLock.LOCK_NAME).read_text()
        )["heartbeat_unix"]
        time.sleep(0.01)
        manager.save({"stage": "templates"})
        after = json.loads(
            (lock_dir / DirectoryLock.LOCK_NAME).read_text()
        )["heartbeat_unix"]
        assert after > before
        manager.close()


class TestBarberIntegration:
    def _barber(self, chaos_db):
        return SQLBarber(
            chaos_db,
            llm=SimulatedLLM(seed=5),
            config=BarberConfig(seed=5),
        )

    def test_lock_released_after_run(
        self, chaos_db, tiny_specs, tiny_distribution, tmp_path
    ):
        ckpt = tmp_path / "run"
        barber = self._barber(chaos_db)
        barber.generate_workload(
            tiny_specs, tiny_distribution, checkpoint_dir=str(ckpt)
        )
        assert (ckpt / "checkpoint.jsonl").exists()
        assert not (ckpt / DirectoryLock.LOCK_NAME).exists()

    def test_concurrent_run_rejected(
        self, chaos_db, tiny_specs, tiny_distribution, tmp_path
    ):
        ckpt = tmp_path / "run"
        holder = CheckpointManager(ckpt, "other", lock_owner="rival")
        barber = self._barber(chaos_db)
        with pytest.raises(LockHeld):
            barber.generate_workload(
                tiny_specs, tiny_distribution, checkpoint_dir=str(ckpt)
            )
        holder.close()

    def test_injected_crash_releases_lock_and_resume_matches(
        self, chaos_db, tiny_specs, tiny_distribution, tmp_path
    ):
        ckpt = tmp_path / "run"
        baseline = self._barber(chaos_db).generate_workload(
            tiny_specs, tiny_distribution
        )

        def kill_after_first(manager, payload):
            if manager.saves == 1:
                raise InjectedCrash("die after first checkpoint")

        with pytest.raises(InjectedCrash):
            self._barber(chaos_db).generate_workload(
                tiny_specs,
                tiny_distribution,
                checkpoint_dir=str(ckpt),
                on_checkpoint_save=kill_after_first,
            )
        # The crash path released the lock, so resume acquires cleanly.
        assert not (ckpt / DirectoryLock.LOCK_NAME).exists()
        resumed = self._barber(chaos_db).generate_workload(
            tiny_specs,
            tiny_distribution,
            checkpoint_dir=str(ckpt),
            resume=True,
        )
        assert resumed.fingerprint_json() == baseline.fingerprint_json()
