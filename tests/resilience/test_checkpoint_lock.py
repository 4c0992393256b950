"""Directory locking for checkpoint directories.

Covers the lock in isolation (contention, a contender paused across a
release, a SIGKILLed holder, leftover lockfile content, release), the
CheckpointManager integration (acquire-on-construct, a live holder 301 s
on, no lock I/O on save, close), and the barber-level behavior (lock
held during generate_workload, released on every exit path including an
injected crash).
"""

import fcntl
import json
import os
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


#: A holder in another process: takes the lock, says so, then waits to die.
HOLD_LOCK = """
import sys, time
from repro.resilience import DirectoryLock
lock = DirectoryLock(sys.argv[1], owner="doomed").acquire()
print("ready", flush=True)
time.sleep(120)
"""


def assert_free(directory) -> None:
    """A fresh lock on *directory* acquires: nobody holds it."""
    DirectoryLock(directory, owner="probe").acquire().release()


class TestDirectoryLock:
    def test_acquire_creates_lockfile(self, lock_dir):
        lock = DirectoryLock(lock_dir, owner="t1").acquire()
        holder = json.loads(lock.path.read_text())
        assert holder["owner"] == "t1"
        assert holder["pid"] == os.getpid()
        assert lock.held

    def test_live_holder_blocks_second_acquire(self, lock_dir):
        with DirectoryLock(lock_dir, owner="first"):
            with pytest.raises(LockHeld) as excinfo:
                DirectoryLock(lock_dir, owner="second").acquire()
            assert excinfo.value.holder["owner"] == "first"

    def test_release_then_reacquire(self, lock_dir):
        first = DirectoryLock(lock_dir, owner="a").acquire()
        assert first.release() is True
        second = DirectoryLock(lock_dir, owner="b").acquire()
        assert json.loads(second.path.read_text())["owner"] == "b"
        second.release()

    def test_contender_paused_across_a_release_never_makes_two_holders(
        self, lock_dir
    ):
        # A contender that opened lock.json just before a release reaches
        # flock after a newcomer acquired: both lock the one file, so only
        # one holds it.  Unlinking on release would give them two files.
        holder = DirectoryLock(lock_dir, owner="holder").acquire()
        paused = os.open(holder.path, os.O_RDWR)
        try:
            holder.release()
            newcomer = DirectoryLock(lock_dir, owner="newcomer").acquire()
            with pytest.raises(BlockingIOError):
                fcntl.flock(paused, fcntl.LOCK_EX | fcntl.LOCK_NB)
            newcomer.release()
        finally:
            os.close(paused)

    def test_context_manager(self, lock_dir):
        with DirectoryLock(lock_dir, owner="ctx") as lock:
            assert lock.held
            with pytest.raises(LockHeld):
                DirectoryLock(lock_dir, owner="other").acquire()
        assert not lock.held
        assert_free(lock_dir)

    def test_double_acquire_same_object_rejected(self, lock_dir):
        lock = DirectoryLock(lock_dir, owner="x").acquire()
        with pytest.raises(LockError):
            lock.acquire()
        lock.release()

    def test_dead_pid_is_taken_over(self, lock_dir, spawn_holder):
        # SIGKILL runs no cleanup in the holder: the kernel frees its lock
        # the moment the process dies, with no staleness rule to wait on.
        holder = spawn_holder(HOLD_LOCK, lock_dir)
        with pytest.raises(LockHeld) as excinfo:
            DirectoryLock(lock_dir, owner="survivor").acquire()
        assert excinfo.value.holder == {"owner": "doomed", "pid": holder.pid}
        assert str(excinfo.value) == (
            f"{lock_dir / DirectoryLock.LOCK_NAME} is held by "
            f"owner='doomed' pid={holder.pid}"
        )
        holder.kill()
        holder.wait(timeout=30)
        lock = DirectoryLock(lock_dir, owner="survivor").acquire()
        assert json.loads(lock.path.read_text()) == {
            "owner": "survivor",
            "pid": os.getpid(),
        }
        lock.release()

    def test_corrupt_lockfile_is_taken_over(self, lock_dir):
        lock_dir.mkdir(parents=True)
        (lock_dir / DirectoryLock.LOCK_NAME).write_text("{not json")
        lock = DirectoryLock(lock_dir, owner="fixer").acquire()
        assert json.loads(lock.path.read_text())["owner"] == "fixer"
        lock.release()

    @pytest.mark.parametrize(
        "content",
        [
            # The former protocol's payload, naming this live process
            # with a fresh heartbeat: it described a holder, it is not one.
            lambda: json.dumps(
                {
                    "owner": "old",
                    "pid": os.getpid(),
                    "token": f"{os.getpid()}.1",
                    "heartbeat_unix": time.time(),
                }
            ),
            lambda: json.dumps({"owner": "init", "pid": 1}),
            lambda: "[1, 2]",
            lambda: "",
        ],
        ids=["former-protocol-live-pid", "live-pid", "not-an-object", "empty"],
    )
    def test_leftover_lockfile_content_never_blocks(self, lock_dir, content):
        lock_dir.mkdir(parents=True)
        (lock_dir / DirectoryLock.LOCK_NAME).write_text(content())
        lock = DirectoryLock(lock_dir, owner="next").acquire()
        # The whole file is ours: no byte of the longer old payload left.
        assert json.loads(lock.path.read_text()) == {
            "owner": "next",
            "pid": os.getpid(),
        }
        with pytest.raises(LockHeld) as excinfo:
            DirectoryLock(lock_dir, owner="late").acquire()
        assert excinfo.value.holder["owner"] == "next"
        lock.release()

    def test_lost_lock_release_is_silent_noop(self, lock_dir):
        # release runs in finally blocks: on a lock it does not hold it
        # returns False, never raises, and never frees another holder.
        assert DirectoryLock(lock_dir, owner="never").release() is False
        holder = DirectoryLock(lock_dir, owner="holder").acquire()
        loser = DirectoryLock(lock_dir, owner="loser")
        with pytest.raises(LockHeld):
            loser.acquire()
        assert loser.release() is False
        with pytest.raises(LockHeld):
            DirectoryLock(lock_dir, owner="third").acquire()
        assert holder.release() is True
        assert holder.release() is False
        assert_free(lock_dir)


class TestManagerIntegration:
    def test_manager_acquires_and_closes(self, lock_dir):
        manager = CheckpointManager(lock_dir, "key", lock_owner="m1")
        assert (lock_dir / DirectoryLock.LOCK_NAME).exists()
        with pytest.raises(LockHeld):
            CheckpointManager(lock_dir, "key", lock_owner="m2")
        manager.close()
        second = CheckpointManager(lock_dir, "key", lock_owner="m2")
        second.close()
        assert_free(lock_dir)

    def test_lockless_manager_unchanged(self, lock_dir):
        manager = CheckpointManager(lock_dir, "key")
        manager.save({"stage": "x"})
        assert not (lock_dir / DirectoryLock.LOCK_NAME).exists()
        manager.close()  # no-op

    def test_live_holder_is_never_taken_over(self, lock_dir, monkeypatch):
        manager = CheckpointManager(lock_dir, "key", lock_owner="m1")
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 301.0)
        with pytest.raises(LockHeld) as excinfo:
            CheckpointManager(lock_dir, "key", lock_owner="m2")
        assert excinfo.value.holder["owner"] == "m1"
        manager.save({"stage": "templates"})
        assert manager.lock.held
        manager.close()

    def test_save_leaves_lockfile_untouched(self, lock_dir):
        manager = CheckpointManager(lock_dir, "key", lock_owner="m")
        lockfile = lock_dir / DirectoryLock.LOCK_NAME

        def observed():
            stat = lockfile.stat()
            return lockfile.read_bytes(), stat.st_mtime_ns, stat.st_ino

        before = observed()
        for stage in ("templates", "profile", "refine"):
            time.sleep(0.02)  # past the filesystem's timestamp granularity
            manager.save({"stage": stage})
            assert observed() == before
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
        assert_free(ckpt)

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
        assert_free(ckpt)
        resumed = self._barber(chaos_db).generate_workload(
            tiny_specs,
            tiny_distribution,
            checkpoint_dir=str(ckpt),
            resume=True,
        )
        assert resumed.fingerprint_json() == baseline.fingerprint_json()
