"""One-holder advisory locks on directories: the kernel's ``flock``.

Two processes resuming the same checkpoint directory, or two services
journaling into one state directory, would interleave their writes —
each write is atomic, but the *run* is not, and the loser silently
clobbers the winner's progress.  :class:`DirectoryLock` makes ownership
explicit: ``acquire`` opens ``<dir>/lock.json`` and takes
``flock(LOCK_EX | LOCK_NB)`` on that descriptor, and ``release`` closes
it.  The kernel drops the lock when its holder's process dies, however
it dies, and never while the holder lives, so nothing here checks
liveness or takes a lock over.

``flock``, not ``fcntl.lockf``: a flock belongs to the open file
description, so two :class:`DirectoryLock` objects in one process
exclude each other (serve's worker threads and two in-process
recoveries rely on that).  POSIX record locks are per process: they
would not, and closing *any* descriptor of the file would drop them.

The file is never unlinked.  Unlinking on release would let a contender
that opened the old inode lock it while a newcomer creates and locks a
new file — two holders.  So whether ``lock.json`` exists means nothing;
its content, ``{"owner", "pid"}`` of the last holder, is diagnostics
for :class:`LockHeld`.

Descriptors are non-inheritable, so an exec'd child never holds the
lock; a ``fork()`` without exec shares the open file description, and
with it a held lock, with the child.
"""

from __future__ import annotations

import fcntl
import json
import os
from pathlib import Path


class LockError(Exception):
    """A lock operation failed for a reason other than contention."""


class LockHeld(LockError):
    """The directory is locked by a live holder.

    ``holder`` is the lockfile payload (owner, pid; ``{}`` when
    unreadable) so callers can report *who* holds the lock, not just
    that someone does.
    """

    def __init__(self, path: Path, holder: dict):
        self.path = path
        self.holder = holder
        super().__init__(
            f"{path} is held by owner={holder.get('owner')!r} "
            f"pid={holder.get('pid')}"
        )


class DirectoryLock:
    """One-holder advisory lock over a directory.

    Usage::

        with DirectoryLock(ckpt_dir, owner="worker-3"):
            ...          # exclusive access to the directory

    ``acquire`` raises :class:`LockHeld` while any other holder — in this
    process or another — has the lock, and never waits.  ``release`` is
    safe to call from ``finally`` blocks: releasing a lock that is not
    held is a no-op, never an exception.
    """

    LOCK_NAME = "lock.json"

    def __init__(self, directory: str | os.PathLike, owner: str = "anonymous"):
        self.directory = Path(directory)
        self.owner = owner
        self._fd: int | None = None

    @property
    def path(self) -> Path:
        return self.directory / self.LOCK_NAME

    @property
    def held(self) -> bool:
        return self._fd is not None

    def read_holder(self) -> dict:
        """The last holder's payload, or ``{}`` when absent or unreadable."""
        try:
            holder = json.loads(self.path.read_bytes())
        except (OSError, ValueError):
            return {}
        return holder if isinstance(holder, dict) else {}

    def acquire(self) -> "DirectoryLock":
        if self.held:
            raise LockError(f"{self.path} already acquired by this object")
        self.directory.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {"owner": self.owner, "pid": os.getpid()}, sort_keys=True
        ).encode()
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise LockHeld(self.path, self.read_holder()) from None
            os.ftruncate(fd, 0)
            os.write(fd, payload)
        except BaseException:
            os.close(fd)
            raise
        self._fd = fd
        return self

    def release(self) -> bool:
        """Drop the lock.  True if it was held.

        Releasing a lock that is not held (never acquired, or already
        released) returns False instead of raising — release lives in
        ``finally`` blocks that must not mask the original exception.
        """
        if self._fd is None:
            return False
        fd, self._fd = self._fd, None
        os.close(fd)
        return True

    def __enter__(self) -> "DirectoryLock":
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()
