"""The durable job store: a write-ahead journal for the serve core.

Once the service ACKs a submission, that work is a durable contract — a
process death (crash, OOM kill, deploy) must never lose it.  This module
is the storage half of that contract; :meth:`ServeCore.recover
<repro.serve.core.ServeCore.recover>` is the replay half.

Layout of one state directory::

    state/
      lock.json                 flock'd by the live service, one per
                                directory; its content names the last
                                holder (:class:`~repro.resilience.lock.DirectoryLock`)
      journal-000001.jsonl      append-only record segments
      journal-000002.jsonl
      snapshot-<hash>.json      compacted state (content-hashed, atomic)

**Records.** Each journal line is one JSON object
``{"n", "t", "at", "d", "c"}`` — per-segment index, record type, core
clock time, payload, and a checksum over the canonical JSON of the other
fields.  The codec and the reader live in :mod:`repro.resilience.records`,
shared with the run checkpoint log.  The checksum turns bit rot and torn
writes into *detected* damage: recovery quarantines the record instead
of replaying garbage.

**Segments.** Appends go to the newest segment via a single
``os.write`` on an ``O_APPEND`` descriptor.  After ``segment_max_records``
records the segment is *sealed* — a final ``_seal`` record carrying the
record count, then an fsync — and a fresh segment opens.  A sealed
segment whose seal is missing or whose count disagrees was truncated by
the filesystem; recovery reports it rather than trusting it silently.

**Fsync policy.** ``"always"`` fsyncs every append (survives OS/power
loss, pays a disk flush per submission); ``"rotate"`` (default) fsyncs at
seals, snapshots, and close — any *process* death still loses nothing
(the bytes are in the page cache), only a whole-machine crash can drop
the unsealed tail, and recovery handles exactly that; ``"off"`` never
fsyncs (benchmarks).

**Compaction.** When enough sealed segments pile up, the store asks the
core for a full state snapshot (``snapshot_provider``), writes it
atomically (temp + ``os.replace`` + fsync) under a content-hashed name
recording which segments it folds in, and only then deletes those
segments and older snapshots.  A crash at any point leaves either the
old snapshot + all segments or the new snapshot + newer segments — both
recover to the same state.

**Recovery** (:meth:`JobStore.recover`) never raises for damage: the
newest valid snapshot is loaded (corrupt candidates are quarantined),
newer segments are replayed in order, and every unreadable piece lands
in a machine-readable quarantine list — torn tails, mid-stream
corruption, truncated segments, corrupt snapshots.  Losing a *record* is
reported; losing the *service state* is not an outcome.

:class:`StoreFaultModel` is the seeded damage injector the restart chaos
scenario and the store tests share: torn tails (a partial final line,
what a torn write leaves), partial-fsync truncation (a sealed segment
losing its tail), and bit flips.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from repro.resilience.lock import DirectoryLock
from repro.resilience.records import content_hash, encode_record, read_records

STORE_FORMAT_VERSION = 1
FSYNC_POLICIES = ("always", "rotate", "off")

_SEGMENT_RE = re.compile(r"^journal-(\d{6})\.jsonl$")
_SNAPSHOT_RE = re.compile(r"^snapshot-([0-9a-f]{16})\.json$")
_SEAL_TYPE = "_seal"


class JobStore:
    """Append-only journal + snapshots under one locked directory.

    Opening acquires the directory lock — one live service per state dir;
    a second opener, in this process or another, gets
    :class:`~repro.resilience.lock.LockHeld` for as long as the first is
    open.  A holder that died holds nothing: the kernel dropped its lock.

    Appends always go to a segment this process created: recovery state
    is read-only history, so a crash mid-append can only tear *our* tail.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        *,
        fsync_policy: str = "rotate",
        segment_max_records: int = 512,
        compact_after_segments: int = 4,
        owner: str = "serve",
        on_append=None,
        track_appends: bool = False,
    ):
        if fsync_policy not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, "
                f"not {fsync_policy!r}"
            )
        self.directory = Path(directory)
        self.fsync_policy = fsync_policy
        self.segment_max_records = int(segment_max_records)
        self.compact_after_segments = int(compact_after_segments)
        self.on_append = on_append
        #: Core hook: returns the full state dict folded into snapshots.
        self.snapshot_provider = None
        self.appends = 0
        #: With *track_appends*, one ``{segment_name: byte_size}`` map per
        #: append — the restart chaos sweep truncates segment files to
        #: these offsets to reconstruct the exact on-disk bytes at every
        #: journaled transition point.
        self.append_log: list[dict] = []
        self._track_appends = track_appends
        self._sizes: dict[str, int] = {}
        self.directory.mkdir(parents=True, exist_ok=True)
        self.lock = DirectoryLock(self.directory, owner=owner).acquire()
        self._fd: int | None = None
        self._segment_index = self._max_segment_index()
        self._segment_records = 0
        self._open_next_segment()

    # -- paths ---------------------------------------------------------------------

    def _segment_path(self, index: int) -> Path:
        return self.directory / f"journal-{index:06d}.jsonl"

    def _segments_on_disk(self) -> list[tuple[int, Path]]:
        found = []
        for name in os.listdir(self.directory):
            match = _SEGMENT_RE.match(name)
            if match:
                found.append((int(match.group(1)), self.directory / name))
        return sorted(found)

    def _snapshots_on_disk(self) -> list[Path]:
        return sorted(
            self.directory / name
            for name in os.listdir(self.directory)
            if _SNAPSHOT_RE.match(name)
        )

    def _max_segment_index(self) -> int:
        segments = self._segments_on_disk()
        return segments[-1][0] if segments else 0

    # -- appending -----------------------------------------------------------------

    def _open_next_segment(self) -> None:
        self._segment_index += 1
        self._segment_records = 0
        path = self._segment_path(self._segment_index)
        self._fd = os.open(
            path, os.O_CREAT | os.O_EXCL | os.O_WRONLY | os.O_APPEND, 0o644
        )
        self._sizes[path.name] = 0

    def _write(self, line: bytes) -> None:
        assert self._fd is not None
        os.write(self._fd, line)
        name = self._segment_path(self._segment_index).name
        self._sizes[name] = self._sizes.get(name, 0) + len(line)

    def append(self, rtype: str, data: dict, at: float = 0.0) -> None:
        """Durably journal one lifecycle transition."""
        if self._fd is None:
            raise RuntimeError("store is closed")
        self._write(encode_record(self._segment_records, rtype, at, data))
        self._segment_records += 1
        self.appends += 1
        if self.fsync_policy == "always":
            os.fsync(self._fd)
        if self._segment_records >= self.segment_max_records:
            self._rotate()
        if self._track_appends:
            self.append_log.append(dict(self._sizes))
        if self.on_append is not None:
            self.on_append(rtype, self.appends)

    def _seal_and_advance(self) -> None:
        """Seal the current segment (fsync'd) and open the next one."""
        self._write(
            encode_record(
                self._segment_records, _SEAL_TYPE, 0.0,
                {"records": self._segment_records},
            )
        )
        if self.fsync_policy != "off":
            os.fsync(self._fd)
        os.close(self._fd)
        self._fd = None
        self._open_next_segment()

    def _rotate(self) -> None:
        self._seal_and_advance()
        sealed = [
            (index, path)
            for index, path in self._segments_on_disk()
            if index < self._segment_index
        ]
        if (
            self.compact_after_segments
            and len(sealed) >= self.compact_after_segments
            and self.snapshot_provider is not None
        ):
            self.compact(self.snapshot_provider())

    # -- compaction ----------------------------------------------------------------

    def compact(self, state: dict) -> Path:
        """Fold every *sealed* segment into a content-hashed snapshot.

        The snapshot is durable (atomic replace + fsync of file and
        directory) before any segment is deleted, so a crash anywhere in
        here recovers to the identical state from either generation.
        """
        if self._segment_records:
            # External call mid-segment: seal first, or the open segment's
            # records would be both inside the snapshot and replayed on
            # top of it (double-applying billing and strikes).
            self._seal_and_advance()
        sealed_through = self._segment_index - 1
        payload = {
            "format_version": STORE_FORMAT_VERSION,
            "sealed_through": sealed_through,
            "content_hash": content_hash(state),
            "state": state,
        }
        name = f"snapshot-{content_hash(payload)[:16]}.json"
        path = self.directory / name
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w") as handle:
            json.dump(payload, handle, sort_keys=True, separators=(",", ":"))
            handle.flush()
            if self.fsync_policy != "off":
                os.fsync(handle.fileno())
        os.replace(tmp, path)
        if self.fsync_policy != "off":
            dir_fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(dir_fd)
            finally:
                os.close(dir_fd)
        # The new snapshot is durable: drop what it supersedes.
        for index, segment in self._segments_on_disk():
            if index <= sealed_through:
                segment.unlink(missing_ok=True)
                self._sizes.pop(segment.name, None)
        for old in self._snapshots_on_disk():
            if old.name != name:
                old.unlink(missing_ok=True)
        return path

    # -- recovery ------------------------------------------------------------------

    def recover(self) -> tuple[dict | None, list[dict], list[dict]]:
        """Read everything a fresh core needs: ``(snapshot_state,
        records, quarantined)``.

        Never raises for damage — every unreadable piece becomes one
        quarantine entry ``{"kind", "where", "detail"}``:

        * ``torn_tail`` — a partial final line in the newest segment (a
          torn write at the moment of death); dropped.
        * ``corrupt_record`` — a mid-stream line failing its checksum or
          JSON parse (bit rot); dropped, replay continues.
        * ``truncated_segment`` — a non-final segment missing its seal,
          or a seal whose count disagrees with the lines present.
        * ``snapshot_corrupt`` — a snapshot failing its content hash;
          skipped in favor of an older valid one (or a full replay).
        """
        quarantined: list[dict] = []
        snapshot_state, sealed_through = self._load_best_snapshot(quarantined)
        records: list[dict] = []
        segments = [
            (index, path)
            for index, path in self._segments_on_disk()
            if index > sealed_through and index < self._segment_index
        ]
        for position, (index, path) in enumerate(segments):
            last_segment = position == len(segments) - 1
            self._read_segment(
                path, records, quarantined, last_segment=last_segment
            )
        return snapshot_state, records, quarantined

    def _load_best_snapshot(
        self, quarantined: list[dict]
    ) -> tuple[dict | None, int]:
        best_state, best_through = None, 0
        for path in self._snapshots_on_disk():
            try:
                payload = json.loads(path.read_text())
                state = payload["state"]
                through = int(payload["sealed_through"])
                ok = (
                    payload.get("format_version") == STORE_FORMAT_VERSION
                    and content_hash(state) == payload.get("content_hash")
                )
            except (OSError, json.JSONDecodeError, KeyError, TypeError,
                    ValueError):
                ok = False
            if not ok:
                quarantined.append(
                    {
                        "kind": "snapshot_corrupt",
                        "where": path.name,
                        "detail": "failed hash/format verification",
                    }
                )
                continue
            if through >= best_through:
                best_state = state
                best_through = through
        return best_state, best_through

    def _read_segment(
        self,
        path: Path,
        records: list[dict],
        quarantined: list[dict],
        *,
        last_segment: bool,
    ) -> None:
        scan = read_records(path.read_bytes())
        for position in scan.corrupt:
            quarantined.append(
                {
                    "kind": "corrupt_record",
                    "where": f"{path.name}:{position}",
                    "detail": "checksum or parse failure",
                }
            )
        sealed_count: int | None = None
        seen = 0
        for record in scan.records:
            if record["t"] == _SEAL_TYPE:
                sealed_count = int(record["d"].get("records", -1))
                continue
            seen += 1
            records.append(record)
        if scan.torn:
            quarantined.append(
                {
                    "kind": "torn_tail",
                    "where": f"{path.name}:{scan.torn_at}",
                    "detail": f"partial final line ({len(scan.torn)} bytes)",
                }
            )
        if not last_segment:
            if sealed_count is None:
                quarantined.append(
                    {
                        "kind": "truncated_segment",
                        "where": path.name,
                        "detail": f"seal missing after {seen} record(s)",
                    }
                )
            elif sealed_count != seen:
                quarantined.append(
                    {
                        "kind": "truncated_segment",
                        "where": path.name,
                        "detail": (
                            f"seal says {sealed_count} record(s), "
                            f"{seen} readable"
                        ),
                    }
                )

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Flush, fsync (unless ``off``), and release the directory lock.
        Idempotent — a second close is a no-op."""
        if self._fd is None:
            return
        if self.fsync_policy != "off":
            os.fsync(self._fd)
        os.close(self._fd)
        self._fd = None
        self.lock.release()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StoreFaultModel:
    """Seeded journal damage: what disks and power loss actually do.

    Operates on the *files* of a closed (or abandoned) state directory;
    the victim store must not be appending concurrently.  Each method
    returns a description of what it did (for chaos reports) or ``None``
    when the directory had nothing to damage.
    """

    KINDS = ("torn_tail", "truncated_segment", "bit_flip")

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = np.random.default_rng([seed, 0x57F])

    def _segments(self, directory: Path) -> list[Path]:
        return [
            directory / name
            for name in sorted(os.listdir(directory))
            if _SEGMENT_RE.match(name)
            and (directory / name).stat().st_size > 0
        ]

    def torn_tail(self, directory: str | os.PathLike) -> dict | None:
        """A torn write: the newest segment loses part of its last line."""
        segments = self._segments(Path(directory))
        if not segments:
            return None
        path = segments[-1]
        raw = path.read_bytes().rstrip(b"\n")
        last_line_start = raw.rfind(b"\n") + 1
        tail_len = len(raw) - last_line_start
        if tail_len < 2:
            return None
        cut = int(self._rng.integers(1, tail_len))
        path.write_bytes(raw[: last_line_start + cut])
        return {"kind": "torn_tail", "where": path.name, "cut_bytes": cut}

    def truncated_segment(self, directory: str | os.PathLike) -> dict | None:
        """A partial fsync: a segment loses whole records off its tail."""
        segments = self._segments(Path(directory))
        if not segments:
            return None
        path = segments[int(self._rng.integers(0, len(segments)))]
        lines = path.read_bytes().splitlines(keepends=True)
        if len(lines) < 2:
            return None
        dropped = int(self._rng.integers(1, len(lines)))
        path.write_bytes(b"".join(lines[: len(lines) - dropped]))
        return {
            "kind": "truncated_segment",
            "where": path.name,
            "dropped_lines": dropped,
        }

    def bit_flip(self, directory: str | os.PathLike) -> dict | None:
        """Bit rot: one flipped bit somewhere in one journal line."""
        segments = self._segments(Path(directory))
        if not segments:
            return None
        path = segments[int(self._rng.integers(0, len(segments)))]
        raw = bytearray(path.read_bytes())
        positions = [i for i, b in enumerate(raw) if b != 0x0A]
        if not positions:
            return None
        index = positions[int(self._rng.integers(0, len(positions)))]
        bit = int(self._rng.integers(0, 8))
        raw[index] ^= 1 << bit
        if raw[index] == 0x0A:  # never synthesize a line break
            raw[index] ^= 1 << bit
            return None
        path.write_bytes(bytes(raw))
        return {"kind": "bit_flip", "where": path.name, "offset": index}
