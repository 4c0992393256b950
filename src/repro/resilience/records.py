"""Checksummed JSONL records: the one codec for durable state.

The service journal (:mod:`repro.serve.store`) and the run checkpoint log
(:mod:`repro.resilience.checkpoint`) write the same lines.  Each is one
JSON object ``{"n", "t", "at", "d", "c"}`` — sequence number, record
type, clock time, payload, and a checksum over the canonical JSON of the
other four fields — ended by a newline.  :func:`encode_record` serializes
a record exactly once and splices the checksum into that string;
:func:`decode_record` recomputes it from the parsed fields, so any flipped
bit in a line is detected.

:func:`read_records` is the one reader: it splits a file's bytes into
checked records, the line numbers of corrupt lines, and a torn tail (an
unterminated final line that fails its check, which is what a write cut
short leaves).  What damage *means* is the caller's policy: the journal
quarantines it and replays on, the checkpoint log drops a torn tail and
refuses a corrupt record.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np


# -- canonical JSON ---------------------------------------------------------------


def to_jsonable(obj):
    """Recursively convert *obj* to plain JSON types (numpy included)."""
    # numpy scalars first: np.float64 *is* a float subclass, and letting it
    # through unconverted would leak numpy types into the JSON encoder.
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in items]
    raise TypeError(f"cannot serialize {type(obj).__name__} into a checkpoint")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace variance."""
    return json.dumps(to_jsonable(obj), sort_keys=True, separators=(",", ":"))


def content_hash(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


# -- the record codec -------------------------------------------------------------


def _record_body(n: int, rtype: str, at: float, data: dict) -> str:
    """Canonical JSON of the checksummed fields, serialized exactly once.

    Plain ``json.dumps`` with a ``to_jsonable`` fallback for stray numpy
    scalars, instead of an eager deep conversion: the journal encodes on
    every transition inside the core lock, so this cost is submission
    latency.
    """
    return json.dumps(
        {"n": n, "t": rtype, "at": at, "d": data},
        sort_keys=True,
        separators=(",", ":"),
        default=to_jsonable,
    )


def encode_record(n: int, rtype: str, at: float, data: dict) -> bytes:
    """One record line: canonical body + spliced checksum + newline."""
    body = _record_body(n, rtype, at, data)
    checksum = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    return (body[:-1] + ',"c":"' + checksum + '"}\n').encode("utf-8")


def decode_record(line: bytes) -> dict | None:
    """Parse and verify one record line; None when damaged."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    try:
        body = _record_body(
            record["n"], record["t"], record["at"], record["d"]
        )
    except (KeyError, TypeError):
        return None
    expected = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    if record.get("c") != expected:
        return None
    return record


@dataclass
class RecordScan:
    """One file's bytes, split by :func:`read_records`."""

    #: Every record that passed its check, in file order.
    records: list[dict] = field(default_factory=list)
    #: Line numbers (0-based) of complete lines that failed their check.
    corrupt: list[int] = field(default_factory=list)
    #: An unterminated final line that failed its check (b"" when none).
    torn: bytes = b""
    #: The torn tail's line number.
    torn_at: int = 0
    #: Bytes before the torn tail: where the next append belongs.
    end: int = 0


def read_records(raw: bytes) -> RecordScan:
    """Split *raw* into checked records, corrupt lines and a torn tail.

    Blank lines are skipped.  An unterminated final line that still
    passes its check is a record that only lost its newline: the data
    survived, so it is kept.
    """
    lines = raw.split(b"\n")
    tail = lines.pop()  # the bytes after the last newline
    scan = RecordScan(end=len(raw))
    for position, line in enumerate(lines):
        if not line:
            continue
        record = decode_record(line)
        if record is None:
            scan.corrupt.append(position)
        else:
            scan.records.append(record)
    if tail:
        record = decode_record(tail)
        if record is None:
            scan.torn = tail
            scan.torn_at = len(lines)
            scan.end = len(raw) - len(tail)
        else:
            scan.records.append(record)
    return scan
