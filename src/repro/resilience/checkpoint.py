"""Checkpoint/resume for the SQLBarber pipeline.

A checkpoint holds everything a fresh process needs to continue a run
*bit-identically*: completed stage outputs (templates, profiles,
refinement bookkeeping), the LLM client's RNG stream positions, and the
usage meter.  It is an append-only log, ``checkpoint.jsonl``, of records
in the service journal's checksummed format
(:mod:`repro.resilience.records`).  Each save appends one record holding
the format version, the *run key* — a hash of the run's identity (specs,
distribution, config, database, seed) — and the exact delta from the
previous save's state; loading checks every record and folds the deltas
back into the last saved state.  A stale, foreign or damaged log is
rejected with :class:`CheckpointError` instead of silently corrupting a
resume; only a torn final record (a write cut short) is dropped.

Serialization is lossy on purpose where lossless would be wasteful:
template placeholders and profile search spaces are derived data (pure
functions of template SQL + catalog), so resume re-infers them instead of
storing them.
"""

from __future__ import annotations

import copy
import math
import os
from pathlib import Path
from typing import Callable

# canonical_json is re-exported: core/barber.py imports it from here.
from .records import (
    canonical_json,
    content_hash,
    encode_record,
    read_records,
    to_jsonable,
)


class CheckpointError(Exception):
    """A checkpoint is missing, corrupt, or belongs to another run."""


#: Format 1 was one JSON file rewritten whole on every save; format 2 is
#: the delta log.
CHECKPOINT_FORMAT_VERSION = 2


# -- state <-> object helpers -----------------------------------------------------


def template_to_state(template) -> dict:
    """Serialize a SqlTemplate.  Placeholders are re-inferred on resume."""
    return {
        "template_id": template.template_id,
        "sql": template.sql,
        "spec_id": template.spec_id,
        "parent_id": template.parent_id,
    }


def template_from_state(state: dict):
    from repro.workload import SqlTemplate

    return SqlTemplate(
        template_id=state["template_id"],
        sql=state["sql"],
        spec_id=state.get("spec_id"),
        parent_id=state.get("parent_id"),
    )


def profile_to_state(profile) -> dict:
    state = {
        "template": template_to_state(profile.template),
        "observations": [
            [config, cost] for config, cost in profile.observations
        ],
        "errors": profile.errors,
    }
    # Governor bookkeeping rides only when present, so pre-governor
    # checkpoints (and fault-free runs) keep their exact old shape.
    if profile.resource_strikes or profile.quarantined:
        state["governor"] = {
            "quarantined": profile.quarantined,
            "resource_strikes": profile.resource_strikes,
            "quarantine_reason": profile.quarantine_reason,
            "offending_bindings": [
                dict(b) for b in profile.offending_bindings
            ],
            "peak_bytes": profile.peak_bytes,
        }
    return state


def profile_from_state(state: dict, profiler):
    """Rebuild a TemplateProfile; the space comes back from the catalog."""
    from repro.bo import ConfigSpace
    from repro.core.profiler import TemplateProfile
    from repro.sqldb import SqlError

    template = template_from_state(state["template"])
    try:
        space = profiler.build_space(template)
    except SqlError:
        space = ConfigSpace()
    profile = TemplateProfile(template=template, space=space)
    for config, cost in state["observations"]:
        profile.add(config, cost)
    profile.errors = int(state.get("errors", 0))
    governor = state.get("governor")
    if governor is not None:
        profile.quarantined = bool(governor["quarantined"])
        profile.resource_strikes = int(governor["resource_strikes"])
        profile.quarantine_reason = governor.get("quarantine_reason")
        profile.offending_bindings = [
            dict(b) for b in governor.get("offending_bindings", [])
        ]
        profile.peak_bytes = int(governor.get("peak_bytes", 0))
    return profile


def trace_to_state(trace) -> dict:
    return {
        "spec_id": trace.spec_id,
        "attempts": [[a.spec_ok, a.syntax_ok] for a in trace.attempts],
        "rewrites": trace.rewrites,
        "final_sql": trace.final_sql,
        "final_ok": trace.final_ok,
    }


def trace_from_state(state: dict):
    from repro.core.check_rewrite import AttemptStatus, RewriteTrace

    return RewriteTrace(
        spec_id=state["spec_id"],
        attempts=[
            AttemptStatus(spec_ok=bool(s), syntax_ok=bool(x))
            for s, x in state["attempts"]
        ],
        rewrites=int(state["rewrites"]),
        final_sql=state["final_sql"],
        final_ok=bool(state["final_ok"]),
    )


def usage_to_state(meter) -> dict:
    return meter.snapshot()


def usage_from_state(state: dict):
    from repro.llm import UsageMeter

    meter = UsageMeter()
    meter.prompt_tokens = int(state["prompt_tokens"])
    meter.completion_tokens = int(state["completion_tokens"])
    meter.num_calls = int(state["num_calls"])
    meter.calls_by_task = {k: int(v) for k, v in state["calls_by_task"].items()}
    meter.tokens_by_task = {
        task: {k: int(v) for k, v in tokens.items()}
        for task, tokens in state["tokens_by_task"].items()
    }
    return meter


def restore_usage(meter, state: dict) -> None:
    """Overwrite *meter* in place with a saved snapshot."""
    restored = usage_from_state(state)
    meter.prompt_tokens = restored.prompt_tokens
    meter.completion_tokens = restored.completion_tokens
    meter.num_calls = restored.num_calls
    meter.calls_by_task = restored.calls_by_task
    meter.tokens_by_task = restored.tokens_by_task


def refinement_to_state(
    result, history: dict, phase: int, iteration: int, refined_counter: int
) -> dict:
    """Serialize Algorithm 2's full working state at an iteration boundary."""
    return {
        "profiles": [profile_to_state(p) for p in result.profiles],
        "accepted": [template_to_state(t) for t in result.accepted],
        "pruned": result.pruned,
        "refine_calls": result.refine_calls,
        "quarantined": [r.to_dict() for r in result.quarantined],
        "history": {str(j): entries for j, entries in history.items()},
        "refined_counter": refined_counter,
        "phase": phase,
        "iteration": iteration,
    }


def refinement_from_state(state: dict, profiler):
    from repro.core.refiner import RefinementResult
    from repro.governor import QuarantineRecord

    return RefinementResult(
        profiles=[profile_from_state(p, profiler) for p in state["profiles"]],
        accepted=[template_from_state(t) for t in state["accepted"]],
        pruned=int(state["pruned"]),
        refine_calls=int(state["refine_calls"]),
        quarantined=[
            QuarantineRecord.from_dict(r)
            for r in state.get("quarantined", [])
        ],
    )


#: Config fields that shape *execution* (spend ceilings, checkpoint
#: cadence, the wall-clock budget, operator profiling) but provably not the
#: generated content.  They are excluded from the run key so a
#: budget-exhausted run can be resumed with a topped-up budget.
_EXECUTION_ONLY_CONFIG_FIELDS = frozenset(
    {
        "max_tokens",
        "max_cost_dollars",
        "checkpoint_every_templates",
        "time_budget_seconds",
        "profile",
    }
)


def run_key(specs, distribution, config, db_name: str) -> str:
    """Hash of the run's identity — what a checkpoint may be resumed into."""
    from dataclasses import asdict

    from repro.core.check_rewrite import spec_to_payload

    identity = {
        "specs": [spec_to_payload(s) for s in specs],
        "distribution": {
            "lower": distribution.lower,
            "upper": distribution.upper,
            "target_counts": list(distribution.target_counts),
            "name": distribution.name,
            "cost_type": distribution.cost_type,
        },
        "config": {
            k: v
            for k, v in asdict(config).items()
            if k not in _EXECUTION_ONLY_CONFIG_FIELDS
        },
        "db": db_name,
    }
    return content_hash(identity)


# -- state deltas -----------------------------------------------------------------
#
# A delta is a tagged JSON array:
#   [0, value]                   replace with *value*
#   [1, {key: delta}, [keys]]    patch a dict: change these keys, drop those
#   [2, keep, [items]]           keep a list's first *keep* items, then *items*
# Values compare strictly: 1, 1.0 and True differ, and so do 0.0 and -0.0.

_REPLACE, _DICT, _LIST = 0, 1, 2
_RECORD_TYPE = "checkpoint"
#: Types whose ``==`` between two values of the same type is exact.
_EXACT_EQ = frozenset({str, int, bool, type(None)})


def _diff(old, new):
    """``(value, delta)``: *new* converted as by :func:`to_jsonable`, and
    the delta that turns *old* (plain JSON data) into it — None when the
    two are exactly equal, in which case *value* is *old* itself."""
    kind = type(new)
    if kind is dict:
        if type(old) is not dict:
            value = to_jsonable(new)
            return value, [_REPLACE, value]
        out = {}
        changed = {}
        kept = 0
        for key, item in new.items():
            if type(key) is not str:
                key = str(key)
            if key in old:
                kept += 1
                value, delta = _diff(old[key], item)
                if delta is not None:
                    changed[key] = delta
            else:
                value = to_jsonable(item)
                changed[key] = [_REPLACE, value]
            out[key] = value
        if len(out) != len(new):  # two keys with one string form
            return _diff(old, to_jsonable(new))
        if not changed and kept == len(old):
            return old, None
        removed = [key for key in old if key not in out]
        return out, [_DICT, changed, removed]
    if kind is list or kind is tuple:
        if type(old) is not list:
            value = to_jsonable(new)
            return value, [_REPLACE, value]
        out = []
        size = len(old)
        items = iter(new)
        for item in items:
            index = len(out)
            if index < size:
                value, delta = _diff(old[index], item)
                if delta is None:
                    out.append(value)
                    continue
            else:
                value = to_jsonable(item)
            tail = [value]
            tail.extend(to_jsonable(rest) for rest in items)
            out.extend(tail)
            return out, [_LIST, index, tail]
        if len(out) == size:
            return old, None
        return out, [_LIST, len(out), []]
    if kind in _EXACT_EQ:
        same = type(old) is kind and old == new
    elif kind is float:
        same = type(old) is float and (
            (old == new and math.copysign(1.0, old) == math.copysign(1.0, new))
            or (old != old and new != new)  # NaN
        )
    # Subclasses (np.float64, enums) compare as the value JSON writes.
    elif isinstance(new, str):
        return _diff(old, str.__str__(new))
    elif isinstance(new, float):
        return _diff(old, float.__float__(new))
    elif isinstance(new, int):
        return _diff(old, int.__int__(new))
    else:  # numpy ints and bools, arrays, sets, container subclasses
        return _diff(old, to_jsonable(new))
    return (old, None) if same else (new, [_REPLACE, new])


def _fold(old, delta):
    """Apply one delta to *old*, building new containers (never mutating
    *old*).  Dicts a delta adds keys to come back key-sorted, like every
    dict the record decoder returns."""
    tag = delta[0]
    if tag == _REPLACE:
        return delta[1]
    if tag == _DICT:
        _, changed, removed = delta
        if type(old) is not dict or not isinstance(changed, dict):
            raise ValueError("dict delta on a non-dict")
        out = dict(old)
        for key in removed:
            del out[key]
        for key, sub in changed.items():
            out[key] = _fold(out.get(key), sub)
        if any(key not in old for key in changed):
            out = {key: out[key] for key in sorted(out)}
        return out
    if tag == _LIST:
        _, keep, items = delta
        if type(old) is not list or not 0 <= keep <= len(old):
            raise ValueError("list delta past the list's end")
        return old[:keep] + items
    raise ValueError(f"unknown delta tag {tag!r}")


# -- the manager ------------------------------------------------------------------


class CheckpointManager:
    """Run state as an append-only, checksummed log of deltas.

    :meth:`save` diffs the state against the previous save's (one walk),
    encodes only the delta, and appends it with one write on a descriptor
    kept open for the run.  The first save of a manager that did not
    :meth:`load` starts the log over.  Saves are not fsync'd: a process
    death loses nothing (the bytes are in the page cache), and a torn
    tail left by an OS crash is dropped on load, so the run resumes from
    the previous save.

    ``on_save(manager, payload)`` fires *after* each write — the chaos
    harness uses it to simulate a process dying right after its k-th
    checkpoint hit disk.  ``payload`` is the record's data plus
    ``"state"``, the state just saved (read-only: later deltas are taken
    against it).

    With *lock_owner* set, construction acquires a
    :class:`~repro.resilience.lock.DirectoryLock` on the directory
    (raising :class:`~repro.resilience.lock.LockHeld` while another
    holder has it) and :meth:`close` releases it; saves do no lock I/O.
    A holder that died without releasing holds nothing: the kernel
    dropped its lock with its process.
    """

    def __init__(
        self,
        directory: str | os.PathLike,
        run_key: str,
        on_save: Callable | None = None,
        lock_owner: str | None = None,
    ):
        self.directory = Path(directory)
        self.run_key = run_key
        self.on_save = on_save
        self.saves = 0
        # The last saved or loaded state, the log's record count and byte
        # length, and whether its last record is owed a newline.
        self._state = None
        self._records = 0
        self._end = 0
        self._newline_owed = False
        self._file = None
        self.lock = None
        if lock_owner is not None:
            from repro.resilience.lock import DirectoryLock

            self.lock = DirectoryLock(self.directory, owner=lock_owner)
            self.lock.acquire()

    @property
    def path(self) -> Path:
        return self.directory / "checkpoint.jsonl"

    def save(self, state: dict) -> Path:
        body, delta = _diff(self._state, state)
        if delta is None:
            delta = [_DICT, {}, []]
        data = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "run_key": self.run_key,
            "delta": delta,
        }
        self._append(encode_record(self._records, _RECORD_TYPE, 0.0, data))
        self._state = body
        self._records += 1
        self.saves += 1
        from repro.obs import current as current_telemetry

        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count("checkpoint.saves", stage=str(state.get("stage")))
        if self.on_save is not None:
            self.on_save(self, dict(data, state=body))
        return self.path

    def _append(self, line: bytes) -> None:
        if self._file is None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._file = open(self.path, "ab", buffering=0)
            # Cut whatever follows the last good record: a torn tail, or
            # the whole old log when this manager starts it over.
            self._file.truncate(self._end)
        if self._newline_owed:
            line = b"\n" + line
        view = memoryview(line)
        try:
            while view:
                view = view[self._file.write(view):]
        except OSError:
            # The next append reopens the log and cuts the partial record.
            self._file.close()
            self._file = None
            raise
        self._end += len(line)
        self._newline_owed = False

    def close(self) -> None:
        """Close the log and release the directory lock (both no-ops when
        already done or never opened)."""
        if self._file is not None:
            self._file.close()
            self._file = None
        if self.lock is not None:
            self.lock.release()

    def load(self) -> dict | None:
        """The last saved state, None when no checkpoint exists yet.

        Raises :class:`CheckpointError` on a corrupt record, a wrong
        format version, a foreign run key, or a leftover format-1
        ``checkpoint.json`` with no log: a resume never quietly starts
        over.  A torn final record is dropped, and cut before the next
        append.
        """
        self._state, self._records, self._end = None, 0, 0
        self._newline_owed = False
        if not self.path.exists():
            legacy = self.directory / "checkpoint.json"
            if legacy.exists():
                raise CheckpointError(
                    f"checkpoint {legacy} has format version 1, "
                    f"which cannot be resumed; expected {self.path.name} "
                    f"(format {CHECKPOINT_FORMAT_VERSION})"
                )
            return None
        try:
            raw = self.path.read_bytes()
        except OSError as error:
            raise CheckpointError(
                f"unreadable checkpoint {self.path}: {error}"
            ) from error
        scan = read_records(raw)
        if scan.corrupt:
            raise CheckpointError(
                f"checkpoint {self.path} has a corrupt record at line "
                f"{scan.corrupt[0]}"
            )
        state = None
        for index, record in enumerate(scan.records):
            data = record["d"]
            if not isinstance(data, dict) or record["t"] != _RECORD_TYPE:
                raise CheckpointError(
                    f"checkpoint {self.path}: record {index} is not a "
                    f"checkpoint record"
                )
            if data.get("format_version") != CHECKPOINT_FORMAT_VERSION:
                raise CheckpointError(
                    f"checkpoint {self.path} has format version "
                    f"{data.get('format_version')!r}; expected "
                    f"{CHECKPOINT_FORMAT_VERSION}"
                )
            if data.get("run_key") != self.run_key:
                raise CheckpointError(
                    f"checkpoint {self.path} belongs to a different run "
                    f"(specs/distribution/config/db/seed changed)"
                )
            if record["n"] != index:
                raise CheckpointError(
                    f"checkpoint {self.path}: record {index} is out of "
                    f"sequence (numbered {record['n']!r})"
                )
            try:
                state = _fold(state, data["delta"])
            except (IndexError, KeyError, TypeError, ValueError) as error:
                raise CheckpointError(
                    f"checkpoint {self.path}: record {index} does not "
                    f"apply: {error}"
                ) from error
        if state is None:
            return None  # the only record was torn: no save completed
        if not isinstance(state, dict):
            raise CheckpointError(f"checkpoint {self.path} holds no state")
        self._state = state
        self._records = len(scan.records)
        self._end = scan.end
        self._newline_owed = raw[scan.end - 1 : scan.end] != b"\n"
        from repro.obs import current as current_telemetry

        telemetry = current_telemetry()
        if telemetry.enabled:
            telemetry.count("checkpoint.loads", stage=str(state.get("stage")))
        return copy.deepcopy(state)
