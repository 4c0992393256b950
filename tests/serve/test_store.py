"""JobStore: journal segments, checksums, compaction, damage tolerance."""

import json
import os
import time

import pytest

from repro.resilience.lock import LockHeld
from repro.resilience.records import decode_record, encode_record
from repro.serve import JobStore, StoreFaultModel


def open_store(path, **kwargs):
    kwargs.setdefault("fsync_policy", "off")
    return JobStore(path, **kwargs)


def record_types(records):
    return [r["t"] for r in records]


class TestRecords:
    def test_encode_decode_roundtrip(self):
        line = encode_record(3, "submitted", 1.5, {"job_id": "job-0001"})
        record = decode_record(line.rstrip(b"\n"))
        assert record["n"] == 3
        assert record["t"] == "submitted"
        assert record["at"] == 1.5
        assert record["d"] == {"job_id": "job-0001"}

    def test_checksum_catches_any_flipped_bit(self):
        line = bytearray(encode_record(0, "finished", 2.0, {"tokens": 40}))
        for index in range(len(line) - 1):  # skip the newline
            flipped = bytearray(line)
            flipped[index] ^= 0x01
            if flipped == line:
                continue
            assert decode_record(bytes(flipped).rstrip(b"\n")) is None

    def test_garbage_is_rejected_not_raised(self):
        assert decode_record(b"not json at all") is None
        assert decode_record(b'{"n": 0}') is None
        assert decode_record(b'["a", "list"]') is None


class TestAppendRecover:
    def test_appended_records_come_back_in_order(self, tmp_path):
        store = open_store(tmp_path / "s")
        for index in range(5):
            store.append("submitted", {"i": index}, at=float(index))
        store.close()
        reopened = open_store(tmp_path / "s")
        snapshot, records, quarantined = reopened.recover()
        reopened.close()
        assert snapshot is None
        assert quarantined == []
        assert [r["d"]["i"] for r in records] == [0, 1, 2, 3, 4]

    def test_rotation_seals_and_recovery_spans_segments(self, tmp_path):
        store = open_store(tmp_path / "s", segment_max_records=3)
        for index in range(8):
            store.append("submitted", {"i": index})
        store.close()
        names = sorted(
            n for n in os.listdir(tmp_path / "s") if n.startswith("journal-")
        )
        assert len(names) >= 3
        reopened = open_store(tmp_path / "s", segment_max_records=3)
        _snapshot, records, quarantined = reopened.recover()
        reopened.close()
        assert quarantined == []
        assert [r["d"]["i"] for r in records] == list(range(8))

    def test_fresh_open_never_appends_to_history(self, tmp_path):
        store = open_store(tmp_path / "s")
        store.append("submitted", {"i": 0})
        store.close()
        reopened = open_store(tmp_path / "s")
        reopened.append("submitted", {"i": 1})
        reopened.close()
        third = open_store(tmp_path / "s")
        _snapshot, records, _q = third.recover()
        third.close()
        # Each process lifetime owns its own segment file.
        assert [r["d"]["i"] for r in records] == [0, 1]

    def test_invalid_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="fsync_policy"):
            JobStore(tmp_path / "s", fsync_policy="sometimes")

    @pytest.mark.parametrize("policy", ["always", "rotate", "off"])
    def test_all_policies_roundtrip(self, tmp_path, policy):
        store = JobStore(tmp_path / policy, fsync_policy=policy)
        store.append("submitted", {"p": policy})
        store.close()
        reopened = open_store(tmp_path / policy)
        _s, records, q = reopened.recover()
        reopened.close()
        assert q == []
        assert records[0]["d"] == {"p": policy}


class TestLocking:
    def test_second_opener_gets_lock_held(self, tmp_path):
        store = open_store(tmp_path / "s")
        with pytest.raises(LockHeld):
            open_store(tmp_path / "s")
        store.close()

    def test_live_holder_is_never_taken_over(self, tmp_path, monkeypatch):
        first = open_store(tmp_path / "s", owner="service-1")
        real_time = time.time
        monkeypatch.setattr(time, "time", lambda: real_time() + 301.0)
        with pytest.raises(LockHeld) as excinfo:
            open_store(tmp_path / "s", owner="service-2")
        assert excinfo.value.holder["owner"] == "service-1"
        assert first.lock.held
        first.append("submitted", {"i": 0})
        first.close()

    def test_close_is_idempotent_and_releases(self, tmp_path):
        store = open_store(tmp_path / "s")
        store.close()
        store.close()
        reopened = open_store(tmp_path / "s")  # no LockHeld
        reopened.close()


class TestDamage:
    def test_torn_tail_is_quarantined_rest_replayed(self, tmp_path):
        store = open_store(tmp_path / "s")
        for index in range(4):
            store.append("submitted", {"i": index})
        store.close()
        segment = tmp_path / "s" / "journal-000001.jsonl"
        raw = segment.read_bytes().rstrip(b"\n")
        segment.write_bytes(raw[:-7])  # tear the final line mid-record
        reopened = open_store(tmp_path / "s")
        _s, records, quarantined = reopened.recover()
        reopened.close()
        assert [r["d"]["i"] for r in records] == [0, 1, 2]
        assert [q["kind"] for q in quarantined] == ["torn_tail"]

    def test_complete_line_missing_newline_is_kept(self, tmp_path):
        store = open_store(tmp_path / "s")
        for index in range(2):
            store.append("submitted", {"i": index})
        store.close()
        segment = tmp_path / "s" / "journal-000001.jsonl"
        segment.write_bytes(segment.read_bytes().rstrip(b"\n"))
        reopened = open_store(tmp_path / "s")
        _s, records, quarantined = reopened.recover()
        reopened.close()
        assert [r["d"]["i"] for r in records] == [0, 1]
        assert quarantined == []

    def test_midstream_corruption_skips_only_that_record(self, tmp_path):
        store = open_store(tmp_path / "s")
        for index in range(4):
            store.append("submitted", {"i": index})
        store.close()
        segment = tmp_path / "s" / "journal-000001.jsonl"
        lines = segment.read_bytes().splitlines(keepends=True)
        lines[1] = b'{"broken": true}\n'
        segment.write_bytes(b"".join(lines))
        reopened = open_store(tmp_path / "s")
        _s, records, quarantined = reopened.recover()
        reopened.close()
        assert [r["d"]["i"] for r in records] == [0, 2, 3]
        assert [q["kind"] for q in quarantined] == ["corrupt_record"]

    def test_truncated_sealed_segment_is_reported(self, tmp_path):
        store = open_store(tmp_path / "s", segment_max_records=3)
        for index in range(7):
            store.append("submitted", {"i": index})
        store.close()
        first = tmp_path / "s" / "journal-000001.jsonl"
        lines = first.read_bytes().splitlines(keepends=True)
        first.write_bytes(b"".join(lines[:2]))  # drop a record + the seal
        reopened = open_store(tmp_path / "s", segment_max_records=3)
        _s, records, quarantined = reopened.recover()
        reopened.close()
        assert "truncated_segment" in [q["kind"] for q in quarantined]
        # Later segments still replay in full.
        assert [r["d"]["i"] for r in records] == [0, 1, 3, 4, 5, 6]


class TestCompaction:
    def test_compact_folds_sealed_segments_into_one_snapshot(self, tmp_path):
        store = open_store(tmp_path / "s", segment_max_records=2)
        for index in range(5):
            store.append("submitted", {"i": index})
        path = store.compact({"jobs": {"job-0001": {"state": "queued"}}})
        store.append("submitted", {"i": 5})
        store.close()
        assert path.exists()
        names = os.listdir(tmp_path / "s")
        assert sum(1 for n in names if n.startswith("snapshot-")) == 1
        reopened = open_store(tmp_path / "s", segment_max_records=2)
        snapshot, records, quarantined = reopened.recover()
        reopened.close()
        assert quarantined == []
        assert snapshot == {"jobs": {"job-0001": {"state": "queued"}}}
        # Only records after the snapshot replay on top of it.
        assert [r["d"]["i"] for r in records] == [5]

    def test_corrupt_snapshot_quarantined_full_replay_survives(self, tmp_path):
        store = open_store(tmp_path / "s")
        for index in range(3):
            store.append("submitted", {"i": index})
        store.close()
        # A tampered snapshot claiming to supersede everything.
        fake = {
            "format_version": 1,
            "sealed_through": 99,
            "content_hash": "0" * 64,
            "state": {"jobs": {}},
        }
        (tmp_path / "s" / "snapshot-deadbeefdeadbeef.json").write_text(
            json.dumps(fake)
        )
        reopened = open_store(tmp_path / "s")
        snapshot, records, quarantined = reopened.recover()
        reopened.close()
        assert snapshot is None
        assert [q["kind"] for q in quarantined] == ["snapshot_corrupt"]
        assert [r["d"]["i"] for r in records] == [0, 1, 2]

    def test_auto_compaction_triggers_from_rotation(self, tmp_path):
        store = open_store(
            tmp_path / "s", segment_max_records=2, compact_after_segments=2
        )
        store.snapshot_provider = lambda: {"marker": store.appends}
        for index in range(9):
            store.append("submitted", {"i": index})
        store.close()
        names = os.listdir(tmp_path / "s")
        assert any(n.startswith("snapshot-") for n in names)
        reopened = open_store(tmp_path / "s", segment_max_records=2)
        snapshot, _records, quarantined = reopened.recover()
        reopened.close()
        assert quarantined == []
        assert snapshot is not None and "marker" in snapshot


class TestFaultModel:
    def test_same_seed_same_damage(self, tmp_path):
        results = []
        for attempt in range(2):
            directory = tmp_path / f"s{attempt}"
            store = open_store(directory)
            for index in range(6):
                store.append("submitted", {"i": index})
            store.close()
            (directory / "lock.json").unlink(missing_ok=True)
            faults = StoreFaultModel(seed=7)
            results.append(
                [
                    faults.torn_tail(directory),
                    faults.truncated_segment(directory),
                    faults.bit_flip(directory),
                ]
            )
        assert results[0] == results[1]
        assert all(r is not None for r in results[0])

    def test_every_kind_recovers_with_quarantine(self, tmp_path):
        for kind in StoreFaultModel.KINDS:
            directory = tmp_path / kind
            store = open_store(directory, segment_max_records=3)
            for index in range(8):
                store.append("submitted", {"i": index})
            store.close()
            injected = getattr(StoreFaultModel(seed=3), kind)(directory)
            assert injected is not None, kind
            newest = max(
                n for n in os.listdir(directory) if n.startswith("journal-")
            )
            reopened = open_store(directory, segment_max_records=3)
            _s, _records, quarantined = reopened.recover()
            reopened.close()
            if kind == "truncated_segment" and injected["where"] == newest:
                # Whole records cleanly dropped from the unsealed tail
                # segment are indistinguishable from a shorter history —
                # exactly the loss window the "rotate" fsync policy
                # documents for OS/power crashes.
                continue
            assert quarantined, f"{kind} produced no quarantine entry"
