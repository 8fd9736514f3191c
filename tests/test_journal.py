"""Unit tests for the persistent job journal (:mod:`repro.journal`).

The journal is the crash-recovery substrate of ``serve --resume``: these
tests pin down the append/replay lifecycle, torn-tail tolerance (the file
state a ``SIGKILL`` mid-append leaves behind), key deduplication and the
atomic compaction that keeps the file from growing forever.  The
end-to-end recovery path (kill a real ``serve`` subprocess, restart with
``--resume``) lives in ``tests/test_resilience.py``.
"""

from __future__ import annotations

import pathlib

import pytest

from repro import wire
from repro.journal import (
    JOURNAL_FILENAME,
    JobJournal,
    JournalEntry,
    default_journal_path,
)


@pytest.fixture()
def journal(tmp_path) -> JobJournal:
    return JobJournal(tmp_path / "journal.ndjson")


KEY_A = "aa" * 32
KEY_B = "bb" * 32


class TestLifecycle:
    def test_submitted_then_completed_leaves_nothing_pending(self, journal):
        journal.record_submitted(KEY_A, "dse", {"fast": True})
        assert [entry.key for entry in journal.pending()] == [KEY_A]
        journal.record_finished(KEY_A, "completed")
        assert journal.pending() == []

    def test_all_terminal_statuses_clear_the_entry(self, journal):
        for index, status in enumerate(("completed", "failed", "cancelled")):
            key = f"{index:02d}" * 32
            journal.record_submitted(key, "toy", {})
            journal.record_finished(key, status)
        assert journal.pending() == []

    def test_invalid_terminal_status_rejected(self, journal):
        with pytest.raises(ValueError, match="status must be one of"):
            journal.record_finished(KEY_A, "exploded")

    def test_pending_preserves_submission_order_and_params(self, journal):
        journal.record_submitted(KEY_A, "dse", {"fast": True})
        journal.record_submitted(KEY_B, "montecarlo", {"samples": 8, "seed": 3})
        entries = journal.pending()
        assert [entry.key for entry in entries] == [KEY_A, KEY_B]
        assert entries[0] == JournalEntry(
            key=KEY_A,
            workload="dse",
            params={"fast": True},
            submitted_at=entries[0].submitted_at,
        )
        assert entries[1].params == {"samples": 8, "seed": 3}
        assert entries[0].submitted_at > 0

    def test_duplicate_submissions_dedupe_by_key(self, journal):
        journal.record_submitted(KEY_A, "dse", {"fast": True})
        journal.record_submitted(KEY_A, "dse", {"fast": True})
        assert len(journal.pending()) == 1
        journal.record_finished(KEY_A, "completed")
        assert journal.pending() == []

    def test_missing_file_reads_as_empty(self, tmp_path):
        journal = JobJournal(tmp_path / "never-created.ndjson")
        assert journal.records() == []
        assert journal.pending() == []
        assert journal.compact() == 0


class TestCrashArtifacts:
    def test_torn_final_line_is_skipped(self, journal):
        """A SIGKILL mid-append leaves a partial last line; readers must
        recover every record before it."""
        journal.record_submitted(KEY_A, "dse", {})
        with open(journal.path, "ab") as handle:
            handle.write(b'{"ts": 1.0, "record": "com')  # torn mid-write
        assert [record["record"] for record in journal.records()] == ["submitted"]
        assert [entry.key for entry in journal.pending()] == [KEY_A]

    def test_garbage_lines_are_skipped(self, journal):
        journal.record_submitted(KEY_A, "dse", {})
        with open(journal.path, "ab") as handle:
            handle.write(b"not json\n")
            handle.write(b'[1, 2, 3]\n')  # valid JSON, not an object
        journal.record_finished(KEY_A, "completed")
        assert journal.pending() == []
        assert len(journal.records()) == 2

    def test_records_ride_the_wire_framing(self, journal):
        """Journal lines are canonical wire frames: decode_message round-trips."""
        journal.record_submitted(KEY_A, "dse", {"fast": True})
        (line,) = journal.path.read_bytes().splitlines()
        record = wire.decode_message(line)
        assert record["record"] == "submitted"
        assert record["key"] == KEY_A
        assert record["params"] == {"fast": True}


class TestCompaction:
    def test_compact_drops_terminal_records(self, journal):
        journal.record_submitted(KEY_A, "dse", {})
        journal.record_finished(KEY_A, "completed")
        journal.record_submitted(KEY_B, "montecarlo", {"samples": 4})
        dropped = journal.compact()
        assert dropped == 2  # submitted(A) + completed(A)
        assert [entry.key for entry in journal.pending()] == [KEY_B]
        # the rewritten file holds exactly the pending submission
        assert len(journal.records()) == 1

    def test_compact_then_append_keeps_working(self, journal):
        journal.record_submitted(KEY_A, "dse", {})
        journal.compact()
        journal.record_finished(KEY_A, "completed")
        assert journal.pending() == []

    def test_compact_is_atomic_no_tmp_left_behind(self, journal):
        journal.record_submitted(KEY_A, "dse", {})
        journal.compact()
        leftovers = list(journal.path.parent.glob("*.tmp"))
        assert leftovers == []


class TestDefaults:
    def test_default_journal_path_lives_in_cache_dir(self, tmp_path):
        assert default_journal_path(tmp_path) == tmp_path / JOURNAL_FILENAME

    def test_default_journal_path_tracks_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env-cache"))
        assert default_journal_path() == tmp_path / "env-cache" / JOURNAL_FILENAME

    def test_describe_counts_pending(self, journal):
        journal.record_submitted(KEY_A, "dse", {})
        assert "1 pending" in journal.describe()

    def test_cache_clear_spares_the_journal(self, tmp_path):
        """The journal lives inside the cache dir; `cache clear` must not
        eat it (it only removes artifact files)."""
        from repro.runtime import ArtifactCache

        cache = ArtifactCache(tmp_path)
        journal = JobJournal(default_journal_path(tmp_path))
        journal.record_submitted(KEY_A, "dse", {})
        cache.clear()
        assert journal.path.exists()
        assert [entry.key for entry in journal.pending()] == [KEY_A]
