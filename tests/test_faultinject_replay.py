"""Fault injection on the PCRL1 replay-log path.

The invariant, mirroring the rest of the persistence layer: **storage
faults on the replay log never affect the live run and never fail
silently**.  A failed write degrades recording to a reported error with
the run's result intact; damaged evidence on the read side fails replay
loudly and is quarantined — moved aside, never deleted.
"""

import os

import pytest

from repro.persist.database import CacheDatabase
from repro.persist.framing import damage_map
from repro.replay.harness import (
    DifferentialReplayHarness,
    record_session,
    replay_session,
)
from repro.replay.log import ReplayLog, ReplayLogError, result_snapshot
from repro.testing.faultfs import (
    FaultPlan,
    FaultyStorage,
    SimulatedCrash,
    flip_byte,
    truncate_file,
)
from repro.workloads.harness import run_vm
from repro.workloads.nondet import build_nondet_suite

pytestmark = pytest.mark.faultinject


@pytest.fixture(scope="module")
def suite():
    return build_nondet_suite()


def _db(tmp_path, plan=None):
    return CacheDatabase(
        str(tmp_path / "db"),
        storage=FaultyStorage(plan) if plan is not None else None,
    )


class TestWriteFaults:
    def test_enospc_disables_recording_not_the_run(self, suite, tmp_path):
        """A full disk at log-write time: the run's result is untouched,
        the failure is reported, and no log is published."""
        plan = FaultPlan(fail_write_on_call=1, match="replay")
        db = _db(tmp_path, plan)
        rec = record_session(suite["dice"], "short", database=db,
                             suite="nondet")
        report = rec.result.persistence_report
        assert report["record_state"].startswith("write-error:")
        assert rec.log_name == ""
        assert db.list_replay_logs() == []
        # The live run is byte-for-byte what an unfaulted run produces.
        plain = run_vm(suite["dice"], "short")
        assert result_snapshot(rec.result) == result_snapshot(plain)
        # The in-memory log is still intact and replayable.
        assert replay_session(rec.log, suite["dice"], "short").bit_identical

    def test_every_write_fault_point(self, suite, tmp_path):
        """Sweep the failing chunk across every write the log performs."""
        # Count the writes an unfaulted store performs first.
        probe = _db(tmp_path / "probe", FaultPlan())
        record_session(suite["dice"], "short", database=probe,
                       suite="nondet")
        total_writes = probe.storage.op_counts.get("write", 0)
        assert total_writes > 0
        for nth in range(1, total_writes + 1):
            db = _db(tmp_path / ("w%d" % nth),
                     FaultPlan(fail_write_on_call=nth, match="replay"))
            rec = record_session(suite["dice"], "short", database=db,
                                 suite="nondet")
            state = rec.result.persistence_report["record_state"]
            assert state.startswith("write-error:"), (nth, state)
            assert db.list_replay_logs() == [], nth

    def test_crash_before_rename_leaves_no_visible_log(self, suite, tmp_path):
        """A kill between tmp-write and rename: nothing becomes visible;
        a fresh process finds only a stale tmp (fsck-reported) and can
        record again."""
        plan = FaultPlan(crash_before_rename=True, match="replay")
        db = _db(tmp_path, plan)
        with pytest.raises(SimulatedCrash):
            record_session(suite["dice"], "short", database=db,
                           suite="nondet")
        # Fresh process, plain storage.
        reopened = CacheDatabase(str(tmp_path / "db"))
        assert reopened.list_replay_logs() == []
        report = reopened.fsck()
        assert any(
            item.status == "stale-tmp"
            and item.filename.startswith("replay/")
            for item in report.items
        )
        # Recording still works after the crash.
        rec = record_session(suite["dice"], "short", database=reopened,
                             suite="nondet")
        assert rec.result.persistence_report["record_state"] == "written"


class TestReadFaults:
    def _recorded(self, suite, tmp_path):
        db = CacheDatabase(str(tmp_path / "db"))
        rec = record_session(suite["dice"], "short", database=db,
                             suite="nondet")
        return db, rec.log_name

    def test_bit_flip_fails_loudly_and_quarantines(self, suite, tmp_path):
        db, name = self._recorded(suite, tmp_path)
        path = os.path.join(db.replay_directory(), name)
        flip_byte(path, 40)
        with pytest.raises(ReplayLogError):
            db.load_replay_log(name)
        assert not os.path.exists(path)  # moved, and...
        assert os.path.exists(os.path.join(
            str(tmp_path / "db"), "quarantine", "replay", name
        ))  # ...never deleted.

    def test_every_byte_flip_is_caught(self, suite, tmp_path):
        """CRC coverage: flipping any single byte of the file must be
        detected (sampled across the file for runtime)."""
        db, name = self._recorded(suite, tmp_path)
        path = os.path.join(db.replay_directory(), name)
        blob = open(path, "rb").read()
        for offset in range(0, len(blob), max(1, len(blob) // 40)):
            flip_byte(path, offset)
            damaged = open(path, "rb").read()
            assert damage_map(ReplayLog.from_bytes, damaged), offset
            flip_byte(path, offset)  # restore

    def test_truncation_fails_loudly(self, suite, tmp_path):
        db, name = self._recorded(suite, tmp_path)
        path = os.path.join(db.replay_directory(), name)
        size = os.path.getsize(path)
        truncate_file(path, size // 2)
        with pytest.raises(ReplayLogError):
            db.load_replay_log(name)

    def test_read_eio_propagates(self, suite, tmp_path):
        db, name = self._recorded(suite, tmp_path)
        faulted = CacheDatabase(
            str(tmp_path / "db"),
            storage=FaultyStorage(FaultPlan(fail_reads=True, match="replay")),
        )
        with pytest.raises(OSError):
            faulted.load_replay_log(name)

    def test_sweep_survives_damaged_member(self, suite, tmp_path):
        """One damaged log in the database: its sweep entry is an error,
        every healthy log still replays to a verdict."""
        db = CacheDatabase(str(tmp_path / "db"))
        record_session(suite["dice"], "short", database=db, suite="nondet")
        bad = record_session(suite["relay"], "short", database=db,
                             suite="nondet")
        flip_byte(os.path.join(db.replay_directory(), bad.log_name), 33)
        report = DifferentialReplayHarness(db).replay_all(
            modes=("compiled",)
        )
        by_status = {}
        for outcome in report.outcomes:
            by_status.setdefault(outcome.status, []).append(outcome.log_name)
        assert not report.clean
        assert bad.log_name in by_status["error"]
        assert len(by_status["match"]) == 1
