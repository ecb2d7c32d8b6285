"""Record-and-replay tier: PCRL1 format, hooks, sessions, database, CLI.

The acceptance contract under test: a session recorded once replays
**bit-identically** — same output bytes, exit status, and every VMStats
counter — under either dispatch tier, and any deviation (structural or
value-level) fails loudly with a located :class:`ReplayDivergence` or a
field-level diff, never silently.
"""

import pytest

from repro.machine.syscalls import SYS_RAND
from repro.persist.database import CacheDatabase
from repro.persist.framing import damage_map
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.replay.harness import (
    DifferentialReplayHarness,
    record_session,
    replay_session,
)
from repro.replay.log import (
    REPLAY_LOG_SUFFIX,
    ReplayLog,
    ReplayLogError,
    result_snapshot,
    snapshot_diff,
)
from repro.replay.session import RecordingHook, ReplayDivergence, ReplayHook
from repro.workloads.harness import run_vm
from repro.workloads.nondet import build_nondet_suite


@pytest.fixture(scope="module")
def suite():
    return build_nondet_suite()


@pytest.fixture
def db(tmp_path):
    return CacheDatabase(str(tmp_path / "db"))


def _sample_log():
    return ReplayLog(
        meta={"name": "t", "pid": 7, "rng_state": 42, "layout_seed": None},
        events=[["v", 6, 123], ["s", 2], ["t", "yield", 1], ["n", 2]],
        baseline={"exit_status": 0, "stats": {"total_cycles": 10}},
    )


class TestLogFormat:
    def test_round_trip(self):
        log = _sample_log()
        loaded = ReplayLog.from_bytes(log.to_bytes())
        assert loaded.meta == log.meta
        assert loaded.events == log.events
        assert loaded.baseline == log.baseline

    def test_empty_round_trip(self):
        loaded = ReplayLog.from_bytes(ReplayLog().to_bytes())
        assert loaded.events == [] and loaded.baseline is None

    def test_trailer_crc_detects_any_flip(self):
        blob = bytearray(_sample_log().to_bytes())
        blob[len(blob) // 2] ^= 0xFF
        with pytest.raises(ReplayLogError):
            ReplayLog.from_bytes(bytes(blob))

    def test_bad_magic(self):
        blob = bytearray(_sample_log().to_bytes())
        blob[0] ^= 0xFF
        with pytest.raises(ReplayLogError) as excinfo:
            ReplayLog.from_bytes(bytes(blob))
        # The trailer CRC catches it first; either attribution is honest.
        assert excinfo.value.section in ("preamble", "trailer")

    def test_truncation(self):
        blob = _sample_log().to_bytes()
        with pytest.raises(ReplayLogError):
            ReplayLog.from_bytes(blob[: len(blob) // 2])
        with pytest.raises(ReplayLogError) as excinfo:
            ReplayLog.from_bytes(blob[:3])
        assert excinfo.value.section == "preamble"

    def test_verify_healthy_is_empty(self):
        assert damage_map(ReplayLog.from_bytes, _sample_log().to_bytes()) == {}

    def test_verify_maps_damage(self):
        blob = bytearray(_sample_log().to_bytes())
        blob[-2] ^= 0x01
        damage = damage_map(ReplayLog.from_bytes, bytes(blob))
        assert damage and "trailer" in damage

    def test_events_must_be_records(self):
        log = _sample_log()
        log.events = ["not-a-record"]
        with pytest.raises(ReplayLogError) as excinfo:
            ReplayLog.from_bytes(log.to_bytes())
        assert excinfo.value.section == "events"


class TestSnapshotDiff:
    def test_identical(self):
        snap = {"a": 1, "b": {"c": [1, 2]}}
        assert snapshot_diff(snap, snap) == []

    def test_leaf_difference_is_located(self):
        diff = snapshot_diff({"a": {"b": 1}}, {"a": {"b": 2}})
        assert diff == ["a.b: recorded 1, replayed 2"]

    def test_missing_keys(self):
        diff = snapshot_diff({"a": 1}, {"b": 1})
        assert "a: absent in replay" in diff
        assert "b: absent in recording" in diff


class TestHooks:
    def test_recording_shapes(self):
        hook = RecordingHook()

        class R:
            value = 99

        hook.on_syscall(6, "rand", R())     # nondet: value-carrying
        hook.on_syscall(2, "write", R())    # structural
        hook.on_schedule("yield", [1, 2], 2)
        hook.on_schedule("exit", [], None)
        hook.on_spawn(3)
        assert hook.events == [
            ["v", 6, 99], ["s", 2], ["t", "yield", 2], ["t", "exit", -1],
            ["n", 3],
        ]

    def test_recording_never_alters(self):
        hook = RecordingHook()

        class R:
            value = 5

        result = R()
        assert hook.on_syscall(6, "rand", result) is result
        assert hook.on_schedule("yield", [1, 2], 1) == 1

    def test_replay_substitutes_value(self):
        hook = ReplayHook([["v", 6, 1234]])

        class R:
            value = 0

        assert hook.on_syscall(6, "rand", R()).value == 1234

    def test_replay_syscall_order_divergence(self):
        hook = ReplayHook([["s", 2]])

        class R:
            value = 0

        with pytest.raises(ReplayDivergence, match="order diverged"):
            hook.on_syscall(5, "brk", R())

    def test_replay_exhausted_log(self):
        hook = ReplayHook([])

        class R:
            value = 0

        with pytest.raises(ReplayDivergence, match="log exhausted"):
            hook.on_syscall(6, "rand", R())

    def test_replay_kind_mismatch(self):
        hook = ReplayHook([["t", "yield", 1]])
        with pytest.raises(ReplayDivergence, match="scheduler mismatch"):
            hook.on_schedule("exit", [1], 1)

    def test_replay_tid_not_runnable(self):
        hook = ReplayHook([["t", "yield", 9]])
        with pytest.raises(ReplayDivergence, match="not runnable"):
            hook.on_schedule("yield", [1, 2], 1)

    def test_replay_forces_logged_tid(self):
        hook = ReplayHook([["t", "yield", 2]])
        assert hook.on_schedule("yield", [1, 2], 1) == 2

    def test_replay_spawn_mismatch(self):
        hook = ReplayHook([["n", 2]])
        with pytest.raises(ReplayDivergence, match="spawn mismatch"):
            hook.on_spawn(3)

    def test_trailing_events_diverge(self):
        hook = ReplayHook([["v", 6, 1]])
        with pytest.raises(ReplayDivergence, match="unconsumed"):
            hook.verify_exhausted()

    def test_divergence_carries_location(self):
        hook = ReplayHook([])
        with pytest.raises(ReplayDivergence) as excinfo:
            hook.on_spawn(1)
        assert excinfo.value.index == 0
        assert "event 0" in str(excinfo.value)

    def test_divergence_is_not_oserror(self):
        # The engine's persistence backstop degrades on OSError; a
        # divergence must never be absorbable by it.
        assert not issubclass(ReplayDivergence, OSError)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ("dice", "clockwork", "relay"))
    @pytest.mark.parametrize("mode", ("interpreted", "compiled"))
    def test_bit_identical_same_mode(self, suite, name, mode):
        rec = record_session(suite[name], "short", suite="nondet",
                             dispatch_mode=mode)
        out = replay_session(rec.log, suite[name], "short",
                             dispatch_mode=mode)
        assert out.bit_identical, out.diff

    @pytest.mark.parametrize("name", ("dice", "relay"))
    def test_bit_identical_across_modes(self, suite, name):
        """A recording from one dispatch tier replays bit-identically
        under the other — the tier-equivalence contract, via replay."""
        rec = record_session(suite[name], "long", suite="nondet",
                             dispatch_mode="compiled")
        for mode in ("interpreted", "compiled"):
            out = replay_session(rec.log, suite[name], "long",
                                 dispatch_mode=mode)
            assert out.bit_identical, (mode, out.diff)

    def test_layout_perturbation_round_trips(self, suite):
        for seed in (1, 77, 4096):
            rec = record_session(suite["dice"], "short", suite="nondet",
                                 layout_seed=seed)
            assert rec.log.meta["layout_seed"] == seed
            out = replay_session(rec.log, suite["dice"], "short")
            assert out.bit_identical, (seed, out.diff)

    def test_reseeded_os_state_round_trips(self, suite):
        rec = record_session(suite["dice"], "short", suite="nondet")
        assert rec.log.meta["pid"] == 1000
        assert "rng_state" in rec.log.meta
        # Replay re-seeds the OS from meta, so even the substituted
        # values match what the replayed OS would itself produce.
        out = replay_session(rec.log, suite["dice"], "short")
        assert out.bit_identical

    def test_serialized_log_round_trips(self, suite):
        rec = record_session(suite["relay"], "short", suite="nondet")
        revived = ReplayLog.from_bytes(rec.log.to_bytes())
        out = replay_session(revived, suite["relay"], "short")
        assert out.bit_identical, out.diff

    def test_mutated_rand_is_detected(self, suite):
        rec = record_session(suite["dice"], "short", suite="nondet")
        mutated = ReplayLog.from_bytes(rec.log.to_bytes())
        for event in mutated.events:
            if event[0] == "v" and event[1] == SYS_RAND:
                event[2] ^= 0xFF
                break
        else:
            pytest.fail("no SYS_RAND event recorded")
        out = replay_session(mutated, suite["dice"], "short")
        assert not out.bit_identical
        assert any("output_b64" in line or "exit_status" in line
                   for line in out.diff)

    def test_truncated_events_diverge(self, suite):
        rec = record_session(suite["dice"], "short", suite="nondet")
        truncated = ReplayLog.from_bytes(rec.log.to_bytes())
        truncated.events.pop()
        with pytest.raises(ReplayDivergence):
            replay_session(truncated, suite["dice"], "short")

    def test_extra_events_diverge(self, suite):
        rec = record_session(suite["dice"], "short", suite="nondet")
        padded = ReplayLog.from_bytes(rec.log.to_bytes())
        padded.events.append(["v", SYS_RAND, 1])
        with pytest.raises(ReplayDivergence, match="unconsumed"):
            replay_session(padded, suite["dice"], "short")

    def test_wrong_workload_diverges(self, suite):
        rec = record_session(suite["relay"], "short", suite="nondet")
        with pytest.raises(ReplayDivergence):
            replay_session(rec.log, suite["clockwork"], "short")


class TestSessionConfig:
    def test_record_and_replay_are_exclusive(self):
        with pytest.raises(ValueError):
            PersistentCacheSession(
                PersistenceConfig(record=True, replay_log=ReplayLog())
            )

    def test_recording_is_persistence_neutral(self, suite, db):
        """A recorded run's observable result equals a plain run's —
        recording must not perturb what it observes."""
        plain = run_vm(suite["dice"], "short")
        rec = record_session(suite["dice"], "short", database=db,
                             suite="nondet")
        assert result_snapshot(rec.result) == result_snapshot(plain)

    def test_record_without_database_is_unsaved(self, suite):
        rec = record_session(suite["dice"], "short", suite="nondet")
        report = rec.result.persistence_report
        assert report["record_state"] == "unsaved"
        assert report["record_events"] == len(rec.log.events) > 0
        assert rec.log_name == ""

    def test_record_with_database_is_written(self, suite, db):
        rec = record_session(suite["dice"], "short", database=db,
                             suite="nondet")
        report = rec.result.persistence_report
        assert report["record_state"] == "written"
        assert report["record_log"] == rec.log_name
        assert rec.log_name in db.list_replay_logs()

    def test_replay_report_states(self, suite):
        rec = record_session(suite["dice"], "short", suite="nondet")
        out = replay_session(rec.log, suite["dice"], "short")
        report = out.result.persistence_report
        assert report["replay_state"] == "replayed"
        assert report["replay_events"] == len(rec.log.events)

    def test_recorded_meta_identity(self, suite):
        rec = record_session(suite["dice"], "long", suite="nondet",
                             tool_name="none", layout_seed=5)
        meta = rec.log.meta
        assert meta["workload"] == "dice"
        assert meta["input"] == "long"
        assert meta["suite"] == "nondet"
        assert meta["dispatch_mode"] == "compiled"
        assert meta["layout_seed"] == 5
        assert meta["vm_version"]


class TestDatabaseStorage:
    def test_store_names_never_collide(self, suite, db):
        first = record_session(suite["dice"], "short", database=db,
                               suite="nondet")
        second = record_session(suite["dice"], "short", database=db,
                                suite="nondet")
        assert first.log_name != second.log_name
        assert db.list_replay_logs() == sorted(
            [first.log_name, second.log_name]
        )

    def test_load_round_trips(self, suite, db):
        rec = record_session(suite["relay"], "short", database=db,
                             suite="nondet")
        loaded = db.load_replay_log(rec.log_name)
        assert loaded.events == rec.log.events
        assert loaded.baseline == rec.log.baseline

    def test_explicit_name_gets_suffix(self, db):
        name = db.store_replay_log(_sample_log(), name="custom")
        assert name == "custom" + REPLAY_LOG_SUFFIX
        assert db.load_replay_log(name).events == _sample_log().events

    def test_damaged_log_quarantined_on_load(self, db, tmp_path):
        import os

        name = db.store_replay_log(_sample_log())
        path = os.path.join(db.replay_directory(), name)
        from repro.testing.faultfs import flip_byte

        flip_byte(path, 30)
        with pytest.raises(ReplayLogError):
            db.load_replay_log(name)
        # Quarantined, not deleted: the damaged file moved aside.
        assert not os.path.exists(path)
        quarantined = os.path.join(
            str(db.directory), "quarantine", "replay", name
        )
        assert os.path.exists(quarantined)
        assert any(kind == "quarantine" for kind, _f, _r in db.events)

    def test_fsck_reports_replay_logs(self, db):
        name = db.store_replay_log(_sample_log())
        report = db.fsck()
        labels = {item.filename: item.status for item in report.items}
        assert labels.get("replay/" + name) == "ok"

    def test_fsck_flags_damage(self, db):
        import os

        from repro.testing.faultfs import flip_byte

        name = db.store_replay_log(_sample_log())
        flip_byte(os.path.join(db.replay_directory(), name), 25)
        report = db.fsck()
        assert not report.clean
        statuses = [item.status for item in report.items
                    if item.filename == "replay/" + name]
        assert "corrupt" in statuses

    def test_fsck_quarantines_damage(self, db):
        import os

        from repro.testing.faultfs import flip_byte

        name = db.store_replay_log(_sample_log())
        flip_byte(os.path.join(db.replay_directory(), name), 25)
        report = db.fsck(quarantine=True)
        assert "replay/" + name in report.quarantined
        assert db.list_replay_logs() == []


class TestDifferentialHarness:
    def test_sweep_clean(self, suite, db):
        record_session(suite["dice"], "short", database=db, suite="nondet")
        record_session(suite["relay"], "short", database=db, suite="nondet")
        report = DifferentialReplayHarness(db).replay_all()
        assert report.clean
        assert report.counts() == {"match": 4}  # 2 logs x 2 modes

    def test_empty_database_is_not_clean(self, db):
        # "clean" asserts coverage, not vacuous truth.
        report = DifferentialReplayHarness(db).replay_all()
        assert not report.clean and report.outcomes == []

    def test_unresolvable_meta_is_error(self, db):
        db.store_replay_log(_sample_log())  # meta has no suite
        report = DifferentialReplayHarness(db).replay_all()
        assert not report.clean
        assert report.outcomes[0].status == "error"

    def test_custom_resolver(self, suite, db):
        rec = record_session(suite["dice"], "short", database=db)
        assert rec.log.meta["suite"] is None  # default meta: unresolvable

        def resolve(meta):
            return suite[str(meta["workload"])], str(meta["input"]), lambda: None

        report = DifferentialReplayHarness(db, resolve=resolve).replay_all(
            modes=("compiled",)
        )
        assert report.clean


class TestCli:
    def _record(self, tmp_path, *extra):
        from repro.cli import main

        return main(["run", "nondet", "dice", "short", "--record",
                     "--pcache", str(tmp_path / "db"), *extra])

    def test_record_then_diff_clean(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        out = capsys.readouterr().out
        assert "recording: written" in out

        from repro.cli import main

        assert main(["replay", str(tmp_path / "db"), "--diff"]) == 0
        out = capsys.readouterr().out
        assert "replay: clean" in out

    def test_single_log_replay(self, tmp_path, capsys):
        assert self._record(tmp_path) == 0
        capsys.readouterr()
        from repro.cli import main

        db = CacheDatabase(str(tmp_path / "db"))
        [name] = db.list_replay_logs()
        assert main(["replay", str(tmp_path / "db"), "--log", name,
                     "--mode", "compiled"]) == 0
        assert "bit-identical" in capsys.readouterr().out

    def test_canary_drift_exits_nonzero(self, tmp_path, capsys):
        """The seeded-divergence canary: one flipped logged SYS_RAND
        value must surface as drift with a nonzero exit code."""
        assert self._record(tmp_path) == 0
        db = CacheDatabase(str(tmp_path / "db"))
        [name] = db.list_replay_logs()
        log = db.load_replay_log(name)
        for event in log.events:
            if event[0] == "v" and event[1] == SYS_RAND:
                event[2] ^= 0xFF
                break
        db.store_replay_log(log, name=name)
        capsys.readouterr()
        from repro.cli import main

        assert main(["replay", str(tmp_path / "db"), "--diff"]) == 1
        assert "drift found" in capsys.readouterr().out

    def test_empty_database_diff_is_clean_noop(self, tmp_path, capsys):
        from repro.cli import main

        (tmp_path / "empty").mkdir()
        assert main(["replay", str(tmp_path / "empty"), "--diff"]) == 0
        assert "no replay logs" in capsys.readouterr().out

    def test_record_rejects_cache_flags(self, tmp_path):
        with pytest.raises(SystemExit):
            self._record(tmp_path, "--readonly")
