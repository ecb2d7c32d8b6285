"""End-to-end crash-consistency invariant: every induced fault yields
either a fully valid cache or a clean JIT-only run with identical
program output.

Each scenario seeds a persistent-cache database, injects one fault class
(byte flip, truncation, ``ENOSPC``/``EIO`` mid-write, kill between
tmp-write and rename, corrupt index, unreadable file), reruns the
workload, and asserts:

* the run's *architectural* outcome (exit status, instruction count,
  output bytes) is identical to a run with no persistence at all;
* no trace was revived from a damaged section
  (``traces_from_persistent == 0`` and ``preloaded == 0``);
* the damage was contained and reported (quarantine + degradation
  counters), never raised through the engine;
* the database recovers: subsequent healthy runs rebuild and then reuse
  a fresh cache.
"""

import glob
import os

import pytest

from repro.persist.cachefile import PersistentCache
from repro.persist.database import CacheDatabase, QUARANTINE_DIR
from repro.persist.manager import PersistenceConfig
from repro.testing.faultfs import (
    FaultPlan,
    FaultyStorage,
    SimulatedCrash,
    flip_byte,
    truncate_file,
)
from repro.workloads.harness import run_vm

from tests.test_persist_manager import mini_workload

pytestmark = pytest.mark.faultinject


def arch(result):
    """The architectural outcome persistence must never change."""
    return (result.exit_status, result.instructions, result.output)


@pytest.fixture
def workload():
    return mini_workload()


@pytest.fixture
def reference(workload):
    """The no-persistence outcome of input "a"."""
    return arch(run_vm(workload, "a"))


def seeded_db(tmp_path, workload, name="db"):
    """A database primed by one persisted run of input "a"."""
    db = CacheDatabase(str(tmp_path / name))
    run_vm(workload, "a", persistence=PersistenceConfig(database=db))
    assert len(db.entries()) == 1
    return db


def cache_path(db):
    return os.path.join(db.directory, db.entries()[0].filename)


def assert_degraded_cleanly(result, reference):
    assert arch(result) == reference
    assert result.stats.traces_from_persistent == 0
    report = result.persistence_report
    assert report["preloaded"] == 0
    assert report["cache_found"] is False
    assert report["fallback_jit_only"] is True
    assert report["degraded_reason"]


def assert_recovers(workload, directory, reference):
    """After the fault: a cold run rebuilds the cache, a warm run reuses
    it, and both have the reference architectural outcome."""
    db = CacheDatabase(directory)
    cold = run_vm(workload, "a", persistence=PersistenceConfig(database=db))
    warm = run_vm(workload, "a", persistence=PersistenceConfig(database=db))
    assert arch(cold) == reference
    assert arch(warm) == reference
    assert warm.persistence_report["cache_found"] is True
    assert warm.stats.traces_from_persistent > 0
    assert warm.stats.traces_translated == 0


class TestCorruptCacheFile:
    #: Offsets chosen to land in different sections of a real cache file:
    #: preamble/header up front, directory after it, pools at relative
    #: depths, trailer at the end.
    FLIP_SPOTS = (0, 8, 40, 200, 0.25, 0.5, 0.75, 0.98, -1)

    @pytest.mark.parametrize("spot", FLIP_SPOTS)
    def test_byte_flip_degrades_to_identical_jit_run(
        self, tmp_path, workload, reference, spot
    ):
        db = seeded_db(tmp_path, workload)
        path = cache_path(db)
        size = os.path.getsize(path)
        offset = int(spot * size) if isinstance(spot, float) else spot
        flip_byte(path, offset)

        result = run_vm(
            workload, "a", persistence=PersistenceConfig(database=db)
        )
        assert_degraded_cleanly(result, reference)
        assert result.persistence_report["cache_quarantined"] == 1
        assert result.stats.persistence_degraded == 1

        # Quarantined, never deleted: the damaged file moved aside.
        assert not os.path.exists(path)
        quarantined = glob.glob(
            os.path.join(db.directory, QUARANTINE_DIR, "*")
        )
        assert len(quarantined) == 1

    @pytest.mark.parametrize("fraction", (0.0, 0.3, 0.6, 0.95))
    def test_truncation_degrades_to_identical_jit_run(
        self, tmp_path, workload, reference, fraction
    ):
        db = seeded_db(tmp_path, workload)
        path = cache_path(db)
        truncate_file(path, int(os.path.getsize(path) * fraction))
        result = run_vm(
            workload, "a", persistence=PersistenceConfig(database=db)
        )
        assert_degraded_cleanly(result, reference)
        assert result.persistence_report["cache_quarantined"] == 1

    def test_recovery_after_quarantine(self, tmp_path, workload, reference):
        db = seeded_db(tmp_path, workload)
        flip_byte(cache_path(db), 100)
        degraded = run_vm(
            workload, "a", persistence=PersistenceConfig(database=db)
        )
        assert_degraded_cleanly(degraded, reference)
        # A degraded session never writes back; the next session rebuilds.
        assert degraded.persistence_report["written"] is False
        assert_recovers(workload, db.directory, reference)


class TestWriteBackFaults:
    def test_enospc_mid_write_back_keeps_run_and_database_intact(
        self, tmp_path, workload, reference
    ):
        directory = str(tmp_path / "db")
        storage = FaultyStorage(FaultPlan(fail_write_on_call=3, match=".cache"))
        db = CacheDatabase(directory, storage=storage)
        result = run_vm(
            workload, "a", persistence=PersistenceConfig(database=db)
        )
        # The program ran to completion with its normal outcome.
        assert arch(result) == reference
        report = result.persistence_report
        assert report["written"] is False
        assert report["fallback_jit_only"] is True
        assert "write-back failed" in report["degraded_reason"]
        assert result.stats.persistence_storage_errors >= 1
        # The database never saw a torn file: no indexed entries, and any
        # leftover is only the partial .tmp.
        clean = CacheDatabase(directory)
        assert clean.entries() == []
        assert_recovers(workload, directory, reference)

    def test_every_failing_write_index_is_safe(
        self, tmp_path, workload, reference
    ):
        """Sweep ENOSPC across every chunk write the write-back performs."""
        probe = FaultyStorage()
        db = CacheDatabase(
            str(tmp_path / "probe"), storage=probe
        )
        run_vm(workload, "a", persistence=PersistenceConfig(database=db))
        total_writes = probe.op_counts["write"]
        assert total_writes >= 2

        for n in range(1, total_writes + 1):
            directory = str(tmp_path / ("db-%d" % n))
            storage = FaultyStorage(FaultPlan(fail_write_on_call=n))
            db = CacheDatabase(directory, storage=storage)
            result = run_vm(
                workload, "a", persistence=PersistenceConfig(database=db)
            )
            assert arch(result) == reference, n
            # Whatever survived on disk must be valid or invisible.
            clean = CacheDatabase(directory)
            for entry in clean.entries():
                loaded = PersistentCache.load(
                    os.path.join(directory, entry.filename)
                )
                assert loaded.traces, n

    def test_crash_between_tmp_write_and_rename(
        self, tmp_path, workload, reference
    ):
        """The kill lands at the worst instant of the write-back: the new
        cache is fully written to .tmp but never renamed in."""
        directory = str(tmp_path / "db")
        storage = FaultyStorage(
            FaultPlan(crash_before_rename=True, match=".cache")
        )
        db = CacheDatabase(directory, storage=storage)
        with pytest.raises(SimulatedCrash):
            run_vm(workload, "a", persistence=PersistenceConfig(database=db))

        # A fresh "process" finds a consistent database: no torn cache
        # file is visible, only the stale tmp marks the interruption.
        clean = CacheDatabase(directory)
        report = clean.fsck()
        statuses = {item.status for item in report.items}
        assert "corrupt" not in statuses
        assert any(item.status == "stale-tmp" for item in report.items)
        assert_recovers(workload, directory, reference)

    def test_crash_during_accumulation_preserves_previous_cache(
        self, tmp_path, workload, reference
    ):
        """Crashing an accumulating write-back must leave the previous
        generation fully readable."""
        directory = str(tmp_path / "db")
        seeded = seeded_db(tmp_path, workload, "db")
        before = PersistentCache.load(cache_path(seeded))

        storage = FaultyStorage(
            FaultPlan(crash_before_rename=True, match=".cache")
        )
        db = CacheDatabase(directory, storage=storage)
        with pytest.raises(SimulatedCrash):
            run_vm(workload, "b", persistence=PersistenceConfig(database=db))

        clean = CacheDatabase(directory)
        after = clean.lookup(
            app_key=_app_key_of(before),
            vm_version=before.vm_version,
            tool_identity=before.tool_identity,
        )
        assert after is not None
        assert after.trace_identities() == before.trace_identities()
        assert arch(run_vm(workload, "a")) == reference


def _app_key_of(cache):
    return cache.image_keys[cache.app_path]


class TestIndexAndReadFaults:
    def test_corrupt_index_resets_and_run_is_unaffected(
        self, tmp_path, workload, reference
    ):
        db = seeded_db(tmp_path, workload)
        index_path = os.path.join(db.directory, "index.json")
        with open(index_path, "wb") as handle:
            handle.write(b"{ not json !!")

        reopened = CacheDatabase(db.directory)
        assert reopened.entries() == []
        # The orphaned cache file is still on disk for fsck to find.
        orphans = [
            item for item in reopened.fsck().items if item.status == "orphan"
        ]
        assert len(orphans) == 1
        result = run_vm(
            workload, "a", persistence=PersistenceConfig(database=reopened)
        )
        assert arch(result) == reference
        # The write-back quarantined the damaged index before replacing
        # it, and re-created the index row; the database is whole again
        # (the orphan was re-adopted under its deterministic name).
        assert reopened.quarantined_count == 1
        assert reopened.fsck().clean

    def test_read_io_error_is_a_clean_miss(
        self, tmp_path, workload, reference
    ):
        directory = str(tmp_path / "db")
        seeded_db(tmp_path, workload)
        storage = FaultyStorage(FaultPlan(fail_reads=True, match=".cache"))
        db = CacheDatabase(directory, storage=storage)
        result = run_vm(
            workload, "a",
            persistence=PersistenceConfig(database=db, readonly=True),
        )
        assert arch(result) == reference
        assert result.stats.traces_from_persistent == 0
        # EIO does not quarantine (the file may be fine next boot) but
        # the miss is recorded.
        assert any(kind == "io-error" for kind, _, _ in db.events)

    def test_vanished_directory_at_write_back(
        self, tmp_path, workload, reference
    ):
        import shutil

        directory = str(tmp_path / "db")
        db = CacheDatabase(directory)
        shutil.rmtree(directory)
        result = run_vm(
            workload, "a", persistence=PersistenceConfig(database=db)
        )
        assert arch(result) == reference
        assert result.persistence_report["fallback_jit_only"] is True


class TestConcurrentAccumulation:
    def test_interleaved_same_entry_stores_never_tear_the_file(
        self, tmp_path, workload
    ):
        """Two sessions accumulate into the same database entry with
        stale in-memory views: the loser's work is replaced wholesale,
        never interleaved into an unreadable file."""
        directory = str(tmp_path / "db")
        db_a = CacheDatabase(directory)
        db_b = CacheDatabase(directory)  # both start from an empty view
        run_vm(workload, "a", persistence=PersistenceConfig(database=db_a))
        run_vm(workload, "b", persistence=PersistenceConfig(database=db_b))

        clean = CacheDatabase(directory)
        assert len(clean.entries()) == 1
        entry = clean.entries()[0]
        loaded = PersistentCache.load(
            os.path.join(directory, entry.filename)
        )
        assert loaded.traces  # fully readable
        assert clean.fsck().clean

    def test_interleaved_different_apps_both_survive(self, tmp_path):
        """The index merge under the lock keeps both writers' rows even
        when each session holds a stale index snapshot."""
        directory = str(tmp_path / "db")
        app_one = mini_workload(app_path="mini-one")
        app_two = mini_workload(app_path="mini-two")
        db_one = CacheDatabase(directory)
        db_two = CacheDatabase(directory)  # stale: does not see one's row
        run_vm(app_one, "a", persistence=PersistenceConfig(database=db_one))
        run_vm(app_two, "a", persistence=PersistenceConfig(database=db_two))

        clean = CacheDatabase(directory)
        assert len(clean.entries()) == 2
        assert clean.fsck().clean
        # Both caches load and preload on their next runs.
        for app in (app_one, app_two):
            warm = run_vm(
                app, "a",
                persistence=PersistenceConfig(database=CacheDatabase(directory)),
            )
            assert warm.persistence_report["cache_found"] is True
            assert warm.stats.traces_translated == 0

    def test_threaded_stores_keep_index_consistent(self, tmp_path):
        """Truly concurrent stores (threads) serialize on the advisory
        lock; every writer's entry survives."""
        import threading

        directory = str(tmp_path / "db")
        workloads = [
            mini_workload(app_path="mini-%d" % index) for index in range(4)
        ]
        errors = []

        def one_run(app):
            try:
                run_vm(
                    app, "a",
                    persistence=PersistenceConfig(
                        database=CacheDatabase(directory)
                    ),
                )
            except BaseException as exc:  # noqa: BLE001 - recorded for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=one_run, args=(app,)) for app in workloads
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        clean = CacheDatabase(directory)
        assert len(clean.entries()) == 4
        assert clean.fsck().clean
