"""Fault-injection tests of the storage seam itself.

The atomic write-replace protocol (tmp file + fsync + rename) must never
expose a torn destination file, whatever point the IO fails at.  Above
the seam, a cache database and a shared store meet the same damage with
the same rule (:class:`repro.persist.storage.DurableDirectory`).
"""

import errno
import os

import pytest

from repro.cli import main
from repro.persist.database import CacheDatabase
from repro.persist.sharedstore import SharedBodyStore
from repro.persist.storage import (
    FileStorage,
    QUARANTINE_DIR,
    TMP_SUFFIX,
    WRITE_CHUNK_BYTES,
)
from repro.testing.faultfs import (
    FaultPlan,
    FaultyStorage,
    InjectedIOError,
    SimulatedCrash,
    flip_byte,
)
from repro.vm.engine import VM_VERSION

from tests.test_faultinject_cli import tree_bytes, tree_listing
from tests.test_replay import _sample_log

pytestmark = pytest.mark.faultinject

PAYLOAD = bytes(range(256)) * 20  # several write chunks


class TestAtomicWrite:
    def test_roundtrip(self, tmp_path):
        storage = FileStorage()
        path = str(tmp_path / "blob")
        storage.write_atomic(path, PAYLOAD)
        assert storage.read_bytes(path) == PAYLOAD
        assert not storage.exists(path + TMP_SUFFIX)

    def test_empty_payload(self, tmp_path):
        storage = FileStorage()
        path = str(tmp_path / "blob")
        storage.write_atomic(path, b"")
        assert storage.read_bytes(path) == b""

    def test_chunked(self, tmp_path):
        storage = FaultyStorage()
        path = str(tmp_path / "blob")
        storage.write_atomic(path, PAYLOAD)
        expected = -(-len(PAYLOAD) // WRITE_CHUNK_BYTES)
        assert storage.op_counts["write"] == expected


class TestWriteFaults:
    @pytest.mark.parametrize("errno_value", [errno.ENOSPC, errno.EIO])
    def test_nth_write_failure_preserves_old_contents(self, tmp_path, errno_value):
        """ENOSPC/EIO mid-write: the destination keeps its previous
        complete contents; only the tmp file is partial."""
        path = str(tmp_path / "blob")
        FileStorage().write_atomic(path, b"old contents")

        storage = FaultyStorage(
            FaultPlan(fail_write_on_call=2, fail_write_errno=errno_value)
        )
        with pytest.raises(InjectedIOError) as excinfo:
            storage.write_atomic(path, PAYLOAD)
        assert excinfo.value.errno == errno_value
        assert FileStorage().read_bytes(path) == b"old contents"
        # The partial tmp file is left behind, like a real crash would.
        tmp_blob = FileStorage().read_bytes(path + TMP_SUFFIX)
        assert len(tmp_blob) < len(PAYLOAD)

    def test_every_failing_write_index_is_safe(self, tmp_path):
        """Sweep the fault across every chunk the write performs."""
        path = str(tmp_path / "blob")
        total_chunks = -(-len(PAYLOAD) // WRITE_CHUNK_BYTES)
        for n in range(1, total_chunks + 1):
            FileStorage().write_atomic(path, b"old")
            storage = FaultyStorage(FaultPlan(fail_write_on_call=n))
            with pytest.raises(InjectedIOError):
                storage.write_atomic(path, PAYLOAD)
            assert FileStorage().read_bytes(path) == b"old", n

    def test_retry_after_fault_succeeds(self, tmp_path):
        path = str(tmp_path / "blob")
        faulty = FaultyStorage(FaultPlan(fail_write_on_call=1))
        with pytest.raises(InjectedIOError):
            faulty.write_atomic(path, PAYLOAD)
        FileStorage().write_atomic(path, PAYLOAD)  # the disk recovered
        assert FileStorage().read_bytes(path) == PAYLOAD


class TestCrashBetweenTmpAndRename:
    def test_destination_untouched(self, tmp_path):
        path = str(tmp_path / "blob")
        FileStorage().write_atomic(path, b"old contents")
        storage = FaultyStorage(FaultPlan(crash_before_rename=True))
        with pytest.raises(SimulatedCrash):
            storage.write_atomic(path, PAYLOAD)
        assert FileStorage().read_bytes(path) == b"old contents"
        # The fully written tmp file exists but never became visible.
        assert FileStorage().read_bytes(path + TMP_SUFFIX) == PAYLOAD

    def test_crash_is_not_an_oserror(self):
        """Nothing in the production stack may catch a simulated kill."""
        assert not issubclass(SimulatedCrash, OSError)
        assert not issubclass(SimulatedCrash, Exception)

    def test_rename_io_error(self, tmp_path):
        path = str(tmp_path / "blob")
        storage = FaultyStorage(FaultPlan(fail_rename_errno=errno.EIO))
        with pytest.raises(InjectedIOError):
            storage.write_atomic(path, PAYLOAD)
        assert not FileStorage().exists(path)


class TestReadFaults:
    def test_flip(self, tmp_path):
        path = str(tmp_path / "blob")
        FileStorage().write_atomic(path, PAYLOAD)
        flipped = FaultyStorage(FaultPlan(flip_read_byte_at=3)).read_bytes(path)
        assert flipped != PAYLOAD
        assert len(flipped) == len(PAYLOAD)
        assert flipped[3] == PAYLOAD[3] ^ 0xFF

    def test_truncate(self, tmp_path):
        path = str(tmp_path / "blob")
        FileStorage().write_atomic(path, PAYLOAD)
        cut = FaultyStorage(FaultPlan(truncate_read_to=10)).read_bytes(path)
        assert cut == PAYLOAD[:10]

    def test_match_limits_blast_radius(self, tmp_path):
        plan = FaultPlan(fail_reads=True, match="victim")
        storage = FaultyStorage(plan)
        safe = str(tmp_path / "safe")
        victim = str(tmp_path / "victim")
        FileStorage().write_atomic(safe, b"ok")
        FileStorage().write_atomic(victim, b"boom")
        assert storage.read_bytes(safe) == b"ok"
        with pytest.raises(InjectedIOError):
            storage.read_bytes(victim)


class TestLocking:
    def test_lock_excludes_second_holder(self, tmp_path):
        """flock is per-file-description: a second descriptor blocks."""
        fcntl = pytest.importorskip("fcntl")
        lock_path = str(tmp_path / "lk")
        storage = FileStorage()
        with storage.lock(lock_path):
            handle = open(lock_path, "a+b")
            try:
                with pytest.raises(OSError):
                    fcntl.flock(
                        handle.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB
                    )
            finally:
                handle.close()
        # Released: acquirable again.
        with storage.lock(lock_path):
            pass


def database_with_a_log(directory):
    """A database holding one replay log; ``(the log's rel, opener)``."""
    name = CacheDatabase(directory).store_replay_log(_sample_log())
    return "replay/" + name, CacheDatabase


def store_with_a_shard(directory):
    """A store holding one shard; ``(the shard's rel, opener)``."""
    store = SharedBodyStore(directory, VM_VERSION)
    store.publish({"ab" + "0" * 62: b"body"})
    return (os.path.relpath(store.shard_path("ab"), directory),
            lambda path: SharedBodyStore(path, VM_VERSION))


def damage_manifest(directory, framed, manifest):
    with open(os.path.join(directory, manifest), "w") as handle:
        handle.write("garbage{")
    return manifest


def leave_root_tmp(directory, framed, manifest):
    with open(os.path.join(directory, manifest + TMP_SUFFIX), "wb") as handle:
        handle.write(b"partial")
    return manifest + TMP_SUFFIX


def leave_subdirectory_tmp(directory, framed, manifest):
    with open(os.path.join(directory, framed + TMP_SUFFIX), "wb") as handle:
        handle.write(b"partial")
    return framed + TMP_SUFFIX


def flip_framed_file(directory, framed, manifest):
    path = os.path.join(directory, framed)
    flip_byte(path, os.path.getsize(path) // 2)
    return framed


class TestOneRuleForBothKinds:
    """A database and a shared store, given the same damage, report it
    with the same status and exit code, leave it in place under plain
    fsck and move a damaged file to ``quarantine/<rel>`` intact."""

    @pytest.mark.parametrize("damage, status", [
        (damage_manifest, "corrupt"),
        (leave_root_tmp, "stale-tmp"),
        (leave_subdirectory_tmp, "stale-tmp"),
        (flip_framed_file, "corrupt"),
    ])
    @pytest.mark.parametrize("kind, manifest", [
        (database_with_a_log, "index.json"),
        (store_with_a_shard, "registry.json"),
    ])
    def test_same_damage_same_finding(
        self, kind, manifest, damage, status, tmp_path
    ):
        directory = str(tmp_path / "dir")
        framed, opener = kind(directory)
        rel = damage(directory, framed, manifest)
        before = tree_bytes(directory)
        listing = tree_listing(directory)

        report = opener(directory).fsck()
        assert [(item.filename, item.status) for item in report.items
                if item.status != "ok"] == [(rel, status)]
        assert main(["cache", "fsck", directory]) == 1
        assert tree_bytes(directory) == before
        assert tree_listing(directory) == listing

        assert main(["cache", "fsck", directory, "--quarantine"]) == 1
        if status == "corrupt":
            before[os.path.join(QUARANTINE_DIR, rel)] = before.pop(rel)
        assert tree_bytes(directory) == before
