"""Tests for the per-host shared compiled-body store.

Covers the shared store (:mod:`repro.persist.sharedstore`):
store/retrieve round-trips, the fallback order of a body store with
the pool in front of its sidecar (shared → private → host compile), the
digest-prefix sharding layout, wholesale VM-version / host-tag
invalidation, and gc mark-and-sweep correctness (a referenced body is
never swept; the LRU cap is honored) — plus the end-to-end
cross-database reuse the store exists for: DB-A warms DB-B, and the GUI
corpus's donors warm never-warmed consumers of every app.
"""

import itertools
import json
import marshal
import os

import pytest

from repro.persist.database import CacheDatabase
from repro.persist.framing import damage_map
from repro.persist.manager import PersistenceConfig
from repro.persist.sidecar import (
    CompiledBodyStore,
    SIDECAR_NAME,
    host_code_tag,
)
from repro.persist.sharedstore import (
    BODIES_DIR,
    QUARANTINE_DIR,
    SHARD_PREFIX_LEN,
    SHARD_SUFFIX,
    SharedBodyStore,
    SharedStoreError,
    is_shared_store,
    pack_shard,
    parse_shard,
    shard_prefix,
    store_keytag,
)
from repro.vm.compile import BIND_THRESHOLD
from repro.vm.engine import VM_VERSION, VMConfig
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_vm

from tests.test_cli import host_value
from tests.test_persist_manager import mini_workload


def blob_for(tag: str) -> bytes:
    """A distinguishable, genuinely unmarshalable-as-code payload? No —
    a real marshaled code object, so chained revives can exec it."""
    return marshal.dumps(compile("_make = lambda *a: %r" % tag, "<t>", "exec"))


def digest_for(i: int) -> str:
    """Deterministic digests spanning several shard prefixes."""
    return "%02x%062x" % (i % 256, i)


@pytest.fixture
def store(tmp_path):
    return SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)


def compiled_run(workload, input_name, db, **kwargs):
    return run_vm(
        workload,
        input_name,
        persistence=PersistenceConfig(database=db, **kwargs),
        vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
    )


def observable(result):
    return (
        result.output,
        result.exit_status,
        result.instructions,
        vars(result.stats),
    )


class TestShardFormat:
    def test_roundtrip(self):
        entries = {
            digest_for(i): (blob_for("b%d" % i), 100 + i) for i in range(5)
        }
        blob = pack_shard(VM_VERSION, host_code_tag(), entries)
        vm, host, revived = parse_shard(blob)
        assert vm == VM_VERSION and host == host_code_tag()
        assert revived == entries

    def test_empty_roundtrip(self):
        blob = pack_shard(VM_VERSION, host_code_tag(), {})
        assert parse_shard(blob)[2] == {}

    def test_every_single_byte_flip_is_detected(self):
        entries = {digest_for(i): (b"body-%d" % i, i) for i in range(3)}
        blob = pack_shard(VM_VERSION, host_code_tag(), entries)
        for offset in range(len(blob)):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 0xFF
            with pytest.raises(SharedStoreError) as excinfo:
                parse_shard(bytes(corrupt))
            assert excinfo.value.section in (
                "preamble", "header", "directory", "body_pool", "trailer",
            ), offset

    def test_truncation_at_every_length_is_detected(self):
        blob = pack_shard(
            VM_VERSION, host_code_tag(), {digest_for(1): (b"x" * 40, 7)}
        )
        for length in range(len(blob)):
            with pytest.raises(SharedStoreError):
                parse_shard(blob[:length])

    def test_verify_shard_maps_damage(self):
        blob = pack_shard(VM_VERSION, host_code_tag(), {digest_for(2): (b"y", 1)})
        assert damage_map(parse_shard, blob) == {}
        assert damage_map(parse_shard, blob[:10])


class TestLayout:
    def test_publish_lands_in_prefix_shards(self, store):
        digests = [digest_for(i) for i in (0, 1, 256)]  # 00, 01, 00 again
        store.publish({d: b"blob-" + d.encode() for d in digests})
        pool = os.path.join(
            store.directory, BODIES_DIR, store_keytag(VM_VERSION)
        )
        shards = sorted(
            name for name in os.listdir(pool) if name.endswith(SHARD_SUFFIX)
        )
        assert shards == ["00.pcs", "01.pcs"]
        # The 00 shard holds both digests with prefix 00.
        _vm, _host, entries = parse_shard(
            store.storage.read_bytes(os.path.join(pool, "00.pcs"))
        )
        assert set(entries) == {digest_for(0), digest_for(256)}

    def test_shard_prefix_is_digest_prefix(self):
        assert shard_prefix("abcdef") == "abcdef"[:SHARD_PREFIX_LEN]

    def test_is_shared_store_discriminates(self, store, tmp_path):
        """A store is known by its ``registry.json`` or its ``bodies/``,
        and opening one writes neither."""
        assert os.listdir(store.directory) == []
        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        assert is_shared_store(store.directory)
        assert not is_shared_store(db.directory)
        pool_only = SharedBodyStore(str(tmp_path / "pool-only"), VM_VERSION)
        pool_only.publish({digest_for(1): b"one"})
        assert os.listdir(pool_only.directory) == [BODIES_DIR]
        assert is_shared_store(pool_only.directory)


class TestLookupPublish:
    def test_store_retrieve_roundtrip(self, store):
        blobs = {digest_for(i): b"body-%d" % i for i in range(20)}
        result = store.publish(blobs)
        assert result.published == 20
        for digest, blob in blobs.items():
            assert store.lookup(digest) == blob
        assert store.lookup(digest_for(999)) is None

    def test_republish_refreshes_not_duplicates(self, store):
        clock = iter([100, 200]).__next__
        store.clock = clock
        store.publish({digest_for(1): b"one"})
        result = store.publish({digest_for(1): b"ignored"})
        assert result.published == 0
        assert result.refreshed == 1
        # Content addressing: the original bytes win.
        assert store.lookup(digest_for(1)) == b"one"

    def test_touch_refreshes_stamp(self, store):
        store.clock = iter([100, 200]).__next__
        store.publish({digest_for(1): b"one"})
        store.publish({}, touch=[digest_for(1)])
        _vm, _host, entries = parse_shard(
            store.storage.read_bytes(store.shard_path(shard_prefix(digest_for(1))))
        )
        assert entries[digest_for(1)][1] == 200

    def test_touch_of_absent_digest_is_noop(self, store):
        result = store.publish({}, touch=[digest_for(5)])
        assert result.published == result.refreshed == 0
        assert store.lookup(digest_for(5)) is None

    def test_cross_instance_visibility(self, store, tmp_path):
        """A second process (instance) sees the first's publishes."""
        store.publish({digest_for(3): b"three"})
        other = SharedBodyStore(store.directory, vm_version=VM_VERSION)
        assert other.lookup(digest_for(3)) == b"three"
        # ... and revalidates its cache when the pool changes.
        assert other.lookup(digest_for(4)) is None
        store.publish({digest_for(4): b"four"})
        assert other.lookup(digest_for(4)) == b"four"


class TestWholesaleInvalidation:
    def test_other_vm_version_addresses_a_different_pool(self, store):
        store.publish({digest_for(1): b"one"})
        upgraded = SharedBodyStore(
            store.directory, vm_version=VM_VERSION + "-next"
        )
        assert upgraded.lookup(digest_for(1)) is None
        assert store_keytag(VM_VERSION) != store_keytag(VM_VERSION + "-next")

    def test_gc_removes_stale_pools(self, store):
        store.publish({digest_for(1): b"one"})
        upgraded = SharedBodyStore(
            store.directory, vm_version=VM_VERSION + "-next"
        )
        report = upgraded.gc()
        assert report.stale_pools_removed == [store_keytag(VM_VERSION)]
        assert not os.path.isdir(
            os.path.join(store.directory, BODIES_DIR, store_keytag(VM_VERSION))
        )

    def test_foreign_stamps_in_pool_are_quarantined(self, store):
        """A shard hand-moved into the wrong keytag dir is contained."""
        path = store.shard_path("ab")
        os.makedirs(os.path.dirname(path))  # nothing published yet
        store.storage.write_atomic(
            path, pack_shard("other-vm", host_code_tag(), {"ab" + "0" * 62: (b"x", 1)})
        )
        assert store.lookup("ab" + "0" * 62) is None
        assert store.quarantined_count == 1
        assert not os.path.exists(path)


class TestRegistry:
    def test_register_is_idempotent(self, store, tmp_path):
        db_dir = str(tmp_path / "db")
        store.register_database(db_dir)
        store.register_database(db_dir)
        assert store.registered_databases() == [os.path.abspath(db_dir)]

    def test_database_attach_registers(self, store, tmp_path):
        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        assert os.path.abspath(db.directory) in store.registered_databases()

    def test_corrupt_registry_quarantined_and_empty(self, store, tmp_path):
        store.register_database(str(tmp_path / "db"))
        with open(os.path.join(store.directory, "registry.json"), "wb") as fh:
            fh.write(b"{not json")
        assert store.registered_databases() == []
        assert store.quarantined_count == 1
        # Re-registration heals it.
        store.register_database(str(tmp_path / "db"))
        assert store.registered_databases() == [
            os.path.abspath(str(tmp_path / "db"))
        ]


def write_reference_index(db_dir, digests, vm_version=VM_VERSION):
    """Give a database directory a private sidecar referencing digests."""
    os.makedirs(db_dir, exist_ok=True)
    sidecar = CompiledBodyStore(vm_version=vm_version)
    for digest in digests:
        sidecar.record_bytes(digest, b"referenced-" + digest.encode())
    with open(os.path.join(db_dir, SIDECAR_NAME), "wb") as fh:
        fh.write(sidecar.to_bytes())


class TestGC:
    def test_mark_and_sweep_never_evicts_referenced(self, store, tmp_path):
        referenced = [digest_for(i) for i in range(10)]
        garbage = [digest_for(i) for i in range(100, 110)]
        store.publish({d: b"R" + d.encode() for d in referenced})
        store.publish({d: b"G" + d.encode() for d in garbage})
        db_dir = str(tmp_path / "db")
        write_reference_index(db_dir, referenced)
        store.register_database(db_dir)
        report = store.gc()
        assert report.referenced == 10
        assert report.swept_entries == 10
        assert report.remaining_entries == 10
        for digest in referenced:
            assert store.lookup(digest) == b"R" + digest.encode()
        for digest in garbage:
            assert store.lookup(digest) is None

    def test_unregistered_database_protects_nothing(self, store, tmp_path):
        store.publish({digest_for(1): b"one"})
        write_reference_index(str(tmp_path / "db"), [digest_for(1)])
        # db never registered: its references are invisible to the mark.
        report = store.gc()
        assert report.swept_entries == 1
        assert store.lookup(digest_for(1)) is None

    def test_stale_reference_index_references_nothing(self, store, tmp_path):
        store.publish({digest_for(1): b"one"})
        db_dir = str(tmp_path / "db")
        write_reference_index(db_dir, [digest_for(1)], vm_version="old-vm")
        store.register_database(db_dir)
        report = store.gc()
        assert report.referenced == 0
        assert report.swept_entries == 1

    def test_unreadable_index_is_reported_not_fatal(self, store, tmp_path):
        store.publish({digest_for(1): b"one"})
        db_dir = str(tmp_path / "db")
        os.makedirs(db_dir)
        with open(os.path.join(db_dir, SIDECAR_NAME), "wb") as fh:
            fh.write(b"garbage")
        store.register_database(db_dir)
        report = store.gc()
        assert report.unreadable_indexes == [os.path.abspath(db_dir)]

    def test_lru_cap_evicts_oldest_first(self, store, tmp_path):
        stamps = iter([10, 20, 30, 1000]).__next__
        store.clock = stamps
        for i, size in ((1, 100), (2, 100), (3, 100)):
            store.publish({digest_for(i): bytes(size)})
        db_dir = str(tmp_path / "db")
        write_reference_index(db_dir, [digest_for(i) for i in (1, 2, 3)])
        store.register_database(db_dir)
        report = store.gc(max_bytes=200)
        # Oldest stamp (digest 1, published at t=10) goes first.
        assert report.lru_evicted_entries == 1
        assert report.lru_evicted_bytes == 100
        assert store.lookup(digest_for(1)) is None
        assert store.lookup(digest_for(2)) is not None
        assert store.lookup(digest_for(3)) is not None
        assert report.remaining_bytes <= 200

    def test_touch_protects_from_lru(self, store, tmp_path):
        store.clock = iter([10, 20, 500, 1000]).__next__
        store.publish({digest_for(1): bytes(100)})     # t=10
        store.publish({digest_for(2): bytes(100)})     # t=20
        store.publish({}, touch=[digest_for(1)])       # t=500: 1 is now newer
        db_dir = str(tmp_path / "db")
        write_reference_index(db_dir, [digest_for(1), digest_for(2)])
        store.register_database(db_dir)
        store.gc(max_bytes=100)
        assert store.lookup(digest_for(1)) is not None
        assert store.lookup(digest_for(2)) is None

    def test_gc_report_is_machine_readable(self, store):
        report = store.gc()
        payload = json.loads(json.dumps(report.to_dict()))
        for key in (
            "referenced", "scanned_entries", "swept_entries",
            "lru_evicted_entries", "remaining_bytes", "stale_pools_removed",
            "registered_databases", "unreadable_indexes",
        ):
            assert key in payload


class TestChainedFallbackOrder:
    """A body store with the pool in front of its sidecar: lookups try
    the pool, then the sidecar; every body flows to both layers."""

    def make_store(self, pool, digests):
        store = CompiledBodyStore(vm_version=VM_VERSION, pool=pool)
        for digest in digests:
            store.entries[digest] = blob_for("private-" + digest)
        return store

    def test_shared_serves_before_private(self, store):
        digest = digest_for(1)
        store.publish({digest: blob_for("shared")})
        bodies = self.make_store(store, [digest])
        code = bodies.lookup_code(digest)
        namespace = {}
        exec(code, namespace)
        assert namespace["_make"]() == "shared"
        assert bodies.host.shared_hits == 1
        assert bodies.host.shared_misses == 0

    def test_private_answers_a_shared_miss_and_heals_the_pool(self, store):
        digest = digest_for(2)
        bodies = self.make_store(store, [digest])
        code = bodies.lookup_code(digest)
        assert code is not None
        assert bodies.host.shared_hits == 0
        assert bodies.host.shared_misses == 1
        # The sidecar hit is owed to the pool, and the write-back
        # publishes it.
        assert digest in bodies.pending
        bodies.write_back()
        assert store.lookup(digest) == bodies.entries[digest]
        assert not bodies.pending and bodies.host.shared_publishes == 1

    def test_chained_miss_returns_none(self, store):
        bodies = self.make_store(store, [])
        assert bodies.lookup_code(digest_for(3)) is None
        assert bodies.host.shared_misses == 1

    def test_shared_hit_feeds_the_private_reference_index(self, store):
        digest = digest_for(4)
        store.publish({digest: blob_for("pool")})
        bodies = self.make_store(store, [])
        assert bodies.lookup_code(digest) is not None
        # The database's own sidecar learned the body: it is now both a
        # local fallback and a gc mark root for this digest.  The pool
        # already holds it: it is touched, not owed.
        assert digest in bodies.entries and bodies.dirty
        assert digest in bodies.touched and digest not in bodies.pending

    def test_record_bytes_feeds_both_layers(self, store):
        bodies = self.make_store(store, [])
        bodies.record_bytes(digest_for(5), b"fresh")
        assert bodies.entries == {digest_for(5): b"fresh"}
        assert bodies.pending == {digest_for(5): b"fresh"}
        assert bodies.dirty and bodies.new_entries == 1

    def test_works_without_private_layer(self, store):
        """A store serving the pool alone (its sidecar could not be
        read) revives from the pool and publishes, but saves no sidecar."""
        digest = digest_for(6)
        store.publish({digest: blob_for("only-shared")})
        bodies = self.make_store(store, [])
        assert bodies.database is None
        assert bodies.lookup_code(digest) is not None
        assert bodies.lookup_code(digest_for(7)) is None
        bodies.record_bytes(digest_for(7), blob_for("fresh"))
        bodies.write_back()
        assert store.lookup(digest_for(7)) == blob_for("fresh")
        assert not bodies.host.sidecar_written and bodies.dirty

    def test_unmarshalable_pool_blob_falls_through(self, store):
        digest = digest_for(8)
        store.publish({digest: b"\x00not marshal\xff"})
        bodies = self.make_store(store, [digest])
        assert bodies.lookup_code(digest) is not None  # sidecar answered
        assert bodies.host.shared_hits == 0

    def test_readonly_write_back_only_refreshes_stamps(self, store, tmp_path):
        digest = digest_for(9)
        store.clock = iter([100, 200]).__next__
        store.publish({digest: blob_for("pool")})  # t=100
        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        bodies = self.make_store(store, [digest_for(10)])
        bodies.database = db
        assert bodies.lookup_code(digest) is not None
        assert bodies.lookup_code(digest_for(10)) is not None
        bodies.write_back(readonly=True)  # t=200
        assert store._load_shard(shard_prefix(digest))[digest][1] == 200
        assert store.lookup(digest_for(10)) is None
        assert bodies.pending == {digest_for(10): bodies.entries[digest_for(10)]}
        assert not os.path.exists(os.path.join(db.directory, SIDECAR_NAME))
        assert bodies.host.shared_touch_refreshes == 1


class TestEndToEnd:
    def test_db_a_warms_db_b(self, tmp_path):
        """The acceptance scenario: a database that never ran a workload
        performs zero host compile()s because another database on the
        host already published the bodies."""
        workload = mini_workload()
        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        db_a = CacheDatabase(str(tmp_path / "db-a"), shared_store=store)
        cold = compiled_run(workload, "a", db_a)
        assert cold.persistence_report["shared_store_state"] == "attached"
        assert cold.persistence_report["shared_publishes"] > 0
        assert cold.persistence_report["sidecar_host_compiles"] > 0

        db_b = CacheDatabase(str(tmp_path / "db-b"), shared_store=store)
        warm = compiled_run(workload, "a", db_b)
        assert warm.persistence_report["shared_hits"] > 0
        assert warm.persistence_report["sidecar_host_compiles"] == 0
        # DB-B never saw the workload: it still translates (cold trace
        # cache) but revives every compiled body from the pool.
        assert warm.stats.traces_translated > 0
        assert (warm.output, warm.exit_status) == (cold.output, cold.exit_status)

    def test_shared_store_is_observably_inert(self, tmp_path):
        """Attaching the store must not move anything the simulation
        observes — it is host-side memoization, like the sidecar."""
        workload = mini_workload()
        signatures = {}
        for flag in (True, False):
            store = (
                SharedBodyStore(
                    str(tmp_path / ("s%s" % flag)), vm_version=VM_VERSION
                )
                if flag else None
            )
            db = CacheDatabase(
                str(tmp_path / ("db-%s" % flag)), shared_store=store
            )
            signatures[flag] = [
                observable(compiled_run(workload, "a", db)) for _ in range(2)
            ]
        assert signatures[True] == signatures[False]

    def test_gc_then_revive_recovers_via_private_sidecar(self, tmp_path):
        """A pool swept out from under a database degrades to the
        private sidecar — still zero host compiles."""
        workload = mini_workload()
        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        compiled_run(workload, "a", db)
        # Unregister-by-wipe: nuke the pool entirely.
        import shutil

        shutil.rmtree(os.path.join(store.directory, BODIES_DIR))
        warm = compiled_run(workload, "a", db)
        assert warm.persistence_report["shared_hits"] == 0
        assert warm.persistence_report["sidecar_hits"] > 0
        assert warm.persistence_report["sidecar_host_compiles"] == 0
        # ... and the private hits healed the pool for the next database.
        assert warm.persistence_report["shared_publishes"] > 0

    def test_stale_store_object_is_not_attached(self, tmp_path):
        workload = mini_workload()
        store = SharedBodyStore(
            str(tmp_path / "store"), vm_version="repro-dbi-99.0.0"
        )
        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        result = compiled_run(workload, "a", db)
        assert result.persistence_report["shared_store_state"] == "stale-vm"
        assert result.persistence_report["shared_publishes"] == 0

    @pytest.mark.parametrize(
        "foreign",
        [marshal.dumps(compile("x = 1", "<foreign>", "exec")),
         b"\x00not marshal\xff"],
        ids=["no-factory", "unmarshalable"],
    )
    def test_rejected_pool_body_is_replaced(self, tmp_path, foreign):
        """A pooled blob the run cannot revive (it defines no factory, or
        does not unmarshal) is a shared miss and is not touched.  A
        read-only run leaves it; a writing run publishes the body bound
        in its place over it, so only that database's first run
        host-compiles it."""
        workload = mini_workload()
        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        store.clock = itertools.count(1000).__next__
        compiled_run(workload, "a", CacheDatabase(
            str(tmp_path / "donor"), shared_store=store
        ))
        pooled = shard_snapshot(store)
        digest = min(pooled)
        prefix = shard_prefix(digest)
        entries = dict(store._load_shard(prefix))
        entries[digest] = (foreign, entries[digest][1])
        store._write_shard(prefix, entries)

        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        reader = compiled_run(workload, "a", db, readonly=True).host
        assert (reader.host_compiles, reader.shared_hits) == (
            1, len(pooled) - 1
        )
        assert store._load_shard(prefix)[digest] == entries[digest]

        runs = [compiled_run(workload, "a", db).host for _ in range(3)]
        assert [host.host_compiles for host in runs] == [1, 0, 0]
        assert [host.shared_hits for host in runs] == [
            len(pooled) - 1, len(pooled), len(pooled)
        ]
        namespace = {}
        exec(marshal.loads(store.lookup(digest)), namespace)
        assert "_make" in namespace


def shard_snapshot(store):
    """Every digest in the pool -> (blob bytes, LRU stamp)."""
    out = {}
    for prefix in store._shard_prefixes():
        for digest, record in store._load_shard(prefix).items():
            out[digest] = (len(record[0]), record[1])
    return out


class TestReadOnlyLruProtection:
    def test_readonly_consumer_touch_protects_working_set(self, tmp_path):
        """A read-only consumer's hot bodies must not starve under the
        LRU cap.

        Read-only write-back used to return before any publish, so a
        consumer's shared hits never refreshed their LRU stamps: its
        working set kept the stamps of whoever published it and was
        evicted *first* by ``gc --max-bytes``, precisely backwards.
        Now the read-only path publishes touch-only stamp refreshes (no
        bodies, no sidecar write), so recently *used* beats recently
        *published*.
        """
        workload = mini_workload()
        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        current = [1000]
        store.clock = lambda: current[0]

        # Donor X publishes working set A (input "a") at t=1000.
        db_x = CacheDatabase(str(tmp_path / "db-x"), shared_store=store)
        compiled_run(workload, "a", db_x)
        set_a = set(shard_snapshot(store))

        # Donor Y publishes working set B (input "b") at t=2000.
        current[0] = 2000
        db_y = CacheDatabase(str(tmp_path / "db-y"), shared_store=store)
        compiled_run(workload, "b", db_y)
        set_b_only = set(shard_snapshot(store)) - set_a
        assert set_b_only  # the two working sets genuinely differ

        # Read-only consumer re-runs input "a" at t=3000: every body it
        # revives gets a touch-only stamp refresh, nothing else.
        current[0] = 3000
        consumer_dir = str(tmp_path / "db-c")
        db_c = CacheDatabase(consumer_dir, shared_store=store)
        warm = compiled_run(workload, "a", db_c, readonly=True)
        report = warm.persistence_report
        assert report["shared_hits"] > 0
        assert report["sidecar_host_compiles"] == 0
        assert report["shared_touch_refreshes"] > 0
        # Read-only means read-only: the consumer database wrote no
        # sidecar (its revives must not turn into local state).
        assert not os.path.exists(os.path.join(consumer_dir, SIDECAR_NAME))

        stamps = shard_snapshot(store)
        assert all(stamps[d][1] == 3000 for d in set_a)

        # Cap the pool at exactly the consumer's working set: the LRU
        # must shed donor Y's unused bodies (t=2000), not set A.
        bytes_a = sum(stamps[d][0] for d in set_a)
        gc_report = store.gc(max_bytes=bytes_a)
        assert gc_report.lru_evicted_entries > 0
        remaining = set(shard_snapshot(store))
        assert set_a <= remaining
        assert not (set_b_only & remaining)

    @pytest.mark.parametrize("step", [0, 1],
                             ids=["same-second", "a-second-apart"])
    def test_touch_count_does_not_read_the_clock(self, tmp_path, step):
        """A read-only run counts every pooled body it revived as
        refreshed, whether or not the whole-second stamp moved, so a
        donor and two consumers read 0, n, n at any clock; a shard is
        rewritten only when a stamp changes."""
        workload = mini_workload()
        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        store.clock = itertools.count(1000, step).__next__
        runs = [compiled_run(workload, "a", CacheDatabase(
            str(tmp_path / "donor"), shared_store=store
        ))]
        writes = []
        write_shard = store._write_shard
        store._write_shard = lambda prefix, entries: (
            writes.append(prefix), write_shard(prefix, entries)
        )
        for name in ("y", "z"):
            db = CacheDatabase(str(tmp_path / name), shared_store=store)
            runs.append(compiled_run(workload, "a", db, readonly=True))
        touched = runs[1].host.shared_hits
        assert touched > 0
        assert [run.host.shared_touch_refreshes for run in runs] == [
            0, touched, touched
        ]
        assert bool(writes) == bool(step)


class TestGuiConsumers:
    """Cross-application reuse on the GUI corpus, at compile threshold
    32: at the default a start-up's traces run too few times to
    host-compile, so no app would pool a body.  The five ``startup``
    donors fill one pool; each app then runs against a never-warmed
    read-only consumer database, without the pool (``isolated``) and
    with it (``shared``).  Counts are summed over the five apps."""

    CONFIG = VMConfig(compile_threshold=BIND_THRESHOLD)

    @pytest.fixture(scope="class")
    def legs(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("gui-consumers")
        store = SharedBodyStore(str(root / "store"), vm_version=VM_VERSION)
        apps, _libraries = build_gui_suite()
        for name, app in sorted(apps.items()):
            donor = CacheDatabase(str(root / ("donor-" + name)),
                                  shared_store=store)
            run_vm(app, "startup",
                   persistence=PersistenceConfig(database=donor),
                   vm_config=self.CONFIG)
        legs = {"isolated": [], "shared": []}
        for name, app in sorted(apps.items()):
            for leg, pool in (("isolated", None), ("shared", store)):
                consumer = CacheDatabase(str(root / ("consumer-" + name)),
                                         shared_store=pool)
                legs[leg].append(run_vm(
                    app, "startup", persistence=PersistenceConfig(
                        database=consumer, readonly=True
                    ),
                    vm_config=self.CONFIG,
                ))
        return legs

    def test_pool_is_observably_inert(self, legs):
        assert ([observable(result) for result in legs["shared"]]
                == [observable(result) for result in legs["isolated"]])

    @staticmethod
    def total(legs, leg, counter):
        return sum(getattr(result.host, counter) for result in legs[leg])

    def test_isolated_consumers_pay_host_compiles(self, legs):
        assert self.total(legs, "isolated", "host_compiles") > 0

    def test_pooled_consumers_pay_no_host_compiles(self, legs):
        """Attached to the pool, the same runs compile nothing: the
        pool serves every body they tier up."""
        assert self.total(legs, "shared", "host_compiles") == 0

    def test_pooled_consumers_revive_from_the_pool(self, legs):
        assert self.total(legs, "shared", "shared_hits") > 0


class TestCli:
    def test_cache_gc_json_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        store.publish({digest_for(1): b"one"})
        exit_code = main(["cache", "gc", store.directory, "--json"])
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["swept_entries"] == 1  # nothing registered

    def test_cache_gc_registers_extra_databases(self, tmp_path, capsys):
        from repro.cli import main

        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        store.publish({digest_for(1): b"referenced-" + digest_for(1).encode()})
        db_dir = str(tmp_path / "db")
        write_reference_index(db_dir, [digest_for(1)])
        exit_code = main(
            ["cache", "gc", store.directory, "--db", db_dir, "--json"]
        )
        assert exit_code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["referenced"] == 1
        assert payload["swept_entries"] == 0

    def test_cache_fsck_on_store_clean_and_damaged(self, tmp_path, capsys):
        from repro.cli import main

        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        store.publish({digest_for(1): b"one"})
        assert main(["cache", "fsck", store.directory]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "clean" in out
        # Flip a byte in the shard: fsck must report damage and exit 1.
        path = store.shard_path(shard_prefix(digest_for(1)))
        blob = bytearray(open(path, "rb").read())
        blob[-2] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert main(["cache", "fsck", store.directory]) == 1
        assert "corrupt" in capsys.readouterr().out

    def test_cache_fsck_quarantines_damaged_shard(self, tmp_path, capsys):
        from repro.cli import main

        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        store.publish({digest_for(1): b"one"})
        path = store.shard_path(shard_prefix(digest_for(1)))
        blob = bytearray(open(path, "rb").read())
        blob[5] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        assert main(["cache", "fsck", store.directory, "--quarantine"]) == 1
        assert "quarantined:" in capsys.readouterr().out
        assert not os.path.exists(path)
        assert os.listdir(os.path.join(store.directory, QUARANTINE_DIR))

    def test_run_attaches_a_plain_directory_as_the_store(
        self, tmp_path, capsys
    ):
        """``repro run --shared-store DIR`` publishes into shard files at
        DIR, and fsck reads them back clean."""
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        assert main(["run", "spec", "164.gzip", "ref-1", "--pcache",
                     str(tmp_path / "db"), "--shared-store", store_dir]) == 0
        out = capsys.readouterr().out
        assert host_value(out, "shared_store_state") == "attached"
        assert is_shared_store(store_dir)
        store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        assert store.total_entries() > 0
        assert store.fsck().clean

    def test_fsck_notes_stale_pool(self, tmp_path, capsys):
        from repro.cli import main

        old = SharedBodyStore(str(tmp_path / "store"), vm_version="old-vm")
        old.publish({digest_for(1): b"one"})
        assert main(["cache", "fsck", str(tmp_path / "store")]) == 0
        out = capsys.readouterr().out
        assert "note:" in out and "stale-keytag" in out
