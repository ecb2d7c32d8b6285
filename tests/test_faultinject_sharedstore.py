"""Fault injection against the per-host shared compiled-body store.

The shared store sits one layer further from the simulation than the
private sidecar, so its containment contract is the strictest in the
repo: any induced fault — flipped bytes, truncation, unreadable shards,
``ENOSPC`` at every write point, a crash between tmp write and rename —
must at worst quarantine the damaged shard, degrade the revive chain
(shared store → private sidecar → host compile), and leave the
simulated run bit-for-bit identical.  A shared-store fault must never
corrupt or even touch a consuming database.
"""

import errno
import os

import pytest

from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.sidecar import SIDECAR_NAME
from repro.persist.sharedstore import (
    BODIES_DIR,
    QUARANTINE_DIR,
    SharedBodyStore,
)
from repro.testing.faultfs import (
    FaultPlan,
    FaultyStorage,
    SimulatedCrash,
    flip_byte,
    truncate_file,
)
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VM_VERSION, VMConfig
from repro.workloads.harness import run_vm

from tests.test_persist_manager import mini_workload

pytestmark = pytest.mark.faultinject


def observable(result):
    """Everything the simulation observes; faults must never move it."""
    return (
        result.output,
        result.exit_status,
        result.instructions,
        vars(result.stats),
    )


@pytest.fixture
def workload():
    return mini_workload()


def compiled_run(workload, input_name, db, **kwargs):
    return run_vm(
        workload,
        input_name,
        persistence=PersistenceConfig(database=db, **kwargs),
        vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
    )


def make_store(directory, storage=None):
    return SharedBodyStore(str(directory), vm_version=VM_VERSION, storage=storage)


def seed_pool(workload, tmp_path):
    """Cold-run a donor database so the pool holds real bodies.

    Returns ``(store_dir, cold_reference, warm_reference)`` — the
    healthy observables for a database's first (translating) and second
    (trace-cache-warm) runs; faulted runs of the matching temperature
    must reproduce them bit-for-bit.
    """
    store = make_store(tmp_path / "store")
    donor = CacheDatabase(str(tmp_path / "donor"), shared_store=store)
    clear_code_object_cache()
    cold = compiled_run(workload, "a", donor)
    assert cold.persistence_report["shared_publishes"] > 0
    clear_code_object_cache()
    warm = compiled_run(workload, "a", donor)
    assert warm.persistence_report["sidecar_host_compiles"] == 0
    return str(tmp_path / "store"), observable(cold), observable(warm)


def pool_shards(store_dir):
    store = make_store(store_dir)
    pool = store._pool_dir()
    return [
        os.path.join(pool, name)
        for name in sorted(os.listdir(pool))
        if name.endswith(".pcs")
    ]


class TestDamageReachesTheRegistry:
    def test_every_damaged_shard_is_reported(self, workload, tmp_path):
        """A consumer whose every shard is damaged runs on host
        compiles, and its ``HostStats`` names each quarantined shard and
        why -- even though the store stays attached and no storage error
        degrades the run."""
        store_dir, reference, _warm = seed_pool(workload, tmp_path)
        shards = pool_shards(store_dir)
        for shard in shards:
            flip_byte(shard, os.path.getsize(shard) // 2)
        consumer = CacheDatabase(
            str(tmp_path / "consumer"), shared_store=make_store(store_dir)
        )
        clear_code_object_cache()
        run = compiled_run(workload, "a", consumer)

        assert observable(run) == reference
        host = run.host
        assert host.shared_store_state == "attached"
        assert host.storage_errors == 0 and host.host_compiles > 0
        quarantined = [
            (name, reason) for kind, name, reason in host.events
            if kind == "quarantine"
        ]
        assert sorted(name.rsplit("-", 1)[1] for name, _ in quarantined) == [
            os.path.basename(shard) for shard in shards
        ]
        assert all(reason.startswith("damaged ") for _, reason in quarantined)


class TestDamagedShardReads:
    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_quarantines_shard_and_degrades_to_host_compile(
        self, damage, workload, tmp_path
    ):
        store_dir, reference, _warm = seed_pool(workload, tmp_path)
        shards = pool_shards(store_dir)
        victim = shards[0]
        if damage == "flip":
            flip_byte(victim, os.path.getsize(victim) // 2)
        else:
            truncate_file(victim, os.path.getsize(victim) // 2)

        store = make_store(store_dir)
        consumer = CacheDatabase(str(tmp_path / "consumer"), shared_store=store)
        clear_code_object_cache()
        run = compiled_run(workload, "a", consumer)

        report = run.persistence_report
        # The consumer has no private sidecar yet, so the damaged
        # shard's bodies fell through to host compile()s; every other
        # shard still served.
        assert report["shared_store_state"] == "attached"
        if len(shards) > 1:
            assert report["shared_hits"] > 0
        assert report["sidecar_host_compiles"] > 0
        # Bit-for-bit identical simulation regardless.
        assert observable(run) == reference
        # Only the damaged shard was quarantined (moved, not deleted) —
        # and the same run's write-back may already have republished the
        # recompiled bodies into a fresh, valid shard at the same path.
        quarantine = os.path.join(store_dir, QUARANTINE_DIR)
        assert len(os.listdir(quarantine)) == 1
        for survivor in shards[1:]:
            assert os.path.exists(survivor)
        # ...the consumer database itself is pristine — no quarantine
        # directory, no degradation.
        assert not os.path.isdir(
            os.path.join(str(tmp_path / "consumer"), "quarantine")
        )
        assert report["degraded_reason"] == ""
        # ...and the session's write-back healed the pool: the next
        # cold consumer revives everything with zero host compiles.
        clear_code_object_cache()
        healed = compiled_run(
            workload, "a",
            CacheDatabase(str(tmp_path / "consumer2"), shared_store=make_store(store_dir)),
        )
        assert healed.persistence_report["sidecar_host_compiles"] == 0
        assert observable(healed) == reference

    def test_flips_across_a_shard_never_escape(self, workload, tmp_path):
        """Sampled byte flips at every region of a shard: lookups must
        miss cleanly (never raise, never return garbage the chain would
        exec) and the run must stay identical, whatever offset is hit."""
        store_dir, reference, _warm = seed_pool(workload, tmp_path)
        victim = pool_shards(store_dir)[0]
        pristine = open(victim, "rb").read()
        size = len(pristine)
        for offset in range(0, size, max(1, size // 17)):
            with open(victim, "wb") as handle:
                handle.write(pristine)
            flip_byte(victim, offset)
            store = make_store(store_dir)
            consumer_dir = str(tmp_path / ("consumer-%d" % offset))
            clear_code_object_cache()
            run = compiled_run(
                workload, "a",
                CacheDatabase(consumer_dir, shared_store=store),
            )
            assert observable(run) == reference, offset
            assert store.quarantined_count == 1, offset
        # Restore for any later assertions on the directory.
        with open(victim, "wb") as handle:
            handle.write(pristine)

    def test_unreadable_shards_degrade_to_private_sidecar(
        self, workload, tmp_path
    ):
        """EIO on every shard read: the shared layer misses, the private
        sidecar serves, zero host compiles on a warmed database."""
        store_dir, _cold, reference = seed_pool(workload, tmp_path)
        # Warm a consumer so its private sidecar references everything.
        warm_db_dir = str(tmp_path / "consumer")
        clear_code_object_cache()
        compiled_run(
            workload, "a",
            CacheDatabase(warm_db_dir, shared_store=make_store(store_dir)),
        )
        faulted = make_store(
            store_dir,
            storage=FaultyStorage(FaultPlan(fail_reads=True, match=BODIES_DIR)),
        )
        clear_code_object_cache()
        run = compiled_run(
            workload, "a", CacheDatabase(warm_db_dir, shared_store=faulted)
        )
        report = run.persistence_report
        assert report["shared_hits"] == 0
        assert report["shared_misses"] > 0
        assert report["sidecar_hits"] > 0
        assert report["sidecar_host_compiles"] == 0
        assert observable(run) == reference
        # IO errors are events, not quarantines — the shards are fine.
        assert faulted.quarantined_count == 0
        assert any(kind == "io-error" for kind, _, _ in faulted.events)

    def test_full_degradation_chain_shared_private_compile(
        self, workload, tmp_path
    ):
        """Damage the pool AND delete the private sidecar: the chain
        bottoms out at host compile with identical observables."""
        store_dir, _cold, reference = seed_pool(workload, tmp_path)
        warm_db_dir = str(tmp_path / "consumer")
        clear_code_object_cache()
        compiled_run(
            workload, "a",
            CacheDatabase(warm_db_dir, shared_store=make_store(store_dir)),
        )
        for shard in pool_shards(store_dir):
            truncate_file(shard, os.path.getsize(shard) // 3)
        os.remove(os.path.join(warm_db_dir, SIDECAR_NAME))
        clear_code_object_cache()
        run = compiled_run(
            workload, "a",
            CacheDatabase(warm_db_dir, shared_store=make_store(store_dir)),
        )
        report = run.persistence_report
        assert report["shared_hits"] == 0
        assert report["sidecar_hits"] == 0
        assert report["sidecar_host_compiles"] > 0
        assert observable(run) == reference
        # The compile results healed both layers for the next session.
        assert report["shared_publishes"] > 0
        assert report["sidecar_written"]


class TestFaultedWrites:
    def test_enospc_at_sampled_publish_write_points(self, workload, tmp_path):
        """Sweep "disk fills up at write N" across the publish: every
        failure point must be report-only for the session, leave prior
        shards intact, and leave the store serving exact-bytes-or-miss.

        The plan's write counter is sticky (write N and everything after
        it fails), so each sampled point models a genuinely full disk
        from that moment on — the harshest ENOSPC shape.
        """
        import shutil

        store_dir, reference, _warm = seed_pool(workload, tmp_path)
        healthy = make_store(store_dir)
        before = {
            digest: healthy.lookup(digest)
            for shard in pool_shards(store_dir)
            for digest in healthy._load_shard(
                os.path.basename(shard)[: -len(".pcs")]
            )
        }
        assert before
        # Count the publish's write calls with a fault-free plan, then
        # sample ~10 failure points across that range (chunked writes
        # make an exhaustive per-call sweep needlessly slow).  Each
        # sample runs against a fresh clone of the seeded pool so its
        # publish of the "b" bodies genuinely writes every time.
        counting = FaultyStorage(FaultPlan())
        count_dir = str(tmp_path / "store-count")
        shutil.copytree(store_dir, count_dir)
        clear_code_object_cache()
        baseline = compiled_run(
            workload, "b",  # new input: fresh bodies force a publish
            CacheDatabase(
                str(tmp_path / "consumer-count"),
                shared_store=make_store(count_dir, storage=counting),
            ),
        )
        assert baseline.persistence_report["shared_publishes"] > 0
        total_writes = counting.op_counts.get("write", 0)
        assert total_writes > 0
        stride = max(1, total_writes // 10)
        failed_points = 0
        for call in range(1, total_writes + 1, stride):
            clone_dir = str(tmp_path / ("store-%d" % call))
            shutil.copytree(store_dir, clone_dir)
            storage = FaultyStorage(
                FaultPlan(
                    fail_write_on_call=call,
                    fail_write_errno=errno.ENOSPC,
                    match=BODIES_DIR,
                )
            )
            store = make_store(clone_dir, storage=storage)
            consumer_dir = str(tmp_path / ("consumer-%d" % call))
            clear_code_object_cache()
            run = compiled_run(
                workload, "b",
                CacheDatabase(consumer_dir, shared_store=store),
            )
            report = run.persistence_report
            assert run.exit_status == 0, call
            # The private sidecar write-back is independent and healthy.
            assert report["sidecar_written"], call
            if report["shared_store_state"].startswith("write-error"):
                failed_points += 1
            else:
                assert report["shared_store_state"] == "attached", call
            # Every previously published body still reads back exactly.
            check = make_store(clone_dir)
            for digest, blob in before.items():
                assert check.lookup(digest) == blob, (call, digest)
        assert failed_points > 0  # the sweep hit real failing points

    def test_crash_before_rename_leaves_old_shard_valid(
        self, workload, tmp_path
    ):
        store_dir, reference, _warm = seed_pool(workload, tmp_path)
        shards = pool_shards(store_dir)
        pristine = {path: open(path, "rb").read() for path in shards}
        storage = FaultyStorage(
            FaultPlan(crash_before_rename=True, match=BODIES_DIR)
        )
        store = make_store(store_dir, storage=storage)
        clear_code_object_cache()
        with pytest.raises(SimulatedCrash):
            compiled_run(
                workload, "b",
                CacheDatabase(str(tmp_path / "consumer"), shared_store=store),
            )
        # Every pre-crash shard is untouched (rename never happened); a
        # .tmp may remain, exactly like a real crash.
        for path, blob in pristine.items():
            assert open(path, "rb").read() == blob
        # The next process runs completely normally from the old pool.
        clear_code_object_cache()
        recovered = compiled_run(
            workload, "a",
            CacheDatabase(str(tmp_path / "consumer2"), shared_store=make_store(store_dir)),
        )
        assert recovered.persistence_report["sidecar_host_compiles"] == 0
        assert observable(recovered) == reference
        # fsck flags the leftover tmp as a note, not damage.
        report = make_store(store_dir).fsck()
        assert report.clean

    def test_registry_write_failure_is_contained(self, workload, tmp_path):
        """A database that cannot register still runs normally — it just
        is not a gc mark root until a later attach succeeds."""
        storage = FaultyStorage(
            FaultPlan(
                fail_write_on_call=1,
                fail_write_errno=errno.EACCES,
                match="registry.json",
            )
        )
        store = make_store(tmp_path / "store", storage=storage)
        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        assert any(kind == "io-error" for kind, _, _ in db.events)
        clear_code_object_cache()
        run = compiled_run(workload, "a", db)
        assert run.exit_status == 0
        assert run.persistence_report["shared_store_state"] == "attached"
        assert store.registered_databases() == []


class TestGcUnderFaults:
    def test_gc_with_unreadable_reference_index_sweeps_nothing_referenced(
        self, workload, tmp_path
    ):
        """If a registered database's sidecar cannot be read, gc loses
        its mark set for that database — the failure mode must be
        "report it, sweep nothing extra from certainty", i.e. the
        unreadable index contributes an empty set and is listed."""
        store_dir, _cold, _warm = seed_pool(workload, tmp_path)
        store = make_store(store_dir)
        store.register_database(str(tmp_path / "donor"))
        faulted = make_store(
            store_dir,
            storage=FaultyStorage(
                FaultPlan(fail_reads=True, match=SIDECAR_NAME)
            ),
        )
        report = faulted.gc()
        assert report.unreadable_indexes == [
            os.path.abspath(str(tmp_path / "donor"))
        ]
        # The sweep proceeded with what it knew: bodies the unreadable
        # index referenced were swept (cost: recompiles, never damage) —
        # and the store stays structurally clean.
        assert make_store(store_dir).fsck().clean

    def test_gc_write_failure_leaves_shard_serving(self, tmp_path):
        """ENOSPC during a sweep's shard rewrite: the atomic
        write-replace never renamed, so the shard keeps serving its
        pre-gc content exactly."""
        from tests.test_sharedstore import write_reference_index

        store = make_store(tmp_path / "store")
        kept_digest = "aa" + "0" * 62
        swept_digest = "aa" + "1" * 62  # same shard: forces a rewrite
        store.publish({kept_digest: b"kept-body", swept_digest: b"garbage"})
        db_dir = str(tmp_path / "db")
        write_reference_index(db_dir, [kept_digest])
        store.register_database(db_dir)
        faulted = make_store(
            str(tmp_path / "store"),
            storage=FaultyStorage(
                FaultPlan(
                    fail_write_on_call=1,
                    fail_write_errno=errno.ENOSPC,
                    match=BODIES_DIR,
                )
            ),
        )
        with pytest.raises(OSError):
            faulted.gc()  # partial keep rewrites the shard -> ENOSPC
        check = make_store(str(tmp_path / "store"))
        assert check.lookup(kept_digest) == b"kept-body"
        assert check.lookup(swept_digest) == b"garbage"  # sweep never landed
        assert check.fsck().clean
