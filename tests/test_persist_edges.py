"""Edge-case tests for persistence sessions and accumulation semantics."""

import pytest

from repro.loader.layout import PerturbedLayout
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.vm.engine import VMConfig
from repro.workloads.harness import run_vm

from tests.test_persist_manager import mini_workload, persisted_run


@pytest.fixture
def workload():
    return mini_workload()


@pytest.fixture
def db(tmp_path):
    return CacheDatabase(str(tmp_path / "db"))


class TestSessionLifecycle:
    def test_sessions_are_single_use(self, workload, db):
        """A session carries per-run state; the harness creates a fresh one
        per run, and reusing one would double-count. This test locks the
        harness behaviour: two runs through run_vm are independent."""
        first = persisted_run(workload, "a", db)
        second = persisted_run(workload, "a", db)
        assert first.persistence_report["preloaded"] == 0
        assert second.persistence_report["preloaded"] > 0

    def test_report_shape_stable(self, workload, db):
        """``persistence_report`` is ``HostStats.to_dict()`` plus the
        session report's two names for the compiler's revive and compile
        counts."""
        report = persisted_run(workload, "a", db).persistence_report
        expected_keys = {
            "ic.hits", "ic.misses", "ic.fills", "ic.resets", "ic.hit_rate",
            "links.link_direct_hops", "links.link_ic_hops",
            "links.link_bounces", "links.regions_fused",
            "links.region_entries", "links.region_hops",
            "links.fusion_aborts", "links.chained_exits",
            "cache.traces_inserted", "cache.flushes", "cache.link_patches",
            "cache.lookups", "cache.hits", "cache.regions_registered",
            "cache.region_invalidations",
            "compiles", "regions_compiled", "memo_hits", "host_compiles",
            "body_hits", "shared_hits", "shared_misses",
            "cache_found", "source_app", "preloaded", "invalidated",
            "rebased", "retained_unloaded", "version_conflict",
            "new_traces_persisted", "written", "total_traces_after_write",
            "key_checks", "unbacked_skipped", "cache_quarantined",
            "fallback_jit_only", "degraded_reason", "storage_errors",
            "sidecar_state", "sidecar_entries", "sidecar_written",
            "sidecar_new_entries",
            "shared_store_state", "shared_publishes",
            "shared_touch_refreshes",
            "record_state", "record_events", "record_log",
            "replay_state", "replay_events", "events",
            "sidecar_hits", "sidecar_host_compiles",
        }
        assert set(report) == expected_keys


class TestAccumulationEdges:
    def test_three_way_accumulation_is_input_order_independent(
        self, workload, tmp_path
    ):
        """The accumulated cache's trace-identity set is the union of the
        runs' footprints regardless of run order."""
        footprints = {}
        for order_name, order in (
            ("ab", ["a", "b"]), ("ba", ["b", "a"])
        ):
            db = CacheDatabase(str(tmp_path / order_name))
            for input_name in order:
                persisted_run(workload, input_name, db)
            entry = db.entries()[0]
            import os
            from repro.persist.cachefile import PersistentCache

            cache = PersistentCache.load(
                os.path.join(db.directory, entry.filename)
            )
            footprints[order_name] = cache.trace_identities()
        assert footprints["ab"] == footprints["ba"]

    def test_generation_counter_advances(self, workload, db, tmp_path):
        import os
        from repro.persist.cachefile import PersistentCache

        persisted_run(workload, "a", db)
        persisted_run(workload, "b", db)

        entry = db.entries()[0]
        cache = PersistentCache.load(os.path.join(db.directory, entry.filename))
        assert cache.generation >= 2

    def test_idempotent_rerun_skips_write(self, workload, db):
        persisted_run(workload, "a", db)
        entry_before = db.entries()[0]
        warm = persisted_run(workload, "a", db)
        # Nothing new: the manager skips the disk write entirely.
        assert not warm.persistence_report["written"]
        assert db.entries()[0].filename == entry_before.filename


class TestRelocationEdges:
    def test_full_cycle_relocate_then_return(self, workload, db):
        """Layout moves away and back: the cache follows the latest layout
        and keeps working at every step."""
        base_run = persisted_run(workload, "a", db)
        moved = run_vm(workload, "a",
                       persistence=PersistenceConfig(database=db),
                       layout=PerturbedLayout(9))
        assert moved.persistence_report["invalidated"] > 0
        # The write-back refreshed keys to the perturbed layout...
        back = run_vm(workload, "a",
                      persistence=PersistenceConfig(database=db))
        # ...so returning to the fixed layout invalidates again but still
        # executes correctly and re-accumulates.
        assert back.exit_status == base_run.exit_status
        final = run_vm(workload, "a",
                       persistence=PersistenceConfig(database=db))
        assert final.stats.traces_translated == 0

    def test_pic_survives_arbitrary_layout_hops(self, workload, db):
        seeds = [None, 3, 11, None, 7]
        for index, seed in enumerate(seeds):
            layout = PerturbedLayout(seed) if seed is not None else None
            result = run_vm(
                workload, "a",
                persistence=PersistenceConfig(database=db, relocatable=True),
                layout=layout,
            )
            assert result.exit_status == 0
            if index > 0:
                assert result.stats.traces_translated == 0, (index, seed)


class TestFlushWithPersistence:
    def test_flush_during_preloaded_run(self, workload, db):
        """A flush discards preloaded traces too; the union survives via
        the flush write-back."""
        persisted_run(workload, "ab", db)
        config = VMConfig(code_pool_bytes=2000, data_pool_bytes=7000)
        squeezed = run_vm(workload, "ab",
                          persistence=PersistenceConfig(database=db),
                          vm_config=config)
        assert squeezed.exit_status == 0
        # Afterwards, an ample run still finds a complete cache.
        final = persisted_run(workload, "ab", db)
        assert final.stats.traces_translated == 0
