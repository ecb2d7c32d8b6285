"""End-to-end tests of the persistent cache manager through the engine.

Each scenario here is one of the paper's §3.2 behaviors: same-input reuse,
key validation and invalidation (rebuilt binaries, relocated libraries,
changed VM/tool), accumulation, write-back on flush, inter-application
reuse, and the position-independent-translation extension.
"""

import pytest

from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.loader.linker import ImageStore
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.tools import BBCountTool
from repro.vm.engine import VMConfig
from repro.workloads.builder import AppBuilder, FeatureBlock, InputSpec
from repro.workloads.corpus import LibrarySpec, build_library
from repro.workloads.harness import Workload, run_vm


def mini_workload(mtime=1, lib_mtime=1, app_path="mini"):
    """A small app with two selectable features and one shared library."""
    lib_spec = LibrarySpec("libmini.so", n_funcs=6, func_size=10, seed=5,
                           mtime=lib_mtime)
    lib = build_library(lib_spec)
    app = AppBuilder(app_path, seed=9, needed=["libmini.so"], mtime=mtime)
    app.add_init_block("boot", size=30, subfunctions=1,
                       library_calls=[lib_spec.init_symbol])
    app.add_feature(FeatureBlock(index=0, size=40, subfunctions=1,
                                 library_calls=("libmini_fn0", "libmini_fn1")))
    app.add_feature(FeatureBlock(index=1, size=40, subfunctions=1,
                                 library_calls=("libmini_fn2",)))
    app.set_hot_kernel(size=10, helpers=1, helper_size=6)
    image = app.build()
    inputs = {
        "a": InputSpec("a", features=frozenset({0}), hot_iterations=30),
        "b": InputSpec("b", features=frozenset({1}), hot_iterations=30),
        "ab": InputSpec("ab", features=frozenset({0, 1}), hot_iterations=30),
    }
    store = ImageStore({lib.path: lib})
    return Workload(name="mini", image=image, store=store, inputs=inputs)


@pytest.fixture
def workload():
    return mini_workload()


@pytest.fixture
def db(tmp_path):
    return CacheDatabase(str(tmp_path / "db"))


def persisted_run(workload, input_name, db, **config_kwargs):
    return run_vm(
        workload,
        input_name,
        persistence=PersistenceConfig(database=db, **config_kwargs),
        layout=config_kwargs.pop("_layout", None),
    )


class TestSameInput:
    def test_second_run_translates_nothing(self, workload, db):
        first = persisted_run(workload, "a", db)
        second = persisted_run(workload, "a", db)
        assert first.stats.traces_translated > 0
        assert second.stats.traces_translated == 0
        assert second.stats.traces_from_persistent == first.stats.traces_translated
        assert second.exit_status == first.exit_status

    def test_second_run_cheaper(self, workload, db):
        first = persisted_run(workload, "a", db)
        second = persisted_run(workload, "a", db)
        assert second.stats.total_cycles < first.stats.total_cycles
        assert second.stats.translation_cycles == 0

    def test_first_run_reports_miss(self, workload, db):
        report = persisted_run(workload, "a", db).persistence_report
        assert not report["cache_found"]
        assert report["written"]

    def test_architectural_equivalence_preserved(self, workload, db):
        baseline = run_vm(workload, "a")
        persisted_run(workload, "a", db)
        warm = persisted_run(workload, "a", db)
        assert warm.instructions == baseline.instructions
        assert warm.output == baseline.output


class TestCrossInputAccumulation:
    def test_cross_input_partial_reuse(self, workload, db):
        persisted_run(workload, "a", db)
        cross = persisted_run(workload, "b", db)
        # Input b shares base + library init + hot kernel with a, but has
        # its own feature code: some reuse, some translation.
        assert cross.stats.traces_from_persistent > 0
        assert cross.stats.traces_translated > 0

    def test_accumulation_completes_footprint(self, workload, db):
        persisted_run(workload, "a", db)
        persisted_run(workload, "b", db)  # accumulates b's new traces
        third = persisted_run(workload, "ab", db)
        assert third.stats.traces_translated == 0

    def test_accumulated_cache_grows(self, workload, db):
        first = persisted_run(workload, "a", db).persistence_report
        second = persisted_run(workload, "b", db).persistence_report
        assert second["total_traces_after_write"] > first["total_traces_after_write"]


class TestInvalidation:
    def test_rebuilt_binary_invalidates(self, db):
        old = mini_workload(mtime=1)
        persisted_run(old, "a", db)
        rebuilt = mini_workload(mtime=2)
        run = persisted_run(rebuilt, "a", db)
        # The app key hash includes mtime: exact lookup misses entirely.
        assert not run.persistence_report["cache_found"]
        assert run.stats.traces_from_persistent == 0

    def test_rebuilt_library_invalidates_its_traces(self, db):
        old = mini_workload(lib_mtime=1)
        first = persisted_run(old, "a", db)
        rebuilt = mini_workload(lib_mtime=2)
        run = persisted_run(rebuilt, "a", db)
        report = run.persistence_report
        assert report["cache_found"]  # app key unchanged
        assert report["invalidated"] > 0
        assert run.stats.traces_from_persistent > 0  # app traces survive
        assert run.stats.traces_translated > 0  # lib re-translated

    def test_relocated_library_invalidates_without_pic(self, workload, db):
        run_vm(workload, "a", persistence=PersistenceConfig(database=db),
               layout=FixedLayout())
        moved = run_vm(
            workload, "a",
            persistence=PersistenceConfig(database=db),
            layout=PerturbedLayout(5),
        )
        report = moved.persistence_report
        assert report["invalidated"] > 0
        assert report["rebased"] == 0
        assert moved.stats.traces_translated > 0

    def test_relocated_library_rebased_with_pic(self, workload, db):
        run_vm(workload, "a",
               persistence=PersistenceConfig(database=db, relocatable=True),
               layout=FixedLayout())
        moved = run_vm(
            workload, "a",
            persistence=PersistenceConfig(database=db, relocatable=True),
            layout=PerturbedLayout(5),
        )
        report = moved.persistence_report
        assert report["rebased"] > 0
        assert moved.stats.traces_translated == 0
        assert moved.exit_status == 0


class TestVersioning:
    def test_tool_mismatch_rejects_cache(self, workload, db):
        persisted_run(workload, "a", db)
        instrumented = run_vm(
            workload, "a",
            tool=BBCountTool(),
            persistence=PersistenceConfig(database=db),
        )
        # Different tool key: exact lookup misses (filed under another
        # tool digest), so everything is retranslated.
        assert instrumented.stats.traces_from_persistent == 0
        assert instrumented.stats.traces_translated > 0

    def test_vm_version_mismatch(self, workload, db):
        persisted_run(workload, "a", db)
        upgraded = run_vm(
            workload, "a",
            persistence=PersistenceConfig(database=db),
            vm_config=VMConfig(vm_version="repro-dbi-2.0.0"),
        )
        assert upgraded.stats.traces_from_persistent == 0

    def test_prime_with_wrong_tool_flagged(self, workload, db):
        persisted_run(workload, "a", db)
        donor = db.entries()[0]
        from repro.persist.cachefile import PersistentCache
        import os
        cache = PersistentCache.load(os.path.join(db.directory, donor.filename))
        primed = run_vm(
            workload, "a",
            tool=BBCountTool(),
            persistence=PersistenceConfig(prime_with=cache, readonly=True,
                                          database=db),
        )
        assert primed.persistence_report["version_conflict"]
        assert primed.stats.traces_from_persistent == 0

    def test_prime_with_needs_readonly(self, workload, db):
        """A primed session's write-back would accumulate into the
        caller's cache object, so the session refuses to start."""
        persisted_run(workload, "a", db)
        from repro.persist.cachefile import PersistentCache
        import os
        cache = PersistentCache.load(
            os.path.join(db.directory, db.entries()[0].filename))
        with pytest.raises(ValueError, match="readonly"):
            PersistentCacheSession(PersistenceConfig(prime_with=cache,
                                                     database=db))


class TestReadonlyAndFlush:
    def test_readonly_never_writes(self, workload, db):
        baseline = persisted_run(workload, "a", db)
        entries_before = [e.filename for e in db.entries()]
        run = persisted_run(workload, "b", db, readonly=True)
        assert not run.persistence_report["written"]
        assert [e.filename for e in db.entries()] == entries_before
        # And the b-only traces were NOT accumulated:
        again = persisted_run(workload, "b", db, readonly=True)
        assert again.stats.traces_translated > 0

    def test_flush_triggers_writeback(self, workload, db):
        config = VMConfig(code_pool_bytes=2000, data_pool_bytes=7000)
        first = run_vm(workload, "a",
                       persistence=PersistenceConfig(database=db),
                       vm_config=config)
        assert first.stats.cache_flushes > 0
        # Despite the flush, the union of translations was persisted.
        second = persisted_run(workload, "a", db)
        assert second.stats.traces_translated == 0


class TestInterApplication:
    def _two_apps(self):
        donor = mini_workload(app_path="appdonor")
        target = mini_workload(app_path="apptarget")
        return donor, target

    def test_library_translations_cross_apps(self, db):
        donor, target = self._two_apps()
        persisted_run(donor, "a", db)
        run = run_vm(
            target, "a",
            persistence=PersistenceConfig(database=db, inter_application=True,
                                          readonly=True),
        )
        report = run.persistence_report
        assert report["cache_found"]
        assert report["source_app"] == "appdonor"
        assert run.stats.traces_from_persistent > 0  # shared library code
        assert run.stats.traces_translated > 0  # its own app code

    def test_donor_app_traces_not_preloaded(self, db):
        donor, target = self._two_apps()
        persisted_run(donor, "a", db)
        run = run_vm(
            target, "a",
            persistence=PersistenceConfig(database=db, inter_application=True,
                                          readonly=True),
        )
        # appdonor's own image is not loaded in apptarget's process.
        assert run.persistence_report["retained_unloaded"] > 0

    def test_exact_mode_does_not_cross_apps(self, db):
        donor, target = self._two_apps()
        persisted_run(donor, "a", db)
        run = persisted_run(target, "a", db)
        assert not run.persistence_report["cache_found"]

    def test_faster_than_cold_start(self, db):
        donor, target = self._two_apps()
        persisted_run(donor, "a", db)
        cold = run_vm(target, "a")
        warm = run_vm(
            target, "a",
            persistence=PersistenceConfig(database=db, inter_application=True,
                                          readonly=True),
        )
        assert warm.stats.total_cycles < cold.stats.total_cycles


class TestCostCharging:
    def test_persistence_cycles_charged_on_reuse(self, workload, db):
        persisted_run(workload, "a", db)
        warm = persisted_run(workload, "a", db)
        stats = warm.stats
        assert stats.persistence_cycles > 0
        cost = DEFAULT_COST_MODEL
        # Demand loads happen once per executed persisted trace.
        executed = stats.traces_from_persistent
        assert stats.persistence_cycles >= cost.pcache_open
        assert stats.persistence_cycles <= (
            cost.pcache_open
            + executed * (cost.pcache_trace_load + cost.pcache_meta_load)
            + 10 * cost.pcache_key_check
            + cost.pcache_write_fixed
            + executed * cost.pcache_write_per_trace
            + 1
        )

    def test_key_checks_counted_per_load_event(self, workload, db):
        persisted_run(workload, "a", db)
        warm = persisted_run(workload, "a", db)
        # app + libmini.so = 2 load events.
        assert warm.persistence_report["key_checks"] == 2
