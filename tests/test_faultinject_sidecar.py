"""Fault injection against the compiled-body sidecar.

The sidecar's containment contract is stricter than the trace cache's:
it is a pure host-side accelerator, so *any* induced fault — flipped
bytes, truncation, unreadable file, ``ENOSPC`` mid-write, a crash
between tmp write and rename — must leave the simulated run bit-for-bit
identical, must never degrade the persistence session, and must never
touch the trace cache (which is keyed and written independently).
"""

import errno
import os

import pytest

from repro.persist.database import CacheDatabase, QUARANTINE_DIR
from repro.persist.manager import PersistenceConfig
from repro.persist.sidecar import SIDECAR_NAME
from repro.testing.faultfs import (
    FaultPlan,
    FaultyStorage,
    SimulatedCrash,
    flip_byte,
    truncate_file,
)
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VMConfig
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


def compiled_run(workload, input_name, db):
    return run_vm(
        workload,
        input_name,
        persistence=PersistenceConfig(database=db),
        vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
    )


def seed(workload, directory):
    """Cold-populate a database (traces + sidecar); return its path."""
    db = CacheDatabase(directory)
    clear_code_object_cache()
    compiled_run(workload, "a", db)
    return os.path.join(directory, SIDECAR_NAME)


class TestDamagedSidecarReads:
    @pytest.mark.parametrize("damage", ["flip", "truncate"])
    def test_quarantined_without_touching_trace_persistence(
        self, damage, workload, tmp_path
    ):
        # Reference: a healthy warm run.
        seed(workload, str(tmp_path / "ref"))
        clear_code_object_cache()
        reference = compiled_run(
            workload, "a", CacheDatabase(str(tmp_path / "ref"))
        )
        assert reference.persistence_report["sidecar_hits"] > 0

        path = seed(workload, str(tmp_path / "db"))
        if damage == "flip":
            flip_byte(path, os.path.getsize(path) // 2)
        else:
            truncate_file(path, os.path.getsize(path) // 2)
        clear_code_object_cache()
        db = CacheDatabase(str(tmp_path / "db"))
        warm = compiled_run(workload, "a", db)

        report = warm.persistence_report
        # The damage cost exactly the compile()s the sidecar would have
        # saved — nothing else.
        assert report["sidecar_state"] == "quarantined"
        assert report["sidecar_hits"] == 0
        assert report["sidecar_host_compiles"] > 0
        # Trace persistence is untouched: the cache was found, revived,
        # and the session never degraded.
        assert report["cache_found"]
        assert not report["fallback_jit_only"]
        assert not report["cache_quarantined"]
        assert report["degraded_reason"] == ""
        assert warm.stats.traces_from_persistent > 0
        assert warm.stats.traces_translated == 0
        # Bit-for-bit identical simulation.
        assert observable(warm) == observable(reference)
        # Quarantine moved the damaged bytes aside (never deleted)...
        quarantined = os.listdir(
            os.path.join(str(tmp_path / "db"), QUARANTINE_DIR)
        )
        assert any(SIDECAR_NAME in name for name in quarantined)
        # ...and the write-back healed the sidecar for the next process.
        assert report["sidecar_written"]
        assert os.path.exists(path)
        clear_code_object_cache()
        healed = compiled_run(
            workload, "a", CacheDatabase(str(tmp_path / "db"))
        )
        assert healed.persistence_report["sidecar_state"] == "loaded"
        assert healed.persistence_report["sidecar_host_compiles"] == 0

    def test_flips_across_the_file_never_escape(self, workload, tmp_path):
        """Sampled byte flips at every region of the sidecar: each run
        must complete with identical output, whatever the offset hit."""
        path = seed(workload, str(tmp_path / "db"))
        size = os.path.getsize(path)
        pristine = open(path, "rb").read()
        db = CacheDatabase(str(tmp_path / "db"))
        clear_code_object_cache()
        reference = observable(compiled_run(workload, "a", db))
        for offset in range(0, size, max(1, size // 23)):
            with open(path, "wb") as handle:
                handle.write(pristine)
            flip_byte(path, offset)
            clear_code_object_cache()
            run = compiled_run(
                workload, "a", CacheDatabase(str(tmp_path / "db"))
            )
            assert observable(run) == reference, offset
            assert run.persistence_report["sidecar_hits"] == 0, offset

    def test_unreadable_sidecar_is_io_error_state(self, workload, tmp_path):
        seed(workload, str(tmp_path / "db"))
        storage = FaultyStorage(
            FaultPlan(fail_reads=True, match=SIDECAR_NAME)
        )
        db = CacheDatabase(str(tmp_path / "db"), storage=storage)
        clear_code_object_cache()
        warm = compiled_run(workload, "a", db)
        report = warm.persistence_report
        assert report["sidecar_state"].startswith("io-error: ")
        assert report["sidecar_host_compiles"] > 0
        assert report["cache_found"]
        assert warm.stats.traces_from_persistent > 0


class TestFaultedSidecarWrites:
    def test_enospc_on_sidecar_write_spares_the_trace_cache(
        self, workload, tmp_path
    ):
        seed(workload, str(tmp_path / "db"))
        storage = FaultyStorage(
            FaultPlan(
                fail_write_on_call=1,
                fail_write_errno=errno.ENOSPC,
                match=SIDECAR_NAME,
            )
        )
        db = CacheDatabase(str(tmp_path / "db"), storage=storage)
        clear_code_object_cache()
        # Input "b" compiles new bodies, forcing a sidecar write-back.
        result = run_vm(
            workload, "b",
            persistence=PersistenceConfig(database=db),
            vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
        )
        report = result.persistence_report
        assert report["sidecar_state"].startswith("write-error")
        assert not report["sidecar_written"]
        # The trace cache write-back happened anyway.
        assert report["written"]
        assert report["new_traces_persisted"] > 0
        assert not report["fallback_jit_only"]
        assert result.exit_status == 0

    def test_crash_before_rename_leaves_old_sidecar_valid(
        self, workload, tmp_path
    ):
        path = seed(workload, str(tmp_path / "db"))
        before = open(path, "rb").read()
        storage = FaultyStorage(
            FaultPlan(crash_before_rename=True, match=SIDECAR_NAME)
        )
        db = CacheDatabase(str(tmp_path / "db"), storage=storage)
        clear_code_object_cache()
        with pytest.raises(SimulatedCrash):
            run_vm(
                workload, "b",
                persistence=PersistenceConfig(database=db),
                vm_config=VMConfig(dispatch_mode="compiled",
                                   compile_threshold=1),
            )
        # The previous sidecar is untouched (rename never happened) and
        # the next process runs normally from it.
        assert open(path, "rb").read() == before
        clear_code_object_cache()
        recovered = compiled_run(
            workload, "a", CacheDatabase(str(tmp_path / "db"))
        )
        assert recovered.persistence_report["sidecar_state"] == "loaded"
        assert recovered.persistence_report["sidecar_host_compiles"] == 0
        assert recovered.exit_status == 0
