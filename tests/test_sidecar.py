"""Tests for the compiled-body sidecar (repro.persist.sidecar).

The sidecar persists host-compiled trace factories across processes so
a warm process's first run performs zero host ``compile()`` calls.  It
is a pure host-side accelerator: these tests pin the format, the
wholesale invalidation keying (VM version + host bytecode format), the
database lifecycle (open/merge-write/quarantine/fsck), and — most
importantly — that enabling or damaging it never changes anything the
simulation observes.
"""

import marshal
import os
import sys
import traceback
import types

import pytest

from repro.binfmt.image import ImageBuilder
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.loader.linker import load_process
from repro.machine.cpu import HEAP_BASE, MachineFault
from repro.machine.syscalls import SYS_EXIT
from repro.persist.database import CacheDatabase, QUARANTINE_DIR
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.persist.sharedstore import SharedBodyStore
from repro.persist.sidecar import (
    PREAMBLE,
    SIDECAR_NAME,
    CompiledBodyStore,
    SidecarError,
    host_code_tag,
    sidecar_staleness,
    verify_sidecar,
)
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VM_VERSION, Engine, VMConfig
from repro.workloads.harness import run_vm

from tests.test_persist_manager import mini_workload, persisted_run


@pytest.fixture
def workload():
    return mini_workload()


@pytest.fixture
def db(tmp_path):
    return CacheDatabase(str(tmp_path / "db"))


def compiled_run(workload, input_name, db, **kwargs):
    return run_vm(
        workload,
        input_name,
        persistence=PersistenceConfig(database=db, **kwargs),
        vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
    )


def observable(result):
    """What the simulation observes — the sidecar must never move it."""
    return (
        result.output,
        result.exit_status,
        result.instructions,
        vars(result.stats),
    )


def make_store(n=3):
    store = CompiledBodyStore.fresh(VM_VERSION)
    for i in range(n):
        code = compile("x_%d = %d" % (i, i), "<sidecar-test>", "exec")
        store.record_code("digest-%d" % i, code)
    return store


class TestFormat:
    def test_roundtrip(self):
        store = make_store()
        revived = CompiledBodyStore.from_bytes(store.to_bytes())
        assert revived.vm_version == VM_VERSION
        assert revived.host_tag == host_code_tag()
        assert revived.entries == store.entries
        for i in range(3):
            code = revived.lookup_code("digest-%d" % i)
            namespace = {}
            exec(code, namespace)
            assert namespace["x_%d" % i] == i

    def test_empty_roundtrip(self):
        store = CompiledBodyStore.fresh(VM_VERSION)
        revived = CompiledBodyStore.from_bytes(store.to_bytes())
        assert len(revived) == 0
        assert revived.matches_host(VM_VERSION)

    def test_record_is_idempotent(self):
        store = make_store(1)
        before = store.new_entries
        store.record_bytes("digest-0", b"different")
        assert store.new_entries == before
        assert store.entries["digest-0"] != b"different"

    def test_every_single_byte_flip_is_detected(self):
        blob = make_store(2).to_bytes()
        for offset in range(len(blob)):
            corrupt = bytearray(blob)
            corrupt[offset] ^= 0xFF
            with pytest.raises(SidecarError) as excinfo:
                CompiledBodyStore.from_bytes(bytes(corrupt))
            assert excinfo.value.section in (
                "preamble", "header", "directory", "body_pool", "trailer",
            ), offset

    def test_truncation_at_every_length_is_detected(self):
        blob = make_store(2).to_bytes()
        for length in range(len(blob)):
            with pytest.raises(SidecarError):
                CompiledBodyStore.from_bytes(blob[:length])

    def test_damage_attribution_names_the_right_section(self):
        store = make_store(2)
        blob = store.to_bytes()
        # Body-pool bytes start after preamble + header + directory;
        # flipping one must be attributed to the pool (or the trailer,
        # which covers the whole file) — not to the header.
        damage = verify_sidecar(
            blob[:-5] + bytes([blob[-5] ^ 0xFF]) + blob[-4:]
        )
        assert damage
        assert "header" not in damage
        assert verify_sidecar(blob) == {}

    def test_staleness_keys(self):
        blob = make_store(1).to_bytes()
        assert sidecar_staleness(blob, VM_VERSION) is None
        reason = sidecar_staleness(blob, "repro-dbi-99.0.0")
        assert reason is not None and VM_VERSION in reason

    def test_host_tag_mismatch_is_stale(self):
        store = make_store(1)
        store.host_tag = "other-python|marshal0"
        blob = store.to_bytes()
        assert sidecar_staleness(blob, VM_VERSION) is not None
        assert not CompiledBodyStore.from_bytes(blob).matches_host(VM_VERSION)

    def test_unmarshalable_entry_reads_as_miss(self):
        store = make_store(1)
        store.record_bytes("bad", b"\x00not marshal\xff")
        revived = CompiledBodyStore.from_bytes(store.to_bytes())
        assert revived.lookup_code("bad") is None
        assert "bad" not in revived.entries
        assert revived.lookup_code("digest-0") is not None


class TestDatabaseLifecycle:
    def test_open_missing_is_fresh(self, db):
        store, state = db.open_sidecar(VM_VERSION)
        assert state == "fresh"
        assert len(store) == 0

    def test_store_and_reload(self, db):
        db.store_sidecar(make_store(2))
        store, state = db.open_sidecar(VM_VERSION)
        assert state == "loaded"
        assert len(store) == 2

    def test_concurrent_writers_merge(self, db):
        first = CompiledBodyStore.fresh(VM_VERSION)
        first.record_bytes("only-in-first", b"a")
        second = CompiledBodyStore.fresh(VM_VERSION)
        second.record_bytes("only-in-second", b"b")
        db.store_sidecar(first)
        db.store_sidecar(second)
        store, _state = db.open_sidecar(VM_VERSION)
        assert set(store.entries) == {"only-in-first", "only-in-second"}

    def test_stale_version_is_ignored_wholesale(self, db):
        stale = CompiledBodyStore(
            vm_version="repro-dbi-0.0.1", entries={"d": b"x"}
        )
        db.storage.write_atomic(
            os.path.join(db.directory, SIDECAR_NAME), stale.to_bytes()
        )
        store, state = db.open_sidecar(VM_VERSION)
        assert state == "stale-vm"
        assert len(store) == 0  # fresh store under current keys

    def test_corrupt_sidecar_is_quarantined(self, db):
        db.store_sidecar(make_store(1))
        path = os.path.join(db.directory, SIDECAR_NAME)
        blob = bytearray(db.storage.read_bytes(path))
        blob[PREAMBLE.size + 3] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        store, state = db.open_sidecar(VM_VERSION)
        assert state == "quarantined"
        assert len(store) == 0
        assert not os.path.exists(path)  # moved aside, not deleted
        quarantined = os.listdir(os.path.join(db.directory, QUARANTINE_DIR))
        assert any(SIDECAR_NAME in name for name in quarantined)


class TestFsck:
    def test_healthy_sidecar_is_ok(self, workload, db):
        compiled_run(workload, "a", db)
        report = db.fsck()
        items = {i.filename: i.status for i in report.items}
        assert items[SIDECAR_NAME] == "ok"
        assert report.clean

    def test_corrupt_sidecar_reported_and_quarantined(self, workload, db):
        compiled_run(workload, "a", db)
        path = os.path.join(db.directory, SIDECAR_NAME)
        blob = bytearray(db.storage.read_bytes(path))
        blob[-2] ^= 0xFF
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        report = db.fsck()
        assert not report.clean
        assert any(
            i.filename == SIDECAR_NAME and i.status == "corrupt"
            for i in report.items
        )
        report = db.fsck(quarantine=True)
        assert SIDECAR_NAME in report.quarantined
        assert not os.path.exists(path)

    def test_stale_sidecar_is_a_note_not_damage(self, workload, db):
        compiled_run(workload, "a", db)
        report = db.fsck(vm_version="repro-dbi-99.0.0")
        assert report.clean  # stale is expected, not damage
        assert any(
            n.filename == SIDECAR_NAME and n.status == "stale-vm"
            for n in report.notes
        )

    def test_orphan_sidecar_is_a_note_not_damage(self, workload, db):
        compiled_run(workload, "a", db)
        db.clear()  # drops every indexed cache, leaves the sidecar
        report = db.fsck()
        assert report.clean
        assert any(
            n.filename == SIDECAR_NAME and n.status == "orphan"
            for n in report.notes
        )

    def test_fsck_cli_prints_notes_and_exits_zero(self, workload, db, capsys):
        from repro.cli import main

        compiled_run(workload, "a", db)
        db.clear()
        exit_code = main(["cache", "fsck", db.directory])
        out = capsys.readouterr().out
        assert exit_code == 0
        assert "note:" in out and "orphan" in out


class TestEndToEnd:
    def test_warm_process_skips_host_compile(self, workload, db):
        clear_code_object_cache()  # other tests share the factory memo
        cold = compiled_run(workload, "a", db)
        assert cold.persistence_report["sidecar_written"]
        assert cold.persistence_report["sidecar_host_compiles"] > 0
        # A new process has no in-memory factory memo; the sidecar is
        # the only thing standing between it and a full recompile.
        clear_code_object_cache()
        warm = compiled_run(workload, "a", db)
        assert warm.persistence_report["sidecar_state"] == "loaded"
        assert warm.persistence_report["sidecar_hits"] > 0
        assert warm.persistence_report["sidecar_host_compiles"] == 0
        assert observable(warm) == observable(cold) or (
            # Cold translates, warm revives: stats legitimately differ
            # in translation counters; output and exit must not.
            (warm.output, warm.exit_status)
            == (cold.output, cold.exit_status)
        )

    def test_sidecar_on_off_is_observably_identical(self, workload, tmp_path):
        signatures = {}
        for flag in (True, False):
            db = CacheDatabase(str(tmp_path / ("db-%s" % flag)))
            clear_code_object_cache()
            runs = [
                observable(compiled_run(workload, "a", db, sidecar=flag))
                for _ in range(2)
            ]
            signatures[flag] = runs
        assert signatures[True] == signatures[False]

    def test_vm_version_bump_degrades_to_jit_only_compile(self, workload, db):
        """A sidecar stamped by another VM version is ignored wholesale:
        the run pays host compile() again (JIT-only degradation for the
        sidecar) but must not crash, and trace persistence — keyed
        independently — keeps working."""
        compiled_run(workload, "a", db)
        path = os.path.join(db.directory, SIDECAR_NAME)
        old = CompiledBodyStore.from_bytes(db.storage.read_bytes(path))
        forged = CompiledBodyStore(
            vm_version=VM_VERSION + "-bumped",
            host_tag=old.host_tag,
            entries=dict(old.entries),
        )
        db.storage.write_atomic(path, forged.to_bytes())
        clear_code_object_cache()
        warm = compiled_run(workload, "a", db)
        assert warm.persistence_report["sidecar_state"] == "stale-vm"
        assert warm.persistence_report["sidecar_hits"] == 0
        assert warm.persistence_report["sidecar_host_compiles"] > 0
        # Trace persistence is unaffected by the stale sidecar.
        assert warm.stats.traces_translated == 0
        assert warm.stats.traces_from_persistent > 0
        # The write-back re-stamped the sidecar under current keys.
        healed = CompiledBodyStore.from_bytes(db.storage.read_bytes(path))
        assert healed.matches_host(VM_VERSION)

    def test_interpreted_mode_never_touches_the_sidecar(self, workload, db):
        result = run_vm(
            workload, "a",
            persistence=PersistenceConfig(database=db),
            vm_config=VMConfig(dispatch_mode="interpreted"),
        )
        assert result.persistence_report["sidecar_state"] == "disabled"
        assert not os.path.exists(os.path.join(db.directory, SIDECAR_NAME))

    def test_disabled_config_never_touches_the_sidecar(self, workload, db):
        result = compiled_run(workload, "a", db, sidecar=False)
        assert result.persistence_report["sidecar_state"] == "disabled"
        assert not os.path.exists(os.path.join(db.directory, SIDECAR_NAME))


def _code_objects(code):
    """``code`` and every code object nested in its constants."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="older hosts keep their bodies' line tables")
class TestLineTables:
    """Persisted bodies carry no line tables: every code object maps
    all of its instructions to its first line, in the smallest table
    the ``traceback`` module can still format."""

    def test_persisted_bodies_map_every_instruction_to_one_line(
        self, workload, tmp_path
    ):
        store = SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION)
        db = CacheDatabase(str(tmp_path / "db"), shared_store=store)
        clear_code_object_cache()
        result = compiled_run(workload, "a", db)
        assert result.link_stats.regions_fused > 0
        path = os.path.join(db.directory, SIDECAR_NAME)
        private = CompiledBodyStore.from_bytes(db.storage.read_bytes(path))
        shared = [blob for _digest, (blob, *_meta) in store.iter_entries()]
        assert private.entries and shared
        for blob in list(private.entries.values()) + shared:
            for code in _code_objects(marshal.loads(blob)):
                # One 2-byte entry per 8 code units.
                units = len(code.co_code) // 2
                assert len(code.co_linetable) == 2 * -(-units // 8)
                lines = {line for _start, _end, line in code.co_lines()}
                assert lines == {code.co_firstlineno}, code.co_name

    def test_fault_in_a_revived_body_matches_the_oracle(self, tmp_path):
        """The cold run loads a heap word; the warm run, with the body
        revived from the sidecar, loads from an unmapped address."""
        t0 = regs.T0
        builder = ImageBuilder("revived-fault-app")
        builder.add_function("main", [
            ins.ld(t0, regs.A0, 0),
            ins.addi(regs.A0, t0, 1),
            ins.movi(regs.RV, SYS_EXIT),
            ins.syscall(),
        ])
        builder.set_entry("main")
        image = builder.build()
        faults = {}
        for mode in ("interpreted", "compiled"):
            db = CacheDatabase(str(tmp_path / mode))

            def engine():
                clear_code_object_cache()  # a new process: no factory memo
                return Engine(
                    config=VMConfig(dispatch_mode=mode, compile_threshold=1),
                    persistence=PersistentCacheSession(
                        PersistenceConfig(database=db)
                    ),
                )

            cold = engine().run(load_process(image), args=(HEAP_BASE,))
            assert cold.exit_status == 1
            warm = engine()
            with pytest.raises(MachineFault) as excinfo:
                warm.run(load_process(image), args=(0x100,))
            faults[mode] = (str(excinfo.value), excinfo.value.pc)
        assert faults["compiled"] == faults["interpreted"]
        assert "unmapped address 0x100" in faults["compiled"][0]
        assert warm.host.body_hits > 0
        assert warm.host.host_compiles == 0
        # The revived frame still formats.
        assert "<trace@" in "".join(traceback.format_exception(excinfo.value))
