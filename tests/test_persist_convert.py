"""Tests for persist/revive conversion, including position independence."""

import pytest

from repro.binfmt.image import ImageKind
from repro.isa.encoding import encode_all
from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.loader.linker import ImageStore, load_process
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.persist.convert import locator, persist_trace, revive_trace
from repro.tools import BBCountTool
from repro.vm.trace import ExitKind, TraceSelector
from repro.vm.translator import Translator

from tests.conftest import image_from_asm

CALLER_LIB = """
libm_fn:
    addi t1, t1, 1
    ret
"""

MAIN = """
main:
    call libm_fn
    movi rv, 1
    movi a0, 0
    syscall
"""


def build_process(layout=None):
    lib = image_from_asm(CALLER_LIB, path="libm.so", kind=ImageKind.SHARED_LIBRARY)
    main = image_from_asm(MAIN, needed=["libm.so"])
    store = ImageStore({lib.path: lib})
    return load_process(main, store, layout=layout)


def select_and_translate(process, address, tool=None):
    selector = TraceSelector(process.space.mapping_at)
    mapping = process.image_at(address)
    trace = selector.select(
        address, image_path=mapping.image.path, image_base=mapping.base
    )
    return Translator(DEFAULT_COST_MODEL, tool).translate(trace).translated


class TestLocator:
    def test_matches_a_lookup_of_every_address(self):
        """The last-hit mapping answers only for addresses inside it:
        alternating between images, past a mapping's end and into
        unmapped memory, every answer equals a fresh ``image_at``."""
        process = build_process()
        app, lib = process.mappings[0], process.mappings[1]
        addresses = [
            app.base, lib.base + 8, app.base + 16, app.base + app.size - 1,
            app.base + app.size, lib.base + lib.size - 1, lib.base, 0, 8,
            app.base + 8,
        ]
        locate = locator(process)
        for addr in addresses:
            mapping = process.image_at(addr)
            expected = (("", 0) if mapping is None
                        else (mapping.image.path, addr - mapping.base))
            assert locate(addr) == expected, hex(addr)


class TestPersist:
    def test_records_image_identity(self):
        process = build_process()
        translated = select_and_translate(process, process.entry_address)
        record = persist_trace(translated, process)
        assert record.image_path == "app"
        assert record.image_offset == process.entry_address - process.mappings[0].base
        assert len(record.uops) == 1  # call terminates the trace
        assert record.code == translated.code_bytes

    def test_records_cross_image_call_reloc(self):
        process = build_process()
        translated = select_and_translate(process, process.entry_address)
        record = persist_trace(translated, process)
        assert len(record.relocs) == 1
        reloc = record.relocs[0]
        assert reloc.target_path == "libm.so"
        assert reloc.target_offset == 0

    def test_exit_targets_located(self):
        process = build_process()
        translated = select_and_translate(process, process.entry_address)
        record = persist_trace(translated, process)
        assert record.exits[-1].kind == ExitKind.DIRECT
        path, _offset = record.exit_places[-1]
        assert record.paths[path] == "libm.so"

    def test_data_records_fill_the_translated_data_size(self):
        """A cache file's data pool holds the records the translator
        accounts for a trace, at its data size exactly."""
        process = build_process()
        translated = select_and_translate(
            process, process.entry_address, BBCountTool()
        )
        assert translated.trace.exits and translated.points
        assert translated.liveness
        record = persist_trace(translated, process)
        assert len(record.data_blob()) == translated.data_size

    def test_unbacked_trace_not_persisted(self):
        process = build_process()
        translated = select_and_translate(process, process.entry_address)
        translated.trace.image_path = ""  # simulate dynamically generated code
        assert persist_trace(translated, process) is None


class TestRevive:
    def _roundtrip(self, rebase, layout_out=None, layout_in=None):
        process_out = build_process(layout_out)
        translated = select_and_translate(process_out, process_out.entry_address)
        record = persist_trace(translated, process_out)
        process_in = build_process(layout_in)

        def base_of(path):
            mapping = process_in.space.mapping_for_image(path)
            return mapping.base if mapping else None

        revived = revive_trace(record, None, base_of, rebase=rebase)
        return record, revived, process_in

    def test_verbatim_same_layout(self):
        record, revived, _process = self._roundtrip(rebase=False)
        assert revived is not None
        assert revived.from_persistent
        assert revived.entry == record.entry
        assert revived.code_bytes == record.code

    def test_verbatim_rejects_moved_base(self):
        _record, revived, _process = self._roundtrip(
            rebase=False, layout_in=PerturbedLayout(3)
        )
        # The app image itself stays put; pick a library trace instead.
        process_out = build_process()
        lib_entry = process_out.resolve_symbol("libm_fn")
        translated = select_and_translate(process_out, lib_entry)
        record = persist_trace(translated, process_out)
        process_in = build_process(PerturbedLayout(3))

        def base_of(path):
            mapping = process_in.space.mapping_for_image(path)
            return mapping.base if mapping else None

        moved = process_in.space.mapping_for_image("libm.so").base
        original = process_out.space.mapping_for_image("libm.so").base
        assert moved != original  # the perturbation actually moved it
        assert revive_trace(record, None, base_of, rebase=False) is None

    def test_rebase_follows_relocation(self):
        process_out = build_process()
        translated = select_and_translate(process_out, process_out.entry_address)
        record = persist_trace(translated, process_out)
        process_in = build_process(PerturbedLayout(3))

        def base_of(path):
            mapping = process_in.space.mapping_for_image(path)
            return mapping.base if mapping else None

        revived = revive_trace(record, None, base_of, rebase=True)
        assert revived is not None
        # The call immediate must now point at the *new* libm_fn address.
        new_target = process_in.resolve_symbol("libm_fn")
        call_inst = revived.trace.instructions[0]
        assert call_inst.imm == new_target
        assert revived.final_slot.exit.target == new_target

    def test_rebase_reencodes_code_bytes(self):
        """A relocated trace's code bytes encode the instructions it
        executes and the exits it takes: they key the compiled tier's
        factory memo and body stores, where stale literals would alias a
        same-entry trace that jumps elsewhere, and stale exit stubs would
        miss the body a fresh translation at the new layout stored."""
        process_out = build_process()
        translated = select_and_translate(process_out, process_out.entry_address)
        record = persist_trace(translated, process_out)
        process_in = build_process(PerturbedLayout(3))

        def base_of(path):
            mapping = process_in.space.mapping_for_image(path)
            return mapping.base if mapping else None

        revived = revive_trace(record, None, base_of, rebase=True)
        body = encode_all(revived.trace.instructions)
        assert revived.code_bytes[:len(body)] == body
        fresh = select_and_translate(process_in, process_in.entry_address)
        assert revived.code_bytes == fresh.code_bytes
        assert revived.code_bytes[len(body):] != record.code[len(body):]
        assert revived.code_bytes != record.code
        assert revived.code_size == len(record.code)

    def test_revive_missing_image(self):
        record, _revived, _process = self._roundtrip(rebase=False)
        assert revive_trace(record, None, lambda path: None) is None

    def test_rebase_missing_target_image(self):
        process_out = build_process()
        translated = select_and_translate(process_out, process_out.entry_address)
        record = persist_trace(translated, process_out)

        def base_of(path):
            return 0x40_0000 if path == "app" else None  # libm.so unloaded

        assert revive_trace(record, None, base_of, rebase=True) is None

    def test_tool_points_rebound(self):
        process_out = build_process()
        tool = BBCountTool()
        translated = select_and_translate(
            process_out, process_out.entry_address, tool
        )
        record = persist_trace(translated, process_out)

        def base_of(path):
            mapping = process_out.space.mapping_for_image(path)
            return mapping.base if mapping else None

        fresh_tool = BBCountTool()
        revived = revive_trace(record, fresh_tool, base_of)
        assert len(revived.points) == len(translated.points)
        assert revived.points_by_index.keys() == translated.points_by_index.keys()

    def test_liveness_preserved(self):
        record, revived, _process = self._roundtrip(rebase=False)
        assert revived.liveness == record.liveness
