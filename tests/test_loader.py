"""Tests for address spaces, layouts, and the dynamic linker."""

import os

import pytest
from hypothesis import given, strategies as st

from repro.binfmt.image import ImageKind
from repro.isa import registers as regs
from repro.loader.layout import (
    EXECUTABLE_BASE,
    FixedLayout,
    LIBRARY_REGION_START,
    PerturbedLayout,
)
from repro.loader.linker import (
    ImageStore,
    LinkError,
    load_process,
)
from repro.loader.mapper import (
    AddressSpace,
    Mapping,
    MemoryError_,
    WORD_SIZE,
    to_signed_word,
)
from repro.machine.cpu import HEAP_BASE, Machine

from tests.conftest import image_from_asm


def _lib(path: str, body: str = "ret", needed=()):
    return image_from_asm(
        "%s_fn:\n    %s\n" % (path.split(".")[0], body),
        path=path,
        kind=ImageKind.SHARED_LIBRARY,
        needed=needed,
    )


class TestSignedWord:
    def test_identity_in_range(self):
        assert to_signed_word(42) == 42
        assert to_signed_word(-42) == -42

    def test_wraps(self):
        assert to_signed_word(1 << 63) == -(1 << 63)
        assert to_signed_word((1 << 64) + 5) == 5
        assert to_signed_word(-(1 << 63) - 1) == (1 << 63) - 1

    @given(st.integers(-(2**70), 2**70))
    def test_always_in_range(self, value):
        wrapped = to_signed_word(value)
        assert -(1 << 63) <= wrapped < (1 << 63)
        assert (wrapped - value) % (1 << 64) == 0


class TestAddressSpace:
    def test_anonymous_rw(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 256, name="x")
        space.write_word(0x1000, -7)
        assert space.read_word(0x1000) == -7

    def test_overlap_rejected(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 256)
        with pytest.raises(MemoryError_):
            space.map_anonymous(0x10FF, 16)

    def test_adjacent_ok(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 256)
        space.map_anonymous(0x1100, 256)

    def test_unmapped_access(self):
        space = AddressSpace()
        with pytest.raises(MemoryError_):
            space.read_word(0x5000)
        with pytest.raises(MemoryError_):
            space.write_word(0x5000, 1)

    def test_cross_boundary_read(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 16)
        with pytest.raises(MemoryError_):
            space.read_bytes(0x1000 + 12, 8)

    def test_find_mapping(self):
        space = AddressSpace()
        low = space.map_anonymous(0x1000, 16, name="low")
        high = space.map_anonymous(0x9000, 16, name="high")
        assert space.find_mapping(0x1008) is low
        assert space.find_mapping(0x9000) is high
        with pytest.raises(MemoryError_):
            space.find_mapping(0x800)

    def test_read_write_bytes(self):
        space = AddressSpace()
        space.map_anonymous(0x2000, 64)
        space.write_bytes(0x2010, b"hello")
        assert space.read_bytes(0x2010, 5) == b"hello"


class TestAnonymousMappings:
    """Stack and heap are private anonymous ``mmap`` regions: zero-filled
    on first touch, and private to the process that writes them."""

    def test_zero_filled_and_word_addressable(self):
        space = AddressSpace()
        mapping = space.map_anonymous(0x1000, 1 << 20)
        assert space.read_word(0x1000 + (1 << 19)) == 0
        space.write_word(0x1008, -3)
        assert space.read_word(0x1008) == -3
        mapping.data[16:24] = b"\x01" * 8
        assert space.read_bytes(0x1010, 8) == b"\x01" * 8

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_forked_childs_heap_store_stays_in_the_child(self):
        machine = Machine(load_process(image_from_asm("main:\n    halt\n")))
        space = machine.process.space
        space.write_word(HEAP_BASE, 7)
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                os.close(read_fd)
                space.write_word(HEAP_BASE, 42)
                os.write(write_fd, b"%d" % space.read_word(HEAP_BASE))
            finally:
                os._exit(0)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            seen_by_child = pipe.read()
        os.waitpid(pid, 0)
        assert seen_by_child == b"42"
        assert space.read_word(HEAP_BASE) == 7


class TestWindow:
    """``AddressSpace.window``: the one hot-mapping cache shared by the
    word and byte accessors and the compiled tier's memory helpers."""

    def test_starts_as_a_miss(self):
        _base, last, _data, _code_free = AddressSpace().window
        assert last < 0

    def test_find_mapping_sets_the_window_in_place(self):
        space = AddressSpace()
        mapping = space.map_anonymous(0x1000, 256)
        window = space.window
        space.find_mapping(0x1010)
        assert space.window is window
        assert window[:2] == [0x1000, 256 - WORD_SIZE]
        assert window[2] is mapping.data

    def test_hits_skip_the_lookup(self, monkeypatch):
        """Inside the window, the machine's word access and a byte read
        skip the lookup.  The word accessors serve the word access's
        misses only, so each of their calls is one lookup."""
        machine = Machine(load_process(image_from_asm("main:\n    ret\n")))
        space = machine.process.space
        stack = machine.registers[regs.SP]
        space.write_word(stack, 5)
        lookups = []
        original = space.find_mapping
        monkeypatch.setattr(
            space, "find_mapping",
            lambda addr: lookups.append(addr) or original(addr),
        )
        machine.store(stack - 8, -1, 0)
        assert machine.load(stack, 0) == 5
        assert space.read_bytes(stack - 8, 8) == b"\xff" * 8
        assert lookups == []
        assert space.read_word(stack) == 5
        assert lookups == [stack]

    def test_switches_between_mappings(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 64)
        space.map_anonymous(0x2000, 64)
        for step in range(4):
            space.write_word(0x1000, step)
            space.write_word(0x2000, -step)
        assert space.read_word(0x1000) == 3
        assert space.read_word(0x2000) == -3
        assert space.window[0] == 0x2000

    def test_last_word_hits_and_a_crossing_word_faults(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 64)
        space.write_word(0x1038, 9)
        assert space.read_word(0x1038) == 9
        with pytest.raises(MemoryError_, match="word read at 0x103c crosses"):
            space.read_word(0x103C)
        with pytest.raises(MemoryError_, match="word write at 0x103c crosses"):
            space.write_word(0x103C, 1)

    def test_out_of_range_value_wraps_on_a_hit(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 64)
        space.read_word(0x1000)
        space.write_word(0x1000, (1 << 64) + 5)
        space.write_word(0x1008, -(1 << 63) - 3)
        assert space.read_word(0x1000) == 5
        assert space.read_word(0x1008) == (1 << 63) - 3

    def test_remove_mapping_resets_the_window(self):
        space = AddressSpace()
        space.map_anonymous(0x1000, 64)
        dead = space.map_anonymous(0x2000, 64)
        space.write_word(0x2000, 7)
        window = space.window
        space.remove_mapping(dead)
        assert space.window is window and window[1] < 0
        with pytest.raises(MemoryError_, match="unmapped"):
            space.write_word(0x2000, 8)
        with pytest.raises(MemoryError_, match="unmapped"):
            space.read_word(0x2000)
        assert int.from_bytes(dead.data[:8], "little") == 7

    def test_mapping_at_leaves_the_window(self):
        space = AddressSpace()
        code = space.map_anonymous(0x1000, 64)
        space.map_anonymous(0x2000, 64)
        space.read_word(0x2000)
        window = list(space.window)
        assert space.mapping_at(0x1008) is code
        assert space.mapping_at(0x1040) is None
        assert space.mapping_at(0x0FFF) is None
        assert space.window == window

    def test_image_at_a_code_pc_leaves_the_stack_in_the_window(self):
        process = load_process(image_from_asm("main:\n    ret\n"))
        machine = Machine(process)
        stack = machine.registers[regs.SP]
        machine.process.space.write_word(stack, 1)
        window = list(process.space.window)
        [stack_mapping] = [m for m in process.space.mappings
                           if m.name == "[stack]"]
        assert window[2] is stack_mapping.data
        assert process.image_at(process.entry_address) is process.mappings[0]
        assert process.space.window == window
        assert process.image_at(stack) is None  # anonymous, not an image

    def test_mapping_smaller_than_a_word_never_hits(self):
        space = AddressSpace()
        small = space.map_anonymous(0x1000, 4)
        small.data[:] = b"abcd"
        assert space.read_bytes(0x1000, 4) == b"abcd"
        assert space.window[1] < 0
        with pytest.raises(MemoryError_, match="crosses mapping end"):
            space.read_word(0x1000)


class TestLinker:
    def test_simple_executable(self):
        image = image_from_asm("main:\n    halt\n")
        process = load_process(image)
        assert process.entry_address == EXECUTABLE_BASE + image.entry
        assert len(process.load_events) == 1

    def test_needs_resolver(self):
        image = image_from_asm("main:\n    halt\n", needed=["libx.so"])
        with pytest.raises(LinkError):
            load_process(image)

    def test_library_not_executable(self):
        lib = _lib("libx.so")
        with pytest.raises(LinkError):
            load_process(lib)

    def test_transitive_dependencies(self):
        libb = _lib("libb.so")
        liba = _lib("liba.so", needed=["libb.so"])
        main = image_from_asm("main:\n    halt\n", needed=["liba.so"])
        store = ImageStore({img.path: img for img in (liba, libb)})
        process = load_process(main, store)
        order = [event.image.path for event in process.load_events]
        assert order == ["app", "liba.so", "libb.so"]

    def test_diamond_loaded_once(self):
        libc = _lib("libc.so")
        liba = _lib("liba.so", needed=["libc.so"])
        libb = _lib("libb.so", needed=["libc.so"])
        main = image_from_asm("main:\n    halt\n", needed=["liba.so", "libb.so"])
        store = ImageStore({img.path: img for img in (liba, libb, libc)})
        process = load_process(main, store)
        paths = [event.image.path for event in process.load_events]
        assert paths.count("libc.so") == 1

    def test_missing_library(self):
        main = image_from_asm("main:\n    halt\n", needed=["libmissing.so"])
        with pytest.raises(LinkError):
            load_process(main, ImageStore())

    def test_cross_image_symbol_resolution(self):
        lib = _lib("libm.so", body="addi t1, t1, 1\n    ret")
        main = image_from_asm(
            """
            main:
                call libm_fn
                halt
            """,
            needed=["libm.so"],
        )
        store = ImageStore({lib.path: lib})
        process = load_process(main, store)
        lib_base = process.mapping_of("libm.so").base
        assert process.resolve_symbol("libm_fn") == lib_base

    def test_undefined_cross_image_symbol(self):
        main = image_from_asm("main:\n    call nowhere\n    halt\n")
        with pytest.raises(LinkError):
            load_process(main)

    def test_symbolize(self):
        image = image_from_asm("main:\n    nop\n    halt\n")
        process = load_process(image)
        assert process.symbolize(process.entry_address) == "app!main"
        assert process.symbolize(process.entry_address + 8) == "app!main+0x8"
        assert process.symbolize(0x12) == "0x12"

    def test_library_bases_distinct_and_in_region(self):
        liba, libb = _lib("liba.so"), _lib("libb.so")
        main = image_from_asm("main:\n    halt\n", needed=["liba.so", "libb.so"])
        store = ImageStore({img.path: img for img in (liba, libb)})
        process = load_process(main, store)
        base_a = process.mapping_of("liba.so").base
        base_b = process.mapping_of("libb.so").base
        assert base_a >= LIBRARY_REGION_START
        assert base_b > base_a


class TestLayouts:
    def _two_lib_process(self, layout):
        liba, libb = _lib("liba.so"), _lib("libb.so")
        main = image_from_asm("main:\n    halt\n", needed=["liba.so", "libb.so"])
        store = ImageStore({img.path: img for img in (liba, libb)})
        process = load_process(main, store, layout=layout)
        return {
            path: process.mapping_of(path).base
            for path in ("liba.so", "libb.so")
        }

    def test_fixed_layout_reproducible(self):
        assert self._two_lib_process(FixedLayout()) == self._two_lib_process(
            FixedLayout()
        )

    def test_perturbed_deterministic_per_seed(self):
        assert self._two_lib_process(PerturbedLayout(7)) == self._two_lib_process(
            PerturbedLayout(7)
        )

    def test_perturbed_seeds_differ(self):
        bases = {
            seed: self._two_lib_process(PerturbedLayout(seed))
            for seed in range(6)
        }
        distinct = {tuple(sorted(b.items())) for b in bases.values()}
        assert len(distinct) > 1

    def test_perturbed_differs_from_fixed(self):
        fixed = self._two_lib_process(FixedLayout())
        seen_shift = False
        for seed in range(8):
            if self._two_lib_process(PerturbedLayout(seed)) != fixed:
                seen_shift = True
                break
        assert seen_shift


class TestCrossImageData:
    def test_app_reads_library_global(self):
        """SYMBOL relocations resolve data objects across images."""
        from repro.binfmt.image import ImageBuilder, ImageKind
        from repro.isa import instructions as ins
        from repro.isa import registers as regs
        from repro.machine.cpu import Machine, run_native
        from repro.machine.syscalls import SYS_EXIT

        lib_builder = ImageBuilder("libdata.so", ImageKind.SHARED_LIBRARY)
        lib_builder.add_function("libdata_noop", [ins.ret()])
        lib_builder.add_data("shared_value", (77).to_bytes(8, "little"))
        lib = lib_builder.build()

        app_builder = ImageBuilder("app", needed=["libdata.so"])
        code = [
            ins.movi(10, 0),              # t0 = &shared_value  [reloc]
            ins.ld(regs.A0, 10, 0),
            ins.movi(regs.RV, SYS_EXIT),
            ins.syscall(),
        ]
        app_builder.add_function("main", code,
                                 symbol_refs=[(0, "shared_value")])
        app_builder.set_entry("main")
        app = app_builder.build()

        process = load_process(app, ImageStore({lib.path: lib}))
        result = run_native(Machine(process))
        assert result.exit_status == 77

    def test_data_objects_relocated_per_mapping(self):
        """Each process gets a private copy of library data."""
        from repro.binfmt.image import ImageBuilder, ImageKind

        lib_builder = ImageBuilder("libd.so", ImageKind.SHARED_LIBRARY)
        lib_builder.add_function("libd_noop", [])
        lib_builder.add_data("blob", b"\x01" * 8)
        lib = lib_builder.build()
        main = image_from_asm("main:\n    halt\n", needed=["libd.so"])
        store = ImageStore({lib.path: lib})
        first = load_process(main, store)
        second = load_process(main, store)
        addr = first.resolve_symbol("blob")
        first.space.write_word(addr, 99)
        assert second.space.read_word(second.resolve_symbol("blob")) != 99
