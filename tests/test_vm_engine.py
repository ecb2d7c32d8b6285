"""Engine tests: VM-vs-native equivalence, accounting, flush, dispatch."""

import pytest

from repro.loader.linker import load_process
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.machine.cpu import Machine, run_native
from repro.vm.engine import Engine, EngineError, VMConfig
from repro.vm.codecache import DEFAULT_CODE_POOL_BYTES

from tests.conftest import TINY_PROGRAM, image_from_asm


PROGRAMS = {
    "loop": TINY_PROGRAM,
    "nested_calls": """
    main:
        call outer
        movi rv, 1
        movi a0, 5
        syscall
    outer:
        addi sp, sp, -8
        st   lr, 0(sp)
        call inner
        call inner
        ld   lr, 0(sp)
        addi sp, sp, 8
        ret
    inner:
        addi t1, t1, 1
        ret
    """,
    "indirect": """
    main:
        call get
        callr t0
        movi rv, 1
        or   a0, t3, zero
        syscall
    get:
        movi t0, target
        ret
    target:
        movi t3, 9
        ret
    """,
    "memory": """
    main:
        movi t0, 64
        st   t0, 0(sp)
        ld   t1, 0(sp)
        movi rv, 1
        or   a0, t1, zero
        syscall
    """,
    "branchy": """
    main:
        movi t0, 20
    loop:
        andi t1, t0, 1
        beq  t1, zero, even
        addi t2, t2, 3
        jmp  next
    even:
        addi t2, t2, 1
    next:
        addi t0, t0, -1
        bne  t0, zero, loop
        movi rv, 1
        andi a0, t2, 127
        syscall
    """,
}


def run_both(source):
    image = image_from_asm(source)
    native = run_native(Machine(load_process(image)))
    vm = Engine().run(load_process(image))
    return native, vm


class TestEquivalence:
    """Translated execution is bit-identical to native execution."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_same_architectural_outcome(self, name):
        native, vm = run_both(PROGRAMS[name])
        assert vm.exit_status == native.exit_status
        assert vm.instructions == native.instructions
        assert vm.output == native.output

    def test_kernel_loop_instruction_counts(self):
        source = """
        main:
            movi t0, 1000
        spin:
            addi t0, t0, -1
            bne  t0, zero, spin
            movi rv, 1
            movi a0, 0
            syscall
        """
        native, vm = run_both(source)
        assert vm.instructions == native.instructions == 1000 * 2 + 4


class TestAccounting:
    def test_components_sum_to_total(self):
        _native, vm = run_both(PROGRAMS["branchy"])
        stats = vm.stats
        assert stats.total_cycles == pytest.approx(
            stats.vm_overhead_cycles + stats.translated_code_cycles
        )
        assert stats.vm_overhead_cycles == pytest.approx(
            stats.translation_cycles
            + stats.dispatch_cycles
            + stats.persistence_cycles
        )

    def test_translation_events_recorded(self):
        _native, vm = run_both(PROGRAMS["loop"])
        assert len(vm.stats.translation_events) == vm.stats.traces_translated
        timestamps = [t for t, _ in vm.stats.translation_events]
        assert timestamps == sorted(timestamps)
        assert all(0 <= t <= vm.stats.total_cycles for t in timestamps)

    def test_translation_cost_formula(self):
        _native, vm = run_both(PROGRAMS["memory"])
        # One straight-line program: translation cycles must match the
        # per-trace formula summed over trace lengths.
        cost = DEFAULT_COST_MODEL
        total_insts = sum(
            size // 8 for (_p, _o, size) in vm.stats.trace_identities
        )
        expected = (
            vm.stats.traces_translated * cost.trace_compile_fixed
            + total_insts * cost.trace_compile_per_inst
        )
        assert vm.stats.translation_cycles == pytest.approx(expected)

    def test_exec_cycles_match_instructions(self):
        _native, vm = run_both(PROGRAMS["branchy"])
        stats = vm.stats
        cost = DEFAULT_COST_MODEL
        expected = (
            stats.instructions_executed * cost.translated_inst
            + stats.indirect_resolutions * cost.indirect_resolution
        )
        assert stats.translated_exec_cycles == pytest.approx(expected)

    def test_emulation_charges(self):
        _native, vm = run_both(PROGRAMS["loop"])
        assert vm.stats.syscalls_emulated == 1
        assert vm.stats.emulation_cycles == pytest.approx(
            DEFAULT_COST_MODEL.syscall_emulation
        )

    def test_indirect_resolutions_counted(self):
        _native, vm = run_both(PROGRAMS["indirect"])
        assert vm.stats.indirect_resolutions >= 2  # callr + rets

    def test_trace_identities_attributed_to_image(self):
        _native, vm = run_both(PROGRAMS["loop"])
        assert vm.stats.trace_identities
        assert all(path == "app" for path, _o, _s in vm.stats.trace_identities)


class TestCodeReuse:
    def test_no_retranslation_of_hot_code(self):
        """Once translated, looping code never re-enters the compiler."""
        image = image_from_asm(
            """
            main:
                movi t0, 500
            spin:
                addi t0, t0, -1
                bne  t0, zero, spin
                movi rv, 1
                movi a0, 0
                syscall
            """
        )
        vm = Engine().run(load_process(image))
        # A 500-iteration loop in <=3 traces: translations ~ footprint.
        assert vm.stats.traces_translated <= 4
        assert vm.instructions > 900

    def test_linking_avoids_vm_entries(self):
        """Linked traces chain without a VM round-trip per iteration."""
        image = image_from_asm(
            """
            main:
                movi t0, 300
            spin:
                addi t0, t0, -1
                jmp  check
            check:
                bne  t0, zero, spin
                movi rv, 1
                movi a0, 0
                syscall
            """
        )
        vm = Engine().run(load_process(image))
        # ~600 trace transitions, but VM entries stay O(footprint).
        assert vm.stats.vm_entries < 20


class TestCacheFlushPath:
    def test_small_pools_trigger_flush(self):
        image = image_from_asm(TINY_PROGRAM)
        config = VMConfig(code_pool_bytes=400, data_pool_bytes=700)
        vm = Engine(config=config).run(load_process(image))
        assert vm.exit_status == 7
        assert vm.stats.cache_flushes >= 1

    def test_trace_bigger_than_pool(self):
        image = image_from_asm(TINY_PROGRAM)
        config = VMConfig(code_pool_bytes=8, data_pool_bytes=8)
        with pytest.raises(EngineError):
            Engine(config=config).run(load_process(image))

    def test_default_pools_do_not_flush(self):
        _native, vm = run_both(PROGRAMS["branchy"])
        assert vm.stats.cache_flushes == 0


class TestBudget:
    def test_engine_budget_exhaustion(self):
        from repro.machine.cpu import MachineFault

        image = image_from_asm("main:\nspin:\n    jmp spin\n")
        config = VMConfig(max_instructions=500)
        with pytest.raises(MachineFault):
            Engine(config=config).run(load_process(image))


class TestResultShape:
    def test_cache_occupancy_reported(self):
        _native, vm = run_both(PROGRAMS["loop"])
        assert vm.cache_traces == vm.stats.traces_translated
        assert vm.cache_code_bytes > 0
        assert vm.cache_data_bytes > vm.cache_code_bytes  # Figure 9

    def test_host_stats_filled_without_session(self):
        """A run without persistence still fills its registry, and the
        ``persistence_report`` view reads it."""
        _native, vm = run_both(PROGRAMS["loop"])
        host = vm.host
        assert host.cache.traces_inserted == vm.stats.traces_translated
        assert host.sidecar_state == "disabled" and not host.cache_found
        assert host.events == []
        report = vm.persistence_report
        assert report["sidecar_host_compiles"] == host.host_compiles
        assert report["preloaded"] == 0
