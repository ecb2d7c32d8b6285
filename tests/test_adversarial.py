"""Differential tests for the anti-instrumentation workload family.

Three-way differentials (native oracle vs. VM interpreted vs. VM
compiled tiers) over :mod:`repro.workloads.adversarial`, plus targeted
images for the attack shapes the engine's caches are most exposed to:
SMC on a target cached in an indirect-branch inline cache, SMC on a
member of a fused superblock region, self-checksumming across a
code-cache flush, and SMC against module traces revived by
module-aware retention.  Also home to the lagging-native-clock
regression (satellite bugfix, PR 10).
"""

import struct

import pytest

from repro.binfmt.image import ImageBuilder
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.loader.linker import load_process
from repro.machine.cpu import DEFAULT_COST_MODEL, Machine, run_native
from repro.machine.syscalls import SYS_CLOCK, SYS_EXIT, SYS_WRITE
from repro.vm.engine import Engine, VMConfig
from repro.workloads.adversarial import (
    CHURN_WORKLOADS,
    _materialize,
    _word_of,
    build_adversarial_suite,
)
from repro.workloads.builder import FunctionCode
from repro.workloads.harness import run_native as run_workload_native
from repro.workloads.harness import run_vm

INTERPRETED = VMConfig(dispatch_mode="interpreted")
# The compiled tiers compile every trace at its first entry, so IC and
# region mechanics engage; the default tier-up is audited separately.
COMPILED = VMConfig(dispatch_mode="compiled", trace_linking=False,
                    compile_threshold=1)
LINKED = VMConfig(dispatch_mode="compiled", trace_linking=True,
                  compile_threshold=1)


def _words(output: bytes):
    return [
        struct.unpack("<q", output[i:i + 8])[0]
        for i in range(0, len(output), 8)
    ]


class TestSuiteDifferential:
    """Every suite member: native vs. interpreted vs. compiled tiers."""

    @pytest.fixture(scope="class")
    def suite(self):
        return build_adversarial_suite()

    @pytest.mark.parametrize(
        "name",
        ["checksum", "churn_hot", "churn_region", "churn_boundary",
         "dlopen_smc"],
    )
    def test_matches_native(self, suite, name):
        workload = suite[name]
        native = run_workload_native(workload, "run")
        for config in (INTERPRETED, COMPILED, LINKED):
            result = run_vm(workload, "run", vm_config=config)
            assert result.output == native.output, name
            assert result.exit_status == native.exit_status, name

    @pytest.mark.parametrize("name", sorted(CHURN_WORKLOADS))
    def test_churners_trigger_invalidation(self, suite, name):
        result = run_vm(suite[name], "run", vm_config=COMPILED)
        assert result.stats.smc_invalidations > 0, name

    def test_timer_identical_across_tiers(self, suite):
        """The clock probe's raw deltas (and therefore its branch
        decisions) must be bit-identical across every VM tier — a
        dispatch tier that shifted mid-run clocks would hand the
        program a side channel distinguishing the tiers."""
        oracle = run_vm(suite["timer"], "run", vm_config=INTERPRETED)
        for config in (COMPILED, LINKED):
            result = run_vm(suite["timer"], "run", vm_config=config)
            assert result.output == oracle.output
            assert result.exit_status == oracle.exit_status
            assert vars(result.stats) == vars(oracle.stats)
        deltas = _words(oracle.output)
        assert all(delta > 0 for delta in deltas[:2])


def build_ic_smc_image():
    """SMC against a target cached in an indirect inline cache.

    A ``callr`` site alternates between two targets long enough for
    the compiled tier's IC chain to hold both, then main rewrites
    ``target_a[0]`` and keeps calling: the chain entry for the old
    trace must be dropped (generation bump), never chained to.

    Per iteration pre-patch: t8 = 11 then 22 (s0 += 33); post-patch:
    77 then 22 (s0 += 99).
    """
    builder = ImageBuilder("ic-smc-app")
    builder.add_function("target_a", [ins.movi(regs.T0 + 8, 11), ins.ret()])
    builder.add_function("target_b", [ins.movi(regs.T0 + 8, 22), ins.ret()])
    main = FunctionCode()
    main.symbol_refs.append((len(main.code), "target_a"))
    main.emit(ins.movi(regs.T0 + 1, 0))
    main.symbol_refs.append((len(main.code), "target_b"))
    main.emit(ins.movi(regs.T0 + 2, 0))
    main.emit(ins.movi(regs.S0, 0))
    main.emit(ins.movi(regs.T0 + 7, 12))

    def call_loop():
        main.emit(ins.movi(regs.T0 + 3, 0))
        head = len(main.code)
        main.emit(ins.callr(regs.T0 + 1))
        main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 8))
        main.emit(ins.callr(regs.T0 + 2))
        main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 8))
        main.emit(ins.addi(regs.T0 + 3, regs.T0 + 3, 1))
        here = len(main.code)
        main.emit(ins.blt(regs.T0 + 3, regs.T0 + 7, (head - (here + 1)) * 8))

    call_loop()
    _materialize(main, regs.T0 + 6, _word_of(ins.movi(regs.T0 + 8, 77)))
    main.emit(ins.st(regs.T0 + 1, regs.T0 + 6, 0))
    call_loop()
    main.emit(ins.st(regs.SP, regs.S0, 0))
    main.emit(ins.movi(regs.A0, 8))
    main.emit(ins.or_(regs.A1, regs.SP, regs.ZERO))
    main.emit(ins.movi(regs.RV, SYS_WRITE))
    main.emit(ins.syscall())
    main.emit(ins.andi(regs.A0, regs.S0, 127))
    main.emit(ins.movi(regs.RV, SYS_EXIT))
    main.emit(ins.syscall())
    builder.add_function("main", main.code, symbol_refs=main.symbol_refs)
    builder.set_entry("main")
    return builder.build()


class TestSMCOnICTarget:
    EXPECTED = 12 * 33 + 12 * 99  # 1584

    def test_three_way(self):
        image = build_ic_smc_image()
        native = run_native(Machine(load_process(image)))
        assert _words(native.output) == [self.EXPECTED]
        for config in (INTERPRETED, COMPILED, LINKED):
            result = Engine(config=config).run(load_process(image))
            assert result.output == native.output
            assert result.exit_status == native.exit_status

    def test_ic_engaged_then_reset(self):
        result = Engine(config=COMPILED).run(
            load_process(build_ic_smc_image())
        )
        # The chain served hits before the patch, and the SMC store
        # was detected.  (No ``resets`` assertion: the store lands on
        # the same 512-byte page as the caller, so the caller's trace —
        # and its chain — is evicted wholesale and rebuilt empty
        # rather than discarded on a generation check.)
        assert result.ic_stats.hits > 0
        assert result.stats.smc_invalidations > 0


class TestSMCOnRegionMember:
    def test_three_way_with_fusion(self):
        workload = build_adversarial_suite()["churn_region"]
        native = run_workload_native(workload, "run")
        linked = run_vm(workload, "run", vm_config=LINKED)
        assert linked.output == native.output
        assert linked.exit_status == native.exit_status
        # The attack only means something if the chain actually fused
        # before the patch landed on a member.
        assert linked.link_stats.regions_fused > 0
        assert linked.host.cache.region_invalidations > 0
        assert linked.stats.smc_invalidations > 0


class TestChecksumAfterFlush:
    def test_three_way_across_flush(self):
        """Self-checksums must read identical code bytes even after the
        code cache flushed and every trace was retranslated."""
        workload = build_adversarial_suite()["checksum"]
        native = run_workload_native(workload, "run")
        for base in (INTERPRETED, COMPILED, LINKED):
            config = VMConfig(
                dispatch_mode=base.dispatch_mode,
                trace_linking=base.trace_linking,
                code_pool_bytes=2048,
                data_pool_bytes=2048,
            )
            result = run_vm(workload, "run", vm_config=config)
            assert result.stats.cache_flushes > 0
            assert result.output == native.output
            assert result.exit_status == native.exit_status


class TestSMCOnRevivedModuleTraces:
    def test_revival_keeps_detection_armed(self):
        """Regression: traces revived by module-aware retention (and by
        persistence preload — both go through ``CodeCache.insert``)
        must re-arm the SMC detector for their pages.  dlclose discards
        the page tracking; before the fix, a reload served revived
        traces whose pages were no longer watched, so later stores
        into the module went undetected and the stale body kept
        running."""
        workload = build_adversarial_suite()["dlopen_smc"]
        native = run_workload_native(workload, "run")
        result = run_vm(workload, "run", vm_config=COMPILED)
        assert result.output == native.output
        assert result.exit_status == native.exit_status
        # One invalidation per iteration: every store was seen, even
        # the ones landing on revived traces.
        iterations = len(native.output) // 8
        assert result.stats.smc_invalidations == iterations
        assert result.stats.module_traces_retained > 0


_SPIN_TRIPS = 64
_SPIN_BODY_INSTS = 3


def build_clock_probe_image():
    """Three ``SYS_CLOCK`` reads separated by fixed spin loops, each
    stamp written to output."""
    builder = ImageBuilder("clock-probe-app")
    main = FunctionCode()

    def clock_and_write():
        main.emit(ins.movi(regs.RV, SYS_CLOCK))
        main.emit(ins.syscall())
        main.emit(ins.st(regs.SP, regs.RV, 0))
        main.emit(ins.movi(regs.A0, 8))
        main.emit(ins.or_(regs.A1, regs.SP, regs.ZERO))
        main.emit(ins.movi(regs.RV, SYS_WRITE))
        main.emit(ins.syscall())

    def spin():
        main.emit(ins.movi(regs.T0 + 2, 0))
        main.emit(ins.movi(regs.T0 + 7, _SPIN_TRIPS))
        head = len(main.code)
        main.emit(ins.addi(regs.T0 + 3, regs.T0 + 3, 5))
        main.emit(ins.addi(regs.T0 + 2, regs.T0 + 2, 1))
        here = len(main.code)
        main.emit(ins.blt(regs.T0 + 2, regs.T0 + 7, (head - (here + 1)) * 8))

    clock_and_write()
    spin()
    clock_and_write()
    spin()
    clock_and_write()
    main.emit(ins.movi(regs.A0, 0))
    main.emit(ins.movi(regs.RV, SYS_EXIT))
    main.emit(ins.syscall())
    builder.add_function("main", main.code)
    builder.set_entry("main")
    return builder.build()


class TestNativeClockAdvances:
    """Regression: mid-run native ``SYS_CLOCK`` must include
    instructions retired so far (satellite bugfix, PR 10) — before the
    fix it returned only accumulated syscall cost, reading ~0 across a
    million-instruction spin."""

    def test_monotone_and_tracks_instructions(self):
        result = run_native(Machine(load_process(build_clock_probe_image())))
        first, second, third = _words(result.output)
        assert first < second < third
        spin_cost = (
            _SPIN_TRIPS * _SPIN_BODY_INSTS * DEFAULT_COST_MODEL.native_inst
        )
        # Each gap covers at least its spin loop's retired instructions.
        assert second - first >= spin_cost
        assert third - second >= spin_cost
        # Identical phases cost identical cycles.
        assert second - first == third - second

    def test_final_cycles_formula_unchanged(self):
        """The fix changes what mid-run probes see, not the final
        accounting: total cycles are still exactly retired instructions
        plus per-syscall cost."""
        result = run_native(Machine(load_process(build_clock_probe_image())))
        syscalls = 7  # 3 clock + 3 write + 1 exit
        expected = (
            result.instructions * DEFAULT_COST_MODEL.native_inst
            + syscalls * DEFAULT_COST_MODEL.native_syscall
        )
        assert result.cycles == expected
