"""Tests for the compilation unit: liveness, sizes, costs, stubs."""

import pytest

from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa.encoding import encode_all
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.vm.client import InstrumentationPoint, PointKind, Tool
from repro.vm.trace import ExitKind, TraceExit
from repro.vm.translator import (
    LINK_RECORD_BYTES,
    LIVENESS_BYTES_PER_INST,
    ADDR_TABLE_BYTES_PER_INST,
    REGISTER_BINDINGS_BYTES,
    STUB_INSTS_PER_EXIT,
    TRACE_OBJECT_BYTES,
    TranslatedTrace,
    Translator,
    _exit_stub_bytes,
    compute_liveness,
)

from tests.conftest import trace_of


def make_trace(instructions, exits=None, entry=0x1000):
    trace = trace_of(entry, list(instructions))
    if exits is None:
        exits = [TraceExit(ExitKind.INDIRECT, len(instructions) - 1)]
    trace.exits = exits
    return trace


class TestLiveness:
    def test_written_then_unread_register_dies(self):
        # t1 = ...; t2 = t1 + t1; ret  -- t1 dead before its def
        trace = make_trace([
            ins.movi(10, 5),
            ins.add(11, 10, 10),
            ins.ret(),
        ])
        live = compute_liveness(trace)
        # Before inst 0 executes, t1 (r10) must not be live (it's defined
        # there before any use).
        assert not (live[0] & (1 << 10))
        # Before inst 1, t1 is live (about to be read).
        assert live[1] & (1 << 10)

    def test_exit_points_conservative(self):
        trace = make_trace(
            [ins.movi(10, 5), ins.bne(1, 2, 8), ins.add(11, 10, 10), ins.ret()],
            exits=[
                TraceExit(ExitKind.BRANCH_TAKEN, 1, target=0x2000),
                TraceExit(ExitKind.INDIRECT, 3),
            ],
        )
        live = compute_liveness(trace)
        all_live = (1 << regs.NUM_REGISTERS) - 1
        # At the branch, everything is conservatively live.
        assert live[1] == all_live & ~0 | live[1]  # sanity: defined
        # The final ret is an exit: everything live minus nothing written.
        assert live[3] == all_live & ~(0)

    def test_one_mask_per_instruction(self):
        trace = make_trace([ins.nop()] * 7)
        assert len(compute_liveness(trace)) == 7


class _TwoPointTool(Tool):
    name = "twopoint"

    def instrument_trace(self, trace):
        return [
            InstrumentationPoint(PointKind.TRACE_ENTRY, 0, lambda c: None,
                                 label="entry"),
            InstrumentationPoint(PointKind.BEFORE_INST, 1, lambda c: None,
                                 label="inst1"),
        ]


class TestTranslation:
    def _translate(self, trace, tool=None):
        return Translator(DEFAULT_COST_MODEL, tool).translate(trace)

    def test_code_bytes_include_body_and_stubs(self):
        trace = make_trace([ins.nop(), ins.ret()])
        result = self._translate(trace)
        expected = (2 + STUB_INSTS_PER_EXIT * 1) * INSTRUCTION_SIZE
        assert result.translated.code_size == expected

    def test_data_size_formula(self):
        trace = make_trace([ins.nop()] * 5)
        result = self._translate(trace)
        expected = (
            TRACE_OBJECT_BYTES
            + REGISTER_BINDINGS_BYTES
            + 5 * (LIVENESS_BYTES_PER_INST + ADDR_TABLE_BYTES_PER_INST)
            + 1 * LINK_RECORD_BYTES
        )
        assert result.translated.data_size == expected

    def test_data_exceeds_code_for_typical_traces(self):
        """Figure 9: data structures consume more than the traces."""
        trace = make_trace([ins.nop()] * 10)
        result = self._translate(trace)
        assert result.translated.data_size > result.translated.code_size

    def test_compile_cost_scales_with_length(self):
        short = self._translate(make_trace([ins.ret()]))
        long = self._translate(make_trace([ins.nop()] * 20 + [ins.ret()]))
        assert long.compile_cycles > short.compile_cycles
        cost = DEFAULT_COST_MODEL
        assert short.compile_cycles == pytest.approx(
            cost.trace_compile_fixed + 1 * cost.trace_compile_per_inst
        )

    def test_instrumentation_compile_cost(self):
        trace = make_trace([ins.nop(), ins.nop(), ins.ret()])
        plain = self._translate(trace)
        instrumented = self._translate(trace, _TwoPointTool())
        delta = instrumented.compile_cycles - plain.compile_cycles
        assert delta == pytest.approx(
            2 * DEFAULT_COST_MODEL.instrument_compile_per_inst
        )

    def test_points_indexed(self):
        trace = make_trace([ins.nop(), ins.nop(), ins.ret()])
        translated = self._translate(trace, _TwoPointTool()).translated
        assert set(translated.points_by_index) == {0, 1}
        assert len(translated.points) == 2

    def test_instrumented_code_larger(self):
        trace = make_trace([ins.nop(), ins.nop(), ins.ret()])
        plain = self._translate(trace).translated
        instrumented = self._translate(trace, _TwoPointTool()).translated
        assert instrumented.code_size > plain.code_size

    @pytest.mark.parametrize("target", [0, 1, 0x1234, 0x7FFFFFFF])
    def test_exit_stub_is_the_encoded_movi_and_jump(self, target):
        """The stub packed from its fields is the two instructions it
        stands for, byte for byte."""
        assert _exit_stub_bytes(target) == encode_all(
            [ins.movi(regs.AT, target), ins.jmp(0)]
        )


class TestLinkSlots:
    def test_branch_slots_and_final(self):
        trace = make_trace(
            [ins.bne(1, 2, 8), ins.nop(), ins.jmp(0x5000)],
            exits=[
                TraceExit(ExitKind.BRANCH_TAKEN, 0, target=0x2000),
                TraceExit(ExitKind.DIRECT, 2, target=0x5000),
            ],
        )
        translated = Translator(DEFAULT_COST_MODEL).translate(trace).translated
        assert set(translated.branch_slots) == {0}
        assert translated.final_slot.exit.kind == ExitKind.DIRECT

    def test_linkable(self):
        trace = make_trace(
            [ins.syscall()],
            exits=[TraceExit(ExitKind.SYSCALL, 0, target=0x1008)],
        )
        translated = Translator(DEFAULT_COST_MODEL).translate(trace).translated
        assert not translated.final_slot.is_linkable  # syscalls exit to VM
