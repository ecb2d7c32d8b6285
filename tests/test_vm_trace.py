"""Tests for trace selection semantics.

The selector reads code bytes straight from the mapping that holds a
trace.  :func:`reference_select` keeps the word-by-word selector it
replaced, one ``fetch`` and one decoded instruction per word, and the
differential tests check that both give the same traces and the same
faults over every workload corpus.
"""

import pytest

from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa.encoding import DecodeError, decode, encode_all
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import Opcode
from repro.loader.linker import load_process
from repro.loader.mapper import AddressSpace, Mapping, MemoryError_
from repro.machine.cpu import Machine, MachineFault, THREAD_EXIT_STUB
from repro.vm.engine import Engine, VMConfig
from repro.vm.trace import (
    DEFAULT_MAX_TRACE_INSTS,
    ExitKind,
    TraceExit,
    TraceSelector,
)
from repro.workloads.adversarial import build_adversarial_suite
from repro.workloads.chains import build_chain_suite
from repro.workloads.gui import build_gui_suite
from repro.workloads.indirect import build_indirect_suite
from repro.workloads.spec2k import build_suite

from tests.test_smc import build_smc_image


def selector_for(code, base=0x1000, max_insts=DEFAULT_MAX_TRACE_INSTS):
    """Build a TraceSelector over an in-memory instruction list."""
    return TraceSelector.over(encode_all(code), base, max_insts), base


# -- the per-pc reference ----------------------------------------------------


def fetch_from(space):
    """Per-pc fetch as :meth:`Machine.fetch_uop` does it, without its
    memo, as :class:`Instruction` objects."""

    def fetch(pc):
        try:
            raw = space.read_bytes(pc, INSTRUCTION_SIZE)
        except MemoryError_ as exc:
            raise MachineFault("fetch from unmapped memory", pc) from exc
        return decode(raw)

    return fetch


def machine_fetch(machine):
    """The native interpreter's fetch, :meth:`Machine.fetch_uop`, as
    :class:`Instruction` objects, one built per distinct uop."""
    built = {}

    def fetch(pc):
        uop = machine.fetch_uop(pc)
        inst = built.get(uop)
        if inst is None:
            op, rd, rs1, rs2, imm = uop
            inst = built[uop] = Instruction(Opcode(op), rd, rs1, rs2, imm)
        return inst

    return fetch


def reference_select(fetch, entry, max_insts=DEFAULT_MAX_TRACE_INSTS):
    """Select the trace at ``entry`` one fetched instruction at a time.

    Returns ``(uops, body, exits)``.
    """
    insts, exits = [], []
    pc = entry
    for index in range(max_insts):
        inst = fetch(pc)
        insts.append(inst)
        if inst.is_conditional_branch:
            exits.append(TraceExit(ExitKind.BRANCH_TAKEN, index,
                                   inst.branch_target(pc)))
        elif inst.is_unconditional:
            if inst.opcode in (Opcode.JMP, Opcode.CALL):
                exits.append(TraceExit(ExitKind.DIRECT, index, inst.imm))
            elif inst.opcode == Opcode.SYSCALL:
                exits.append(TraceExit(ExitKind.SYSCALL, index,
                                       pc + INSTRUCTION_SIZE))
            elif inst.opcode == Opcode.HALT:
                exits.append(TraceExit(ExitKind.HALT, index))
            else:
                exits.append(TraceExit(ExitKind.INDIRECT, index))
            break
        pc += INSTRUCTION_SIZE
    else:
        exits.append(TraceExit(ExitKind.FALLTHROUGH, len(insts) - 1, pc))
    return [i.as_tuple() for i in insts], encode_all(insts), exits


def outcome(select, entry):
    """What selecting ``entry`` gives: the trace's entry, uops, body and
    exits, or the fault's type, message and pc."""
    try:
        trace = select(entry)
    except (MachineFault, DecodeError) as exc:
        return ("fault", type(exc), str(exc), getattr(exc, "pc", None))
    if isinstance(trace, tuple):  # the reference's (uops, body, exits)
        return ("trace", entry) + trace
    return ("trace", trace.entry, trace.uops, trace.body, trace.exits)


def assert_same_outcome(space, fetch, entry, max_insts):
    selector = TraceSelector(space.mapping_at, max_insts)
    expected = outcome(lambda pc: reference_select(fetch, pc, max_insts),
                       entry)
    assert outcome(selector.select, entry) == expected, hex(entry)
    return expected


# -- termination and exits ---------------------------------------------------


class TestTermination:
    @pytest.mark.parametrize(
        "terminator,kind",
        [
            (ins.jmp(0x4000), ExitKind.DIRECT),
            (ins.call(0x4000), ExitKind.DIRECT),
            (ins.jr(5), ExitKind.INDIRECT),
            (ins.callr(5), ExitKind.INDIRECT),
            (ins.ret(), ExitKind.INDIRECT),
            (ins.syscall(), ExitKind.SYSCALL),
            (ins.halt(), ExitKind.HALT),
        ],
    )
    def test_terminators_end_trace(self, terminator, kind):
        code = [ins.nop(), ins.nop(), terminator, ins.nop()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        assert len(trace.instructions) == 3
        assert trace.exits[-1].kind == kind
        assert trace.exits[-1].index == 2

    def test_direct_exit_target(self):
        code = [ins.jmp(0x4000)]
        selector, base = selector_for(code)
        trace = selector.select(base)
        assert trace.exits[-1].target == 0x4000

    def test_syscall_exit_resume_target(self):
        code = [ins.nop(), ins.syscall()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        assert trace.exits[-1].target == base + 2 * INSTRUCTION_SIZE

    def test_indirect_has_no_target(self):
        code = [ins.ret()]
        selector, base = selector_for(code)
        assert selector.select(base).exits[-1].target is None


class TestConditionalBranches:
    def test_branch_does_not_end_trace(self):
        code = [ins.bne(1, 2, 16), ins.nop(), ins.ret()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        assert len(trace.instructions) == 3

    def test_branch_side_exit(self):
        code = [ins.nop(), ins.bne(1, 2, 16), ins.ret()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        branch_exits = [e for e in trace.exits if e.kind == ExitKind.BRANCH_TAKEN]
        assert len(branch_exits) == 1
        exit_ = branch_exits[0]
        assert exit_.index == 1
        assert exit_.target == base + 2 * INSTRUCTION_SIZE + 16

    def test_multiple_branches_in_order(self):
        code = [ins.beq(1, 2, 8), ins.bne(3, 4, 8), ins.ret()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        kinds = [e.kind for e in trace.exits]
        assert kinds == [ExitKind.BRANCH_TAKEN, ExitKind.BRANCH_TAKEN, ExitKind.INDIRECT]

    def test_backward_branch_target(self):
        code = [ins.nop(), ins.blt(1, 2, -16), ins.ret()]
        selector, base = selector_for(code)
        assert selector.select(base).exits[0].target == base


class TestLengthLimit:
    def test_limit_produces_fallthrough(self):
        code = [ins.nop()] * 40
        selector, base = selector_for(code, max_insts=8)
        trace = selector.select(base)
        assert len(trace.instructions) == 8
        final = trace.exits[-1]
        assert final.kind == ExitKind.FALLTHROUGH
        assert final.target == base + 8 * INSTRUCTION_SIZE

    def test_limit_one(self):
        code = [ins.nop(), ins.nop()]
        selector, base = selector_for(code, max_insts=1)
        trace = selector.select(base)
        assert len(trace.instructions) == 1

    def test_invalid_limit(self):
        with pytest.raises(ValueError):
            TraceSelector(lambda pc: None, max_trace_insts=0)

    def test_branch_at_limit_keeps_both_exits(self):
        code = [ins.nop(), ins.bne(1, 2, 8), ins.nop()]
        selector, base = selector_for(code, max_insts=2)
        trace = selector.select(base)
        kinds = [e.kind for e in trace.exits]
        assert kinds == [ExitKind.BRANCH_TAKEN, ExitKind.FALLTHROUGH]
        assert trace.exits[-1].target == base + 2 * INSTRUCTION_SIZE

    def test_terminator_at_limit_is_the_exit(self):
        code = [ins.nop(), ins.ret()]
        selector, base = selector_for(code, max_insts=2)
        assert [e.kind for e in selector.select(base).exits] == [
            ExitKind.INDIRECT
        ]


class TestTraceProperties:
    def test_addresses(self):
        code = [ins.nop(), ins.nop(), ins.ret()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        assert trace.size == 3 * INSTRUCTION_SIZE
        assert trace.end == base + trace.size
        assert trace.address_of(1) == base + INSTRUCTION_SIZE
        assert trace.instruction_addresses() == [base, base + 8, base + 16]

    def test_image_attribution(self):
        code = [ins.ret()]
        selector, base = selector_for(code)
        trace = selector.select(base, image_path="libx.so", image_base=0x900)
        assert trace.image_path == "libx.so"
        assert trace.image_base == 0x900

    def test_uops_match_instructions(self):
        code = [ins.addi(1, 1, 5), ins.ret()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        assert trace.uops == [inst.as_tuple() for inst in trace.instructions]

    def test_body_is_the_code_bytes(self):
        code = [ins.addi(1, 1, 5), ins.ret(), ins.halt()]
        selector, base = selector_for(code)
        assert selector.select(base).body == encode_all(code[:2])

    def test_layout_unaltered(self):
        """Selection must not transform application instructions."""
        code = [ins.addi(1, 1, 5), ins.bne(1, 2, -16), ins.ret()]
        selector, base = selector_for(code)
        trace = selector.select(base)
        assert trace.instructions == code


# -- the byte reader against per-pc fetch -------------------------------------


CORPORA = {
    "gui": lambda: build_gui_suite()[0],
    "spec": build_suite,
    "chain": build_chain_suite,
    "indirect": build_indirect_suite,
    "adversarial": build_adversarial_suite,
}


class TestAgainstPerPcFetch:
    """Over every image word of every corpus, with its optional modules
    loaded, and over the thread-exit shim, reading a trace's bytes gives
    what fetching it word by word gives: the same entry, uops, body and
    exits, or the same fault at the same pc."""

    @pytest.mark.parametrize("corpus", sorted(CORPORA))
    def test_every_entry_agrees(self, corpus):
        swept = set()
        faults = traces = 0
        for _name, workload in sorted(CORPORA[corpus]().items()):
            process = workload.load()
            for index in sorted(process.optional_modules):
                process.load_module(index)
            fetch = machine_fetch(Machine(process))
            space = process.space
            for mapping in list(space.mappings):
                key = mapping.image.path if mapping.image else mapping.name
                if key in swept or (mapping.image is None
                                    and mapping.base != THREAD_EXIT_STUB):
                    continue
                swept.add(key)
                # Every word, plus a misaligned entry now and then, at
                # the default limit and at a short one.
                entries = list(range(mapping.base, mapping.end,
                                     INSTRUCTION_SIZE))
                entries += list(range(mapping.base + 4, mapping.end, 1004))
                for entry in entries:
                    for max_insts in (DEFAULT_MAX_TRACE_INSTS, 3):
                        result = assert_same_outcome(
                            space, fetch, entry, max_insts
                        )
                        faults += result[0] == "fault"
                        traces += result[0] == "trace"
        # Both sides of the comparison are exercised: sweeps through
        # data and past a mapping's end fault.
        assert traces > 100 and faults > 0


# -- faults ------------------------------------------------------------------


def space_of(*regions):
    """An address space holding ``(base, code bytes)`` regions."""
    space = AddressSpace()
    for base, data in regions:
        space.add_mapping(Mapping(base=base, data=bytearray(data)))
    return space


def words(*insts):
    return encode_all(insts)


#: An illegal opcode byte, then a word whose register is out of range.
ILLEGAL_OPCODE = b"\xee" + bytes(7)
BAD_REGISTER = bytes([int(Opcode.ADD), 0xFF]) + bytes(6)


class TestFaults:
    """Selection faults where a word-by-word fetch faults: the same
    exception, message and pc."""

    @staticmethod
    def both(space, entry, max_insts=DEFAULT_MAX_TRACE_INSTS):
        return assert_same_outcome(space, fetch_from(space), entry,
                                   max_insts)

    def test_unmapped_entry(self):
        space = space_of((0x1000, words(ins.ret())))
        result = self.both(space, 0x9000)
        assert result[:2] == ("fault", MachineFault) and result[3] == 0x9000
        with pytest.raises(MachineFault, match="fetch from unmapped memory"):
            TraceSelector(space.mapping_at).select(0x9000)

    def test_run_off_a_mapping_end_mid_trace(self):
        space = space_of((0x1000, words(ins.nop(), ins.nop())))
        result = self.both(space, 0x1000)
        assert result[:2] == ("fault", MachineFault)
        assert result[3] == 0x1010

    def test_word_past_a_mapping_end(self):
        """A word that starts inside a mapping but ends past it faults
        at its own pc, even when another mapping abuts."""
        space = space_of((0x1000, words(ins.nop()) + b"\x00" * 4),
                         (0x100c, words(ins.ret())))
        result = self.both(space, 0x1000)
        assert result[:2] == ("fault", MachineFault)
        assert result[3] == 0x1008

    def test_read_continues_into_an_abutting_mapping(self):
        space = space_of((0x1000, words(ins.nop(), ins.beq(1, 2, 8))),
                         (0x1010, words(ins.addi(1, 1, 1), ins.ret())))
        result = self.both(space, 0x1008)
        assert result[0] == "trace" and len(result[2]) == 3

    @pytest.mark.parametrize("bad", [ILLEGAL_OPCODE, BAD_REGISTER],
                             ids=["opcode", "register"])
    def test_undecodable_word_before_the_terminator(self, bad):
        space = space_of((0x1000, words(ins.nop()) + bad + words(ins.ret())))
        result = self.both(space, 0x1000)
        assert result[:2] == ("fault", DecodeError)
        with pytest.raises(DecodeError) as excinfo:
            decode(bad)
        assert result[2] == str(excinfo.value)

    def test_undecodable_terminator(self):
        bad_ret = bytes([int(Opcode.RET), 0, 0xFF]) + bytes(5)
        result = self.both(space_of((0x1000, words(ins.nop()) + bad_ret)),
                           0x1000)
        assert result[:2] == ("fault", DecodeError)

    @pytest.mark.parametrize("bad", [ILLEGAL_OPCODE, BAD_REGISTER],
                             ids=["opcode", "register"])
    def test_undecodable_word_after_the_terminator(self, bad):
        space = space_of((0x1000, words(ins.nop(), ins.ret()) + bad))
        result = self.both(space, 0x1000)
        assert result[0] == "trace" and len(result[2]) == 2

    def test_undecodable_word_before_the_mapping_end(self):
        """The decode error comes first: it is the earlier word."""
        space = space_of((0x1000, words(ins.nop()) + ILLEGAL_OPCODE))
        assert self.both(space, 0x1000)[:2] == ("fault", DecodeError)

    def test_word_past_the_limit_is_not_read(self):
        space = space_of((0x1000, words(ins.nop(), ins.nop()) + ILLEGAL_OPCODE))
        result = self.both(space, 0x1000, max_insts=2)
        assert result[0] == "trace"
        assert result[4][-1] == TraceExit(ExitKind.FALLTHROUGH, 1, 0x1010)

    def test_limit_reached_exactly_at_a_mapping_end(self):
        space = space_of((0x1000, words(ins.nop(), ins.bne(1, 2, 8))))
        result = self.both(space, 0x1000, max_insts=2)
        assert result[0] == "trace"
        assert [e.kind for e in result[4]] == [ExitKind.BRANCH_TAKEN,
                                               ExitKind.FALLTHROUGH]
        assert result[4][-1].target == 0x1010

    def test_selection_leaves_the_window_alone(self):
        space = space_of((0x1000, words(ins.ret())),
                         (0x8000, bytes(64)))
        space.read_word(0x8000)
        window = list(space.window)
        TraceSelector(space.mapping_at).select(0x1000)
        assert space.window == window


class TestSelfModification:
    """Selection reads the current code bytes: a word patched by the
    program is what the trace selected after its old trace's eviction
    holds."""

    @pytest.mark.parametrize("dispatch_mode", ["interpreted", "compiled"])
    def test_patched_word_is_selected_after_eviction(self, monkeypatch,
                                                     dispatch_mode):
        image = build_smc_image()
        process = load_process(image)
        [symbol] = [s for s in image.symbols if s.name == "patchme"]
        patchme = process.mappings[0].base + symbol.vaddr
        selected = []
        select = TraceSelector.select

        def recording(selector, entry, *args, **kwargs):
            trace = select(selector, entry, *args, **kwargs)
            if entry == patchme:
                selected.append(trace.uops[0])
            return trace

        monkeypatch.setattr(TraceSelector, "select", recording)
        result = Engine(config=VMConfig(dispatch_mode=dispatch_mode)).run(
            process
        )
        assert result.exit_status == 99
        assert result.stats.smc_invalidations >= 1
        assert selected == [ins.movi(regs.A0, 1).as_tuple(),
                            ins.movi(regs.A0, 99).as_tuple()]
