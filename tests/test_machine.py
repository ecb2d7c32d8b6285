"""Tests for the simulated CPU, syscalls and cost model."""

import traceback

import pytest

from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.loader.linker import load_process
from repro.machine.costs import CostModel, DEFAULT_COST_MODEL
from repro.machine.cpu import (
    ExecutionContext,
    HEAP_BASE,
    Interpreter,
    Machine,
    MachineFault,
    run_native,
)
from repro.machine.syscalls import (
    OSState,
    SYS_BRK,
    SYS_CLOCK,
    SYS_EXIT,
    SYS_GETPID,
    SYS_KILL,
    SYS_RAND,
    SYS_SIGACTION,
    SYS_WRITE,
    SyscallError,
    dispatch_syscall,
)

from tests.conftest import image_from_asm, make_machine


def _step_program(machine, *insts):
    """Single-step instructions through an ExecutionContext."""
    context = ExecutionContext(machine)
    pc = 0x100
    results = []
    for inst in insts:
        pc, event = context.step(inst, pc)
        results.append((pc, event))
    return machine, results


def _step_uop(machine, inst, pc):
    return ExecutionContext(machine).step(inst, pc)


def _run_uops(machine, inst, pc):
    """``run_uops`` on a one-uop trace, as ``step_uop``'s ``(next_pc,
    event)``."""
    index, next_pc, event = ExecutionContext(machine).run_uops(
        [inst.as_tuple()], pc
    )
    assert index == 0
    return next_pc, event


class TestAluSemantics:
    #: The interpreter under test: ``execute(machine, inst, pc)`` returns
    #: ``(next_pc, event)``.  The ``RunUops`` subclasses run every case
    #: again under ``run_uops``.
    execute = staticmethod(_step_uop)

    @pytest.fixture
    def machine(self, tiny_machine):
        return tiny_machine

    def _run_one(self, machine, inst, setup=()):
        for reg, value in setup:
            machine.registers[reg] = value
        next_pc, _event = self.execute(machine, inst, 0x100)
        return next_pc

    @pytest.mark.parametrize(
        "inst,setup,reg,expected",
        [
            (ins.add(3, 1, 2), [(1, 5), (2, 7)], 3, 12),
            (ins.sub(3, 1, 2), [(1, 5), (2, 7)], 3, -2),
            (ins.mul(3, 1, 2), [(1, -4), (2, 3)], 3, -12),
            (ins.div(3, 1, 2), [(1, 7), (2, 2)], 3, 3),
            (ins.div(3, 1, 2), [(1, -7), (2, 2)], 3, -3),  # trunc toward 0
            (ins.and_(3, 1, 2), [(1, 0b1100), (2, 0b1010)], 3, 0b1000),
            (ins.or_(3, 1, 2), [(1, 0b1100), (2, 0b1010)], 3, 0b1110),
            (ins.xor(3, 1, 2), [(1, 0b1100), (2, 0b1010)], 3, 0b0110),
            (ins.shl(3, 1, 2), [(1, 1), (2, 4)], 3, 16),
            (ins.shr(3, 1, 2), [(1, 16), (2, 4)], 3, 1),
            (ins.slt(3, 1, 2), [(1, -1), (2, 0)], 3, 1),
            (ins.slt(3, 1, 2), [(1, 1), (2, 0)], 3, 0),
            (ins.addi(3, 1, -5), [(1, 10)], 3, 5),
            (ins.andi(3, 1, 0xF), [(1, 0x1234)], 3, 4),
            (ins.ori(3, 1, 0xF0), [(1, 1)], 3, 0xF1),
            (ins.xori(3, 1, 0xFF), [(1, 0x0F)], 3, 0xF0),
            (ins.shli(3, 1, 3), [(1, 2)], 3, 16),
            (ins.shri(3, 1, 3), [(1, 16)], 3, 2),
            (ins.lui(3, 2), [], 3, 1 << 17),
            (ins.movi(3, -99), [], 3, -99),
        ],
    )
    def test_alu(self, machine, inst, setup, reg, expected):
        self._run_one(machine, inst, setup)
        assert machine.registers[reg] == expected

    def test_overflow_wraps_to_64_bits(self, machine):
        machine.registers[1] = (1 << 62)
        machine.registers[2] = (1 << 62)
        self.execute(machine, ins.mul(3, 1, 2), 0)
        value = machine.registers[3]
        assert -(1 << 63) <= value < (1 << 63)

    def test_zero_register_never_written(self, machine):
        machine.registers[1] = 5
        self.execute(machine, ins.add(regs.ZERO, 1, 1), 0)
        assert machine.registers[regs.ZERO] == 0

    def test_shr_is_logical_on_unsigned_view(self, machine):
        machine.registers[1] = -1
        self.execute(machine, ins.shri(3, 1, 1), 0)
        assert machine.registers[3] == (1 << 63) - 1

    def test_division_by_zero_faults(self, machine):
        machine.registers[2] = 0
        with pytest.raises(MachineFault):
            self.execute(machine, ins.div(3, 1, 2), 0x40)

    def test_fault_traceback_shows_the_generated_line(self, machine):
        machine.registers[2] = 0
        with pytest.raises(MachineFault) as excinfo:
            self.execute(machine, ins.div(3, 1, 2), 0x40)
        shown = "".join(traceback.format_tb(excinfo.tb))
        assert 'raise MachineFault("division by zero", pc)' in shown


class TestControlFlow:
    execute = staticmethod(_step_uop)

    def test_taken_and_not_taken(self, tiny_machine):
        tiny_machine.registers[1] = 1
        tiny_machine.registers[2] = 1
        pc, _ = self.execute(tiny_machine, ins.beq(1, 2, 0x20), 0x100)
        assert pc == 0x128
        pc, _ = self.execute(tiny_machine, ins.bne(1, 2, 0x20), 0x100)
        assert pc == 0x108

    def test_call_sets_lr(self, tiny_machine):
        pc, _ = self.execute(tiny_machine, ins.call(0x4000), 0x100)
        assert pc == 0x4000
        assert tiny_machine.registers[regs.LR] == 0x108

    def test_callr_reads_target_before_clobbering_lr(self, tiny_machine):
        # callr lr: the target must be the OLD lr value.
        tiny_machine.registers[regs.LR] = 0x7777
        pc, _ = self.execute(tiny_machine, ins.callr(regs.LR), 0x100)
        assert pc == 0x7777
        assert tiny_machine.registers[regs.LR] == 0x108

    def test_ret_and_jr(self, tiny_machine):
        tiny_machine.registers[regs.LR] = 0x9000
        assert self.execute(tiny_machine, ins.ret(), 0)[0] == 0x9000
        tiny_machine.registers[5] = 0x8000
        assert self.execute(tiny_machine, ins.jr(5), 0)[0] == 0x8000


class TestMemory:
    execute = staticmethod(_step_uop)

    def test_load_store_roundtrip(self, tiny_machine):
        tiny_machine.registers[2] = -1234
        self.execute(tiny_machine, ins.st(regs.SP, 2, 0), 0)
        self.execute(tiny_machine, ins.ld(3, regs.SP, 0), 0)
        assert tiny_machine.registers[3] == -1234

    def test_unmapped_faults(self, tiny_machine):
        tiny_machine.registers[1] = 0x12
        with pytest.raises(MachineFault):
            self.execute(tiny_machine, ins.ld(3, 1, 0), 0x40)
        with pytest.raises(MachineFault):
            self.execute(tiny_machine, ins.st(1, 3, 0), 0x40)


class TestAluSemanticsRunUops(TestAluSemantics):
    execute = staticmethod(_run_uops)


class TestControlFlowRunUops(TestControlFlow):
    execute = staticmethod(_run_uops)


class TestMemoryRunUops(TestMemory):
    execute = staticmethod(_run_uops)


class TestSyscallDispatch:
    def _os(self):
        return OSState()

    def test_exit(self):
        result = dispatch_syscall(self._os(), SYS_EXIT, [3, 0, 0, 0], lambda a, n: b"")
        assert result.exited and result.exit_status == 3

    def test_write_appends_output(self):
        os_state = self._os()
        memory = {0x100: b"hi"}
        result = dispatch_syscall(
            os_state, SYS_WRITE, [2, 0x100, 0, 0],
            lambda addr, length: memory[addr][:length],
        )
        assert result.value == 2
        assert bytes(os_state.output) == b"hi"

    def test_write_negative_length(self):
        with pytest.raises(SyscallError):
            dispatch_syscall(self._os(), SYS_WRITE, [-1, 0, 0, 0], lambda a, n: b"")

    def test_getpid(self):
        os_state = self._os()
        os_state.pid = 4242
        assert dispatch_syscall(os_state, SYS_GETPID, [0] * 4, None).value == 4242

    def test_clock_uses_callback(self):
        os_state = self._os()
        os_state.clock = lambda: 123.9
        assert dispatch_syscall(os_state, SYS_CLOCK, [0] * 4, None).value == 123

    def test_brk_grows(self):
        os_state = self._os()
        os_state.heap_break = 0x1000
        os_state.heap_limit = 0x2000
        first = dispatch_syscall(os_state, SYS_BRK, [0x100, 0, 0, 0], None)
        assert first.value == 0x1000
        assert os_state.heap_break == 0x1100

    def test_brk_exhaustion(self):
        os_state = self._os()
        os_state.heap_break = 0x1000
        os_state.heap_limit = 0x1010
        with pytest.raises(SyscallError):
            dispatch_syscall(os_state, SYS_BRK, [0x100, 0, 0, 0], None)

    def test_rand_deterministic(self):
        a, b = self._os(), self._os()
        seq_a = [dispatch_syscall(a, SYS_RAND, [0] * 4, None).value for _ in range(5)]
        seq_b = [dispatch_syscall(b, SYS_RAND, [0] * 4, None).value for _ in range(5)]
        assert seq_a == seq_b
        assert len(set(seq_a)) > 1

    def test_sigaction_and_kill(self):
        os_state = self._os()
        dispatch_syscall(os_state, SYS_SIGACTION, [15, 0x5000, 0, 0], None)
        result = dispatch_syscall(os_state, SYS_KILL, [15, 0, 0, 0], None)
        assert result.signal_handler == 0x5000

    def test_kill_without_handler(self):
        result = dispatch_syscall(self._os(), SYS_KILL, [15, 0, 0, 0], None)
        assert result.signal_handler is None

    def test_unknown_number(self):
        with pytest.raises(SyscallError):
            dispatch_syscall(self._os(), 999, [0] * 4, None)

    def test_counts_tracked(self):
        os_state = self._os()
        dispatch_syscall(os_state, SYS_RAND, [0] * 4, None)
        dispatch_syscall(os_state, SYS_RAND, [0] * 4, None)
        assert os_state.syscall_counts["rand"] == 2

    def test_failed_syscall_is_not_counted(self):
        """Counts record *completed* syscalls: a raising call must not
        bump them (it used to, counting before validation)."""
        os_state = self._os()
        with pytest.raises(SyscallError):
            dispatch_syscall(os_state, SYS_WRITE, [-1, 0, 0, 0], None)
        assert "write" not in os_state.syscall_counts
        os_state.heap_break = 0x1000
        os_state.heap_limit = 0x1010
        with pytest.raises(SyscallError):
            dispatch_syscall(os_state, SYS_BRK, [0x100, 0, 0, 0], None)
        assert "brk" not in os_state.syscall_counts
        with pytest.raises(SyscallError):
            dispatch_syscall(os_state, 999, [0] * 4, None)
        assert os_state.syscall_counts == {}

    def test_completed_syscall_is_counted(self):
        os_state = self._os()
        os_state.heap_break = 0x1000
        os_state.heap_limit = 0x2000
        dispatch_syscall(os_state, SYS_BRK, [0x10, 0, 0, 0], None)
        assert os_state.syscall_counts == {"brk": 1}

    def test_unwired_clock_raises(self):
        """The default clock must fail loudly, not return a fake 0."""
        from repro.machine.syscalls import UnwiredClockError

        with pytest.raises(UnwiredClockError):
            dispatch_syscall(self._os(), SYS_CLOCK, [0] * 4, None)
        # The failed dispatch is uncounted (completed-only counting).
        assert "clock" not in self._os().syscall_counts

    def test_wired_clock_still_works(self):
        os_state = self._os()
        os_state.clock = lambda: 77
        assert dispatch_syscall(os_state, SYS_CLOCK, [0] * 4, None).value == 77

    def test_interpreter_wires_clock(self):
        """Both execution engines install a real clock before the first
        instruction, so SYS_CLOCK works end to end."""
        machine = make_machine(
            """
            main:
                movi rv, 4           ; SYS_CLOCK
                syscall
                or   a0, rv, zero
                movi rv, 1
                syscall
            """
        )
        # Would raise UnwiredClockError if the interpreter forgot to
        # wire the clock; the status is the (possibly 0) cycle reading.
        result = run_native(machine)
        assert result.exit_status >= 0


class TestInterpreter:
    def test_tiny_program(self, tiny_image):
        result = run_native(Machine(load_process(tiny_image)))
        assert result.exit_status == 7
        assert result.instructions == 27
        assert result.cycles == pytest.approx(
            27 * DEFAULT_COST_MODEL.native_inst
            + 1 * DEFAULT_COST_MODEL.native_syscall
        )

    def test_write_output(self):
        machine = make_machine(
            """
            main:
                movi a0, 72          ; 'H'
                st   a0, 0(sp)
                movi rv, 2           ; SYS_WRITE
                movi a0, 1
                or   a1, sp, zero
                syscall
                movi rv, 1
                movi a0, 0
                syscall
            """
        )
        result = run_native(machine)
        assert result.output == b"H"

    def test_budget_exhaustion(self):
        machine = make_machine("main:\nspin:\n    jmp spin\n")
        with pytest.raises(MachineFault):
            Interpreter(machine, max_instructions=100).run()

    def test_signal_delivery_runs_handler(self):
        """SYS_KILL with an installed handler calls it like a function."""
        from repro.binfmt.image import ImageBuilder
        from repro.isa import instructions as I
        from repro.machine.syscalls import SYS_EXIT as EXITNO

        builder = ImageBuilder("sig")
        # handler: t5 = 77; ret
        handler_vaddr = builder.add_function(
            "handler", [I.movi(15, 77), I.ret()]
        )
        main_code = [
            I.movi(regs.A0, 9),
            I.movi(regs.A1, 0),          # relocated to &handler below
            I.movi(regs.RV, SYS_SIGACTION),
            I.syscall(),
            I.movi(regs.A0, 9),
            I.movi(regs.RV, SYS_KILL),
            I.syscall(),                 # delivers the signal
            I.movi(regs.RV, EXITNO),
            I.or_(regs.A0, 15, regs.ZERO),
            I.syscall(),
        ]
        builder.add_function("main", main_code, symbol_refs=[(1, "handler")])
        builder.set_entry("main")
        machine = Machine(load_process(builder.build()))
        result = run_native(machine)
        assert result.exit_status == 77  # handler ran before exit

    def test_machine_stack_initialized(self, tiny_machine):
        sp = tiny_machine.registers[regs.SP]
        assert sp > HEAP_BASE
        tiny_machine.process.space.find_mapping(sp)

    def test_set_args(self, tiny_machine):
        tiny_machine.set_args(5, 6, 7)
        assert tiny_machine.registers[regs.A0] == 5
        assert tiny_machine.registers[regs.A1] == 6
        assert tiny_machine.registers[regs.A2] == 7


class TestCostModel:
    def test_defaults_sane(self):
        cost = DEFAULT_COST_MODEL
        assert cost.trace_compile_per_inst > cost.translated_inst * 50
        assert cost.pcache_trace_load < cost.trace_compile_fixed
        assert cost.translated_inst > cost.native_inst

    def test_with_overrides(self):
        tweaked = DEFAULT_COST_MODEL.with_overrides(native_inst=2.0)
        assert tweaked.native_inst == 2.0
        assert tweaked.translated_inst == DEFAULT_COST_MODEL.translated_inst
        assert DEFAULT_COST_MODEL.native_inst == 1.0  # original untouched

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_COST_MODEL.native_inst = 3.0


class TestHalt:
    def test_halt_stops_with_status_zero(self):
        machine = make_machine("main:\n    movi t0, 1\n    halt\n")
        result = run_native(machine)
        assert result.exit_status == 0
        assert result.instructions == 2
