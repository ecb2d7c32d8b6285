"""The simulated CPU: register file, execution core, native interpreter.

Two layers share the execution core:

* :class:`Interpreter` — "the hardware": runs a loaded process natively at
  1 cycle/instruction.  This is the baseline every VM measurement is
  compared against.
* the DBI engine (:mod:`repro.vm`) — uses the same :class:`ExecutionContext`
  semantics to execute *translated* traces out of the code cache, so
  translated execution is bit-identical to native execution (Pin does not
  transform application code) while cycle accounting differs.

Control-flow values (link register, indirect targets) always hold
*original* program addresses — the transparency property that lets the VM
map them through the translation map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.encoding import decode
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa import registers as regs
from repro.loader.linker import LoadedProcess
from repro.loader.mapper import to_signed_word
from repro.machine.costs import CostModel, DEFAULT_COST_MODEL
from repro.machine.syscalls import (
    OSState,
    SyscallResult,
    dispatch_syscall,
)

STACK_BASE = 0x7F00_0000
STACK_SIZE = 1 << 20
HEAP_BASE = 0x6000_0000
HEAP_SIZE = 4 << 20

#: Address of the thread-exit shim: three instructions in an *anonymous*
#: mapping (so the VM treats them as unbacked, never-persisted code) that
#: a spawned thread returns into if its entry function simply ``ret``s.
THREAD_EXIT_STUB = 0x7FF0_0000

#: Gap between consecutive per-thread stacks.
_THREAD_STACK_STRIDE = STACK_SIZE + 0x1_0000

#: Self-modification detection granularity: 512-byte code pages.
CODE_PAGE_SHIFT = 9

_MASK64 = (1 << 64) - 1


class MachineFault(Exception):
    """Raised on illegal execution (bad fetch, division by zero, ...)."""

    def __init__(self, message: str, pc: Optional[int] = None):
        if pc is not None:
            message = "pc=0x%x: %s" % (pc, message)
        super().__init__(message)
        self.pc = pc


class StepEvent:
    """Side information from executing one instruction.

    Allocated once per *event-producing* instruction (syscalls, halts) —
    never per ordinary step — and ``__slots__``-backed so the rare
    allocations that do happen stay cheap.
    """

    __slots__ = ("syscall", "is_indirect", "is_signal_delivery")

    def __init__(
        self,
        syscall: Optional[SyscallResult] = None,
        is_indirect: bool = False,
        is_signal_delivery: bool = False,
    ):
        self.syscall = syscall
        self.is_indirect = is_indirect
        self.is_signal_delivery = is_signal_delivery

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StepEvent(syscall=%r, is_indirect=%r, is_signal_delivery=%r)" % (
            self.syscall, self.is_indirect, self.is_signal_delivery,
        )


class Thread:
    """One thread of execution: its register file and saved PC.

    ``__slots__``-backed: thread objects are touched on every cooperative
    switch and compared by identity (``threads.index``), so neither a
    ``__dict__`` nor dataclass value-equality is wanted here.
    """

    __slots__ = ("tid", "registers", "pc", "alive")

    def __init__(
        self,
        tid: int,
        registers: List[int],
        pc: int = 0,
        alive: bool = True,
    ):
        self.tid = tid
        self.registers = registers
        self.pc = pc
        self.alive = alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Thread(tid=%d, pc=0x%x, alive=%r)" % (self.tid, self.pc, self.alive)


@dataclass
class Machine:
    """A loaded process plus mutable execution state.

    ``registers`` always aliases the register file of the *currently
    scheduled* thread; the execution core never needs to know about
    threading.  Threads are cooperatively scheduled: the executor switches
    only at ``yield``/thread-exit system calls, so interleaving is
    deterministic and identical between native and VM execution.
    """

    process: LoadedProcess
    os_state: OSState = field(default_factory=OSState)
    registers: List[int] = field(default_factory=lambda: [0] * regs.NUM_REGISTERS)
    decode_cache: Dict[int, Instruction] = field(default_factory=dict)
    uop_cache: Dict[int, tuple] = field(default_factory=dict)
    threads: List[Thread] = field(default_factory=list)
    current_thread: int = 0
    #: 512-byte page numbers that held code we executed; stores into these
    #: pages are self-modifying-code events (decode caches are purged and
    #: registered listeners — e.g. the VM's trace invalidator — fire).
    executed_code_pages: set = field(default_factory=set)
    #: Callbacks invoked with the written address on a code write.
    code_write_listeners: List = field(default_factory=list)
    #: Code pages that have been written: their traces no longer match
    #: any file on disk and must never be persisted (paper §3.2.1).
    modified_code_pages: set = field(default_factory=set)
    #: Callbacks invoked with ("load"|"unload", mapping) on dlopen/dlclose.
    module_listeners: List = field(default_factory=list)

    def __post_init__(self) -> None:
        space = self.process.space
        space.map_anonymous(STACK_BASE, STACK_SIZE, name="[stack]")
        space.map_anonymous(HEAP_BASE, HEAP_SIZE, name="[heap]")
        self.os_state.heap_break = HEAP_BASE
        self.os_state.heap_limit = HEAP_BASE + HEAP_SIZE
        self.registers[regs.SP] = STACK_BASE + STACK_SIZE - 64
        self.registers[regs.FP] = self.registers[regs.SP]
        self.threads.append(Thread(tid=1, registers=self.registers))
        self.os_state.current_tid = 1
        # Thread-exit shim: movi rv, SYS_EXIT; movi a0, 0; syscall.
        from repro.isa import instructions as _ins
        from repro.isa.encoding import encode_all as _encode_all
        from repro.machine.syscalls import SYS_EXIT as _SYS_EXIT

        stub = space.map_anonymous(THREAD_EXIT_STUB, 64, name="[thread-exit]")
        stub.data[:24] = _encode_all(
            [_ins.movi(regs.RV, _SYS_EXIT), _ins.movi(regs.A0, 0), _ins.syscall()]
        )

    # -- threading ---------------------------------------------------------

    def create_thread(self, entry: int, argument: int) -> Thread:
        """Spawn a thread starting at ``entry`` with ``a0 = argument``.

        The thread gets its own stack mapping and returns into the
        thread-exit shim if its entry function returns.
        """
        tid = max(thread.tid for thread in self.threads) + 1
        registers = [0] * regs.NUM_REGISTERS
        stack_base = STACK_BASE - (tid - 1) * _THREAD_STACK_STRIDE
        self.process.space.map_anonymous(
            stack_base, STACK_SIZE, name="[stack:t%d]" % tid
        )
        registers[regs.SP] = stack_base + STACK_SIZE - 64
        registers[regs.FP] = registers[regs.SP]
        registers[regs.A0] = argument
        registers[regs.LR] = THREAD_EXIT_STUB
        thread = Thread(tid=tid, registers=registers, pc=entry)
        self.threads.append(thread)
        return thread

    def runnable_threads(self) -> List[Thread]:
        return [thread for thread in self.threads if thread.alive]

    def switch_to(self, thread: Thread) -> None:
        self.registers = thread.registers
        self.current_thread = self.threads.index(thread)
        self.os_state.current_tid = thread.tid

    def schedule_next(self, current_pc: Optional[int]) -> Optional[int]:
        """Save the running thread's PC and rotate to the next runnable.

        ``current_pc=None`` marks the running thread as exited.  Returns
        the PC to resume at, or None when no runnable thread remains.
        """
        running = self.threads[self.current_thread]
        if current_pc is None:
            running.alive = False
        else:
            running.pc = current_pc
        candidates = [
            (index, thread)
            for index, thread in enumerate(self.threads)
            if thread.alive
        ]
        hook = self.os_state.nondet_hook
        kind = "exit" if current_pc is None else "yield"
        if not candidates:
            if hook is not None:
                hook.on_schedule(kind, [], None)
            return None
        # Round-robin starting after the current slot.
        for index, thread in candidates:
            if index > self.current_thread:
                break
        else:
            index, thread = candidates[0]
        if hook is not None:
            # Record/replay seam: recording logs the decision, replay may
            # substitute a (runnable) thread id to pin the interleaving.
            chosen_tid = hook.on_schedule(
                kind, [t.tid for _, t in candidates], thread.tid
            )
            if chosen_tid != thread.tid:
                for index, candidate in candidates:
                    if candidate.tid == chosen_tid:
                        thread = candidate
                        break
        self.switch_to(thread)
        return thread.pc

    def fetch(self, pc: int) -> Instruction:
        """Fetch + decode (memoized; invalidated on self-modification)."""
        inst = self.decode_cache.get(pc)
        if inst is None:
            try:
                raw = self.process.space.read_bytes(pc, INSTRUCTION_SIZE)
            except Exception as exc:
                raise MachineFault("fetch from unmapped memory", pc) from exc
            inst = decode(raw)
            self.decode_cache[pc] = inst
            page = pc >> CODE_PAGE_SHIFT
            if page not in self.executed_code_pages:
                self.track_code_pages(page, page)
        return inst

    def track_code_pages(self, first: int, last: int) -> None:
        """Add code pages ``first..last`` to :attr:`executed_code_pages`.

        A mapping that covers a newly tracked page stops being code-free
        (:meth:`~repro.loader.mapper.AddressSpace.mark_code`), so the
        compiled tier's window-hit stores into it take the SMC check
        again.  Both callers run off the per-instruction path: a pc's
        first decode, and trace insertion into the code cache (which
        covers revived and module-retained traces ``fetch`` never saw).
        Pages are tracked only while a mapping covers them and dlclose
        drops a dead mapping's pages, so a new mapping starts code-free.
        """
        pages = self.executed_code_pages
        for page in range(first, last + 1):
            if page not in pages:
                pages.add(page)
                self.process.space.mark_code(
                    page << CODE_PAGE_SHIFT, (page + 1) << CODE_PAGE_SHIFT
                )

    def dlopen(self, index: int) -> int:
        """Load optional module ``index``; return its base address."""
        mapping = self.process.load_module(index)
        for listener in self.module_listeners:
            listener("load", mapping)
        return mapping.base

    def dlclose(self, index: int) -> None:
        """Unload optional module ``index``, purging decode state.

        Listeners fire *before* the unmap so they can still resolve
        addresses inside the dying mapping (the persistence manager
        converts retained traces for write-back at this point).
        """
        mapping = self.process.loaded_modules.get(index)
        if mapping is None:
            from repro.loader.linker import LinkError

            raise LinkError("module %d is not loaded" % index)
        for listener in self.module_listeners:
            listener("unload", mapping)
        self.process.unload_module(index)
        for cached_pc in [
            pc for pc in self.decode_cache
            if mapping.base <= pc < mapping.end
        ]:
            del self.decode_cache[cached_pc]
            self.uop_cache.pop(cached_pc, None)
        # A reload maps a pristine copy: page tracking for the dead range
        # must not leak into the next incarnation.
        first = mapping.base >> CODE_PAGE_SHIFT
        last = (mapping.end - 1) >> CODE_PAGE_SHIFT
        for page in range(first, last + 1):
            self.executed_code_pages.discard(page)
            self.modified_code_pages.discard(page)

    def on_code_write(self, addr: int) -> None:
        """A store hit a page we executed code from: purge the decode
        caches for every page the 8-byte write touches and notify
        listeners once per page (the VM evicts traces).

        A word store at ``page_end - 4`` modifies the following page
        too; treating the write as single-page left stale decodes and
        stale compiled traces live on the second page.
        """
        first = addr >> CODE_PAGE_SHIFT
        last = (addr + 7) >> CODE_PAGE_SHIFT
        for page in range(first, last + 1):
            self.modified_code_pages.add(page)
            start = page << CODE_PAGE_SHIFT
            end = start + (1 << CODE_PAGE_SHIFT)
            for cached_pc in [
                pc for pc in self.decode_cache if start <= pc < end
            ]:
                del self.decode_cache[cached_pc]
                self.uop_cache.pop(cached_pc, None)
            # Listeners key their eviction off the page containing the
            # address they receive, so each touched page gets its own
            # notification with an address inside that page.
            page_addr = addr if page == first else start
            for listener in self.code_write_listeners:
                listener(page_addr)

    def fetch_uop(self, pc: int):
        """Fetch + decode to a micro-op tuple (memoized)."""
        uop = self.uop_cache.get(pc)
        if uop is None:
            uop = self.fetch(pc).as_tuple()
            self.uop_cache[pc] = uop
        return uop

    def set_args(self, *values: int) -> None:
        """Place program arguments in a0, a1, ... before starting."""
        for index, value in enumerate(values):
            self.registers[regs.A0 + index] = value


# Opcode integer constants for the micro-op fast path, ordered below by
# expected dynamic frequency.
_NOP = 0x00
_ADD, _SUB, _MUL, _DIV = 0x01, 0x02, 0x03, 0x04
_AND, _OR, _XOR, _SHL, _SHR, _SLT = 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A
_ADDI, _ANDI, _ORI, _XORI, _SHLI, _SHRI = 0x10, 0x11, 0x12, 0x13, 0x14, 0x15
_LUI, _MOVI = 0x16, 0x17
_LD, _ST = 0x20, 0x21
_BEQ, _BNE, _BLT, _BGE = 0x30, 0x31, 0x32, 0x33
_JMP, _CALL, _JR, _CALLR, _RET = 0x38, 0x39, 0x3A, 0x3B, 0x3C
_SYSCALL, _HALT = 0x40, 0x41

_LR = regs.LR
_ZERO = regs.ZERO


# -- per-op semantics shared by both dispatch tiers ---------------------------
#
# The engine executes translated traces in one of two tiers (see
# repro.vm.engine): the *interpreted* reference tier (step_uop below) and
# the *compiled* tier (repro.vm.compile), which specializes each trace
# into a straight-line Python closure.  Everything the two tiers could
# disagree on lives here, next to step_uop, so the semantics are
# maintained in one place:
#
# * UOP_VALUE_EXPRESSIONS — the value computation of every ALU/move
#   micro-op, as a Python expression template the compiler inlines.
#   Placeholders: ``{rs1}``/``{rs2}`` are source register indexes,
#   ``{imm}`` the literal immediate, ``{sh}`` the pre-masked shift
#   amount (``imm & 63``).  ``r`` is the live register file.
# * OVERFLOW_SAFE_OPS — ops whose result provably stays inside the
#   signed 64-bit range, letting the compiler skip the wrap check that
#   step_uop applies on every register write.
# * syscall_uop_step / halt_step_event — the event-producing terminators,
#   called (not inlined) by both tiers.
#
# The dispatch-equivalence suite (tests/test_dispatch_equivalence.py)
# asserts the tiers produce bit-identical results over the full corpus.

UOP_VALUE_EXPRESSIONS: Dict[int, str] = {
    _ADD: "r[{rs1}] + r[{rs2}]",
    _SUB: "r[{rs1}] - r[{rs2}]",
    _MUL: "r[{rs1}] * r[{rs2}]",
    _AND: "r[{rs1}] & r[{rs2}]",
    _OR: "r[{rs1}] | r[{rs2}]",
    _XOR: "r[{rs1}] ^ r[{rs2}]",
    _SHL: "r[{rs1}] << (r[{rs2}] & 63)",
    _SHR: "(r[{rs1}] & 18446744073709551615) >> (r[{rs2}] & 63)",
    _SLT: "1 if r[{rs1}] < r[{rs2}] else 0",
    _ADDI: "r[{rs1}] + {imm}",
    _ANDI: "r[{rs1}] & {imm}",
    _ORI: "r[{rs1}] | {imm}",
    _XORI: "r[{rs1}] ^ {imm}",
    _SHLI: "r[{rs1}] << {sh}",
    _SHRI: "(r[{rs1}] & 18446744073709551615) >> {sh}",
    _LUI: "{imm} << 16",
    _MOVI: "{imm}",
}

#: Ops that cannot leave the signed 64-bit range: bitwise ops of in-range
#: operands stay in range, SLT yields 0/1, MOVI/LUI immediates are 32-bit
#: (so ``imm << 16`` fits in 48 bits).  SHRI is also safe when the masked
#: shift amount is non-zero (the compiler checks per-site); SHR/SHL and
#: the arithmetic ops keep the wrap check.
OVERFLOW_SAFE_OPS = frozenset(
    {_AND, _OR, _XOR, _ANDI, _ORI, _XORI, _SLT, _MOVI, _LUI}
)


def syscall_uop_step(machine: "Machine", next_pc: int):
    """SYSCALL micro-op semantics, shared by both dispatch tiers.

    Returns ``(resume_pc_or_None, StepEvent)`` exactly as
    :meth:`ExecutionContext.step_uop` does for the SYSCALL opcode.
    """
    r = machine.registers
    result = dispatch_syscall(
        machine.os_state,
        r[regs.RV],
        [r[regs.A0], r[regs.A1], r[regs.A2], r[regs.A3]],
        machine.process.space.read_bytes,
    )
    event = StepEvent(syscall=result)
    if result.exited:
        return None, event
    r[regs.RV] = to_signed_word(result.value)
    if result.signal_handler is not None:
        # Deliver the signal: synchronous call of the handler.
        event.is_signal_delivery = True
        r[_LR] = next_pc
        return result.signal_handler, event
    return next_pc, event


def halt_step_event() -> StepEvent:
    """The HALT terminator's exit event, shared by both dispatch tiers."""
    return StepEvent(
        syscall=SyscallResult(exited=True, exit_status=0, name="halt")
    )


class ExecutionContext:
    """Executes instructions against a :class:`Machine`.

    The core entry point is :meth:`step_uop`, which takes a flattened
    ``(op, rd, rs1, rs2, imm)`` micro-op tuple (see
    :meth:`repro.isa.instructions.Instruction.as_tuple`) and returns the
    next original PC (or None after exit) plus a :class:`StepEvent` — or
    None in place of the event for ordinary instructions (the overwhelmingly
    common case; avoiding the allocation keeps the simulation fast).

    :meth:`step` is the :class:`Instruction`-typed convenience wrapper.
    """

    def __init__(self, machine: Machine):
        self.machine = machine

    def step(
        self, inst: Instruction, pc: int
    ) -> "tuple[Optional[int], Optional[StepEvent]]":
        return self.step_uop(inst.as_tuple(), pc)

    def step_uop(
        self, uop, pc: int
    ) -> "tuple[Optional[int], Optional[StepEvent]]":
        machine = self.machine
        r = machine.registers
        op, rd, rs1, rs2, imm = uop
        next_pc = pc + INSTRUCTION_SIZE

        # Hot straight-line operations first.
        if op == _ADDI:
            value = r[rs1] + imm
        elif op == _ADD:
            value = r[rs1] + r[rs2]
        elif op == _BNE:
            if r[rs1] != r[rs2]:
                next_pc += imm
            return next_pc, None
        elif op == _LD:
            try:
                value = machine.process.space.read_word(r[rs1] + imm)
            except Exception as exc:
                raise MachineFault(str(exc), pc) from exc
        elif op == _ST:
            addr = r[rs1] + imm
            try:
                machine.process.space.write_word(addr, r[rs2])
            except Exception as exc:
                raise MachineFault(str(exc), pc) from exc
            # An 8-byte store may straddle a 512-byte page boundary, so
            # both the first and last written byte's pages are checked.
            pages = machine.executed_code_pages
            if (addr >> CODE_PAGE_SHIFT) in pages or (
                (addr + 7) >> CODE_PAGE_SHIFT
            ) in pages:
                machine.on_code_write(addr)
            return next_pc, None
        elif op == _MOVI:
            value = imm
        elif op == _BEQ:
            if r[rs1] == r[rs2]:
                next_pc += imm
            return next_pc, None
        elif op == _BLT:
            if r[rs1] < r[rs2]:
                next_pc += imm
            return next_pc, None
        elif op == _BGE:
            if r[rs1] >= r[rs2]:
                next_pc += imm
            return next_pc, None
        elif op == _CALL:
            r[_LR] = next_pc
            return imm, None
        elif op == _RET:
            return r[_LR], None
        elif op == _JMP:
            return imm, None
        elif op == _XOR:
            value = r[rs1] ^ r[rs2]
        elif op == _SUB:
            value = r[rs1] - r[rs2]
        elif op == _MUL:
            value = r[rs1] * r[rs2]
        elif op == _AND:
            value = r[rs1] & r[rs2]
        elif op == _OR:
            value = r[rs1] | r[rs2]
        elif op == _SLT:
            value = 1 if r[rs1] < r[rs2] else 0
        elif op == _ANDI:
            value = r[rs1] & imm
        elif op == _ORI:
            value = r[rs1] | imm
        elif op == _XORI:
            value = r[rs1] ^ imm
        elif op == _SHLI:
            value = r[rs1] << (imm & 63)
        elif op == _SHRI:
            value = (r[rs1] & _MASK64) >> (imm & 63)
        elif op == _SHL:
            value = r[rs1] << (r[rs2] & 63)
        elif op == _SHR:
            value = (r[rs1] & _MASK64) >> (r[rs2] & 63)
        elif op == _LUI:
            value = imm << 16
        elif op == _DIV:
            divisor = r[rs2]
            if divisor == 0:
                raise MachineFault("division by zero", pc)
            value = int(r[rs1] / divisor)  # truncate toward zero
        elif op == _JR:
            return r[rs1], None
        elif op == _CALLR:
            target = r[rs1]
            r[_LR] = next_pc
            return target, None
        elif op == _SYSCALL:
            return syscall_uop_step(machine, next_pc)
        elif op == _NOP:
            return next_pc, None
        elif op == _HALT:
            return None, halt_step_event()
        else:
            raise MachineFault("illegal opcode 0x%02x" % op, pc)

        if rd != _ZERO:
            if -9223372036854775808 <= value <= 9223372036854775807:
                r[rd] = value
            else:
                r[rd] = to_signed_word(value)
        return next_pc, None

    def run_uops(
        self, uops, entry: int
    ) -> "tuple[int, Optional[int], Optional[StepEvent]]":
        """Run a trace's uops from the first until control leaves it.

        ``uops`` are the trace's micro-ops, the first at original address
        ``entry``.  Returns ``(index, next_pc, event)``: ``index`` is the
        last uop executed, ``next_pc`` and ``event`` are what
        :meth:`step_uop` returns for it.  Control leaves at a taken
        conditional branch with a non-zero offset (a zero-offset one
        lands on the fall-through address and stays inside), at any
        unconditional op, or after the last uop.

        Each uop has exactly :meth:`step_uop`'s semantics, faults and
        SMC check; only the per-uop call and the caller's per-uop
        bookkeeping are gone.  ``machine.registers`` is read once: only
        a syscall, which always ends a trace, can switch threads.  The
        uops are the caller's, so a store that patches a later
        instruction of this trace does not change what runs here.

        The engine calls this for traces below their compile entry, so
        the opcode tests are ordered by dynamic frequency in that code:
        run-once straight-line code where stores, loads and ALU ops
        dominate and conditional branches are rare (hot loops compile).
        Over the GUI startups and the SPEC train inputs, stores are 18%
        of the uops run here, ADDI 11%, loads 10%, SLT, ORI, SUB, ADD,
        XOR and SHLI 7-10% each, calls and returns 3-4% each, and every
        conditional branch under 1.2%.
        """
        machine = self.machine
        r = machine.registers
        space = machine.process.space
        pages = machine.executed_code_pages
        pc = entry - INSTRUCTION_SIZE
        for op, rd, rs1, rs2, imm in uops:
            pc += INSTRUCTION_SIZE
            if op == _ST:
                addr = r[rs1] + imm
                try:
                    space.write_word(addr, r[rs2])
                except Exception as exc:
                    raise MachineFault(str(exc), pc) from exc
                if (addr >> CODE_PAGE_SHIFT) in pages or (
                    (addr + 7) >> CODE_PAGE_SHIFT
                ) in pages:
                    machine.on_code_write(addr)
                continue
            elif op == _ADDI:
                value = r[rs1] + imm
            elif op == _LD:
                try:
                    value = space.read_word(r[rs1] + imm)
                except Exception as exc:
                    raise MachineFault(str(exc), pc) from exc
            elif op == _SLT:
                value = 1 if r[rs1] < r[rs2] else 0
            elif op == _ORI:
                value = r[rs1] | imm
            elif op == _SUB:
                value = r[rs1] - r[rs2]
            elif op == _ADD:
                value = r[rs1] + r[rs2]
            elif op == _XOR:
                value = r[rs1] ^ r[rs2]
            elif op == _SHLI:
                value = r[rs1] << (imm & 63)
            elif op == _CALL:
                r[_LR] = pc + INSTRUCTION_SIZE
                return (pc - entry) // INSTRUCTION_SIZE, imm, None
            elif op == _RET:
                return (pc - entry) // INSTRUCTION_SIZE, r[_LR], None
            elif op == _MOVI:
                value = imm
            elif op == _BLT:
                if imm and r[rs1] < r[rs2]:
                    return ((pc - entry) // INSTRUCTION_SIZE,
                            pc + INSTRUCTION_SIZE + imm, None)
                continue
            elif op == _BNE:
                if imm and r[rs1] != r[rs2]:
                    return ((pc - entry) // INSTRUCTION_SIZE,
                            pc + INSTRUCTION_SIZE + imm, None)
                continue
            elif op == _BEQ:
                if imm and r[rs1] == r[rs2]:
                    return ((pc - entry) // INSTRUCTION_SIZE,
                            pc + INSTRUCTION_SIZE + imm, None)
                continue
            elif op == _BGE:
                if imm and r[rs1] >= r[rs2]:
                    return ((pc - entry) // INSTRUCTION_SIZE,
                            pc + INSTRUCTION_SIZE + imm, None)
                continue
            elif op == _JMP:
                return (pc - entry) // INSTRUCTION_SIZE, imm, None
            elif op == _AND:
                value = r[rs1] & r[rs2]
            elif op == _OR:
                value = r[rs1] | r[rs2]
            elif op == _MUL:
                value = r[rs1] * r[rs2]
            elif op == _ANDI:
                value = r[rs1] & imm
            elif op == _XORI:
                value = r[rs1] ^ imm
            elif op == _SHRI:
                value = (r[rs1] & _MASK64) >> (imm & 63)
            elif op == _SHL:
                value = r[rs1] << (r[rs2] & 63)
            elif op == _SHR:
                value = (r[rs1] & _MASK64) >> (r[rs2] & 63)
            elif op == _LUI:
                value = imm << 16
            elif op == _DIV:
                divisor = r[rs2]
                if divisor == 0:
                    raise MachineFault("division by zero", pc)
                value = int(r[rs1] / divisor)  # truncate toward zero
            elif op == _JR:
                return (pc - entry) // INSTRUCTION_SIZE, r[rs1], None
            elif op == _CALLR:
                target = r[rs1]
                r[_LR] = pc + INSTRUCTION_SIZE
                return (pc - entry) // INSTRUCTION_SIZE, target, None
            elif op == _SYSCALL:
                next_pc, event = syscall_uop_step(
                    machine, pc + INSTRUCTION_SIZE
                )
                return (pc - entry) // INSTRUCTION_SIZE, next_pc, event
            elif op == _NOP:
                continue
            elif op == _HALT:
                return ((pc - entry) // INSTRUCTION_SIZE, None,
                        halt_step_event())
            else:
                raise MachineFault("illegal opcode 0x%02x" % op, pc)

            if rd != _ZERO:
                if -9223372036854775808 <= value <= 9223372036854775807:
                    r[rd] = value
                else:
                    r[rd] = to_signed_word(value)
        return len(uops) - 1, pc + INSTRUCTION_SIZE, None


def apply_module_event(machine: Machine, result) -> None:
    """Apply a dlopen/dlclose syscall result; shared by both executors.

    For dlopen the module's base address is written to ``rv``.
    """
    if result.dlopen is not None:
        machine.registers[regs.RV] = machine.dlopen(result.dlopen)
    elif result.dlclose is not None:
        machine.dlclose(result.dlclose)


def apply_thread_event(machine: Machine, result, next_pc):
    """Apply a thread-affecting syscall result; shared by both executors.

    Returns ``(resume_pc, process_exit_status)``: ``resume_pc`` is where
    execution continues (possibly in another thread, whose register file
    is now active), or None with the final status when the last thread
    exited.
    """
    if result.spawn is not None:
        entry, argument = result.spawn
        thread = machine.create_thread(entry, argument)
        hook = machine.os_state.nondet_hook
        if hook is not None:
            hook.on_spawn(thread.tid)
        machine.registers[regs.RV] = thread.tid
        return next_pc, None
    if result.yielded:
        return machine.schedule_next(next_pc), None
    if result.exited:
        resume = machine.schedule_next(None)
        if resume is None:
            return None, result.exit_status
        return resume, None
    return next_pc, None


@dataclass
class RunResult:
    """Outcome and accounting of one complete execution."""

    exit_status: int
    cycles: float
    instructions: int
    output: bytes
    syscall_counts: Dict[str, int]

    @property
    def exited_cleanly(self) -> bool:
        return True


class Interpreter:
    """Native execution: the baseline 'hardware' run of a process."""

    def __init__(
        self,
        machine: Machine,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        max_instructions: int = 200_000_000,
    ):
        self.machine = machine
        self.cost_model = cost_model
        self.max_instructions = max_instructions
        self.cycles = 0.0
        self.instructions = 0
        self.exit_status = 0
        # Instructions retired by the in-flight run() loop but not yet
        # folded into self.cycles (that fold happens once, after the
        # loop).  Without this term a mid-run SYS_CLOCK would read only
        # accumulated syscall cost — a spin loop of a million
        # instructions would see a clock of ~0.
        self._live_steps = 0
        native_inst = cost_model.native_inst
        machine.os_state.clock = (
            lambda: self.cycles + self._live_steps * native_inst
        )

    def run(self, entry: Optional[int] = None) -> RunResult:
        """Execute from ``entry`` (default: the process entry) to exit."""
        context = ExecutionContext(self.machine)
        fetch_uop = self.machine.fetch_uop
        step_uop = context.step_uop
        cost = self.cost_model
        budget = self.max_instructions
        steps = 0
        pc: Optional[int] = (
            entry if entry is not None else self.machine.process.entry_address
        )
        self._live_steps = 0
        while pc is not None:
            if steps >= budget:
                raise MachineFault("instruction budget exhausted", pc)
            uop = fetch_uop(pc)
            if uop[0] == _SYSCALL:
                # Publish the live retired-instruction count so a
                # SYS_CLOCK dispatched inside step_uop reads a clock
                # that advances with the instructions executed so far.
                self._live_steps = steps
            pc, event = step_uop(uop, pc)
            steps += 1
            if event is not None and event.syscall is not None:
                self.cycles += cost.native_syscall
                result = event.syscall
                if result.dlopen is not None or result.dlclose is not None:
                    apply_module_event(self.machine, result)
                elif result.exited or result.spawn is not None or result.yielded:
                    pc, status = apply_thread_event(self.machine, result, pc)
                    if status is not None:
                        self.exit_status = status
        self.instructions += steps
        self.cycles += steps * cost.native_inst
        self._live_steps = 0
        os_state = self.machine.os_state
        return RunResult(
            exit_status=self.exit_status,
            cycles=self.cycles,
            instructions=self.instructions,
            output=bytes(os_state.output),
            syscall_counts=dict(os_state.syscall_counts),
        )


def run_native(
    machine: Machine,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    max_instructions: int = 200_000_000,
) -> RunResult:
    """Convenience wrapper: interpret ``machine`` natively to completion."""
    return Interpreter(machine, cost_model, max_instructions).run()
