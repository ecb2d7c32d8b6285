"""The simulated CPU: register file, execution core, native interpreter.

Two layers share the execution core:

* :class:`Interpreter` — "the hardware": runs a loaded process natively at
  1 cycle/instruction.  This is the baseline every VM measurement is
  compared against.
* the DBI engine (:mod:`repro.vm`) — uses the same :class:`ExecutionContext`
  semantics to execute *translated* traces out of the code cache, so
  translated execution is bit-identical to native execution (Pin does not
  transform application code) while cycle accounting differs.

Every opcode's semantics is defined once, in :data:`SEMANTICS`: both
interpreters of :class:`ExecutionContext` are generated from it, and the
compiled tier emits its closures' ops from it.  A guest word access is
defined once beside it: each :class:`Machine`'s ``load``/``store`` pair
(:func:`word_access`) and the inline window hit
(:data:`WINDOW_ACCESS`) that the cold tier's and the region bodies'
sites are rendered from.

Control-flow values (link register, indirect targets) always hold
*original* program addresses — the transparency property that lets the VM
map them through the translation map.
"""

from __future__ import annotations

import linecache
import textwrap
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional

from repro.isa.encoding import decode, encode_all
from repro.isa import instructions as ins
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa import registers as regs
from repro.isa.opcodes import Opcode
from repro.loader.linker import LoadedProcess
from repro.loader.mapper import WORD_SIZE, WORD_STRUCT, to_signed_word
from repro.machine.costs import CostModel, DEFAULT_COST_MODEL
from repro.machine.syscalls import (
    SYS_EXIT,
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
#: The shim's code, encoded once: ``movi rv, SYS_EXIT; movi a0, 0;
#: syscall``.
_THREAD_EXIT_CODE = encode_all(
    [ins.movi(regs.RV, SYS_EXIT), ins.movi(regs.A0, 0), ins.syscall()]
)

#: Gap between consecutive per-thread stacks.
_THREAD_STACK_STRIDE = STACK_SIZE + 0x1_0000

#: Self-modification detection granularity: 512-byte code pages.
CODE_PAGE_SHIFT = 9


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

    __slots__ = ("syscall", "is_signal_delivery")

    def __init__(
        self, syscall: SyscallResult, is_signal_delivery: bool = False
    ):
        self.syscall = syscall
        self.is_signal_delivery = is_signal_delivery

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "StepEvent(syscall=%r, is_signal_delivery=%r)" % (
            self.syscall, self.is_signal_delivery,
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
    #: The native interpreter's decoded uops by pc (:meth:`fetch_uop`).
    uop_cache: Dict[int, tuple] = field(default_factory=dict)
    threads: List[Thread] = field(default_factory=list)
    current_thread: int = 0
    #: 512-byte page numbers that held code we executed; stores into these
    #: pages are self-modifying-code events (the uop cache is purged and
    #: registered listeners — e.g. the VM's trace invalidator — fire).
    executed_code_pages: set = field(default_factory=set)
    #: Callbacks invoked with the written address on a code write.
    code_write_listeners: List = field(default_factory=list)
    #: Code pages that have been written: their traces no longer match
    #: any file on disk and must never be persisted (paper §3.2.1).
    modified_code_pages: set = field(default_factory=set)
    #: Callbacks invoked with ("load"|"unload", mapping) on dlopen/dlclose.
    module_listeners: List = field(default_factory=list)
    #: The guest word access every tier uses, ``load(addr, pc)`` and
    #: ``store(addr, value, pc)`` (:func:`word_access`), built once: it
    #: holds :attr:`executed_code_pages`, so that set is never replaced.
    load: Callable = field(init=False, repr=False, compare=False)
    store: Callable = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.load, self.store = word_access(self)
        space = self.process.space
        space.map_anonymous(STACK_BASE, STACK_SIZE, name="[stack]")
        space.map_anonymous(HEAP_BASE, HEAP_SIZE, name="[heap]")
        self.os_state.heap_break = HEAP_BASE
        self.os_state.heap_limit = HEAP_BASE + HEAP_SIZE
        self.registers[regs.SP] = STACK_BASE + STACK_SIZE - 64
        self.registers[regs.FP] = self.registers[regs.SP]
        self.threads.append(Thread(tid=1, registers=self.registers))
        self.os_state.current_tid = 1
        stub = space.map_anonymous(THREAD_EXIT_STUB, 64, name="[thread-exit]")
        stub.data[:len(_THREAD_EXIT_CODE)] = _THREAD_EXIT_CODE

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

    def fetch_uop(self, pc: int) -> tuple:
        """Fetch and decode the uop at ``pc`` (memoized; purged on
        self-modification and dlclose).

        The native interpreter's fetch: a pc's first decode tracks its
        code page.  It reads the mapping that holds ``pc`` as trace
        selection does (:mod:`repro.vm.trace`), so the load/store window
        stays on the data."""
        uop = self.uop_cache.get(pc)
        if uop is None:
            mapping = self.process.space.mapping_at(pc)
            if mapping is None or pc + INSTRUCTION_SIZE > mapping.end:
                raise MachineFault("fetch from unmapped memory", pc)
            offset = pc - mapping.base
            raw = bytes(mapping.data[offset : offset + INSTRUCTION_SIZE])
            uop = self.uop_cache[pc] = decode(raw).as_tuple()
            page = pc >> CODE_PAGE_SHIFT
            if page not in self.executed_code_pages:
                self.track_code_pages(page, page)
        return uop

    def track_code_pages(self, first: int, last: int) -> None:
        """Add code pages ``first..last`` to :attr:`executed_code_pages`.

        A mapping that covers a newly tracked page stops being code-free
        (:meth:`~repro.loader.mapper.AddressSpace.mark_code`), so every
        tier's window-hit stores into it take the SMC probe again.  Both
        callers run off the per-instruction path: the native
        interpreter's first decode of a pc in :meth:`fetch_uop`, and,
        under the VM, whose trace selection reads code bytes without
        ``fetch_uop``, trace insertion into the code cache (which covers
        selected, revived and module-retained traces alike).  Pages are
        tracked only while a mapping covers them and dlclose drops a
        dead mapping's pages, so a new mapping starts code-free.
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
        """Unload optional module ``index``, purging its decoded uops.

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
            pc for pc in self.uop_cache if mapping.base <= pc < mapping.end
        ]:
            del self.uop_cache[cached_pc]
        # A reload maps a pristine copy: page tracking for the dead range
        # must not leak into the next incarnation.
        first = mapping.base >> CODE_PAGE_SHIFT
        last = (mapping.end - 1) >> CODE_PAGE_SHIFT
        for page in range(first, last + 1):
            self.executed_code_pages.discard(page)
            self.modified_code_pages.discard(page)

    def on_code_write(self, addr: int) -> None:
        """A store hit a page we executed code from: purge the uop cache
        for every page the 8-byte write touches and notify listeners
        once per page (the VM evicts traces).

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
                pc for pc in self.uop_cache if start <= pc < end
            ]:
                del self.uop_cache[cached_pc]
            # Listeners key their eviction off the page containing the
            # address they receive, so each touched page gets its own
            # notification with an address inside that page.
            page_addr = addr if page == first else start
            for listener in self.code_write_listeners:
                listener(page_addr)

    def set_args(self, *values: int) -> None:
        """Place program arguments in a0, a1, ... before starting,
        wrapped to int64 as every register write is."""
        for index, value in enumerate(values):
            self.registers[regs.A0 + index] = to_signed_word(value)


class OpSemantics(NamedTuple):
    """One opcode's row of :data:`SEMANTICS`."""

    #: The opcode's arm in both interpreters (:data:`_ARMS`), and what the
    #: compiled tier emits for it: ``alu``, ``div``, ``load``, ``store``,
    #: ``branch``, ``jump``, ``call``, ``syscall``, ``halt`` or ``nop``.
    kind: str
    #: A Python expression over the register file ``r``: the value of an
    #: ``alu`` or ``div`` op, the condition of a ``branch``, the target of
    #: a ``jump`` or ``call``.  ``{rs1}``, ``{rs2}`` and ``{imm}`` stand
    #: for the uop's fields, ``{sh}`` for the shift amount ``imm & 63``
    #: and ``{lr}`` for the link register.  A ``div`` value divides by
    #: ``d``, the divisor its arm has checked.
    operand: Optional[str] = None
    #: The interval ``(lo, hi)`` an ``alu`` value lies in, before the
    #: wrap: ``bounds(a, b, same)`` of ``a``, the interval of rs1, ``b``,
    #: that of rs2, or ``(imm, imm)`` for an op that reads no rs2, and
    #: ``same``, whether rs2 is rs1.  None for a value with no bound
    #: (``div``).  The compiled tier's trace-body pass
    #: (:mod:`repro.vm.bodypass`) writes a value without the wrap check
    #: every interpreter write has when its interval lies within int64.
    bounds: Optional[Callable] = None


#: Every register holds an int64 (:meth:`Machine.set_args` wraps too).
INT64 = (-(1 << 63), (1 << 63) - 1)


def _bits(value: int) -> int:
    """All ones up to the highest set bit of ``value`` >= 0."""
    return (1 << value.bit_length()) - 1


def _shifts(b):
    """The interval of the shift amount ``x & 63`` for ``x`` in ``b``."""
    if b[0] == b[1]:
        return b[0] & 63, b[0] & 63
    return b if 0 <= b[0] and b[1] <= 63 else (0, 63)


def _and(a, b, same):
    # x & y lies in 0..y for y >= 0, whatever x is.
    if a[0] >= 0 or b[0] >= 0:
        return 0, min(hi for lo, hi in (a, b) if lo >= 0)
    return INT64


def _or(a, b, same):
    # Of non-negative x and y, x | y sets no bit above the larger's top
    # bit, and x ^ y likewise.
    if a[0] >= 0 and b[0] >= 0:
        return max(a[0], b[0]), _bits(max(a[1], b[1]))
    return INT64


def _xor(a, b, same):
    if same:
        return 0, 0
    if a[0] >= 0 and b[0] >= 0:
        return 0, _bits(max(a[1], b[1]))
    return INT64


def _shl(a, b, same):
    low, high = _shifts(b)
    return min(a[0] << low, a[0] << high), max(a[1] << low, a[1] << high)


def _shr(a, b, same):
    low, high = _shifts(b)
    if a[0] >= 0:
        return a[0] >> high, a[1] >> low
    return 0, ((1 << 64) - 1) >> low


def _add(a, b, same):
    return a[0] + b[0], a[1] + b[1]


def _mul(a, b, same):
    corners = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(corners), max(corners)


#: Every opcode's semantics, defined once.  Both interpreters of
#: :class:`ExecutionContext` are generated from this table when the module
#: loads, and the compiled tier (:mod:`repro.vm.compile`) emits every op of
#: its closures from it.  A ``load`` or ``store`` is the machine's word
#: access (:func:`word_access`), inline as :data:`WINDOW_ACCESS`.  The
#: closures' exits and linking are their own; the dispatch-equivalence
#: suite checks them against the interpreted oracle.  The third column
#: is ``bounds``.
SEMANTICS: Dict[int, OpSemantics] = {
    Opcode.NOP: OpSemantics("nop"),
    Opcode.ADD: OpSemantics("alu", "r[{rs1}] + r[{rs2}]", _add),
    Opcode.SUB: OpSemantics(
        "alu", "r[{rs1}] - r[{rs2}]",
        lambda a, b, same: (0, 0) if same else (a[0] - b[1], a[1] - b[0]),
    ),
    Opcode.MUL: OpSemantics("alu", "r[{rs1}] * r[{rs2}]", _mul),
    # int(a / b) truncates toward zero through float division, with its
    # precision for large operands.
    Opcode.DIV: OpSemantics("div", "int(r[{rs1}] / d)"),
    Opcode.AND: OpSemantics("alu", "r[{rs1}] & r[{rs2}]", _and),
    Opcode.OR: OpSemantics("alu", "r[{rs1}] | r[{rs2}]", _or),
    Opcode.XOR: OpSemantics("alu", "r[{rs1}] ^ r[{rs2}]", _xor),
    Opcode.SHL: OpSemantics("alu", "r[{rs1}] << (r[{rs2}] & 63)", _shl),
    Opcode.SHR: OpSemantics(
        "alu", "(r[{rs1}] & 18446744073709551615) >> (r[{rs2}] & 63)", _shr
    ),
    Opcode.SLT: OpSemantics(
        "alu", "1 if r[{rs1}] < r[{rs2}] else 0",
        lambda a, b, same: (0, 0 if same else 1),
    ),
    Opcode.ADDI: OpSemantics("alu", "r[{rs1}] + {imm}", _add),
    Opcode.ANDI: OpSemantics("alu", "r[{rs1}] & {imm}", _and),
    Opcode.ORI: OpSemantics("alu", "r[{rs1}] | {imm}", _or),
    Opcode.XORI: OpSemantics("alu", "r[{rs1}] ^ {imm}", _xor),
    Opcode.SHLI: OpSemantics("alu", "r[{rs1}] << {sh}", _shl),
    Opcode.SHRI: OpSemantics(
        "alu", "(r[{rs1}] & 18446744073709551615) >> {sh}", _shr
    ),
    Opcode.LUI: OpSemantics(
        "alu", "{imm} << 16", lambda a, b, same: (b[0] << 16, b[1] << 16)
    ),
    Opcode.MOVI: OpSemantics("alu", "{imm}", lambda a, b, same: b),
    Opcode.LD: OpSemantics("load"),
    Opcode.ST: OpSemantics("store"),
    Opcode.BEQ: OpSemantics("branch", "r[{rs1}] == r[{rs2}]"),
    Opcode.BNE: OpSemantics("branch", "r[{rs1}] != r[{rs2}]"),
    Opcode.BLT: OpSemantics("branch", "r[{rs1}] < r[{rs2}]"),
    Opcode.BGE: OpSemantics("branch", "r[{rs1}] >= r[{rs2}]"),
    Opcode.JMP: OpSemantics("jump", "{imm}"),
    Opcode.CALL: OpSemantics("call", "{imm}"),
    Opcode.JR: OpSemantics("jump", "r[{rs1}]"),
    Opcode.CALLR: OpSemantics("call", "r[{rs1}]"),
    Opcode.RET: OpSemantics("jump", "r[{lr}]"),
    Opcode.SYSCALL: OpSemantics("syscall"),
    Opcode.HALT: OpSemantics("halt"),
}

#: One word's unpack and pack in place: the pair's and
#: :data:`WINDOW_ACCESS`'s, globals of the generated interpreters.
unpack_from = WORD_STRUCT.unpack_from
pack_into = WORD_STRUCT.pack_into


def word_access(machine: Machine):
    """Build ``machine``'s guest word access: ``load(addr, pc)`` and
    ``store(addr, value, pc)``, for every tier.

    A word inside the address space's window
    (:attr:`repro.loader.mapper.AddressSpace.window`) is unpacked or
    packed in place: every register holds an int64, so a stored value
    needs no wrap there.  Every other access looks its mapping up through
    ``read_word`` / ``write_word`` (which move the window), and their
    exception becomes ``MachineFault(str(exc), pc)``.  After the write,
    ``store`` probes for self-modification: the written word's first
    code page, the next page only when the word straddles into it, then
    ``machine.on_code_write``.  A window hit into a code-free mapping
    skips the probe, since no page it covers holds executed code.
    """
    space = machine.process.space
    window = space.window
    read_word = space.read_word
    write_word = space.write_word
    pages = machine.executed_code_pages
    code_write = machine.on_code_write
    page_mask = (1 << CODE_PAGE_SHIFT) - 1
    # A word starting past this page offset ends on the next page.
    last_unstraddled = (1 << CODE_PAGE_SHIFT) - WORD_SIZE

    def load(addr, pc):
        base, last, data, _code_free = window
        offset = addr - base
        if 0 <= offset <= last:
            return unpack_from(data, offset)[0]
        try:
            return read_word(addr)
        except Exception as exc:
            raise MachineFault(str(exc), pc) from exc

    def store(addr, value, pc):
        base, last, data, code_free = window
        offset = addr - base
        if 0 <= offset <= last:
            pack_into(data, offset, value)
            if code_free:
                return
        else:
            try:
                write_word(addr, value)
            except Exception as exc:
                raise MachineFault(str(exc), pc) from exc
        page = addr >> CODE_PAGE_SHIFT
        if page in pages or (
            addr & page_mask > last_unstraddled and page + 1 in pages
        ):
            code_write(addr)

    return load, store


#: A guest word access with its window hit inline: the cold tier's
#: load and store arms (:meth:`ExecutionContext.run_uops`) and every
#: region-body site (:meth:`repro.vm.compile.TraceCompiler._emit_memory_op`)
#: are rendered from it.  ``{address}`` is the effective address,
#: ``{pc}`` the op's, ``{dest}`` where a load's word goes and
#: ``{source}`` a store's value.  The window's slots are the locals
#: ``wb, wl, wd, wc``; ``window``, ``load``, ``store``, ``unpack_from``
#: and ``pack_into`` are bound where the site runs.  A load hits when
#: the word lies inside the window's mapping; a store also needs a
#: code-free mapping.  Anything else calls the machine's pair, which
#: handles the lookup, the fault and the SMC probe, then re-reads the
#: window it may have moved.  A store packs its register as it is,
#: since every register holds an int64.
WINDOW_ACCESS = {
    "load": textwrap.dedent("""\
        o = {address} - wb
        if 0 <= o <= wl:
            {dest} = unpack_from(wd, o)[0]
        else:
            {dest} = load(o + wb, {pc})
            wb, wl, wd, wc = window"""),
    "store": textwrap.dedent("""\
        o = {address} - wb
        if wc and 0 <= o <= wl:
            pack_into(wd, o, {source})
        else:
            store(o + wb, {source}, {pc})
            wb, wl, wd, wc = window"""),
}

#: Each kind's arm, shared by both interpreters.  ``{operand}`` is the
#: op's operand over the uop's fields, ``{leave}`` the interpreter's exit
#: up to the target and the event, and ``{next}`` how it goes on to the
#: next uop.  An arm that does neither leaves ``value`` for the write-back
#: (:data:`_WRITE_BACK`).  A memory arm is one call of the machine's
#: word access; :meth:`ExecutionContext.run_uops` inlines its window hit
#: instead (:data:`WINDOW_ACCESS`).
_ARMS = {
    "alu": "value = {operand}",
    "div": """
        d = r[rs2]
        if d == 0:
            raise MachineFault("division by zero", pc)
        value = {operand}""",
    "load": "value = machine.load(r[rs1] + imm, pc)",
    "store": """
        machine.store(r[rs1] + imm, r[rs2], pc)
        {next}""",
    # A taken branch with a zero offset lands on the fall-through address,
    # as one not taken does.
    "branch": """
        if imm and {operand}:
            {leave}pc + INSTRUCTION_SIZE + imm, None
        {next}""",
    "jump": "{leave}{operand}, None",
    # The target is read before the link register is written (``callr lr``).
    "call": """
        target = {operand}
        r[{lr}] = pc + INSTRUCTION_SIZE
        {leave}target, None""",
    "syscall": """
        next_pc, event = syscall_uop_step(machine, pc + INSTRUCTION_SIZE)
        {leave}next_pc, event""",
    "halt": "{leave}None, halt_step_event()",
    "nop": "{next}",
}

#: The end of both interpreters' dispatch: an unknown opcode faults, and
#: a value is written back wrapped to int64 unless its register is the
#: zero register.
_WRITE_BACK = """
    else:
        raise MachineFault("illegal opcode 0x%02x" % op, pc)
    if rd != 0:
        if -9223372036854775808 <= value <= 9223372036854775807:
            r[rd] = value
        else:
            r[rd] = to_signed_word(value)
    {next}"""


def _interpreter(body: str, order: str, leave: str, goes_on: str,
                 arms: Optional[Dict[str, str]] = None):
    """Replace the decorated stub with a method of :class:`ExecutionContext`
    generated from :data:`SEMANTICS`.

    The method keeps the stub's name, parameters and docstring.  Its body
    is ``body``, whose ``{dispatch}`` line becomes the opcode tests in the
    order ``order`` names them; ``leave`` and ``goes_on`` fill every arm's
    ``{leave}`` and ``{next}``.  ``arms`` replaces some kinds' arms of
    :data:`_ARMS`; a :data:`WINDOW_ACCESS` arm is rendered over the uop's
    fields, with a load's word in ``value``.  The source is registered
    with :mod:`linecache`, so a traceback through the method shows its
    generated lines.
    """
    ops = [Opcode[name] for name in order.split()]
    if sorted(ops) != sorted(SEMANTICS):
        raise ValueError("order must name every opcode once: %r" % order)
    arms = {**_ARMS, **(arms or {})}
    lines = []
    for position, op in enumerate(ops):
        row = SEMANTICS[op]
        # The operand reads the uop's fields from the interpreter's locals.
        operand = row.operand and row.operand.format(
            rs1="rs1", rs2="rs2", imm="imm", sh="(imm & 63)", lr=regs.LR
        )
        arm = textwrap.dedent(arms[row.kind]).strip().format(
            operand=operand, leave=leave, next=goes_on, lr=regs.LR,
            address="r[rs1] + imm", pc="pc", dest="value", source="r[rs2]",
        )
        lines.append("%s op == %d:  # %s" % (
            "elif" if position else "if", op, op.name
        ))
        lines.append(textwrap.indent(arm, "    "))
    lines.append(textwrap.dedent(_WRITE_BACK).strip().format(next=goes_on))
    head, _, tail = textwrap.dedent(body).strip("\n").partition("{dispatch}")
    indent = head[head.rfind("\n") + 1:]
    body = head[:len(head) - len(indent)] + textwrap.indent(
        "\n".join(lines), indent
    ) + tail

    def generate(stub):
        args = stub.__code__.co_varnames[:stub.__code__.co_argcount]
        source = "def %s(%s):\n%s\n" % (
            stub.__name__, ", ".join(args), textwrap.indent(body, "    ")
        )
        filename = "<generated %s>" % stub.__qualname__
        linecache.cache[filename] = (
            len(source), None, source.splitlines(True), filename
        )
        namespace: Dict[str, object] = {}
        code = compile(source, filename, "exec")
        exec(code, globals(), namespace)  # noqa: S102 - generated source
        (method,) = namespace.values()
        method.__qualname__ = stub.__qualname__
        method.__doc__ = stub.__doc__
        return method

    return generate


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
        r[regs.LR] = next_pc
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
    :meth:`run_uops` runs a whole trace's uops in one call.  Both are
    generated from :data:`SEMANTICS`, and both load and store through
    the machine's word access (:func:`word_access`).

    :meth:`step` is the :class:`Instruction`-typed convenience wrapper.
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        #: The address space's load/store window, which :meth:`run_uops`
        #: hits inline: updated in place, never replaced.
        self.window = machine.process.space.window

    def step(
        self, inst: Instruction, pc: int
    ) -> "tuple[Optional[int], Optional[StepEvent]]":
        return self.step_uop(inst.as_tuple(), pc)

    @_interpreter(
        """
        machine = self.machine
        r = machine.registers
        op, rd, rs1, rs2, imm = uop
        {dispatch}
        """,
        order="""
            ADDI ADD BNE LD ST MOVI BEQ BLT BGE CALL RET JMP XOR SUB MUL AND
            OR SLT ANDI ORI XORI SHLI SHRI SHL SHR LUI DIV JR CALLR SYSCALL
            NOP HALT
        """,
        leave="return ",
        goes_on="return pc + INSTRUCTION_SIZE, None",
    )
    def step_uop(
        self, uop, pc: int
    ) -> "tuple[Optional[int], Optional[StepEvent]]":
        """Execute one uop at original address ``pc``.

        Returns ``(next_pc, event)``: the next original PC, or None after
        an exit, and a :class:`StepEvent` for a syscall or a halt, None
        otherwise.  This is the interpreted oracle and native execution,
        so the opcode tests are ordered for hot loops.  A load or store
        is one call of ``machine.load`` or ``machine.store``.
        """

    @_interpreter(
        """
        machine = self.machine
        r = machine.registers
        load = machine.load
        store = machine.store
        window = self.window
        wb, wl, wd, wc = window
        pc = entry - INSTRUCTION_SIZE
        for op, rd, rs1, rs2, imm in uops:
            pc += INSTRUCTION_SIZE
            {dispatch}
        return len(uops) - 1, pc + INSTRUCTION_SIZE, None
        """,
        order="""
            ST ADDI LD SLT ORI SUB ADD XOR SHLI CALL RET MOVI BLT BNE BEQ BGE
            JMP AND OR MUL ANDI XORI SHRI SHL SHR LUI DIV JR CALLR SYSCALL
            NOP HALT
        """,
        leave="return (pc - entry) // INSTRUCTION_SIZE, ",
        goes_on="continue",
        # A loaded word is int64 already: it skips the write-back's wrap.
        arms={"load": WINDOW_ACCESS["load"] + (
                  "\nif rd:\n    r[rd] = value\n{next}"),
              "store": WINDOW_ACCESS["store"] + "\n{next}"},
    )
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
        SMC probe; only the per-uop call and the caller's per-uop
        bookkeeping are gone.  ``machine.registers`` is read once: only
        a syscall, which always ends a trace, can switch threads.  The
        uops are the caller's, so a store that patches a later
        instruction of this trace does not change what runs here.

        Loads and stores are :data:`WINDOW_ACCESS` sites, as the
        compiled tier's region bodies' are: the window's slots are read
        once per call, a hit unpacks or packs the word in place, and a
        miss or a store into a mapping that holds code calls the
        machine's ``load`` or ``store``, then reads the window's slots
        again.

        The engine calls this for traces below the compile threshold, so
        the opcode tests are ordered by dynamic frequency in that code:
        run-once straight-line code where stores, loads and ALU ops
        dominate and conditional branches are rare (hot loops compile).
        Over the GUI startups and the SPEC train inputs, stores are 18%
        of the uops run here, ADDI 11%, loads 10%, SLT, ORI, SUB, ADD,
        XOR and SHLI 7-10% each, calls and returns 3-4% each, and every
        conditional branch under 1.2%.
        """


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
        syscall = int(Opcode.SYSCALL)
        steps = 0
        pc: Optional[int] = (
            entry if entry is not None else self.machine.process.entry_address
        )
        self._live_steps = 0
        while pc is not None:
            if steps >= budget:
                raise MachineFault("instruction budget exhausted", pc)
            uop = fetch_uop(pc)
            if uop[0] == syscall:
                # Publish the live retired-instruction count so a
                # SYS_CLOCK dispatched inside step_uop reads a clock
                # that advances with the instructions executed so far.
                self._live_steps = steps
            pc, event = step_uop(uop, pc)
            steps += 1
            if event is not None:
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
