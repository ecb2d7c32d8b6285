"""Trace selection.

A *trace*, in this system as in Pin, is a linear sequence of instructions
fetched from a starting address until a fixed instruction count is reached
or an unconditional transfer is encountered (paper §2.1).  Conditional
branches do not end a trace: the fall-through side stays inside, the taken
side becomes a side *exit*.  Execution always enters a trace at its first
instruction; side entrances are not allowed.  The fetched layout is not
altered and no optimization is applied to application code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.isa.encoding import decode_all
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import Opcode

#: Default maximum number of instructions fetched into one trace.
DEFAULT_MAX_TRACE_INSTS = 24


class ExitKind(enum.IntEnum):
    """How control can leave a trace."""

    BRANCH_TAKEN = 0  # conditional branch, taken side
    FALLTHROUGH = 1  # trace ended at the instruction-count limit
    DIRECT = 2  # jmp/call: statically known target
    INDIRECT = 3  # jr/callr/ret: target known only at run time
    SYSCALL = 4  # control leaves for the emulation unit
    HALT = 5  # machine stop


@dataclass
class TraceExit:
    """One potential exit from a trace.

    Attributes:
        kind: The exit's flavour.
        index: Index of the instruction the exit belongs to.
        target: Static target address (None for INDIRECT/SYSCALL/HALT;
            for SYSCALL it is the fall-through resume address).
    """

    kind: ExitKind
    index: int
    target: Optional[int] = None


class Trace:
    """A selected (not yet translated) trace of original code.

    Attributes:
        entry: Original absolute address of the first instruction.
        instructions: The fetched instructions, unaltered.  A trace
            revived from its code bytes (:meth:`from_body`) decodes them
            only when this is first read.
        exits: All potential exits, in instruction order.
        image_path: Path of the image the trace was fetched from.
        image_base: Load base of that image in this run.
    """

    def __init__(
        self,
        entry: int,
        instructions: Optional[List[Instruction]] = None,
        exits: Optional[List[TraceExit]] = None,
        image_path: str = "",
        image_base: int = 0,
    ):
        self.entry = entry
        self._instructions = [] if instructions is None else instructions
        self.exits = [] if exits is None else exits
        self.image_path = image_path
        self.image_base = image_base
        self._uops: Optional[List[tuple]] = None
        self._body = b""

    @classmethod
    def from_body(
        cls,
        entry: int,
        body: bytes,
        uops: List[tuple],
        exits: List[TraceExit],
        image_path: str,
        image_base: int,
    ) -> "Trace":
        """A trace whose micro-ops ``uops`` were read from its encoded
        ``body`` (:func:`~repro.isa.encoding.decode_uops`); its
        :class:`Instruction` objects are built only if something reads
        :attr:`instructions`."""
        trace = cls(entry, None, exits, image_path, image_base)
        trace._instructions = None
        trace._uops = uops
        trace._body = body
        return trace

    @property
    def instructions(self) -> List[Instruction]:
        if self._instructions is None:
            self._instructions = decode_all(self._body)
        return self._instructions

    @property
    def uops(self) -> List[tuple]:
        """Flattened micro-op tuples for the dispatcher's hot loop."""
        uops = self._uops
        instructions = self._instructions
        if uops is None or (
            instructions is not None and len(uops) != len(instructions)
        ):
            uops = self._uops = [inst.as_tuple() for inst in instructions]
        return uops

    @property
    def size(self) -> int:
        """Original code footprint in bytes."""
        return len(self.uops) * INSTRUCTION_SIZE

    @property
    def end(self) -> int:
        return self.entry + self.size

    def address_of(self, index: int) -> int:
        """Original address of instruction ``index``."""
        return self.entry + index * INSTRUCTION_SIZE

    def instruction_addresses(self) -> List[int]:
        return [self.address_of(i) for i in range(len(self.uops))]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return (self.entry, self.instructions, self.exits, self.image_path,
                self.image_base) == (other.entry, other.instructions,
                                     other.exits, other.image_path,
                                     other.image_base)


class TraceSelector:
    """Builds traces by linear fetch from original code."""

    def __init__(
        self,
        fetch: Callable[[int], Instruction],
        max_trace_insts: int = DEFAULT_MAX_TRACE_INSTS,
    ):
        if max_trace_insts < 1:
            raise ValueError("max_trace_insts must be >= 1")
        self._fetch = fetch
        self.max_trace_insts = max_trace_insts

    def select(
        self,
        entry: int,
        image_path: str = "",
        image_base: int = 0,
    ) -> Trace:
        """Fetch the trace starting at ``entry``."""
        instructions: List[Instruction] = []
        trace = Trace(entry, instructions, None, image_path, image_base)
        pc = entry
        for index in range(self.max_trace_insts):
            inst = self._fetch(pc)
            instructions.append(inst)
            if inst.is_conditional_branch:
                trace.exits.append(
                    TraceExit(
                        ExitKind.BRANCH_TAKEN,
                        index,
                        target=inst.branch_target(pc),
                    )
                )
            elif inst.is_unconditional:
                trace.exits.append(_terminator_exit(inst, index, pc))
                return trace
            pc += INSTRUCTION_SIZE
        # Fell off the instruction-count limit: fall-through exit to the
        # next sequential address.
        trace.exits.append(
            TraceExit(ExitKind.FALLTHROUGH, len(instructions) - 1, target=pc)
        )
        return trace


def _terminator_exit(inst: Instruction, index: int, pc: int) -> TraceExit:
    """Classify the trace-ending instruction at ``pc``."""
    if inst.opcode in (Opcode.JMP, Opcode.CALL):
        return TraceExit(ExitKind.DIRECT, index, target=inst.branch_target(pc))
    if inst.opcode in (Opcode.JR, Opcode.CALLR, Opcode.RET):
        return TraceExit(ExitKind.INDIRECT, index)
    if inst.opcode == Opcode.SYSCALL:
        return TraceExit(ExitKind.SYSCALL, index, target=pc + INSTRUCTION_SIZE)
    if inst.opcode == Opcode.HALT:
        return TraceExit(ExitKind.HALT, index)
    raise AssertionError("not a terminator: %r" % (inst.opcode,))
