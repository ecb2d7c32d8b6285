"""Trace selection.

A *trace*, in this system as in Pin, is a linear sequence of instructions
fetched from a starting address until a fixed instruction count is reached
or an unconditional transfer is encountered (paper §2.1).  Conditional
branches do not end a trace: the fall-through side stays inside, the taken
side becomes a side *exit*.  Execution always enters a trace at its first
instruction; side entrances are not allowed.  The fetched layout is not
altered and no optimization is applied to application code.

The selector reads a trace's code bytes as one slice of the mapping that
holds them and classifies each word by its opcode byte, so selection
builds no :class:`~repro.isa.instructions.Instruction`.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.isa.encoding import decode, decode_all, decodes, unpack_uops
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import (
    CONDITIONAL_BRANCHES,
    DIRECT_UNCONDITIONAL,
    INDIRECT_UNCONDITIONAL,
    Opcode,
)
from repro.loader.mapper import Mapping
from repro.machine.cpu import MachineFault

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


@dataclass(slots=True)
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
        instructions: The selected instructions, unaltered, decoded
            from ``body`` only when this is first read: selection and
            revive build none.
        uops: The instructions as flattened micro-op tuples, for the
            dispatcher's hot loop.
        exits: All potential exits, in instruction order.
        image_path: Path of the image the trace was read from.
        image_base: Load base of that image in this run.
    """

    def __init__(
        self,
        entry: int,
        body: bytes,
        uops: List[tuple],
        exits: List[TraceExit],
        image_path: str = "",
        image_base: int = 0,
    ):
        #: The encoded instructions: the code bytes the trace was read
        #: from, already checked; ``uops`` are read from them.
        self.body = body
        self.entry = entry
        self.uops = uops
        self.exits = exits
        self.image_path = image_path
        self.image_base = image_base
        self._instructions: Optional[List[Instruction]] = None

    @property
    def instructions(self) -> List[Instruction]:
        if self._instructions is None:
            self._instructions = decode_all(self.body)
        return self._instructions

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
    """Builds traces by a linear read of original code bytes.

    ``mapping_at(pc)`` returns the :class:`~repro.loader.mapper.Mapping`
    that holds ``pc``, or None where nothing is mapped.  The engine
    passes its address space's
    :meth:`~repro.loader.mapper.AddressSpace.mapping_at`, which leaves
    the load/store window where it is; :meth:`over` reads a byte string.
    """

    def __init__(
        self,
        mapping_at: Callable[[int], Optional[Mapping]],
        max_trace_insts: int = DEFAULT_MAX_TRACE_INSTS,
    ):
        if max_trace_insts < 1:
            raise ValueError("max_trace_insts must be >= 1")
        self._mapping_at = mapping_at
        self.max_trace_insts = max_trace_insts

    @classmethod
    def over(
        cls,
        code: bytes,
        base: int = 0,
        max_trace_insts: int = DEFAULT_MAX_TRACE_INSTS,
    ) -> "TraceSelector":
        """A selector over ``code`` laid out at ``base``, with nothing
        mapped around it."""
        mapping = Mapping(base=base, data=code)
        return cls(lambda pc: mapping if mapping.contains(pc) else None,
                   max_trace_insts)

    def select(
        self,
        entry: int,
        image_path: str = "",
        image_base: int = 0,
    ) -> Trace:
        """Read the trace starting at ``entry``.

        The read takes whole words from the mapping that holds ``entry``
        and goes on into a mapping that abuts it, up to the first
        unconditional transfer or the instruction limit.  It faults as a
        word-by-word fetch would, at the first word that fails: an
        undecodable word raises the :class:`~repro.isa.encoding.DecodeError`
        that :func:`~repro.isa.encoding.decode` raises for it, and a word
        no one mapping holds whole raises :class:`MachineFault` at its
        address.  Words past the terminator are never checked.
        """
        limit = self.max_trace_insts * INSTRUCTION_SIZE
        body = b""
        unmapped = None
        while True:
            pc = entry + len(body)
            mapping = self._mapping_at(pc)
            if mapping is None:
                unmapped = pc
                break
            offset = pc - mapping.base
            chunk = bytes(mapping.data[offset : offset + limit - len(body)])
            whole = len(chunk) - len(chunk) % INSTRUCTION_SIZE
            found = _TERMINATOR.search(chunk[:whole:INSTRUCTION_SIZE])
            if found is not None:
                body += chunk[: (found.start() + 1) * INSTRUCTION_SIZE]
                break
            body += chunk[:whole]
            if len(body) == limit:
                break
            if whole < len(chunk):
                # The word at pc + whole runs past the mapping's end.
                unmapped = pc + whole
                break
        _check_words(body)  # an undecodable word precedes the fault
        if unmapped is not None:
            raise MachineFault("fetch from unmapped memory", unmapped)
        uops = unpack_uops(body)
        exits = []
        for branch in _BRANCH.finditer(body[::INSTRUCTION_SIZE]):
            index = branch.start()
            exits.append(TraceExit(
                ExitKind.BRANCH_TAKEN, index,
                target=entry + (index + 1) * INSTRUCTION_SIZE
                + uops[index][4],
            ))
        last = len(uops) - 1
        end = entry + len(body)
        kind = _TERMINATOR_KINDS.get(uops[last][0], ExitKind.FALLTHROUGH)
        if kind == ExitKind.DIRECT:
            target = uops[last][4]
        elif kind in (ExitKind.FALLTHROUGH, ExitKind.SYSCALL):
            target = end  # the next sequential address
        else:
            target = None
        exits.append(TraceExit(kind, last, target=target))
        return Trace(entry, body, uops, exits, image_path, image_base)


#: Opcode of each unconditional transfer -> the exit kind it ends a
#: trace with.
_TERMINATOR_KINDS = {
    **dict.fromkeys(DIRECT_UNCONDITIONAL, ExitKind.DIRECT),
    **dict.fromkeys(INDIRECT_UNCONDITIONAL, ExitKind.INDIRECT),
    Opcode.SYSCALL: ExitKind.SYSCALL,
    Opcode.HALT: ExitKind.HALT,
}


def _any_byte_of(opcodes) -> "re.Pattern":
    """Matches one byte that is any of ``opcodes``: searched over a
    body's opcode column (every eighth byte), it finds the words that
    hold them."""
    return re.compile(b"[%s]" % re.escape(bytes(sorted(opcodes))))


_TERMINATOR = _any_byte_of(_TERMINATOR_KINDS)
_BRANCH = _any_byte_of(CONDITIONAL_BRANCHES)


def _check_words(body: bytes) -> None:
    """Raise the :class:`~repro.isa.encoding.DecodeError` that
    :func:`~repro.isa.encoding.decode` raises for the first undecodable
    word of ``body``, if there is one."""
    if not decodes(body):
        for offset in range(0, len(body), INSTRUCTION_SIZE):
            decode(body[offset : offset + INSTRUCTION_SIZE])
