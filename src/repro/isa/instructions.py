"""Instruction representation and constructor helpers.

An :class:`Instruction` is an immutable 4-tuple-like record of
``(opcode, rd, rs1, rs2, imm)``.  All instructions occupy
:data:`INSTRUCTION_SIZE` bytes in memory; code addresses are always
instruction-aligned.

The module-level constructor helpers (``add``, ``movi``, ``beq``, ...) are
the idiomatic way to build code programmatically; the workload builder and
the tests use them heavily.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa import registers
from repro.isa.opcodes import (
    Opcode,
    is_call,
    is_conditional_branch,
    is_control_flow,
    is_indirect,
    is_memory,
    is_unconditional,
)

#: Size of every encoded instruction, in bytes.
INSTRUCTION_SIZE = 8

#: Immediate field range (signed 32-bit).
IMM_MIN = -(2**31)
IMM_MAX = 2**31 - 1

_new = object.__new__
_set = object.__setattr__


@dataclass(frozen=True)
class Instruction:
    """A single decoded instruction.

    Attributes:
        opcode: The operation.
        rd: Destination register (0 when unused).
        rs1: First source register (0 when unused).
        rs2: Second source register (0 when unused).
        imm: Signed 32-bit immediate; for ``jmp``/``call`` it is an absolute
            byte address, for conditional branches a PC-relative byte offset
            (relative to the *next* instruction), for ALU/memory ops a plain
            operand.
    """

    opcode: Opcode
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for reg in (self.rd, self.rs1, self.rs2):
            if not registers.is_valid_register(reg):
                raise ValueError("register out of range: %r" % (reg,))
        if not IMM_MIN <= self.imm <= IMM_MAX:
            raise ValueError("immediate out of range: %r" % (self.imm,))

    @classmethod
    def _decoded(cls, opcode: Opcode, rd: int, rs1: int, rs2: int,
                 imm: int) -> "Instruction":
        """An instruction from already-checked fields, without
        ``__post_init__``.  Only :func:`repro.isa.encoding.decode`
        calls it, after its own operand checks."""
        inst = _new(cls)
        # As the generated frozen __init__ does: writing through
        # ``__dict__`` instead would give every decoded instruction its
        # own dict, 64 bytes more than a constructed one.
        _set(inst, "opcode", opcode)
        _set(inst, "rd", rd)
        _set(inst, "rs1", rs1)
        _set(inst, "rs2", rs2)
        _set(inst, "imm", imm)
        return inst

    def as_tuple(self):
        """Flatten to ``(opcode_int, rd, rs1, rs2, imm)``.

        The execution core runs on these plain tuples ("micro-ops"):
        indexing a tuple is several times faster than dataclass attribute
        access, which dominates interpreter throughput.
        """
        return (int(self.opcode), self.rd, self.rs1, self.rs2, self.imm)

    # -- control-flow taxonomy, delegated to the opcode tables ------------

    @property
    def is_control_flow(self) -> bool:
        """True for any instruction that can redirect the PC."""
        return is_control_flow(self.opcode)

    @property
    def is_conditional_branch(self) -> bool:
        """True for two-way PC-relative branches."""
        return is_conditional_branch(self.opcode)

    @property
    def is_unconditional(self) -> bool:
        """True if control always transfers away (trace end)."""
        return is_unconditional(self.opcode)

    @property
    def is_indirect(self) -> bool:
        """True if the transfer target comes from a register."""
        return is_indirect(self.opcode)

    @property
    def is_call(self) -> bool:
        """True for instructions that write the link register."""
        return is_call(self.opcode)

    @property
    def is_memory(self) -> bool:
        """True for loads and stores."""
        return is_memory(self.opcode)

    def branch_target(self, pc: int) -> int:
        """Resolve the static target of a direct transfer at address ``pc``.

        For conditional branches the immediate is relative to the fall
        through address; for ``jmp``/``call`` it is absolute.  Raises
        ``ValueError`` for indirect or non-control-flow instructions whose
        target is not statically known.
        """
        if self.is_conditional_branch:
            return pc + INSTRUCTION_SIZE + self.imm
        if self.opcode in (Opcode.JMP, Opcode.CALL):
            return self.imm
        raise ValueError(
            "no static target for %s" % (self.opcode.name.lower(),)
        )

    def registers_read(self) -> frozenset:
        """Registers whose values this instruction consumes."""
        read = set()
        op = self.opcode
        if op in (
            Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
            Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SLT,
        ):
            read.update((self.rs1, self.rs2))
        elif op in (
            Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
            Opcode.SHLI, Opcode.SHRI, Opcode.LD,
        ):
            read.add(self.rs1)
        elif op == Opcode.ST:
            read.update((self.rs1, self.rs2))
        elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            read.update((self.rs1, self.rs2))
        elif op in (Opcode.JR, Opcode.CALLR):
            read.add(self.rs1)
        elif op == Opcode.RET:
            read.add(registers.LR)
        elif op == Opcode.SYSCALL:
            # Syscall number plus the argument registers.
            read.update((registers.RV, registers.A0, registers.A1,
                         registers.A2, registers.A3))
        read.discard(registers.ZERO)
        return frozenset(read)

    def registers_written(self) -> frozenset:
        """Registers this instruction defines."""
        op = self.opcode
        written = set()
        if op in (
            Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.AND,
            Opcode.OR, Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.SLT,
            Opcode.ADDI, Opcode.ANDI, Opcode.ORI, Opcode.XORI,
            Opcode.SHLI, Opcode.SHRI, Opcode.LUI, Opcode.MOVI, Opcode.LD,
        ):
            written.add(self.rd)
        elif op in (Opcode.CALL, Opcode.CALLR):
            written.add(registers.LR)
        elif op == Opcode.SYSCALL:
            written.add(registers.RV)
        written.discard(registers.ZERO)
        return frozenset(written)


# ---------------------------------------------------------------------------
# Constructor helpers.
# ---------------------------------------------------------------------------

def nop() -> Instruction:
    """No operation."""
    return Instruction(Opcode.NOP)


def add(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 + rs2."""
    return Instruction(Opcode.ADD, rd=rd, rs1=rs1, rs2=rs2)


def sub(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 - rs2."""
    return Instruction(Opcode.SUB, rd=rd, rs1=rs1, rs2=rs2)


def mul(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 * rs2."""
    return Instruction(Opcode.MUL, rd=rd, rs1=rs1, rs2=rs2)


def div(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 / rs2, truncated toward zero."""
    return Instruction(Opcode.DIV, rd=rd, rs1=rs1, rs2=rs2)


def and_(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 & rs2."""
    return Instruction(Opcode.AND, rd=rd, rs1=rs1, rs2=rs2)


def or_(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 | rs2."""
    return Instruction(Opcode.OR, rd=rd, rs1=rs1, rs2=rs2)


def xor(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 ^ rs2."""
    return Instruction(Opcode.XOR, rd=rd, rs1=rs1, rs2=rs2)


def shl(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 << (rs2 & 63)."""
    return Instruction(Opcode.SHL, rd=rd, rs1=rs1, rs2=rs2)


def shr(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = rs1 >> (rs2 & 63), logical."""
    return Instruction(Opcode.SHR, rd=rd, rs1=rs1, rs2=rs2)


def slt(rd: int, rs1: int, rs2: int) -> Instruction:
    """rd = 1 if rs1 < rs2 else 0 (signed)."""
    return Instruction(Opcode.SLT, rd=rd, rs1=rs1, rs2=rs2)


def addi(rd: int, rs1: int, imm: int) -> Instruction:
    """rd = rs1 + imm."""
    return Instruction(Opcode.ADDI, rd=rd, rs1=rs1, imm=imm)


def andi(rd: int, rs1: int, imm: int) -> Instruction:
    """rd = rs1 & imm."""
    return Instruction(Opcode.ANDI, rd=rd, rs1=rs1, imm=imm)


def ori(rd: int, rs1: int, imm: int) -> Instruction:
    """rd = rs1 | imm."""
    return Instruction(Opcode.ORI, rd=rd, rs1=rs1, imm=imm)


def xori(rd: int, rs1: int, imm: int) -> Instruction:
    """rd = rs1 ^ imm."""
    return Instruction(Opcode.XORI, rd=rd, rs1=rs1, imm=imm)


def shli(rd: int, rs1: int, imm: int) -> Instruction:
    """rd = rs1 << (imm & 63)."""
    return Instruction(Opcode.SHLI, rd=rd, rs1=rs1, imm=imm)


def shri(rd: int, rs1: int, imm: int) -> Instruction:
    """rd = rs1 >> (imm & 63), logical."""
    return Instruction(Opcode.SHRI, rd=rd, rs1=rs1, imm=imm)


def lui(rd: int, imm: int) -> Instruction:
    """rd = imm << 16."""
    return Instruction(Opcode.LUI, rd=rd, imm=imm)


def movi(rd: int, imm: int) -> Instruction:
    """rd = imm (signed 32-bit)."""
    return Instruction(Opcode.MOVI, rd=rd, imm=imm)


def ld(rd: int, rs1: int, imm: int = 0) -> Instruction:
    """rd = mem[rs1 + imm]."""
    return Instruction(Opcode.LD, rd=rd, rs1=rs1, imm=imm)


def st(rs1: int, rs2: int, imm: int = 0) -> Instruction:
    """Store ``rs2`` to ``mem[rs1 + imm]``."""
    return Instruction(Opcode.ST, rs1=rs1, rs2=rs2, imm=imm)


def beq(rs1: int, rs2: int, offset: int) -> Instruction:
    """Branch to pc+8+offset if rs1 == rs2."""
    return Instruction(Opcode.BEQ, rs1=rs1, rs2=rs2, imm=offset)


def bne(rs1: int, rs2: int, offset: int) -> Instruction:
    """Branch to pc+8+offset if rs1 != rs2."""
    return Instruction(Opcode.BNE, rs1=rs1, rs2=rs2, imm=offset)


def blt(rs1: int, rs2: int, offset: int) -> Instruction:
    """Branch to pc+8+offset if rs1 < rs2 (signed)."""
    return Instruction(Opcode.BLT, rs1=rs1, rs2=rs2, imm=offset)


def bge(rs1: int, rs2: int, offset: int) -> Instruction:
    """Branch to pc+8+offset if rs1 >= rs2 (signed)."""
    return Instruction(Opcode.BGE, rs1=rs1, rs2=rs2, imm=offset)


def jmp(target: int) -> Instruction:
    """Unconditional jump to the absolute address ``target``."""
    return Instruction(Opcode.JMP, imm=target)


def call(target: int) -> Instruction:
    """lr = pc+8; jump to the absolute address ``target``."""
    return Instruction(Opcode.CALL, imm=target)


def jr(rs1: int) -> Instruction:
    """Unconditional jump to the address in ``rs1``."""
    return Instruction(Opcode.JR, rs1=rs1)


def callr(rs1: int) -> Instruction:
    """lr = pc+8; jump to the address in ``rs1``."""
    return Instruction(Opcode.CALLR, rs1=rs1)


def ret() -> Instruction:
    """Jump to the address in ``lr``."""
    return Instruction(Opcode.RET)


def syscall() -> Instruction:
    """Trap into the OS (number in ``rv``, args in ``a0``-``a3``)."""
    return Instruction(Opcode.SYSCALL)


def halt() -> Instruction:
    """Stop the machine with exit status 0."""
    return Instruction(Opcode.HALT)
