"""Binary encoding and decoding of instructions.

Every instruction encodes to :data:`~repro.isa.instructions.INSTRUCTION_SIZE`
(8) bytes, little-endian::

    byte 0      opcode
    byte 1      rd
    byte 2      rs1
    byte 3      rs2
    bytes 4-7   imm (signed 32-bit, little-endian)

The fixed width keeps the trace fetcher, the code cache, and the persistent
cache file format simple while remaining byte-exact: persistent caches store
the *encoded* translated code, exactly as Pin's persistent caches stored
machine code.
"""

from __future__ import annotations

import struct
from typing import Iterable, List

from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import Opcode
from repro.isa.registers import NUM_REGISTERS

_STRUCT = struct.Struct("<BBBBi")

assert _STRUCT.size == INSTRUCTION_SIZE

#: Opcode byte -> :class:`Opcode`, built once: a probe of this dict is
#: about eight times faster than the ``Opcode(byte)`` call it replaces.
_OPCODES = {int(op): op for op in Opcode}
_decoded = Instruction._decoded

#: Content-keyed decode memo: encoded word -> shared Instruction.  Keying
#: on the *bytes* (not the address) makes the memo immune to
#: self-modifying code and module reloads, so it can be global and live
#: across Machine instances — decoding the same images run after run is
#: a dominant translation-pipeline cost otherwise.  Instruction is a
#: frozen dataclass, so sharing decoded objects is safe.
_DECODE_MEMO: dict = {}
_DECODE_MEMO_CAP = 1 << 16


class DecodeError(Exception):
    """Raised when bytes do not decode to a valid instruction."""


def encode(inst: Instruction) -> bytes:
    """Encode a single instruction to its 8-byte form."""
    return _STRUCT.pack(inst.opcode, inst.rd, inst.rs1, inst.rs2, inst.imm)


def decode(data: bytes, offset: int = 0) -> Instruction:
    """Decode a single instruction from ``data`` at byte ``offset``."""
    word = bytes(data[offset : offset + INSTRUCTION_SIZE])
    inst = _DECODE_MEMO.get(word)
    if inst is not None:
        return inst
    try:
        opcode, rd, rs1, rs2, imm = _STRUCT.unpack_from(word, 0)
    except struct.error as exc:
        raise DecodeError("truncated instruction at offset %d" % offset) from exc
    op = _OPCODES.get(opcode)
    if op is None:
        raise DecodeError(
            "illegal opcode 0x%02x at offset %d" % (opcode, offset)
        )
    # The register fields are unsigned bytes and ``imm`` is already a
    # signed 32-bit value, so these are all of Instruction's checks.
    for reg in (rd, rs1, rs2):
        if reg >= NUM_REGISTERS:
            raise DecodeError("register out of range: %r" % (reg,))
    inst = _decoded(op, rd, rs1, rs2, imm)
    if len(_DECODE_MEMO) >= _DECODE_MEMO_CAP:
        _DECODE_MEMO.clear()
    _DECODE_MEMO[word] = inst
    return inst


def encode_all(insts: Iterable[Instruction]) -> bytes:
    """Encode a sequence of instructions to a contiguous byte string."""
    pack = _STRUCT.pack
    return b"".join(
        [pack(i.opcode, i.rd, i.rs1, i.rs2, i.imm) for i in insts]
    )


def decode_all(data: bytes) -> List[Instruction]:
    """Decode a byte string that is an exact multiple of the instruction size."""
    body = bytes(data)
    if len(body) % INSTRUCTION_SIZE != 0:
        raise DecodeError(
            "code length %d is not a multiple of %d" % (len(body), INSTRUCTION_SIZE)
        )
    return [decode(body, off) for off in range(0, len(body), INSTRUCTION_SIZE)]


def decode_uops(body: bytes) -> List[tuple]:
    """The micro-op tuples of an encoded body, without building any
    :class:`Instruction`: what ``[i.as_tuple() for i in decode_all(body)]``
    returns, from one ``struct.iter_unpack`` pass.

    Every word is checked as :func:`decode` checks it (a known opcode,
    registers in range); on the first bad word the body is handed to
    :func:`decode_all`, so the :class:`DecodeError` raised is the one
    decoding would raise.
    """
    if len(body) % INSTRUCTION_SIZE == 0:
        uops = list(_STRUCT.iter_unpack(body))
        for op, rd, rs1, rs2, _imm in uops:
            if (op not in _OPCODES or rd >= NUM_REGISTERS
                    or rs1 >= NUM_REGISTERS or rs2 >= NUM_REGISTERS):
                break
        else:
            return uops
    decode_all(body)
    raise AssertionError("decode_all accepted a body decode_uops rejects")
