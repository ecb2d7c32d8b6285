"""Relocation records and application.

The synthetic ISA embeds *absolute* code addresses in the ``imm`` field of
``jmp``/``call`` (and optionally ``movi``, for address materialization).
Because images can be mapped at varying bases, every such site carries a
relocation record.  Two kinds exist:

``RELATIVE``
    The site's immediate holds an image-relative offset; the loader adds the
    image's load base.  Used for intra-image jumps and calls.

``SYMBOL``
    The site refers to a named global symbol, possibly defined in another
    image.  The dynamic linker resolves the symbol through the loaded-image
    set and writes the absolute address.

This is precisely the mechanism that makes *translated* code non-relocatable
in the paper: once the VM has translated a ``call``, the translation embeds
the already-relocated absolute literal, so a persisted translation is only
valid if the defining library is mapped at the same base in the next run.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable

from repro.isa.instructions import INSTRUCTION_SIZE

#: Byte offset of the imm field within an encoded instruction.
IMM_OFFSET = 4
_IMM_STRUCT = struct.Struct("<i")


class RelocationKind(enum.IntEnum):
    RELATIVE = 0  # imm += image base
    SYMBOL = 1  # imm = absolute address of named symbol


@dataclass(frozen=True)
class Relocation:
    """One relocation site.

    Attributes:
        section: Name of the section containing the site.
        offset: Byte offset of the *instruction* within the section.
        kind: How to compute the final value.
        symbol: Target symbol name (SYMBOL kind only).
        addend: Constant added to the resolved value.
    """

    section: str
    offset: int
    kind: RelocationKind
    symbol: str = ""
    addend: int = 0

    def __post_init__(self) -> None:
        if self.offset % INSTRUCTION_SIZE != 0:
            raise ValueError(
                "relocation offset %d is not instruction-aligned" % self.offset
            )
        if self.kind == RelocationKind.SYMBOL and not self.symbol:
            raise ValueError("SYMBOL relocation requires a symbol name")


class RelocationError(Exception):
    """Raised when a relocation cannot be applied."""


def read_imm(data: bytearray, inst_offset: int) -> int:
    """Read the imm field of the instruction at ``inst_offset``."""
    return _IMM_STRUCT.unpack_from(data, inst_offset + IMM_OFFSET)[0]


def write_imm(data: bytearray, inst_offset: int, value: int) -> None:
    """Overwrite the imm field of the instruction at ``inst_offset``."""
    _IMM_STRUCT.pack_into(data, inst_offset + IMM_OFFSET, value)


def apply_relocation(
    reloc: Relocation,
    data: bytearray,
    image_base: int,
    resolve_symbol: Callable[[str], int],
    section_vaddr: int = 0,
) -> None:
    """Apply one relocation, in place, to the bytes that hold its section.

    Args:
        reloc: The relocation record.
        data: Bytes of the section named by the record, or of the whole
            image laid out contiguously, when ``section_vaddr`` gives
            where the section starts in them.
        image_base: Absolute base the image is mapped at.
        resolve_symbol: Callback mapping a global symbol name to its
            absolute address; consulted for SYMBOL relocations.
        section_vaddr: Offset of the section in ``data``.

    Raises:
        RelocationError: If the site is out of bounds or the symbol is
            undefined.
        ValueError: If the site, shifted by ``section_vaddr``, is not
            instruction-aligned.
    """
    offset = section_vaddr + reloc.offset
    if offset % INSTRUCTION_SIZE != 0:
        raise ValueError(
            "relocation offset %d is not instruction-aligned" % offset
        )
    if offset + INSTRUCTION_SIZE > len(data):
        raise RelocationError(
            "relocation at %s+%d is outside the section"
            % (reloc.section, offset)
        )
    if reloc.kind == RelocationKind.RELATIVE:
        value = read_imm(data, offset) + image_base + reloc.addend
    elif reloc.kind == RelocationKind.SYMBOL:
        try:
            value = resolve_symbol(reloc.symbol) + reloc.addend
        except KeyError as exc:
            raise RelocationError(
                "undefined symbol %r referenced from %s+%d"
                % (reloc.symbol, reloc.section, offset)
            ) from exc
    else:  # pragma: no cover - enum is closed
        raise RelocationError("unknown relocation kind %r" % (reloc.kind,))
    write_imm(data, offset, value)
