"""Process address space and memory mappings.

The address space is a set of non-overlapping :class:`Mapping` regions.
Image mappings hold a private, relocated copy of the image's sections (the
moral equivalent of ``mmap``-ing the file and letting the dynamic linker
patch it); anonymous mappings back the stack and heap.

Words are 8 bytes, little-endian, signed — the same width as an encoded
instruction, which keeps addresses, loads/stores and code fetch consistent.
"""

from __future__ import annotations

import bisect
import mmap
import struct
from dataclasses import dataclass, field
from typing import List, Optional, Union

from repro.binfmt.image import Image

#: Machine word size in bytes (load/store granularity).
WORD_SIZE = 8

#: Packs and unpacks one word.
WORD_STRUCT = struct.Struct("<q")
_UWORD_MASK = (1 << 64) - 1


def to_signed_word(value: int) -> int:
    """Wrap an arbitrary int to the signed 64-bit range."""
    value &= _UWORD_MASK
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class MemoryError_(Exception):
    """Raised on access to unmapped memory or mapping conflicts."""


@dataclass
class Mapping:
    """One contiguous region of the address space.

    Attributes:
        base: Absolute start address.
        data: Backing bytes (length = mapping size): a ``bytearray``
            holding an image's private copy, or for an anonymous region
            a private anonymous ``mmap``, whose pages the kernel
            zero-fills when a run first touches them.  Both take the
            buffer protocol and same-size slice writes, which is all
            the address space and the compiled tier do with them.
        image: The image mapped here, or None for anonymous regions.
        name: Diagnostic label.
        code_free: No page the mapping covers holds executed code, so
            a window-hit store into it skips the SMC probe on every
            tier.  Cleared by
            :meth:`AddressSpace.mark_code`, never set again: a mapping
            that ran code stays watched for self-modification.
    """

    base: int
    data: Union[bytearray, mmap.mmap]
    image: Optional[Image] = None
    name: str = ""
    code_free: bool = field(default=True, compare=False, repr=False)

    @property
    def size(self) -> int:
        return len(self.data)

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end

    def overlaps(self, base: int, size: int) -> bool:
        return base < self.end and self.base < base + size


def _miss_window() -> list:
    """A window no address hits: no offset lies in ``0..-1``."""
    return [0, -1, bytearray(), False]


@dataclass
class AddressSpace:
    """A sorted collection of mappings with word/byte access helpers.

    ``window`` is the one hot-mapping cache: ``[base, last word offset,
    data, code_free]`` of the mapping :meth:`find_mapping` returned
    last, so an access at ``offset = addr - base`` with ``0 <= offset <=
    last`` hits without a bisect.  Loads and stores cluster heavily on
    the stack/heap, so that is the common case.  ``code_free`` copies
    :attr:`Mapping.code_free`: a window-hit store into a code-free
    mapping cannot modify executed code, so the guest word access
    (:func:`repro.machine.cpu.word_access`) skips its SMC probe.  The
    list is updated in place, never replaced: the machine's word access,
    the engine's execution context and the compiled tier's region bodies
    hold it for a whole run, and each ``run_uops`` call and region entry
    reads its slots.  Unmapping resets it to a window no address hits,
    and :meth:`mark_code` clears its ``code_free`` slot; insertion
    cannot make it stale (mappings never overlap).
    """

    mappings: List[Mapping] = field(default_factory=list)
    _bases: List[int] = field(default_factory=list)
    window: list = field(default_factory=_miss_window, init=False,
                         repr=False, compare=False)

    def add_mapping(self, mapping: Mapping) -> Mapping:
        """Insert a mapping; reject overlaps."""
        for existing in self.mappings:
            if existing.overlaps(mapping.base, mapping.size):
                raise MemoryError_(
                    "mapping %r at 0x%x overlaps %r"
                    % (mapping.name, mapping.base, existing.name)
                )
        index = bisect.bisect_left(self._bases, mapping.base)
        self.mappings.insert(index, mapping)
        self._bases.insert(index, mapping.base)
        return mapping

    def map_image(self, image: Image, base: int) -> Mapping:
        """Map a private copy of ``image`` at ``base`` (unrelocated)."""
        data = bytearray(image.size)
        for sec in image.sections:
            data[sec.vaddr : sec.vaddr + sec.size] = sec.data
        return self.add_mapping(
            Mapping(base=base, data=data, image=image, name=image.path)
        )

    def map_anonymous(self, base: int, size: int, name: str = "") -> Mapping:
        """Map a zero-filled anonymous region (stack, heap, thread-exit
        stub).  ``MAP_PRIVATE``: a child forked from this process gets
        its own copy-on-write view, so neither sees the other's stores."""
        data = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)
        return self.add_mapping(Mapping(base=base, data=data, name=name))

    def remove_mapping(self, mapping: Mapping) -> None:
        """Unmap a region (dynamic module unload)."""
        try:
            index = self.mappings.index(mapping)
        except ValueError as exc:
            raise MemoryError_(
                "mapping %r is not in this address space" % mapping.name
            ) from exc
        del self.mappings[index]
        del self._bases[index]
        self.window[:] = _miss_window()

    def mapping_at(self, addr: int) -> Optional[Mapping]:
        """The mapping containing ``addr``, or None; the window stays
        where it is, so code reads and image lookups do not evict the
        stack or heap from it."""
        index = bisect.bisect_right(self._bases, addr) - 1
        if index >= 0:
            mapping = self.mappings[index]
            # The bisect puts ``addr`` at or above the mapping's base.
            if addr - mapping.base < len(mapping.data):
                return mapping
        return None

    def find_mapping(self, addr: int) -> Mapping:
        """Return the mapping containing ``addr``; it becomes the window."""
        mapping = self.mapping_at(addr)
        if mapping is None:
            raise MemoryError_("unmapped address 0x%x" % addr)
        self.window[:] = (
            mapping.base, mapping.size - WORD_SIZE, mapping.data,
            mapping.code_free,
        )
        return mapping

    def mark_code(self, start: int, end: int) -> None:
        """Bytes ``start..end-1`` hold executed code: every mapping that
        overlaps them stops being code-free, and so does the window when
        it is one of them."""
        window = self.window
        index = bisect.bisect_left(self._bases, end) - 1
        while index >= 0:
            mapping = self.mappings[index]
            if mapping.end <= start:
                break
            mapping.code_free = False
            if window[2] is mapping.data:
                window[3] = False
            index -= 1

    def mapping_for_image(self, path: str) -> Optional[Mapping]:
        """Return the mapping of the image with the given path, if loaded."""
        for mapping in self.mappings:
            if mapping.image is not None and mapping.image.path == path:
                return mapping
        return None

    # -- data access -------------------------------------------------------

    def read_bytes(self, addr: int, length: int) -> bytes:
        """Read raw bytes; the range must stay within one mapping."""
        base, last, data, _code_free = self.window
        offset = addr - base
        if not 0 <= offset <= last:
            mapping = self.find_mapping(addr)
            offset = addr - mapping.base
            data = mapping.data
        if offset + length > len(data):
            raise MemoryError_(
                "read of %d bytes at 0x%x crosses mapping end" % (length, addr)
            )
        return bytes(data[offset : offset + length])

    def write_bytes(self, addr: int, payload: bytes) -> None:
        """Write raw bytes; the range must stay within one mapping."""
        mapping = self.find_mapping(addr)
        if addr + len(payload) > mapping.end:
            raise MemoryError_(
                "write of %d bytes at 0x%x crosses mapping end"
                % (len(payload), addr)
            )
        offset = addr - mapping.base
        mapping.data[offset : offset + len(payload)] = payload

    # The guest word access (repro.machine.cpu.word_access) hits the
    # window itself and calls the two word accessors only on a miss, so
    # they always look the mapping up, which moves the window to it.

    def read_word(self, addr: int) -> int:
        """Read one signed 64-bit little-endian word."""
        mapping = self.find_mapping(addr)
        offset = addr - mapping.base
        if offset + WORD_SIZE > len(mapping.data):
            raise MemoryError_("word read at 0x%x crosses mapping end" % addr)
        return WORD_STRUCT.unpack_from(mapping.data, offset)[0]

    def write_word(self, addr: int, value: int) -> None:
        """Write one word, wrapping to the signed 64-bit range."""
        mapping = self.find_mapping(addr)
        offset = addr - mapping.base
        if offset + WORD_SIZE > len(mapping.data):
            raise MemoryError_(
                "word write at 0x%x crosses mapping end" % addr
            )
        WORD_STRUCT.pack_into(mapping.data, offset, to_signed_word(value))
