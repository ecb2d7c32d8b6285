"""SBF ("Simple Binary Format") image container, builder and (de)serializer.

An :class:`Image` is the unit of loading: an executable or shared library
with sections, a symbol table, relocation records, a needed-library list,
and a program header.  The on-disk encoding is::

    magic "SBF1" | u32 header_len | header JSON (utf-8) | section payloads
    | u32 crc32 of everything before it

The *program header* — the JSON metadata minus the payloads — is what the
persistent cache keys hash, alongside the image path, load base, mapping
size and modification timestamp (paper §3.2.1).
"""

from __future__ import annotations

import enum
import hashlib
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.isa.encoding import encode_all
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.binfmt.relocations import Relocation, RelocationKind
from repro.binfmt.sections import Section, SectionFlags, align_up
from repro.binfmt.symbols import Symbol, SymbolBinding, SymbolKind

MAGIC = b"SBF1"


class ImageKind(enum.IntEnum):
    EXECUTABLE = 0
    SHARED_LIBRARY = 1


class ImageFormatError(Exception):
    """Raised when bytes do not parse as a valid SBF image."""


@dataclass
class Image:
    """A complete executable or shared library.

    Attributes:
        path: Identity of the image (acts as its file path; keys hash it).
        kind: EXECUTABLE or SHARED_LIBRARY.
        sections: Placed sections with image-relative addresses.
        symbols: Symbol table.
        relocations: Sites needing fix-up at load time.
        needed: Paths of shared libraries this image depends on.
        entry: Image-relative entry address (executables).
        mtime: Modification timestamp; part of the persistent-cache key so
            that rebuilding a binary invalidates stale translations.
    """

    path: str
    kind: ImageKind = ImageKind.EXECUTABLE
    sections: List[Section] = field(default_factory=list)
    symbols: List[Symbol] = field(default_factory=list)
    relocations: List[Relocation] = field(default_factory=list)
    needed: List[str] = field(default_factory=list)
    entry: int = 0
    mtime: int = 0

    # -- lookups -----------------------------------------------------------

    def section(self, name: str) -> Section:
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise KeyError("no section %r in %s" % (name, self.path))

    def has_section(self, name: str) -> bool:
        return any(sec.name == name for sec in self.sections)

    def find_symbol(self, name: str) -> Optional[Symbol]:
        return self.symbol_table().get(name)

    def symbol_table(self) -> Dict[str, Symbol]:
        """Every symbol by name; the first definition of a name wins."""
        return self._symbol_tables()[0]

    def global_symbols(self) -> Dict[str, Symbol]:
        return self._symbol_tables()[1]

    def _symbol_tables(self) -> Tuple[Dict[str, Symbol], Dict[str, Symbol]]:
        # Memoized per symbol-table length: symbol resolution reads them
        # once per reference per load, and the table only ever grows
        # while an image is being *built* (never once loaded).
        cached = getattr(self, "_symbol_cache", None)
        if cached is not None and cached[0] == len(self.symbols):
            return cached[1]
        tables = (
            # Built last to first, so the first definition of a name wins.
            {sym.name: sym for sym in reversed(self.symbols)},
            {sym.name: sym for sym in self.symbols if sym.is_global},
        )
        self._symbol_cache = (len(self.symbols), tables)
        return tables

    @property
    def size(self) -> int:
        """Total mapped size of the image (max section end, aligned)."""
        if not self.sections:
            return 0
        return align_up(max(sec.end for sec in self.sections))

    # -- hashing -----------------------------------------------------------

    def program_header(self) -> dict:
        """Structural metadata hashed into persistent-cache keys."""
        return {
            "path": self.path,
            "kind": int(self.kind),
            "entry": self.entry,
            "needed": list(self.needed),
            "sections": [
                {
                    "name": sec.name,
                    "vaddr": sec.vaddr,
                    "size": sec.size,
                    "flags": sec.flags,
                }
                for sec in self.sections
            ],
            "nsymbols": len(self.symbols),
            "nrelocations": len(self.relocations),
        }

    def header_digest(self) -> str:
        """Stable hex digest of the program header."""
        blob = json.dumps(self.program_header(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()

    def content_digest(self) -> str:
        """Hex digest of the full image contents (header + payloads)."""
        hasher = hashlib.sha256()
        hasher.update(json.dumps(self.program_header(), sort_keys=True).encode())
        for sec in self.sections:
            hasher.update(bytes(sec.data))
        return hasher.hexdigest()

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        header = {
            "path": self.path,
            "kind": int(self.kind),
            "entry": self.entry,
            "mtime": self.mtime,
            "needed": list(self.needed),
            "sections": [
                {
                    "name": sec.name,
                    "vaddr": sec.vaddr,
                    "size": sec.size,
                    "flags": sec.flags,
                }
                for sec in self.sections
            ],
            "symbols": [
                [sym.name, sym.vaddr, int(sym.binding), int(sym.kind)]
                for sym in self.symbols
            ],
            "relocations": [
                [rel.section, rel.offset, int(rel.kind), rel.symbol, rel.addend]
                for rel in self.relocations
            ],
        }
        header_blob = json.dumps(header, sort_keys=True).encode()
        parts = [MAGIC, struct.pack("<I", len(header_blob)), header_blob]
        for sec in self.sections:
            parts.append(bytes(sec.data))
        body = b"".join(parts)
        return body + struct.pack("<I", zlib.crc32(body) & 0xFFFFFFFF)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Image":
        if len(blob) < len(MAGIC) + 8 or blob[: len(MAGIC)] != MAGIC:
            raise ImageFormatError("bad magic")
        body, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
        if zlib.crc32(body) & 0xFFFFFFFF != crc:
            raise ImageFormatError("checksum mismatch")
        (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
        header_start = len(MAGIC) + 4
        try:
            header = json.loads(blob[header_start : header_start + header_len])
        except ValueError as exc:
            raise ImageFormatError("bad header JSON") from exc
        image = cls(
            path=header["path"],
            kind=ImageKind(header["kind"]),
            entry=header["entry"],
            mtime=header["mtime"],
            needed=list(header["needed"]),
        )
        cursor = header_start + header_len
        for meta in header["sections"]:
            if meta["size"] < 0 or meta["vaddr"] < 0:
                raise ImageFormatError(
                    "section %r has negative placement" % meta["name"]
                )
            data = bytearray(blob[cursor : cursor + meta["size"]])
            if len(data) != meta["size"]:
                raise ImageFormatError("truncated section %r" % meta["name"])
            cursor += meta["size"]
            image.sections.append(
                Section(meta["name"], data, vaddr=meta["vaddr"], flags=meta["flags"])
            )
        image.symbols = [
            Symbol(name, vaddr, SymbolBinding(binding), SymbolKind(kind))
            for name, vaddr, binding, kind in header["symbols"]
        ]
        image.relocations = [
            Relocation(section, offset, RelocationKind(kind), symbol, addend)
            for section, offset, kind, symbol, addend in header["relocations"]
        ]
        return image

    def save(self, filesystem_path: str) -> None:
        with open(filesystem_path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, filesystem_path: str) -> "Image":
        with open(filesystem_path, "rb") as handle:
            return cls.from_bytes(handle.read())


class ImageBuilder:
    """Incremental construction of an :class:`Image`.

    Code is appended function-by-function to ``.text``; data objects go to
    ``.data``.  Each function's symbolic call/jump sites become SYMBOL
    relocations; the builder automatically records a RELATIVE relocation
    for direct transfers whose immediate was emitted image-relative.
    """

    def __init__(
        self,
        path: str,
        kind: ImageKind = ImageKind.EXECUTABLE,
        needed: Optional[Sequence[str]] = None,
        mtime: int = 0,
    ):
        self._image = Image(
            path=path, kind=kind, needed=list(needed or ()), mtime=mtime
        )
        self._text = bytearray()
        self._data = bytearray()
        self._symbols: List[Symbol] = []
        self._relocations: List[Relocation] = []
        self._entry_symbol: Optional[str] = None
        self._built = False

    @property
    def text_size(self) -> int:
        return len(self._text)

    def add_function(
        self,
        name: str,
        code: Sequence[Instruction],
        symbol_refs: Optional[Iterable[Tuple[int, str]]] = None,
        relative_sites: Optional[Iterable[int]] = None,
        binding: SymbolBinding = SymbolBinding.GLOBAL,
    ) -> int:
        """Append a function to ``.text``; return its image-relative vaddr.

        Args:
            name: Symbol name for the function's entry.
            code: The instructions.
            symbol_refs: ``(instruction_index, symbol_name)`` pairs marking
                direct transfers that target named symbols (possibly in
                other images).
            relative_sites: Instruction indices whose immediates are
                image-relative addresses needing rebasing at load.
            binding: Symbol visibility.
        """
        if self._built:
            raise RuntimeError("builder already finished")
        vaddr = len(self._text)
        self._text.extend(encode_all(code))
        self._symbols.append(Symbol(name, vaddr, binding, SymbolKind.FUNC))
        for index, symbol in symbol_refs or ():
            self._relocations.append(
                Relocation(
                    ".text",
                    vaddr + index * INSTRUCTION_SIZE,
                    RelocationKind.SYMBOL,
                    symbol=symbol,
                )
            )
        for index in relative_sites or ():
            self._relocations.append(
                Relocation(
                    ".text",
                    vaddr + index * INSTRUCTION_SIZE,
                    RelocationKind.RELATIVE,
                )
            )
        return vaddr

    def add_unit(
        self,
        unit,
        exports: Optional[Iterable[str]] = None,
    ) -> int:
        """Append an :class:`~repro.isa.assembler.AssemblyUnit` to ``.text``.

        Labels listed in ``exports`` (default: all labels) become GLOBAL
        symbols; the rest become LOCAL.  Call/jump sites that target labels
        defined in the unit are re-encoded as image-relative addresses with
        RELATIVE relocations; sites targeting undefined labels become
        SYMBOL relocations for the dynamic linker.  Returns the unit's
        image-relative base address.
        """
        if self._built:
            raise RuntimeError("builder already finished")
        from repro.isa.encoding import encode  # local import: avoid cycle at module load

        vaddr = len(self._text)
        exported = set(unit.labels) if exports is None else set(exports)
        code = list(unit.code)
        for index, symbol in unit.relocations:
            inst = code[index]
            if symbol in unit.labels:
                # Local target: immediate becomes image-relative; rebased
                # with the load base via a RELATIVE relocation.
                code[index] = Instruction(
                    inst.opcode,
                    rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2,
                    imm=vaddr + unit.labels[symbol],
                )
                self._relocations.append(
                    Relocation(
                        ".text",
                        vaddr + index * INSTRUCTION_SIZE,
                        RelocationKind.RELATIVE,
                    )
                )
            else:
                self._relocations.append(
                    Relocation(
                        ".text",
                        vaddr + index * INSTRUCTION_SIZE,
                        RelocationKind.SYMBOL,
                        symbol=symbol,
                    )
                )
        for inst in code:
            self._text.extend(encode(inst))
        for label, offset in unit.labels.items():
            binding = (
                SymbolBinding.GLOBAL if label in exported else SymbolBinding.LOCAL
            )
            self._symbols.append(
                Symbol(label, vaddr + offset, binding, SymbolKind.FUNC)
            )
        return vaddr

    def add_data(
        self,
        name: str,
        payload: bytes,
        binding: SymbolBinding = SymbolBinding.GLOBAL,
    ) -> int:
        """Append a data object to ``.data``; return its section offset.

        The returned offset is section-relative; the final image-relative
        address is assigned when :meth:`build` places ``.data`` after
        ``.text``.  Symbols added here are patched at build time.
        """
        if self._built:
            raise RuntimeError("builder already finished")
        offset = len(self._data)
        self._data.extend(payload)
        # vaddr is provisional; patched in build() once .data is placed.
        self._symbols.append(Symbol(name, offset, binding, SymbolKind.OBJECT))
        return offset

    def set_entry(self, symbol_name: str) -> None:
        self._entry_symbol = symbol_name

    def build(self) -> Image:
        """Place sections, fix data-symbol addresses, and return the image."""
        if self._built:
            raise RuntimeError("builder already finished")
        self._built = True
        image = self._image
        text = Section(
            ".text",
            self._text,
            vaddr=0,
            flags=SectionFlags.READ | SectionFlags.EXEC,
        )
        image.sections.append(text)
        # Data starts on its own 512-byte page so stores to data never
        # alias an executed code page (the machine's self-modification
        # detector works at that granularity, like real W^X paging).
        data_vaddr = align_up(text.end, 512)
        if self._data:
            image.sections.append(
                Section(
                    ".data",
                    self._data,
                    vaddr=data_vaddr,
                    flags=SectionFlags.READ | SectionFlags.WRITE,
                )
            )
        for sym in self._symbols:
            if sym.kind == SymbolKind.OBJECT:
                sym = Symbol(sym.name, data_vaddr + sym.vaddr, sym.binding, sym.kind)
            image.symbols.append(sym)
        image.relocations.extend(self._relocations)
        if self._entry_symbol is not None:
            entry_sym = image.find_symbol(self._entry_symbol)
            if entry_sym is None:
                raise ImageFormatError(
                    "entry symbol %r is undefined" % self._entry_symbol
                )
            image.entry = entry_sym.vaddr
        return image
