"""On-disk persistent code cache.

"A persistent code cache is a file stored on disk containing traces and
their associated data structures.  The data structures contain information
such as trace links and translation maps." (paper §3.2.1)

The file holds two pools, mirroring the in-memory separation (§3.2.2):

* the **code pool** — concatenated translated-code bytes of every trace;
* the **data pool** — per-trace serialized metadata (trace object header,
  register bindings, liveness vectors, address table, link records), the
  same byte sizes the in-memory translator accounts, so Figure 9's
  code-vs-data comparison measures real file bytes.

Format version 3 (PCC3) frames the file in the shared sectioned layout of
:mod:`repro.persist.framing` (see ``docs/cache-format.md``): a preamble,
a CRC-checked header JSON (keys, metadata, the image-path string table,
section table), then the trace directory, code pool and data pool, each
with its own CRC, then a whole-file trailer CRC.  The directory is packed
``struct`` rows; what the data pool already models (each trace's entry,
image offset, instruction count, liveness and exit records) is read back
from there instead of being stored twice.  Damage is localized and
reported precisely: any mismatch raises :class:`CacheFileError` whose
``section`` attribute names the damaged section — the database layer uses
it to quarantine the file and report where the damage was.

Trace identity for accumulation is ``(image_path, image_offset)`` — stable
across runs even if a library's base changes.
"""

from __future__ import annotations

import gc
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.isa.encoding import DecodeError, decode_uops, decodes, unpack_uops
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.persist.framing import (  # noqa: F401  (PREAMBLE re-exported)
    PREAMBLE,
    FrameError,
    Framing,
)
from repro.persist.keys import MappingKey
from repro.persist.storage import DEFAULT_STORAGE, FileStorage
from repro.vm.trace import ExitKind, TraceExit
from repro.vm.translator import (
    ADDR_TABLE_BYTES_PER_INST,
    LINK_RECORD_BYTES,
    LIVENESS_BYTES_PER_INST,
    REGISTER_BINDINGS_BYTES,
    TRACE_OBJECT_BYTES,
    modeled_data_size,
)

MAGIC = b"PCC3"
FORMAT_VERSION = 3
#: Magics of the retired formats, with their versions: recognized only
#: so their files get the precise "unsupported format version"
#: incompatibility path (quarantine + JIT-only run) instead of a generic
#: bad-magic error.
LEGACY_MAGICS = {b"PCC1": 1, b"PCC2": 2}

#: Feature-flag bits.  A reader must reject a file carrying any flag bit
#: it does not understand: flags mark format extensions that change how
#: the payload must be interpreted.
FEATURE_RELOCATABLE = 0x0001
SUPPORTED_FEATURES = FEATURE_RELOCATABLE

#: Section names used in error attribution and fsck reports, in file
#: order.
SECTIONS = ("header", "directory", "code_pool", "data_pool")

# The directory section: a row count, one row per trace, then every
# trace's exit targets, then every trace's relocations, all in row
# order.  A trace's code and data start where the previous row's end.
DIRECTORY_COUNT = struct.Struct("<I")
#: Image-path index, row flags, code size, data size, exit count,
#: relocation count.
ROW = struct.Struct("<HHIIHH")
#: Per exit: the target's image-path index and image-relative offset.
EXIT_TARGET = struct.Struct("<HI")
#: Per relocation: instruction index, target image-path index and offset.
RELOC = struct.Struct("<HHI")
#: Row flag: the trace's liveness masks fill its data-pool liveness
#: vector (without it the trace has none and the vector is zeros).
ROW_LIVENESS = 0x0001

# A trace's data-pool bytes are the records the translator accounts
# for it (repro.vm.translator.modeled_data_size): this fixed prefix (the
# trace object header — entry, image offset, instruction count, exit
# count — and the register bindings), the liveness vector and address
# table (one entry per instruction each), one link record per exit, zero
# padding up to the trace's data size.
DATA_PREFIX = struct.Struct(
    "<qqii%dx" % (TRACE_OBJECT_BYTES - 24 + REGISTER_BINDINGS_BYTES)
)
#: Exit kind, instruction index, target (-1: no static target).
LINK_RECORD = struct.Struct("<iiq%dx" % (LINK_RECORD_BYTES - 16))
#: The exit kinds a link record may hold, by their stored value.
EXIT_KINDS = {int(kind): kind for kind in ExitKind}


class CacheFileError(FrameError):
    """A persistent cache file is malformed; ``section`` is one of
    :data:`SECTIONS`, ``"preamble"`` or ``"trailer"``."""


FRAMING = Framing(MAGIC, FORMAT_VERSION, SECTIONS[1:], CacheFileError,
                  features=SUPPORTED_FEATURES)


class PersistedReloc(NamedTuple):
    """An absolute-immediate site inside a persisted trace body.

    ``index`` is the instruction index; the target is recorded both as the
    absolute address baked into the code bytes and as an image-relative
    (path, offset) pair so position-independent reuse can re-materialize
    it after relocation.
    """

    index: int
    target_path: str
    target_offset: int


class TraceRow(NamedTuple):
    """One stored trace, with its body's micro-ops and its exits as a
    resident keeps them: a checked row of a parsed file, which revive
    reads, or a row :func:`repro.persist.convert.persist_trace` built
    from a resident, which write-back writes."""

    image_path: str
    entry: int  # absolute entry address at creation time
    image_offset: int
    code: bytes
    body: bytes  # the code before its exit stubs, one word per uop
    uops: List[tuple]
    exits: List[TraceExit]  # targets as stored
    #: Per exit, the target's index in ``paths`` and image-relative
    #: offset.
    exit_places: List[Tuple[int, int]]
    relocs: List[PersistedReloc]
    #: Data-pool bytes; 0 means the modeled size, and a smaller size
    #: cannot hold the records the file reads back.
    data_size: int
    #: One register mask per instruction, or none.
    liveness: List[int]
    #: Exit target image paths ("": unbacked): a parsed file's path
    #: table, or one per exit for a row built from a resident.
    paths: List[str]

    @property
    def identity(self) -> Tuple[str, int]:
        return (self.image_path, self.image_offset)

    def data_blob(self) -> bytes:
        """Serialize this trace's 'data structures' at its data size."""
        n_insts = len(self.uops)
        liveness = self.liveness
        if liveness and len(liveness) != n_insts:
            raise ValueError(
                "trace at 0x%x: %d liveness masks for %d instructions"
                % (self.entry, len(liveness), n_insts)
            )
        modeled = modeled_data_size(n_insts, len(self.exits))
        size = self.data_size or modeled
        if size < modeled:
            raise ValueError(
                "trace at 0x%x: data_size %d is below its %d modeled bytes"
                % (self.entry, size, modeled)
            )
        parts = [
            DATA_PREFIX.pack(self.entry, self.image_offset, n_insts,
                             len(self.exits)),
            struct.pack("<%dQ" % n_insts, *liveness) if liveness
            else bytes(LIVENESS_BYTES_PER_INST * n_insts),
            bytes(ADDR_TABLE_BYTES_PER_INST * n_insts),
        ]
        for trace_exit in self.exits:
            target = trace_exit.target
            parts.append(LINK_RECORD.pack(
                trace_exit.kind, trace_exit.index,
                -1 if target is None else target
            ))
        parts.append(bytes(size - modeled))
        return b"".join(parts)


@dataclass
class PersistentCache:
    """An in-memory view of a persistent cache file."""

    vm_version: str
    tool_identity: str
    app_path: str
    image_keys: Dict[str, MappingKey] = field(default_factory=dict)
    #: Creation generation: bumped on every accumulation write-back.
    generation: int = 0
    #: Format feature bits this cache was written with (see
    #: :data:`SUPPORTED_FEATURES`).
    feature_flags: int = 0
    #: Every stored trace, in file order: the checked rows of the file
    #: this cache was read from, then the rows accumulated since.
    traces: List[TraceRow] = field(default_factory=list, repr=False)

    # -- inventory ---------------------------------------------------------

    def trace_identities(self) -> set:
        return {trace.identity for trace in self.traces}

    @property
    def total_code_bytes(self) -> int:
        return sum(len(t.code) for t in self.traces)

    @property
    def total_data_bytes(self) -> int:
        return sum(t.data_size for t in self.traces)

    # -- accumulation ------------------------------------------------------

    def accumulate(
        self,
        new_traces: Iterable[TraceRow],
        new_keys: Dict[str, MappingKey],
    ) -> int:
        """Add newly discovered translations; return how many were new.

        "The run-time addition of new translations into a persistent code
        cache is persistent cache accumulation." (§4.4)  Existing traces
        keep priority; image keys are refreshed to the latest run's values
        (the bases the retained translations are valid for must stay
        consistent, so keys are only replaced when no retained trace
        depends on the old mapping — callers guarantee this by dropping
        invalid traces before accumulating).
        """
        known = self.trace_identities()
        added = 0
        for trace in new_traces:
            if trace.identity in known:
                continue
            self.traces.append(trace)
            known.add(trace.identity)
            added += 1
        for path, key in new_keys.items():
            self.image_keys[path] = key
        self.generation += 1
        return added

    def drop_traces(self, identities: set) -> int:
        """Remove traces by identity; returns how many were dropped."""
        count = len(self.traces)
        self.traces = [t for t in self.traces if t.identity not in identities]
        return count - len(self.traces)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        paths: Dict[str, int] = {}
        rows = [DIRECTORY_COUNT.pack(len(self.traces))]
        targets = []
        relocs = []
        code_pool = []
        data_pool = []
        for trace in self.traces:
            data = trace.data_blob()
            rows.append(ROW.pack(
                paths.setdefault(trace.image_path, len(paths)),
                ROW_LIVENESS if trace.liveness else 0,
                len(trace.code), len(data),
                len(trace.exits), len(trace.relocs),
            ))
            trace_paths = trace.paths
            for path, offset in trace.exit_places:
                targets.append(EXIT_TARGET.pack(
                    paths.setdefault(trace_paths[path], len(paths)), offset
                ))
            for reloc in trace.relocs:
                relocs.append(RELOC.pack(
                    reloc.index,
                    paths.setdefault(reloc.target_path, len(paths)),
                    reloc.target_offset,
                ))
            code_pool.append(trace.code)
            data_pool.append(data)
        header = {
            "vm_version": self.vm_version,
            "tool_identity": self.tool_identity,
            "app_path": self.app_path,
            "generation": self.generation,
            "image_keys": {
                path: key.to_json() for path, key in self.image_keys.items()
            },
            "paths": list(paths),
        }
        return FRAMING.pack(
            header,
            [b"".join(rows + targets + relocs), b"".join(code_pool),
             b"".join(data_pool)],
            flags=self.feature_flags,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PersistentCache":
        legacy = LEGACY_MAGICS.get(blob[:len(MAGIC)])
        if legacy is not None:
            raise CacheFileError(
                "unsupported format version %d (legacy PCC%d file)"
                % (legacy, legacy),
                section="header",
            )
        flags, header, sections = FRAMING.parse(blob)
        try:
            cache = cls(
                vm_version=header["vm_version"],
                tool_identity=header["tool_identity"],
                app_path=header["app_path"],
                generation=header.get("generation", 0),
                feature_flags=flags,
            )
            cache.image_keys = {
                path: MappingKey.from_json(data)
                for path, data in header["image_keys"].items()
            }
            paths = header["paths"]
            if not (isinstance(paths, list)
                    and all(isinstance(path, str) for path in paths)):
                raise ValueError("bad image-path table")
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CacheFileError(
                "malformed header fields: %s" % exc, section="header"
            ) from exc
        # Parsing allocates one tuple per instruction and one row per
        # trace, none of them cyclic, so no collector pass runs while
        # they are built; the caller's collector state is restored.
        collecting = gc.isenabled()
        gc.disable()
        try:
            cache.traces = _read_rows(
                paths, sections["directory"], sections["code_pool"],
                sections["data_pool"],
            )
        finally:
            if collecting:
                gc.enable()
        return cache

    def save(self, path: str, storage: Optional[FileStorage] = None) -> None:
        """Atomically write-replace the file at ``path``."""
        (storage or DEFAULT_STORAGE).write_atomic(path, self.to_bytes())

    @classmethod
    def load(
        cls, path: str, storage: Optional[FileStorage] = None
    ) -> "PersistentCache":
        return cls.from_bytes((storage or DEFAULT_STORAGE).read_bytes(path))

    @property
    def file_size(self) -> int:
        return len(self.to_bytes())


def _read_directory(directory: bytes, paths: List[str]):
    """``(rows, exit targets, relocations)`` of a directory section; an
    exit target is a ``(path index, offset)`` pair."""
    try:
        (count,) = DIRECTORY_COUNT.unpack_from(directory)
        rows_end = DIRECTORY_COUNT.size + count * ROW.size
        rows = list(ROW.iter_unpack(directory[DIRECTORY_COUNT.size:rows_end]))
        n_exits = sum(row[4] for row in rows)
        targets_end = rows_end + n_exits * EXIT_TARGET.size
        targets = list(
            EXIT_TARGET.iter_unpack(directory[rows_end:targets_end])
        )
        relocs = [
            PersistedReloc(index, paths[path], offset)
            for index, path, offset
            in RELOC.iter_unpack(directory[targets_end:])
        ]
    except (struct.error, IndexError) as exc:
        raise CacheFileError(
            "malformed trace directory: %s" % exc, section="directory"
        ) from exc
    if (len(rows) != count or len(targets) != n_exits
            or len(relocs) != sum(row[5] for row in rows)):
        raise CacheFileError(
            "trace directory size mismatch", section="directory"
        )
    return rows, targets, relocs


def _read_rows(
    paths: List[str], directory: bytes, code_pool: bytes, data_pool: bytes
) -> List[TraceRow]:
    """Every trace row, built in one pass with each field checked where it
    is read.  The checks that cover every row at once -- body words,
    exit kinds, exit target paths -- run after the pass, in that order,
    so the first damage a reader meets is the one reported."""
    rows, targets, relocs = _read_directory(directory, paths)
    n_paths, code_bytes, data_bytes = len(paths), len(code_pool), len(data_pool)
    prefix, unpack_prefix = DATA_PREFIX.size, DATA_PREFIX.unpack_from
    per_inst = LIVENESS_BYTES_PER_INST + ADDR_TABLE_BYTES_PER_INST
    links_of, kinds = LINK_RECORD.iter_unpack, EXIT_KINDS
    traces = []
    code_at = data_at = reloc_at = exit_at = 0
    for path, row_flags, code_size, data_size, n_exits, n_relocs in rows:
        code_end = code_at + code_size
        if (path >= n_paths or row_flags & ~ROW_LIVENESS
                or code_end > code_bytes):
            raise CacheFileError(
                "trace directory record out of bounds", section="directory"
            )
        data_end = data_at + data_size
        if data_end > data_bytes or data_size < prefix:
            raise CacheFileError(
                "data pool size mismatch" if data_end > data_bytes
                else "trace data shorter than its header",
                section="data_pool",
            )
        entry, image_offset, n_insts, data_exits = unpack_prefix(
            data_pool, data_at
        )
        links_at = data_at + prefix + n_insts * per_inst
        links_end = links_at + n_exits * LINK_RECORD_BYTES
        body_end = code_at + n_insts * INSTRUCTION_SIZE
        if n_insts < 1 or data_exits != n_exits or links_end > data_end:
            raise CacheFileError(
                "trace at 0x%x: data records do not match its row" % entry,
                section="data_pool",
            )
        if body_end > code_end:
            raise CacheFileError(
                "trace at 0x%x: code shorter than its %d instructions"
                % (entry, n_insts),
                section="code_pool",
            )
        reloc_end = reloc_at + n_relocs
        trace_relocs = relocs[reloc_at:reloc_end]
        if n_relocs and max(trace_relocs)[0] >= n_insts:
            raise CacheFileError(
                "trace at 0x%x: relocation past its %d instructions"
                % (entry, n_insts),
                section="directory",
            )
        # Body words and exit kinds are checked for the whole file after
        # the pass; unpacking them checks nothing, and an unknown kind
        # stays a plain int until then.
        body = code_pool[code_at:body_end]
        exit_end = exit_at + n_exits
        traces.append(TraceRow(
            paths[path], entry, image_offset, code_pool[code_at:code_end],
            body, unpack_uops(body),
            [TraceExit(kinds.get(kind, kind), index,
                       None if target == -1 else target)
             for kind, index, target
             in links_of(data_pool[links_at:links_end])],
            targets[exit_at:exit_end], trace_relocs, data_size,
            list(struct.unpack_from(
                "<%dQ" % n_insts, data_pool, data_at + prefix
            )) if row_flags & ROW_LIVENESS else [],
            paths,
        ))
        code_at, data_at = code_end, data_end
        reloc_at, exit_at = reloc_end, exit_end
    if code_at != code_bytes:
        raise CacheFileError("code pool size mismatch", section="code_pool")
    if data_at != data_bytes:
        raise CacheFileError("data pool size mismatch", section="data_pool")
    if not decodes(b"".join(trace.body for trace in traces)):
        for trace in traces:
            try:
                decode_uops(trace.body)
            except DecodeError as exc:
                raise CacheFileError(
                    "trace at 0x%x: undecodable code: %s" % (trace.entry, exc),
                    section="code_pool",
                ) from exc
    unknown = {trace_exit.kind for trace in traces
               for trace_exit in trace.exits}.difference(kinds)
    if unknown:
        raise CacheFileError(
            "unknown exit kind %d" % min(unknown), section="data_pool"
        )
    if targets and max(targets)[0] >= n_paths:
        raise CacheFileError(
            "malformed trace directory: exit target path out of range",
            section="directory",
        )
    return traces
