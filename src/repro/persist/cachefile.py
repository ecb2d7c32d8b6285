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

Format version 2 frames the file in the shared sectioned layout of
:mod:`repro.persist.framing` (see ``docs/cache-format.md``): a preamble,
a CRC-checked header JSON (keys, metadata, section table), then the
trace directory, code pool and data pool, each with its own CRC, then a
whole-file trailer CRC.  Damage is localized and reported precisely: any
mismatch raises :class:`CacheFileError` whose ``section`` attribute
names the damaged section — the database layer uses it to quarantine the
file and report where the damage was.

Trace identity for accumulation is ``(image_path, image_offset)`` — stable
across runs even if a library's base changes.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.isa.encoding import DecodeError, decode_uops
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.persist.framing import (  # noqa: F401  (PREAMBLE re-exported)
    PREAMBLE,
    FrameError,
    Framing,
    damage_map,
)
from repro.persist.keys import MappingKey
from repro.persist.storage import DEFAULT_STORAGE, FileStorage

MAGIC = b"PCC2"
#: Magic of the retired version-1 framing; recognized only so its files
#: get the precise "unsupported format version" incompatibility path
#: (quarantine + JIT-only run) instead of a generic bad-magic error.
LEGACY_MAGIC = b"PCC1"
FORMAT_VERSION = 2

#: Feature-flag bits.  A reader must reject a file carrying any flag bit
#: it does not understand: flags mark format extensions that change how
#: the payload must be interpreted.
FEATURE_RELOCATABLE = 0x0001
SUPPORTED_FEATURES = FEATURE_RELOCATABLE

#: Section names used in error attribution and fsck reports, in file
#: order.
SECTIONS = ("header", "directory", "code_pool", "data_pool")

# Fixed record sizes inside the data pool (bytes); these match the
# translator's accounting in repro.vm.translator.
TRACE_HEADER_BYTES = 112
BINDINGS_BYTES = 64
LIVENESS_BYTES = 8
ADDR_TABLE_BYTES = 8
LINK_RECORD_BYTES = 56


class CacheFileError(FrameError):
    """A persistent cache file is malformed; ``section`` is one of
    :data:`SECTIONS`, ``"preamble"`` or ``"trailer"``."""


FRAMING = Framing(MAGIC, FORMAT_VERSION, SECTIONS[1:], CacheFileError,
                  features=SUPPORTED_FEATURES)


#: Successful-parse memo keyed on the exact file bytes (see
#: :meth:`PersistentCache.from_bytes`).  Values are private templates;
#: hits return detached copies.
_PARSE_MEMO: dict = {}
_PARSE_MEMO_CAP = 64


@dataclass
class PersistedExit:
    """Directory record of one trace exit."""

    kind: int
    index: int
    target: Optional[int]  # absolute address at creation, None if dynamic
    target_path: str = ""  # owning image of the target, "" if unknown
    target_offset: int = 0  # image-relative target offset

    def to_json(self) -> list:
        return [self.kind, self.index, self.target, self.target_path, self.target_offset]

    @classmethod
    def from_json(cls, data: list) -> "PersistedExit":
        return cls(*data)


@dataclass
class PersistedReloc:
    """An absolute-immediate site inside a persisted trace body.

    ``index`` is the instruction index; the target is recorded both as the
    absolute address baked into the code bytes and as an image-relative
    (path, offset) pair so position-independent reuse can re-materialize
    it after relocation.
    """

    index: int
    target_path: str
    target_offset: int

    def to_json(self) -> list:
        return [self.index, self.target_path, self.target_offset]

    @classmethod
    def from_json(cls, data: list) -> "PersistedReloc":
        return cls(*data)


@dataclass
class PersistedTrace:
    """One trace in the cache file."""

    entry: int  # absolute entry address at creation time
    image_path: str
    image_offset: int  # entry - image base at creation time
    n_insts: int
    code: bytes
    exits: List[PersistedExit] = field(default_factory=list)
    relocs: List[PersistedReloc] = field(default_factory=list)
    data_size: int = 0
    liveness: List[int] = field(default_factory=list)
    #: The body's micro-ops, decoded and checked by
    #: :meth:`PersistentCache.from_bytes` (:func:`decode_uops`), which
    #: verbatim revive reads instead of decoding again; None for a record
    #: built in this process.  Not part of the file.
    uops: Optional[List[tuple]] = field(default=None, repr=False,
                                        compare=False)

    @property
    def identity(self) -> Tuple[str, int]:
        return (self.image_path, self.image_offset)

    @property
    def code_size(self) -> int:
        return len(self.code)

    def build_data_blob(self) -> bytes:
        """Serialize this trace's 'data structures' at their modeled size."""
        parts = [
            struct.pack(
                "<qqii",
                self.entry,
                self.image_offset,
                self.n_insts,
                len(self.exits),
            ).ljust(TRACE_HEADER_BYTES, b"\0"),
            b"\0" * BINDINGS_BYTES,
        ]
        for mask in self.liveness:
            parts.append(struct.pack("<Q", mask & ((1 << 64) - 1)))
        if len(self.liveness) < self.n_insts:
            parts.append(b"\0" * (LIVENESS_BYTES * (self.n_insts - len(self.liveness))))
        parts.append(b"\0" * (ADDR_TABLE_BYTES * self.n_insts))
        for trace_exit in self.exits:
            parts.append(
                struct.pack(
                    "<iiq",
                    trace_exit.kind,
                    trace_exit.index,
                    trace_exit.target if trace_exit.target is not None else -1,
                ).ljust(LINK_RECORD_BYTES, b"\0")
            )
        blob = b"".join(parts)
        if self.data_size and len(blob) != self.data_size:
            # The translator's accounting is authoritative; pad or trim so
            # file sizes match the in-memory pools exactly.
            if len(blob) < self.data_size:
                blob += b"\0" * (self.data_size - len(blob))
            else:
                blob = blob[: self.data_size]
        return blob

    def to_json(self, code_offset: int, data_offset: int) -> dict:
        return {
            "entry": self.entry,
            "image_path": self.image_path,
            "image_offset": self.image_offset,
            "n_insts": self.n_insts,
            "code_offset": code_offset,
            "code_size": len(self.code),
            "data_offset": data_offset,
            "data_size": self.data_size,
            "exits": [e.to_json() for e in self.exits],
            "relocs": [r.to_json() for r in self.relocs],
            "liveness": self.liveness,
        }


def verify_sections(blob: bytes) -> Dict[str, str]:
    """Per-section damage map of a raw cache blob, for fsck: ``{}`` when
    healthy, else ``{section: reason}``."""
    return damage_map(PersistentCache.from_bytes, blob)


@dataclass
class PersistentCache:
    """An in-memory view of a persistent cache file."""

    vm_version: str
    tool_identity: str
    app_path: str
    image_keys: Dict[str, MappingKey] = field(default_factory=dict)
    traces: List[PersistedTrace] = field(default_factory=list)
    #: Creation generation: bumped on every accumulation write-back.
    generation: int = 0
    #: Format feature bits this cache was written with (see
    #: :data:`SUPPORTED_FEATURES`).
    feature_flags: int = 0

    # -- inventory ---------------------------------------------------------

    def trace_identities(self) -> set:
        return {trace.identity for trace in self.traces}

    def traces_for_image(self, path: str) -> List[PersistedTrace]:
        return [t for t in self.traces if t.image_path == path]

    @property
    def total_code_bytes(self) -> int:
        return sum(t.code_size for t in self.traces)

    @property
    def total_data_bytes(self) -> int:
        return sum(t.data_size for t in self.traces)

    # -- accumulation ------------------------------------------------------

    def accumulate(
        self,
        new_traces: Iterable[PersistedTrace],
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
        before = len(self.traces)
        self.traces = [t for t in self.traces if t.identity not in identities]
        return before - len(self.traces)

    # -- serialization -----------------------------------------------------

    def to_bytes(self) -> bytes:
        code_pool = bytearray()
        data_pool = bytearray()
        directory = []
        for trace in self.traces:
            code_offset = len(code_pool)
            data_offset = len(data_pool)
            code_pool.extend(trace.code)
            data_pool.extend(trace.build_data_blob())
            directory.append(trace.to_json(code_offset, data_offset))
        header = {
            "vm_version": self.vm_version,
            "tool_identity": self.tool_identity,
            "app_path": self.app_path,
            "generation": self.generation,
            "image_keys": {
                path: key.to_json() for path, key in self.image_keys.items()
            },
        }
        directory_blob = json.dumps(directory, sort_keys=True).encode()
        return FRAMING.pack(
            header, [directory_blob, code_pool, data_pool],
            flags=self.feature_flags,
        )

    def _detached_copy(self) -> "PersistentCache":
        """A container copy sharing the (never-mutated-in-place) records.

        ``accumulate``/``drop_traces`` replace or extend the ``traces``
        list and rebind ``image_keys`` entries; the ``PersistedTrace``
        records themselves are immutable by convention, so two copies can
        share them while each owning its own container state.
        """
        dup = PersistentCache(
            vm_version=self.vm_version,
            tool_identity=self.tool_identity,
            app_path=self.app_path,
            generation=self.generation,
            feature_flags=self.feature_flags,
        )
        dup.traces = list(self.traces)
        dup.image_keys = dict(self.image_keys)
        return dup

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PersistentCache":
        # Content-keyed parse memo: warm persistent runs re-read the same
        # file bytes every execution, and rebuilding thousands of
        # directory records dominates the (otherwise cheap) cache load.
        # Keying on the exact blob makes hits correct by construction;
        # only successful parses are memoized, and every caller gets a
        # detached container so mutations never leak between sessions.
        template = _PARSE_MEMO.get(blob)
        if template is not None:
            return template._detached_copy()
        if blob[:len(LEGACY_MAGIC)] == LEGACY_MAGIC:
            raise CacheFileError(
                "unsupported format version 1 (legacy PCC1 file)",
                section="header",
            )
        flags, header, sections = FRAMING.parse(blob)
        directory = FRAMING.json_section(sections, "directory")
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
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CacheFileError(
                "malformed header fields: %s" % exc, section="header"
            ) from exc

        code_pool = sections["code_pool"]
        data_pool = sections["data_pool"]
        try:
            for record in directory:
                if (
                    record["code_offset"] < 0
                    or record["code_size"] < 0
                    or record["data_size"] < 0
                    or record["n_insts"] < 1
                    or record["code_offset"] + record["code_size"]
                    > len(code_pool)
                ):
                    raise CacheFileError(
                        "trace directory record out of bounds",
                        section="directory",
                    )
                code = code_pool[
                    record["code_offset"]
                    : record["code_offset"] + record["code_size"]
                ]
                if len(code) != record["code_size"]:
                    raise CacheFileError(
                        "truncated code pool", section="code_pool"
                    )
                body_size = record["n_insts"] * INSTRUCTION_SIZE
                if body_size > len(code):
                    raise CacheFileError(
                        "trace at 0x%x: code shorter than its %d instructions"
                        % (record["entry"], record["n_insts"]),
                        section="code_pool",
                    )
                try:
                    uops = decode_uops(code[:body_size])
                except DecodeError as exc:
                    raise CacheFileError(
                        "trace at 0x%x: undecodable code: %s"
                        % (record["entry"], exc),
                        section="code_pool",
                    ) from exc
                cache.traces.append(
                    PersistedTrace(
                        entry=record["entry"],
                        image_path=record["image_path"],
                        image_offset=record["image_offset"],
                        n_insts=record["n_insts"],
                        code=code,
                        exits=[PersistedExit.from_json(e) for e in record["exits"]],
                        relocs=[PersistedReloc.from_json(r) for r in record["relocs"]],
                        data_size=record["data_size"],
                        liveness=list(record["liveness"]),
                        uops=uops,
                    )
                )
        except (KeyError, TypeError, ValueError, IndexError, struct.error) as exc:
            # Shield callers from serialization internals: any shape error
            # in the directory is a typed cache-file error.
            raise CacheFileError(
                "malformed trace directory: %s" % exc, section="directory"
            ) from exc
        # Sanity: the data pool must be exactly the directory's total.
        expected_data = sum(t.data_size for t in cache.traces)
        if expected_data != len(data_pool):
            raise CacheFileError("data pool size mismatch", section="data_pool")
        if len(_PARSE_MEMO) >= _PARSE_MEMO_CAP:
            _PARSE_MEMO.clear()
        _PARSE_MEMO[bytes(blob)] = cache._detached_copy()
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
