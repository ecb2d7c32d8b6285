"""The one framing every persistent file shares.

Four formats sit on the same 16-byte preamble and CRC-32:

=====  ================================  ===============================
magic  module                            sections after the header
=====  ================================  ===============================
PCC3   :mod:`repro.persist.cachefile`    directory, code_pool, data_pool
PCS1   :mod:`repro.persist.sidecar`      directory, body_pool
PCSS   :mod:`repro.persist.sharedstore`  directory, body_pool
PCRL   :mod:`repro.replay.log`           events, baseline
=====  ================================  ===============================

All four use one sectioned layout (integers little-endian)::

    offset  size  field
    0       4     magic
    4       2     u16 format_version
    6       2     u16 feature flags (no bits defined except in PCC3)
    8       4     u32 header_len
    12      4     u32 CRC-32 of the header JSON
    16      n     header JSON: the format's keys, "format_version" and
                  "sections" = {name: [size, crc32]}
    16+n    ...   the sections, in the format's order
    end-4   4     u32 CRC-32 of bytes [0, end-4)

:meth:`Framing.parse` checks the preamble, the header, each section in
order and only then the trailer, so a flipped byte is attributed to the
section holding it: every failure is a :class:`FrameError` whose
``section`` is ``"preamble"``, ``"header"``, a section name or
``"trailer"``.  PCS1 and PCSS2 lay out their bodies with
:func:`pack_records` / :func:`parse_records`.  :class:`FsckReport` is
the one report ``repro cache fsck`` prints for databases and stores.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Magic, version, feature flags, header length, header CRC.
PREAMBLE = struct.Struct("<4sHHII")

#: The whole-file CRC-32 closing every framed file.
TRAILER = struct.Struct("<I")


def crc32(blob) -> int:
    """Unsigned CRC-32 of any bytes-like object."""
    return zlib.crc32(blob) & 0xFFFFFFFF


class FrameError(Exception):
    """Raised when a framed file or frame is malformed.

    ``section`` names where the damage was detected.
    """

    def __init__(self, message: str, section: str = ""):
        super().__init__(message)
        self.section = section


@dataclass(frozen=True)
class Framing:
    """One sectioned file format: magic, version, sections, error type."""

    magic: bytes
    version: int
    #: Section names after the header, in file order.
    sections: Tuple[str, ...]
    #: The :class:`FrameError` subclass every failure raises.
    error: type
    #: Feature-flag bits a reader understands; any other bit is rejected.
    features: int = 0

    def pack(
        self,
        header: Mapping[str, object],
        payloads: Sequence[bytes],
        flags: int = 0,
    ) -> bytes:
        """Frame ``payloads`` (one per section, in order) under ``header``."""
        table = {
            name: [len(payload), crc32(payload)]
            for name, payload in zip(self.sections, payloads)
        }
        header_blob = json.dumps(
            dict(header, format_version=self.version, sections=table),
            sort_keys=True,
        ).encode()
        parts = [
            PREAMBLE.pack(self.magic, self.version, flags & 0xFFFF,
                          len(header_blob), crc32(header_blob)),
            header_blob,
            *payloads,
        ]
        file_crc = 0
        for part in parts:
            file_crc = zlib.crc32(part, file_crc)
        parts.append(TRAILER.pack(file_crc))
        return b"".join(parts)

    def parse(self, blob: bytes) -> Tuple[int, dict, Dict[str, bytes]]:
        """Verify ``blob``; return ``(flags, header, {section: bytes})``."""
        error = self.error
        if len(blob) < PREAMBLE.size + TRAILER.size:
            raise error("file too short for preamble", section="preamble")
        magic, version, flags, header_len, header_crc = PREAMBLE.unpack_from(
            blob, 0
        )
        if magic != self.magic:
            raise error("bad magic", section="preamble")
        if version != self.version:
            raise error(
                "unsupported format version %r" % version, section="header"
            )
        if flags & ~self.features:
            raise error(
                "unsupported feature flags 0x%04x" % (flags & ~self.features),
                section="header",
            )
        end = len(blob) - TRAILER.size
        offset = PREAMBLE.size + header_len
        if offset > end:
            raise error("truncated header", section="header")
        header_blob = blob[PREAMBLE.size:offset]
        if crc32(header_blob) != header_crc:
            raise error("header checksum mismatch", section="header")
        try:
            header = json.loads(header_blob)
        except ValueError as exc:
            raise error("bad header JSON", section="header") from exc
        if not isinstance(header, dict):
            raise error("bad header JSON", section="header")
        table = header.get("sections")
        if not isinstance(table, dict):
            raise error("missing section table", section="header")
        payloads: Dict[str, bytes] = {}
        for name in self.sections:
            entry = table.get(name)
            # A CRC-valid header can still be crafted: only a pair of
            # JSON integers with a non-negative size is a table entry.
            if not (
                isinstance(entry, list)
                and len(entry) == 2
                and type(entry[0]) is int
                and type(entry[1]) is int
                and entry[0] >= 0
            ):
                raise error(
                    "bad section table entry for %s" % name, section="header"
                )
            size, crc = entry
            if offset + size > end:
                raise error("truncated %s section" % name, section=name)
            payload = blob[offset:offset + size]
            if crc32(payload) != crc:
                raise error("%s checksum mismatch" % name, section=name)
            payloads[name] = payload
            offset += size
        if offset != end:
            raise error(
                "trailing garbage after %s" % self.sections[-1],
                section="trailer",
            )
        (file_crc,) = TRAILER.unpack_from(blob, end)
        if crc32(memoryview(blob)[:end]) != file_crc:
            raise error("whole-file checksum mismatch", section="trailer")
        return flags, header, payloads

    def json_section(self, payloads: Dict[str, bytes], name: str,
                     kind: type = list):
        """Decode section ``name`` as JSON that must be a ``kind``."""
        try:
            value = json.loads(payloads[name])
        except ValueError as exc:
            raise self.error("bad %s JSON" % name, section=name) from exc
        if not isinstance(value, kind):
            raise self.error("bad %s JSON" % name, section=name)
        return value


# -- body tables (PCS1, PCSS2) ------------------------------------------------


def pack_records(
    entries: Mapping[str, object], stamped: bool = True
) -> Tuple[List[list], bytes]:
    """Lay ``entries`` out as ``(records, pool)``, sorted by digest.

    Stamped entries map digest → ``(blob, stamp)`` and become
    ``[digest, offset, size, stamp]`` rows; unstamped entries map
    digest → blob and become ``[digest, offset, size]`` rows.
    """
    records: List[list] = []
    blobs: List[bytes] = []
    offset = 0
    for digest in sorted(entries):
        value = entries[digest]
        blob = value[0] if stamped else value
        record = [digest, offset, len(blob)]
        if stamped:
            record.append(int(value[1]))
        records.append(record)
        blobs.append(blob)
        offset += len(blob)
    return records, b"".join(blobs)


def parse_records(
    records: list,
    pool: bytes,
    error: type,
    section: str,
    stamped: bool = True,
) -> dict:
    """Inverse of :func:`pack_records`: digest → blob, or digest →
    ``(blob, stamp)`` when ``stamped``.

    Any other row shape or an out-of-pool span raises ``error``
    attributed to ``section``.
    """
    entries = {}
    try:
        for record in records:
            if stamped:
                digest, offset, size, stamp = record
            else:
                digest, offset, size = record
            if (
                not isinstance(digest, str)
                or offset < 0
                or size < 0
                or offset + size > len(pool)
            ):
                raise error("record out of bounds", section=section)
            blob = pool[offset:offset + size]
            entries[digest] = (blob, int(stamp)) if stamped else blob
    except (TypeError, ValueError) as exc:
        raise error("malformed %s: %s" % (section, exc),
                    section=section) from exc
    return entries


# -- fsck ---------------------------------------------------------------------


def damage_map(
    parse: Callable[[bytes], object], blob: bytes
) -> Dict[str, str]:
    """``{section: reason}`` when ``parse`` rejects ``blob``, else ``{}``."""
    try:
        parse(blob)
    except FrameError as exc:
        return {exc.section: str(exc)}
    return {}


@dataclass
class FsckItem:
    """Health of one database or store file, for ``cache fsck``."""

    filename: str
    #: "ok" | "corrupt" | "missing" | "orphan" | "stale-tmp" | "stale-vm"
    #: | "stale-keytag" | "key-mismatch"
    status: str
    section: str = ""
    detail: str = ""


def stale_tmp(label: str) -> FsckItem:
    """The row for a leftover ``.tmp`` of an interrupted atomic write."""
    return FsckItem(label, "stale-tmp",
                    detail="leftover from an interrupted atomic write")


@dataclass
class FsckReport:
    """Result of a database or shared-store consistency check."""

    items: List[FsckItem] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)
    #: Informational findings (a stale or orphaned sidecar, a stale
    #: keytag pool, a leftover store ``.tmp``): expected states, not
    #: damage — they never make the report unclean.
    notes: List[FsckItem] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return all(item.status == "ok" for item in self.items)

    def check(
        self,
        storage,
        path: str,
        label: str,
        parse: Callable[[bytes], object],
        quarantine: Optional[Callable[[str], None]] = None,
    ):
        """Read → parse → report → quarantine one framed file.

        Returns the parsed value of a sound file, which the caller
        reports.  A read error or a :class:`FrameError` adds a
        ``corrupt`` row instead and returns None; for damage,
        ``quarantine`` (when given) is called with the reason and
        ``label`` is listed as quarantined.
        """
        try:
            return parse(storage.read_bytes(path))
        except OSError as exc:
            self.items.append(FsckItem(label, "corrupt", detail=str(exc)))
        except FrameError as exc:
            self.items.append(
                FsckItem(label, "corrupt", exc.section, str(exc))
            )
            if quarantine is not None:
                quarantine("fsck: damaged %s: %s" % (exc.section, exc))
                self.quarantined.append(label)
        return None
