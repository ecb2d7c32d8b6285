"""The compiled-body sidecar: host code objects persisted across runs.

The persistent cache database (PCC v2, :mod:`repro.persist.cachefile`)
stores *translations* — the simulated artifact the paper measures.  The
compiled dispatch tier (:mod:`repro.vm.compile`) additionally pays a
purely host-side cost on every cold process: generating Python source
per trace and running the host ``compile()``.  ShareJIT (PAPERS.md)
shows compiled-code artifacts can be shared across processes when keyed
and invalidated carefully; this module applies the same idea one level
up, extending persistence from translations to host-compiled code.

A **sidecar file** (``compiled-bodies.pcs``) lives next to the database
index and maps a trace-content digest to the ``marshal`` serialization
of the trace's compiled factory code object.  A warm process executes
the revived code object instead of generating and compiling source, so
its *first* run skips host ``compile()`` entirely.

The sidecar is a pure host-side accelerator and must never influence
anything observable: no simulated cycles are charged for it, no
``VMStats`` counter mentions it, and a damaged or stale sidecar only
costs the JIT-compile it would have saved.  Consequently its failure
policy is simpler (and stricter) than the trace cache's:

* **keying** — the header records ``vm_version`` (closure codegen is
  part of the VM) and the host tag (CPython ``cache_tag`` + ``marshal``
  format version).  Any mismatch invalidates the sidecar *wholesale*:
  there is no per-entry salvage, because one compiler change can move
  every generated byte.
* **integrity** — the PCC v2 framing (:mod:`repro.persist.framing`):
  a fixed preamble, a CRC-checked header, per-section CRCs (directory,
  body pool) and a whole-file trailer CRC, written via the same atomic
  write-replace storage seam.  Damage is attributed to a section for
  fsck.
* **containment** — a corrupt sidecar is quarantined (moved aside,
  never deleted) by the database layer and replaced with a fresh store;
  trace persistence is entirely unaffected.
* **scope** — factory code objects only, for both solo traces and
  superblock regions (the latter under a composite digest covering
  every member).  Link state — direct-exit slots, hop profiles, the
  member trace objects a region closure runs — consists of runtime
  captures re-bound per run, never part of the marshaled bytes: a warm
  process revives the *codegen*, but every link and region must
  re-prove itself against the current cache, so a stale link can never
  be revived from disk.

The header JSON carries ``vm_version`` and ``host_tag``; the directory
section is a JSON list of ``[digest, offset, size]`` rows into the body
pool of concatenated marshal blobs.
"""

from __future__ import annotations

import json
import marshal
import sys
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.persist.framing import (  # noqa: F401  (PREAMBLE re-exported)
    PREAMBLE,
    FrameError,
    Framing,
    damage_map,
    pack_records,
    parse_records,
)
from repro.vm.stats import HostStats

MAGIC = b"PCS1"
FORMAT_VERSION = 1

#: Section names used in error attribution and fsck reports.
SECTIONS = ("header", "directory", "body_pool")

#: The sidecar's filename inside a cache-database directory.
SIDECAR_NAME = "compiled-bodies.pcs"


class SidecarError(FrameError):
    """A sidecar file is malformed; ``section`` is one of
    :data:`SECTIONS`, ``"preamble"`` or ``"trailer"``."""


FRAMING = Framing(MAGIC, FORMAT_VERSION, SECTIONS[1:], SidecarError)


def host_code_tag() -> str:
    """The host environment a marshaled code object is valid for.

    CPython's bytecode is only stable within one ``cache_tag`` (the tag
    ``.pyc`` files are keyed on), and ``marshal``'s wire format has its
    own version; either changing invalidates every stored body.
    """
    implementation = getattr(sys.implementation, "cache_tag", None) or (
        "%s-%d.%d" % (sys.implementation.name, *sys.version_info[:2])
    )
    return "%s|marshal%d" % (implementation, marshal.version)


@dataclass
class CompiledBodyStore:
    """In-memory view of one sidecar file.

    ``entries`` maps a trace-content digest (see
    :func:`repro.vm.compile._body_digest`) to the raw ``marshal`` bytes
    of the factory code object.  Blobs stay serialized until looked up,
    so loading a large sidecar costs one parse, not N unmarshals.
    """

    vm_version: str
    host_tag: str = field(default_factory=host_code_tag)
    entries: Dict[str, bytes] = field(default_factory=dict)
    #: Digests recorded by this process (not yet on disk).
    new_entries: int = 0
    #: True once anything was recorded; gates the write-back.
    dirty: bool = False

    @classmethod
    def fresh(cls, vm_version: str) -> "CompiledBodyStore":
        return cls(vm_version=vm_version)

    # -- host-key validation ------------------------------------------------

    def matches_host(self, vm_version: str) -> bool:
        """Wholesale validity gate: same VM codegen, same host bytecode."""
        return (
            self.vm_version == vm_version and self.host_tag == host_code_tag()
        )

    def staleness(self, vm_version: str) -> Optional[str]:
        """Why this store is unusable under ``vm_version`` on this host,
        or None if usable."""
        if self.vm_version != vm_version:
            return "built by VM %r, current is %r" % (
                self.vm_version, vm_version,
            )
        if self.host_tag != host_code_tag():
            return "built for host %r, current is %r" % (
                self.host_tag, host_code_tag(),
            )
        return None

    def compatible_with(self, other: "CompiledBodyStore") -> bool:
        """Whether two stores' entries may be merged."""
        return (
            self.vm_version == other.vm_version
            and self.host_tag == other.host_tag
        )

    # -- entry access -------------------------------------------------------

    def lookup_code(self, digest: str):
        """Revive the code object for ``digest``, or None.

        An unmarshalable blob (possible only through damage the CRCs did
        not see, e.g. a truncated write of a pre-CRC format) drops the
        entry and reads as a miss — the body is simply recompiled.
        """
        blob = self.entries.get(digest)
        if blob is None:
            return None
        try:
            return marshal.loads(blob)
        except (ValueError, EOFError, TypeError):
            del self.entries[digest]
            self.dirty = True
            return None

    def record_code(self, digest: str, code) -> None:
        """Serialize and store a freshly compiled code object."""
        self.record_bytes(digest, marshal.dumps(code))

    def record_bytes(self, digest: str, blob: bytes) -> None:
        if digest in self.entries:
            return
        self.entries[digest] = blob
        self.new_entries += 1
        self.dirty = True

    def __len__(self) -> int:
        return len(self.entries)

    # -- serialization ------------------------------------------------------

    def to_bytes(self) -> bytes:
        records, pool = pack_records(self.entries, stamped=False)
        return FRAMING.pack(
            {"vm_version": self.vm_version, "host_tag": self.host_tag},
            [json.dumps(records, sort_keys=True).encode(), pool],
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CompiledBodyStore":
        _flags, header, sections = FRAMING.parse(blob)
        try:
            store = cls(
                vm_version=header["vm_version"],
                host_tag=header["host_tag"],
            )
        except KeyError as exc:
            raise SidecarError(
                "malformed header fields: %s" % exc, section="header"
            ) from exc
        store.entries = parse_records(
            FRAMING.json_section(sections, "directory"),
            sections["body_pool"], SidecarError, "directory", stamped=False,
        )
        return store


class ChainedBodyStore:
    """The compiler-facing fallback chain over compiled-body sources.

    Lookup order is **shared store → private sidecar → host
    ``compile()``** (the caller compiles on a chained miss): the shared
    per-host pool serves bodies any database on the machine published,
    the database's private sidecar covers a wiped or damaged pool, and
    a fresh compile is always correct.  The shared layer is a
    :class:`~repro.persist.sharedstore.SharedBodyStore`, whose
    :class:`OSError` failures this chain absorbs as misses.  The chain
    presents the same duck interface the compiler binds to
    (``entries``, :meth:`lookup_code`, :meth:`record_bytes`) so
    :class:`repro.vm.compile.TraceCompiler` cannot tell the layers
    apart.

    Every body that flows through the chain is propagated to both
    layers:

    * a **shared hit** records the blob into the private sidecar (the
      database's own reference index — this is what gc marks from) and
      remembers the digest for a stamp refresh at publish time (the
      LRU signal);
    * a **private-only hit** schedules the blob for publication, so the
      pool heals after a gc or a wipe;
    * a **fresh compile** (:meth:`record_bytes`) feeds both.

    Failures on the shared side (IO errors, a pool swept mid-read) are
    absorbed as misses — the chain exists precisely so the next layer
    answers.  The shared layer's hits and misses are counted in ``host``,
    the run's :class:`~repro.vm.stats.HostStats`.
    """

    def __init__(self, shared, private: Optional["CompiledBodyStore"],
                 host: Optional[HostStats] = None):
        self.shared = shared
        self.private = private
        self.host = host if host is not None else HostStats()
        #: Session-local union view, the compiler's ``store.entries``:
        #: seeded from the private sidecar, grown by shared revives and
        #: fresh compiles.
        self.entries: Dict[str, bytes] = (
            dict(private.entries) if private is not None else {}
        )
        #: Digests revived from the shared pool (stamp refresh at
        #: publish) and blobs this session must publish to it.
        self._touched: set = set()
        self._pending: Dict[str, bytes] = {}

    # -- compiler interface ---------------------------------------------------

    def lookup_code(self, digest: str):
        """Revive ``digest`` through the chain, or None (compile)."""
        blob = None
        try:
            blob = self.shared.lookup(digest)
        except OSError:
            blob = None  # unreadable pool: the private layer answers
        if blob is not None:
            try:
                code = marshal.loads(blob)
            except (ValueError, EOFError, TypeError):
                code = None  # damaged despite CRCs: fall through
            if code is not None:
                self.host.shared_hits += 1
                self._touched.add(digest)
                self.entries[digest] = blob
                if self.private is not None:
                    self.private.record_bytes(digest, blob)
                return code
        self.host.shared_misses += 1
        if self.private is not None:
            code = self.private.lookup_code(digest)
            if code is not None:
                blob = self.private.entries[digest]
                self.entries[digest] = blob
                # Heal the pool: a body the pool lost (gc, wipe, damage)
                # but the private sidecar kept gets republished.
                self._pending[digest] = blob
                return code
        return None

    def record_bytes(self, digest: str, blob: bytes) -> None:
        if digest in self.entries:
            return
        self.entries[digest] = blob
        self._pending[digest] = blob
        if self.private is not None:
            self.private.record_bytes(digest, blob)

    def __len__(self) -> int:
        return len(self.entries)

    # -- write-back interface -------------------------------------------------

    @property
    def dirty(self) -> bool:
        """Whether a write-back has anything to do on either layer."""
        return bool(
            self._pending
            or self._touched
            or (self.private is not None and self.private.dirty)
        )

    def pending_publish(self) -> Dict[str, bytes]:
        """Blobs the session owes the shared pool."""
        return dict(self._pending)

    def touched(self) -> set:
        """Already-pooled digests this session revived (LRU refresh)."""
        return set(self._touched)

    def clear_pending(self) -> None:
        self._pending.clear()
        self._touched.clear()

    def clear_touched(self) -> None:
        """Forget the revived digests alone (after a touch-only stamp
        refresh by a read-only session — pending blobs stay owed)."""
        self._touched.clear()


def verify_sidecar(blob: bytes) -> Dict[str, str]:
    """Per-section damage map of a raw sidecar blob, for fsck: ``{}``
    when healthy, else ``{section: reason}``."""
    return damage_map(CompiledBodyStore.from_bytes, blob)


def sidecar_staleness(blob: bytes, vm_version: str) -> Optional[str]:
    """Why a (structurally valid) sidecar is unusable, or None if usable."""
    return CompiledBodyStore.from_bytes(blob).staleness(vm_version)
