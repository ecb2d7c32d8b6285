"""The per-host shared compiled-body store.

The compiled-body sidecar (:mod:`repro.persist.sidecar`) removes host
``compile()`` cost across *executions of one database*: each
``CacheDatabase`` carries its own private ``compiled-bodies.pcs``.  But
bodies are keyed purely by trace-content digest + ``VM_VERSION`` + host
bytecode tag — nothing about them is database-specific — so two
databases on one host redundantly store and recompile identical
factories.  That is exactly the paper's Figure 9/10 observation
(persistent caches pay off most when code is shared *across
applications*), and ShareJIT's production design for Android's JIT: one
content-keyed pool per host, served to every consumer under a real
concurrency protocol.

This module provides that pool.  A :class:`SharedBodyStore` is a
directory any number of databases (and processes) attach to:

* **content addressing** — a body's name is its factory digest
  (:func:`repro.vm.compile._body_digest`); equal digests imply
  byte-identical factory code, so publish order between processes is
  irrelevant and "merge" is set union;
* **wholesale keying** — bodies live under a *keytag* subdirectory
  derived from ``vm_version`` + the host bytecode tag.  A VM or
  interpreter upgrade simply addresses a different (initially empty)
  subdirectory; stale keytags are garbage by definition and ``gc``
  removes them;
* **digest-prefix sharding** — within a keytag, bodies are grouped into
  shard files by the first :data:`SHARD_PREFIX_LEN` hex characters of
  their digest, so concurrent publishers of unrelated digests rarely
  contend and damage is contained to one shard;
* **append-then-publish writes** — every shard write goes through the
  storage seam's atomic write-replace (build the full new shard in
  ``<shard>.tmp``, fsync, rename): readers never observe a torn record,
  and a crash at any point leaves the previous complete shard;
* **per-shard advisory locks** — publishers and the sweeper serialize
  per shard (``<shard>.lock``, ``flock``); readers take no lock at all;
* **reader-side revalidation** — a reader CRC-verifies the shard it
  loads and copies the blob into memory before use, so a concurrent
  ``gc`` rewriting (or removing) the shard cannot yank a body out from
  under a revive: the revive either already holds valid bytes or reads
  the body as cleanly absent and recompiles.

On-disk layout::

    <store>/
      registry.json            # databases attached to this store
      registry.lock
      bodies/<keytag>/<pp>.pcs      # shard: bodies with digest[:2] == pp
      bodies/<keytag>/<pp>.pcs.lock
      quarantine/              # damaged files at their own paths (never deleted)

Shard files (PCSS2) use the sidecar's framing
(:mod:`repro.persist.framing`) with one extension: each directory record
carries a last-use stamp (``[digest, offset, size, stamp]``) so
``gc``'s size cap can evict cold bodies first.  A format-version-1
shard, whose rows also carried an always-zero compile cost, is header
damage: it is quarantined, and its bodies come back from the private
sidecars or a host ``compile()``.

Garbage collection (:meth:`SharedBodyStore.gc`) is mark-and-sweep:

* **mark** — the union of digests referenced by every registered
  database's private sidecar (a database's sidecar records every body
  it revived or compiled, so it *is* the database's reference index);
* **sweep** — per shard, under the shard lock, drop unmarked entries;
* **cap** — optionally evict least-recently-stamped entries until the
  pool fits ``max_bytes`` (eviction is always safe: an evicted body
  reads as cleanly absent and is recompiled, never corrupted).

Like the sidecar, the store is a pure host-side accelerator: every
failure mode (damage, contention, ENOSPC, a gc racing a revive) must
degrade to the private sidecar and then to a host ``compile()`` — never
to a corrupt database or an observable change in the simulated run.
The run-time side, what a session looks up here and publishes back, is
:class:`repro.persist.sidecar.CompiledBodyStore`'s.  Damage (a shard,
the registry, a leftover ``.tmp``) follows the cache database's rules,
which both share through :class:`repro.persist.storage.DurableDirectory`.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from functools import partial
from typing import AbstractSet, Dict, Iterable, List, Optional, Tuple

from repro.persist.framing import (
    FrameError,
    Framing,
    FsckItem,
    FsckReport,
    pack_records,
    parse_records,
)
from repro.persist.sidecar import (
    CompiledBodyStore,
    SIDECAR_NAME,
    SidecarError,
    host_code_tag,
)
from repro.persist.storage import (  # the names re-exported for callers
    INDEX_NAME,
    QUARANTINE_DIR,
    REGISTRY_NAME,
    DurableDirectory,
    FileStorage,
)

MAGIC = b"PCSS"
FORMAT_VERSION = 2

#: Hex characters of the digest that name a shard.  Two characters give
#: up to 256 lazily created shards per keytag — enough that concurrent
#: publishers of unrelated digests rarely touch the same lock.
SHARD_PREFIX_LEN = 2

BODIES_DIR = "bodies"
REGISTRY_LOCK = "registry.lock"
SHARD_SUFFIX = ".pcs"
LOCK_SUFFIX = ".lock"

#: Section names used in error attribution and fsck reports.
SECTIONS = ("header", "directory", "body_pool")


class SharedStoreError(FrameError):
    """A shard (or registry) file is malformed; ``section`` is one of
    :data:`SECTIONS`, ``"preamble"`` or ``"trailer"``."""


FRAMING = Framing(MAGIC, FORMAT_VERSION, SECTIONS[1:], SharedStoreError)


def store_keytag(vm_version: str, host_tag: Optional[str] = None) -> str:
    """The wholesale-invalidation key: one pool per (VM, host) pair.

    Deriving the directory name from the same stamps the sidecar header
    records means a VM or interpreter upgrade *addresses* a different
    pool instead of validating entries one by one — the old pool becomes
    unreachable garbage that ``gc`` removes.
    """
    tag = host_tag if host_tag is not None else host_code_tag()
    return hashlib.sha256(
        ("%s|%s" % (vm_version, tag)).encode()
    ).hexdigest()[:16]


def shard_prefix(digest: str) -> str:
    """Which shard a digest lives in: its first hex characters."""
    return digest[:SHARD_PREFIX_LEN]


def is_shared_store(directory: str) -> bool:
    """Heuristic for CLI dispatch: does ``directory`` hold a shared
    store (vs. a cache database)?  A store always has a ``bodies/``
    subdirectory or a registry; a database has an index."""
    return os.path.isdir(os.path.join(directory, BODIES_DIR)) or (
        os.path.exists(os.path.join(directory, REGISTRY_NAME))
        and not os.path.exists(os.path.join(directory, INDEX_NAME))
    )


def _parse_registry(raw) -> List[str]:
    databases = raw["databases"]
    if not isinstance(databases, list) or not all(
        isinstance(entry, str) for entry in databases
    ):
        raise ValueError("malformed registry")
    return list(databases)


# -- shard serialization ------------------------------------------------------


def pack_shard(
    vm_version: str,
    host_tag: str,
    entries: Dict[str, tuple],
) -> bytes:
    """Serialize one shard: ``{digest: (blob, stamp)}`` → framed bytes."""
    records, pool = pack_records(entries)
    return FRAMING.pack(
        {"vm_version": vm_version, "host_tag": host_tag},
        [json.dumps(records, sort_keys=True).encode(), pool],
    )


def parse_shard(blob: bytes):
    """Verify and split a shard into ``(vm_version, host_tag, entries)``.

    ``entries`` maps digest → ``(blob, stamp)``.  Raises
    :class:`SharedStoreError` naming the damaged section on any CRC,
    framing, version or type mismatch.
    """
    _flags, header, sections = FRAMING.parse(blob)
    vm_version = header.get("vm_version")
    host_tag = header.get("host_tag")
    if not isinstance(vm_version, str) or not isinstance(host_tag, str):
        raise SharedStoreError(
            "malformed header fields: key stamps must be strings",
            section="header",
        )
    entries = parse_records(
        FRAMING.json_section(sections, "directory"),
        sections["body_pool"], SharedStoreError, "directory",
    )
    return vm_version, host_tag, entries


# -- reports ------------------------------------------------------------------


@dataclass
class PublishResult:
    """What one :meth:`SharedBodyStore.publish` call did."""

    #: Bodies that were not in the store before this publish, or that
    #: replaced rejected bytes.
    published: int = 0
    #: Already-present bodies touched or sent again, whose last-use
    #: stamp is now this publish's, whether or not its value moved.
    refreshed: int = 0


@dataclass
class GcReport:
    """Machine-readable result of one mark-and-sweep run."""

    registered_databases: List[str] = field(default_factory=list)
    #: Digests referenced by at least one registered database index.
    referenced: int = 0
    #: Registered databases whose reference index could not be read
    #: (missing directory, damaged sidecar): they contribute an empty
    #: mark set — safe, because eviction only ever costs a recompile.
    unreadable_indexes: List[str] = field(default_factory=list)
    scanned_entries: int = 0
    scanned_bytes: int = 0
    #: Unreferenced bodies removed by the sweep.
    swept_entries: int = 0
    swept_bytes: int = 0
    #: Why ``registry.json`` could not be read, or None: gc then marks
    #: nothing and leaves the file for the next registration to move.
    registry_damage: Optional[str] = None
    #: Bodies evicted by the LRU/size cap (oldest stamp first).
    lru_evicted_entries: int = 0
    lru_evicted_bytes: int = 0
    #: Whole stale-keytag pools removed (other VM version / host tag).
    stale_pools_removed: List[str] = field(default_factory=list)
    #: Shards found damaged during the sweep (moved to quarantine).
    quarantined_shards: List[str] = field(default_factory=list)
    remaining_entries: int = 0
    remaining_bytes: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


# -- the store ----------------------------------------------------------------


class SharedBodyStore(DurableDirectory):
    """One per-host pool of compiled bodies, shared by many databases.

    Thread/process safety: every mutation (publish, sweep, cap
    enforcement, registration) happens under an advisory lock scoped to
    the file it rewrites, with a fresh re-read inside the lock; every
    write is an atomic write-replace.  Reads are lock-free and verify
    CRCs, quarantining a damaged shard and reading it as empty.  The
    registry is the directory's manifest.
    """

    def __init__(
        self,
        directory: str,
        vm_version: str,
        storage: Optional[FileStorage] = None,
        clock=time.time,
    ):
        # Only the store itself: ``bodies/`` and the pool keyed for this
        # VM appear when ``publish`` first writes to them.
        super().__init__(directory, REGISTRY_NAME, storage)
        self.vm_version = vm_version
        self.host_tag = host_code_tag()
        #: Injectable time source so tests can pin LRU ordering.
        self.clock = clock
        #: prefix → (stat signature, parsed entries) revalidated cache.
        self._shard_cache: Dict[str, tuple] = {}

    # -- paths ---------------------------------------------------------------

    def _pool_dir(self) -> str:
        return os.path.join(
            self.directory,
            BODIES_DIR,
            store_keytag(self.vm_version, self.host_tag),
        )

    def _shard_rel(self, prefix: str) -> str:
        """A shard's path relative to the store."""
        return os.path.join(
            BODIES_DIR,
            store_keytag(self.vm_version, self.host_tag),
            prefix + SHARD_SUFFIX,
        )

    def shard_path(self, prefix: str) -> str:
        return os.path.join(self.directory, self._shard_rel(prefix))

    def _shard_lock_path(self, prefix: str) -> str:
        return self.shard_path(prefix) + LOCK_SUFFIX

    def _shard_prefixes(self) -> List[str]:
        pool = self._pool_dir()
        if not os.path.isdir(pool):
            return []
        return sorted(
            name[: -len(SHARD_SUFFIX)]
            for name in self.storage.listdir(pool)
            if name.endswith(SHARD_SUFFIX)
        )

    # -- registry ------------------------------------------------------------

    def register_database(self, db_directory: str) -> None:
        """Record ``db_directory`` as a consumer of this store.

        The registry is gc's mark root list: a database must be
        registered before its private sidecar protects bodies from the
        sweep.  Registration is idempotent and serialized under its own
        lock (never held together with a shard lock).  A damaged registry
        is quarantined by the write that replaces it.
        """
        path = os.path.abspath(db_directory)
        lock_path = os.path.join(self.directory, REGISTRY_LOCK)
        with self.storage.lock(lock_path):
            current = self.registered_databases()
            if path in current:
                return
            self.write_manifest(
                {"version": 1, "databases": sorted(current + [path])}
            )

    def registered_databases(self) -> List[str]:
        """The registered databases.  A torn or garbage registry reads
        as empty and moves nothing (databases re-register on their next
        attach); why is in :attr:`manifest_damage`."""
        return self.read_manifest(_parse_registry, [])[0]

    # -- read path -----------------------------------------------------------

    def lookup(self, digest: str) -> Optional[bytes]:
        """The marshal blob for ``digest``, or None (miss).

        Lock-free: the shard is CRC-verified as a whole and the blob is
        an in-memory copy, so a concurrent publish or gc rewriting the
        shard cannot tear this read — the atomic rename means we parsed
        either the old complete shard or the new complete shard.
        """
        record = self._load_shard(shard_prefix(digest)).get(digest)
        return record[0] if record is not None else None

    def _load_shard(self, prefix: str) -> Dict[str, Tuple[bytes, int]]:
        """Parsed entries of one shard; `{}` when absent or damaged.

        Results are cached per stat signature: a shard rewritten by any
        process (atomic rename changes mtime/size) is transparently
        re-read, while repeated lookups against an unchanged shard cost
        one ``stat``.  Damage quarantines the shard and reads as empty —
        the bodies it held are recompiled, never trusted.
        """
        rel = self._shard_rel(prefix)
        path = os.path.join(self.directory, rel)
        signature = self.storage.stat_signature(path)
        if signature is None:
            self._shard_cache.pop(prefix, None)
            return {}
        cached = self._shard_cache.get(prefix)
        if cached is not None and cached[0] == signature:
            return cached[1]
        try:
            blob = self.storage.read_bytes(path)
        except FileNotFoundError:
            # Removed between stat and read (a concurrent gc): clean miss.
            self._shard_cache.pop(prefix, None)
            return {}
        except OSError as exc:
            self.events.append(("io-error", rel, str(exc)))
            return {}
        try:
            vm_version, host_tag, entries = parse_shard(blob)
        except SharedStoreError as exc:
            self.quarantine(
                rel, "damaged %s: %s" % (exc.section or "unknown", exc)
            )
            self._shard_cache.pop(prefix, None)
            return {}
        if vm_version != self.vm_version or host_tag != self.host_tag:
            # Foreign stamps inside our keytag directory can only mean
            # misplaced or hand-moved content; contain it like damage.
            self.quarantine(
                rel,
                "key mismatch: shard stamped (%s, %s)" % (vm_version, host_tag),
            )
            self._shard_cache.pop(prefix, None)
            return {}
        self._shard_cache[prefix] = (signature, entries)
        return entries

    # -- write path ----------------------------------------------------------

    def publish(
        self,
        blobs: Dict[str, bytes],
        touch: Iterable[str] = (),
        replace: AbstractSet[str] = frozenset(),
    ) -> PublishResult:
        """Make ``blobs`` visible to every database on this host.

        ``touch`` names already-present digests whose last-use stamp
        should be refreshed (the LRU signal from a session that revived
        them).  Per shard, the protocol is lock → fresh re-read → merge
        → atomic write-replace → unlock, so concurrent publishers never
        lose each other's bodies and readers never observe a torn shard.
        Content addressing makes the merge trivial: an already-present
        digest keeps its existing bytes (equal by construction), unless
        ``replace`` names it: the session could not revive those bytes,
        and its blob in ``blobs`` takes their place.  A shard is
        rewritten only when an entry or a stamp changes.
        """
        result = PublishResult()
        now = int(self.clock())
        groups: Dict[str, Dict[str, Optional[bytes]]] = {}
        for digest, blob in blobs.items():
            groups.setdefault(shard_prefix(digest), {})[digest] = blob
        for digest in touch:
            groups.setdefault(shard_prefix(digest), {}).setdefault(digest, None)
        if groups:
            # Opening the store creates no pool, and another process may
            # have gc'd it down to nothing: make the directory before
            # taking shard locks, so a publish always heals an emptied
            # pool instead of erroring.
            self.storage.makedirs(self._pool_dir())
        for prefix in sorted(groups):
            group = groups[prefix]
            with self.storage.lock(self._shard_lock_path(prefix)):
                entries = dict(self._load_shard(prefix))
                changed = False
                for digest, blob in sorted(group.items()):
                    existing = entries.get(digest)
                    if blob is not None and (
                        existing is None or digest in replace
                    ):
                        entries[digest] = (blob, now)
                        result.published += 1
                        changed = True
                    elif existing is not None:
                        # Counted whether or not the stamp moves (a touch
                        # of an absent digest is a no-op).
                        result.refreshed += 1
                        if existing[1] != now:
                            entries[digest] = (existing[0], now)
                            changed = True
                if changed:
                    self._write_shard(prefix, entries)
        return result

    def _write_shard(
        self, prefix: str, entries: Dict[str, tuple]
    ) -> None:
        """Replace one shard (caller holds its lock); empty → removed."""
        path = self.shard_path(prefix)
        if not entries:
            if self.storage.exists(path):
                self.storage.remove(path)
            self._shard_cache.pop(prefix, None)
            return
        self.storage.write_atomic(
            path, pack_shard(self.vm_version, self.host_tag, entries)
        )
        signature = self.storage.stat_signature(path)
        if signature is not None:
            self._shard_cache[prefix] = (signature, dict(entries))

    # -- accounting ----------------------------------------------------------

    def total_bytes(self) -> int:
        """Sum of body bytes in the current pool (the cap's measure)."""
        return sum(
            len(record[0])
            for prefix in self._shard_prefixes()
            for record in self._load_shard(prefix).values()
        )

    def total_entries(self) -> int:
        return sum(
            len(self._load_shard(prefix)) for prefix in self._shard_prefixes()
        )

    # -- garbage collection --------------------------------------------------

    def collect_referenced(self) -> Tuple[set, List[str]]:
        """The gc mark set: digests any registered database references.

        A database's reference index is its private sidecar — it records
        every body the database revived or compiled, under the same
        (vm_version, host_tag) stamps this pool is keyed by.  Sidecars
        stamped for another VM or host reference nothing in *this* pool.
        Unreadable indexes are reported and contribute an empty set:
        gc can then only cost that database recompiles, never damage.
        """
        referenced: set = set()
        unreadable: List[str] = []
        for db_dir in self.registered_databases():
            path = os.path.join(db_dir, SIDECAR_NAME)
            if not self.storage.exists(path):
                continue  # attached but nothing persisted yet
            try:
                sidecar = CompiledBodyStore.from_bytes(
                    self.storage.read_bytes(path)
                )
            except (SidecarError, OSError):
                unreadable.append(db_dir)
                continue
            if sidecar.staleness(self.vm_version) is None:
                referenced.update(sidecar.entries)
        return referenced, unreadable

    def gc(self, max_bytes: Optional[int] = None) -> GcReport:
        """Mark-and-sweep plus optional LRU cap; returns the report.

        Safe to run concurrently with publishers and readers: each shard
        is rewritten under its lock with a fresh re-read, and readers
        revalidate, so a body is only ever *present with valid bytes* or
        *cleanly absent* — a racing revive either got its bytes first or
        recompiles.
        """
        databases, damage = self.read_manifest(_parse_registry, [])
        report = GcReport(registered_databases=databases,
                          registry_damage=damage)
        referenced, unreadable = self.collect_referenced()
        report.referenced = len(referenced)
        report.unreadable_indexes = unreadable

        self._remove_stale_pools(report)

        mark = len(self.events)
        for prefix in self._shard_prefixes():
            with self.storage.lock(self._shard_lock_path(prefix)):
                entries = self._load_shard(prefix)
                if not entries:
                    continue
                report.scanned_entries += len(entries)
                report.scanned_bytes += sum(
                    len(record[0]) for record in entries.values()
                )
                kept = {
                    digest: record
                    for digest, record in entries.items()
                    if digest in referenced
                }
                if len(kept) != len(entries):
                    report.swept_entries += len(entries) - len(kept)
                    report.swept_bytes += sum(
                        len(record[0])
                        for digest, record in entries.items()
                        if digest not in kept
                    )
                    self._write_shard(prefix, kept)
        report.quarantined_shards = self.quarantined_since(mark)

        if max_bytes is not None:
            evicted, evicted_bytes = self._enforce_cap(max_bytes)
            report.lru_evicted_entries = evicted
            report.lru_evicted_bytes = evicted_bytes

        report.remaining_entries = self.total_entries()
        report.remaining_bytes = self.total_bytes()
        return report

    def _remove_stale_pools(self, report: GcReport) -> None:
        """Drop whole pools keyed for another VM version or host tag.

        Wholesale invalidation means a stale pool can never be read
        again under current keys; removing it (not quarantining — it is
        garbage, not evidence) is what keeps long-lived hosts bounded
        across upgrades.
        """
        bodies = os.path.join(self.directory, BODIES_DIR)
        if not os.path.isdir(bodies):
            return
        current = store_keytag(self.vm_version, self.host_tag)
        for name in self.storage.listdir(bodies):
            pool = os.path.join(bodies, name)
            if name == current or not os.path.isdir(pool):
                continue
            try:
                for filename in self.storage.listdir(pool):
                    self.storage.remove(os.path.join(pool, filename))
                os.rmdir(pool)
            except OSError as exc:
                self.events.append(
                    ("io-error", os.path.join(BODIES_DIR, name), str(exc))
                )
                continue
            report.stale_pools_removed.append(name)

    def _enforce_cap(self, max_bytes: int) -> Tuple[int, int]:
        """Evict least-recently-stamped bodies until the pool fits.

        Eviction order is (stamp, digest): oldest last use first, digest
        as a deterministic tie-break.  Evicting a referenced body is
        safe — it reads as cleanly absent and is recompiled (and likely
        republished) by the next session that wants it.
        """
        records = []  # (stamp, digest, size, prefix)
        total = 0
        for prefix in self._shard_prefixes():
            for digest, record in self._load_shard(prefix).items():
                blob, stamp = record[0], record[1]
                records.append((stamp, digest, len(blob), prefix))
                total += len(blob)
        if total <= max_bytes:
            return 0, 0
        records.sort()
        doomed: Dict[str, set] = {}
        for stamp, digest, size, prefix in records:
            if total <= max_bytes:
                break
            doomed.setdefault(prefix, set()).add(digest)
            total -= size
        evicted_entries = 0
        evicted_bytes = 0
        for prefix in sorted(doomed):
            with self.storage.lock(self._shard_lock_path(prefix)):
                entries = self._load_shard(prefix)
                kept = {
                    digest: record
                    for digest, record in entries.items()
                    if digest not in doomed[prefix]
                }
                if len(kept) == len(entries):
                    continue
                evicted_entries += len(entries) - len(kept)
                evicted_bytes += sum(
                    len(record[0])
                    for digest, record in entries.items()
                    if digest not in kept
                )
                self._write_shard(prefix, kept)
        return evicted_entries, evicted_bytes

    # -- consistency check ---------------------------------------------------

    def fsck(self, quarantine: bool = False) -> FsckReport:
        """Validate every shard of every pool, section by section.

        Shards of the current pool are checked for framing damage and
        key mismatches (``items``), on top of the registry and leftover
        ``.tmp`` rows
        :meth:`~repro.persist.storage.DurableDirectory.fsck_report` gives
        every durable directory; pools keyed for other VM versions or
        host tags are *notes* (``stale-keytag`` — expected after an
        upgrade, removed by ``gc``).  With ``quarantine=True`` damaged
        shards and a corrupt registry are moved aside; without it,
        nothing moves.
        """
        self.registered_databases()  # records a damaged registry
        report = self.fsck_report(quarantine)
        bodies = os.path.join(self.directory, BODIES_DIR)
        if not os.path.isdir(bodies):
            return report
        current = store_keytag(self.vm_version, self.host_tag)
        for name in self.storage.listdir(bodies):
            pool = os.path.join(bodies, name)
            if not os.path.isdir(pool):
                continue
            if name != current:
                report.notes.append(
                    FsckItem(
                        os.path.join(BODIES_DIR, name),
                        "stale-keytag",
                        detail="pool for another VM version or host tag; "
                               "`cache gc` removes it",
                    )
                )
                continue
            for filename in self.storage.listdir(pool):
                if not filename.endswith(SHARD_SUFFIX):
                    continue
                rel = os.path.join(BODIES_DIR, name, filename)
                shard = report.check(
                    self.storage, os.path.join(pool, filename), rel,
                    parse_shard,
                    partial(self.quarantine, rel) if quarantine else None,
                )
                if shard is None:
                    continue
                vm_version, host_tag, _entries = shard
                if vm_version != self.vm_version or host_tag != self.host_tag:
                    report.items.append(
                        FsckItem(
                            rel,
                            "key-mismatch",
                            detail="stamped (%s, %s)" % (vm_version, host_tag),
                        )
                    )
                    continue
                report.items.append(FsckItem(rel, "ok"))
        return report
