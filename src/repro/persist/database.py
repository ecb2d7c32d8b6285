"""The persistent cache database.

A directory of cache files plus a JSON index keyed by the (application,
VM, tool) key triple.  The manager stores caches here at exit and looks
them up at startup (paper Figure 1: "Persistent Cache Manager" +
"Persistent Cache Database").

Two lookup modes exist:

* **exact** — all three key components must match (inter-execution
  persistence, the default);
* **inter-application** — the application component is ignored; any cache
  produced under the same VM and tool is eligible (paper §3.2.3).  When
  several candidates exist the caller can pick (the evaluation primes with
  a specific donor application); the default picks the largest cache,
  which maximizes the library code available for reuse.

Crash consistency and damage containment (``docs/cache-format.md``):

* every write (cache files and the index) is an atomic write-replace
  through the storage seam — readers never observe a torn file;
* ``store`` holds an advisory lock and re-reads the index inside it, so
  concurrent sessions accumulating into one database serialize their
  read-modify-write and never lose each other's entries;
* a cache file that fails validation is **quarantined** — moved into the
  ``quarantine/`` subdirectory (never deleted), dropped from the index,
  and recorded in :attr:`CacheDatabase.events` so the session can report
  it — and the lookup behaves as a clean miss;
* a corrupt index reads as empty and is recorded in
  :attr:`CacheDatabase.index_damage`, but stays where it is until a
  write replaces it — the write quarantines it first — or
  ``fsck(quarantine=True)`` moves it, so read-only commands never move
  it; orphaned cache files are re-discoverable via :meth:`fsck`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import partial
from typing import Callable, List, Optional

from repro.persist.cachefile import CacheFileError, PersistentCache
from repro.persist.framing import FsckItem, FsckReport, stale_tmp
from repro.persist.keys import MappingKey, tool_key, vm_key
from repro.persist.sidecar import (
    CompiledBodyStore,
    SIDECAR_NAME,
    SidecarError,
)
from repro.persist.storage import FileStorage, TMP_SUFFIX

INDEX_NAME = "index.json"
LOCK_NAME = "index.lock"
QUARANTINE_DIR = "quarantine"
#: Subdirectory holding recorded replay-session logs (PCRL1 files).
REPLAY_DIR = "replay"


def _sanitize_log_name(name: str) -> str:
    """Filesystem-safe stem for a replay-log filename."""
    cleaned = "".join(
        ch if ch.isalnum() or ch in "-_." else "-" for ch in name
    )
    return cleaned[:48] or "session"


@dataclass(frozen=True)
class CacheEntry:
    """One row of the database index."""

    app_digest: str
    vm_digest: str
    tool_digest: str
    app_path: str
    filename: str
    trace_count: int
    file_size: int


class CacheDatabase:
    """Filesystem-backed store of persistent caches.

    The index is re-read at construction and, under an advisory lock,
    on every store; all writes are atomic write-replaces.  Damaged files
    are quarantined, never deleted, and every such event is appended to
    :attr:`events` as ``(kind, filename, reason)`` tuples.  Opening only
    reads: a damaged index is recorded in :attr:`index_damage` and moved
    by the first write that replaces it.
    """

    def __init__(
        self,
        directory: str,
        storage: Optional[FileStorage] = None,
        shared_store=None,
    ):
        self.directory = directory
        self.storage = storage or FileStorage()
        self.storage.makedirs(directory)
        self._index_path = os.path.join(directory, INDEX_NAME)
        self._lock_path = os.path.join(directory, LOCK_NAME)
        self._entries: List[CacheEntry] = []
        #: Why the index on disk could not be read (it then reads as
        #: empty), or None when it is sound or absent.
        self.index_damage: Optional[str] = None
        #: (kind, filename, reason) records of quarantine/recovery events,
        #: and how many of them a session has already reported.
        self.events: List[tuple] = []
        self.events_reported = 0
        #: The per-host shared compiled-body store this database attaches
        #: to (:class:`repro.persist.sharedstore.SharedBodyStore`), or
        #: None: the one way a run gets a pool.  Sessions opened on this
        #: database revive bodies through it before the private sidecar
        #: (:func:`repro.persist.sidecar.open_body_store`); attaching
        #: registers the database as a gc mark root.  Registration
        #: failure is best-effort: an unreachable store must not block
        #: the database.
        self.shared_store = shared_store
        if shared_store is not None:
            try:
                shared_store.register_database(directory)
            except OSError as exc:
                self.events.append(
                    ("io-error", "shared-store", "registration failed: %s" % exc)
                )
        self._load_index()

    # -- index maintenance --------------------------------------------------

    def _load_index(self) -> None:
        self._entries = []
        self.index_damage = None
        if not self.storage.exists(self._index_path):
            return
        try:
            raw = json.loads(self.storage.read_bytes(self._index_path))
            self._entries = [CacheEntry(**row) for row in raw]
        except (ValueError, TypeError, KeyError, OSError) as exc:
            # A torn or garbage index must not take the database down: it
            # reads as empty.  Reading moves nothing; ``_save_index``
            # quarantines it before replacing it.  Cache files referenced
            # by the lost index stay on disk; ``fsck`` reports them as
            # orphans.
            self.index_damage = "corrupt index: %s" % exc

    def _save_index(self) -> None:
        if self.index_damage is not None:
            self._quarantine(INDEX_NAME, self.index_damage)
            self.index_damage = None
        blob = json.dumps(
            [entry.__dict__ for entry in self._entries], indent=1
        ).encode()
        self.storage.write_atomic(self._index_path, blob)

    def entries(self) -> List[CacheEntry]:
        return list(self._entries)

    # -- quarantine ---------------------------------------------------------

    def _quarantine(self, filename: str, reason: str) -> None:
        """Move a damaged file aside — never delete possible evidence."""
        source = os.path.join(self.directory, filename)
        quarantine_dir = os.path.join(self.directory, QUARANTINE_DIR)
        try:
            destination = os.path.join(quarantine_dir, filename)
            # ``filename`` may live in a subdirectory (replay logs):
            # mirror it under quarantine/ so the move always has a home.
            self.storage.makedirs(os.path.dirname(destination))
            serial = 0
            while self.storage.exists(destination):
                serial += 1
                destination = os.path.join(
                    quarantine_dir, "%s.%d" % (filename, serial)
                )
            if self.storage.exists(source):
                self.storage.rename(source, destination)
        except OSError as exc:
            # Quarantine is best-effort: a failing move must not turn a
            # contained corruption into a crash.
            reason = "%s (quarantine move failed: %s)" % (reason, exc)
        self.events.append(("quarantine", filename, reason))

    def _drop_entry(self, entry: CacheEntry) -> None:
        self._entries = [row for row in self._entries if row is not entry]
        try:
            self._save_index()
        except OSError:
            # The in-memory view is already consistent; a failed index
            # write only delays the cleanup to the next successful store.
            pass

    @property
    def quarantined_count(self) -> int:
        return sum(1 for kind, _, _ in self.events if kind == "quarantine")

    # -- store ----------------------------------------------------------------

    def store(
        self,
        cache: PersistentCache,
        app_key: MappingKey,
    ) -> CacheEntry:
        """Write ``cache`` to disk and (re-)index it.

        A cache with the same key triple replaces the previous file (this
        is how accumulation persists: the manager loads, accumulates, and
        stores back under the same keys).  The file lands via atomic
        write-replace; the index merge happens under the database lock
        with a fresh re-read, so two concurrent sessions storing different
        entries both survive.
        """
        app_digest = app_key.digest
        vm_digest = vm_key(cache.vm_version)
        tool_digest = tool_key(cache.tool_identity)
        filename = "pcc-%s-%s-%s.cache" % (
            app_digest[:12],
            vm_digest[:8],
            tool_digest[:8],
        )
        blob = cache.to_bytes()
        entry = CacheEntry(
            app_digest=app_digest,
            vm_digest=vm_digest,
            tool_digest=tool_digest,
            app_path=cache.app_path,
            filename=filename,
            trace_count=len(cache.traces),
            file_size=len(blob),
        )
        with self.storage.lock(self._lock_path):
            self.storage.write_atomic(
                os.path.join(self.directory, filename), blob
            )
            # Merge with entries other sessions stored since we last read.
            self._load_index()
            self._entries = [
                existing
                for existing in self._entries
                if (existing.app_digest, existing.vm_digest, existing.tool_digest)
                != (app_digest, vm_digest, tool_digest)
            ]
            self._entries.append(entry)
            self._save_index()
        return entry

    # -- lookup -----------------------------------------------------------------

    def lookup(
        self,
        app_key: MappingKey,
        vm_version: str,
        tool_identity: str,
    ) -> Optional[PersistentCache]:
        """Exact (app, VM, tool) lookup; a damaged file reads as a miss."""
        app_digest = app_key.digest
        vm_digest = vm_key(vm_version)
        tool_digest = tool_key(tool_identity)
        for entry in self._entries:
            if (
                entry.app_digest == app_digest
                and entry.vm_digest == vm_digest
                and entry.tool_digest == tool_digest
            ):
                return self._read(entry)
        return None

    def lookup_inter_application(
        self,
        vm_version: str,
        tool_identity: str,
        exclude_app_path: Optional[str] = None,
        select: Optional[Callable[[List[CacheEntry]], Optional[CacheEntry]]] = None,
    ) -> Optional[PersistentCache]:
        """Lookup ignoring the application key (paper §3.2.3).

        Args:
            vm_version: Current VM version.
            tool_identity: Current tool identity.
            exclude_app_path: Skip caches created by this application (to
                force *inter*-application reuse in experiments).
            select: Optional policy choosing among candidates; default
                picks the largest cache.

        A damaged candidate is quarantined and the next-best one is
        tried, so one bad donor never hides the healthy ones.
        """
        vm_digest = vm_key(vm_version)
        tool_digest = tool_key(tool_identity)
        candidates = [
            entry
            for entry in self._entries
            if entry.vm_digest == vm_digest
            and entry.tool_digest == tool_digest
            and (exclude_app_path is None or entry.app_path != exclude_app_path)
        ]
        while candidates:
            if select is not None:
                chosen = select(candidates)
                if chosen is None:
                    return None
            else:
                chosen = max(candidates, key=lambda entry: entry.file_size)
            cache = self._read(chosen)
            if cache is not None:
                return cache
            candidates = [entry for entry in candidates if entry is not chosen]
        return None

    def _read(self, entry: CacheEntry) -> Optional[PersistentCache]:
        """Load one indexed cache file; quarantine it if damaged."""
        path = os.path.join(self.directory, entry.filename)
        try:
            return PersistentCache.load(path, storage=self.storage)
        except CacheFileError as exc:
            section = exc.section or "unknown"
            self._quarantine(
                entry.filename, "damaged %s: %s" % (section, exc)
            )
            self._drop_entry(entry)
            return None
        except FileNotFoundError:
            self.events.append(
                ("missing", entry.filename, "indexed file does not exist")
            )
            self._drop_entry(entry)
            return None
        except OSError as exc:
            # Read-level IO error (EIO and friends): surface as a miss;
            # the file stays put — it may be readable next time.
            self.events.append(("io-error", entry.filename, str(exc)))
            return None

    # -- compiled-body sidecar ----------------------------------------------

    def _sidecar_path(self) -> str:
        return os.path.join(self.directory, SIDECAR_NAME)

    def open_sidecar(self, vm_version: str):
        """Load the compiled-body sidecar; returns ``(store, state)``.

        Failure policy mirrors the trace cache's, but without degrading
        anything — the sidecar is a pure host-side accelerator:

        * missing file → a fresh empty store (state ``"fresh"``);
        * structurally damaged → quarantined (moved aside, never
          deleted) and a fresh store (state ``"quarantined"``);
        * valid but keyed to another VM version or host bytecode format
          → ignored *wholesale* and a fresh store under the current keys
          (state ``"stale-vm"``) — the next write-back replaces it;
        * unreadable (IO error) → ``(None, "io-error: <reason>")``; the
          caller runs without a sidecar this session.
        """
        path = self._sidecar_path()
        if not self.storage.exists(path):
            return CompiledBodyStore(vm_version), "fresh"
        try:
            blob = self.storage.read_bytes(path)
        except OSError as exc:
            self.events.append(("io-error", SIDECAR_NAME, str(exc)))
            return None, "io-error: %s" % exc
        try:
            store = CompiledBodyStore.from_bytes(blob)
        except SidecarError as exc:
            self._quarantine(
                SIDECAR_NAME,
                "damaged %s: %s" % (exc.section or "unknown", exc),
            )
            return CompiledBodyStore(vm_version), "quarantined"
        if store.staleness(vm_version) is not None:
            return CompiledBodyStore(vm_version), "stale-vm"
        return store, "loaded"

    def store_sidecar(self, store: CompiledBodyStore) -> int:
        """Write the sidecar back; returns the entry count written.

        Runs under the database lock with a merge re-read, like
        :meth:`store`: entries another session persisted since we opened
        are folded in (when compatibly keyed), so concurrent sessions
        never lose each other's bodies.  The write itself is the same
        atomic write-replace every database file uses.
        """
        path = self._sidecar_path()
        with self.storage.lock(self._lock_path):
            if self.storage.exists(path):
                try:
                    existing = CompiledBodyStore.from_bytes(
                        self.storage.read_bytes(path)
                    )
                except (SidecarError, OSError):
                    existing = None  # damaged/unreadable: overwrite
                if (
                    existing is not None
                    and existing.staleness(store.vm_version) is None
                ):
                    for digest, blob in existing.entries.items():
                        store.entries.setdefault(digest, blob)
            self.storage.write_atomic(path, store.to_bytes())
        return len(store.entries)

    # -- replay-session logs -------------------------------------------------

    def replay_directory(self) -> str:
        return os.path.join(self.directory, REPLAY_DIR)

    def store_replay_log(self, log, name: Optional[str] = None) -> str:
        """Atomically write one ``PCRL1`` session log; returns its name.

        ``name`` defaults to a sanitized, serial-suffixed identity drawn
        from the log's meta, so repeated recordings of one workload
        never clobber each other.  The write is the same atomic
        write-replace every database file uses.
        """
        from repro.replay.log import REPLAY_LOG_SUFFIX

        directory = self.replay_directory()
        self.storage.makedirs(directory)
        if name is None:
            base = _sanitize_log_name(
                str(
                    log.meta.get("name")
                    or log.meta.get("workload")
                    or "session"
                )
            )
            existing = set(self.storage.listdir(directory))
            serial = 0
            while True:
                name = "%s-%04d%s" % (base, serial, REPLAY_LOG_SUFFIX)
                if name not in existing:
                    break
                serial += 1
        elif not name.endswith(REPLAY_LOG_SUFFIX):
            name += REPLAY_LOG_SUFFIX
        self.storage.write_atomic(
            os.path.join(directory, name), log.to_bytes()
        )
        return name

    def load_replay_log(self, name: str):
        """Read one stored session log back.

        A structurally damaged log is quarantined (moved into
        ``quarantine/replay/``, never deleted) and the
        :class:`~repro.replay.log.ReplayLogError` re-raised — replay
        against damaged evidence must fail loudly, not silently run
        live.  IO errors propagate as-is.
        """
        from repro.replay.log import ReplayLog, ReplayLogError

        path = os.path.join(self.replay_directory(), name)
        blob = self.storage.read_bytes(path)
        try:
            return ReplayLog.from_bytes(blob)
        except ReplayLogError as exc:
            self._quarantine(
                "%s/%s" % (REPLAY_DIR, name),
                "damaged %s: %s" % (exc.section or "unknown", exc),
            )
            raise

    def list_replay_logs(self) -> List[str]:
        """Names of every stored session log, sorted."""
        from repro.replay.log import REPLAY_LOG_SUFFIX

        directory = self.replay_directory()
        if not self.storage.exists(directory):
            return []
        return sorted(
            name
            for name in self.storage.listdir(directory)
            if name.endswith(REPLAY_LOG_SUFFIX)
        )

    def clear(self) -> None:
        """Remove every cache file and reset the index."""
        for entry in self._entries:
            path = os.path.join(self.directory, entry.filename)
            if self.storage.exists(path):
                self.storage.remove(path)
        self._entries = []
        self._save_index()

    # -- consistency check --------------------------------------------------

    def fsck(
        self, quarantine: bool = False, vm_version: Optional[str] = None
    ) -> FsckReport:
        """Validate every framed file section by section.

        Checks the compiled-body sidecar (CRCs plus wholesale staleness
        against ``vm_version`` — defaulting to the running VM's — and
        the host bytecode tag), every recorded replay log and every
        indexed cache file, then reports files the index does not know
        about (orphans, e.g. after an index reset) and leftover ``.tmp``
        files from interrupted atomic writes.  A damaged index is a
        ``corrupt`` row.  With ``quarantine=True`` damaged files are
        moved aside (and indexed files dropped from the index).
        """
        from repro.replay.log import REPLAY_LOG_SUFFIX, ReplayLog

        report = FsckReport()
        if self.index_damage is not None:
            report.items.append(
                FsckItem(INDEX_NAME, "corrupt", detail=self.index_damage)
            )
            if quarantine:
                self._quarantine(INDEX_NAME, self.index_damage)
                self.index_damage = None
                report.quarantined.append(INDEX_NAME)
        # (label relative to the directory, parser, index entry or None)
        files = []
        if self.storage.exists(self._sidecar_path()):
            files.append((SIDECAR_NAME, CompiledBodyStore.from_bytes, None))
        if self.storage.exists(self.replay_directory()):
            for name in self.storage.listdir(self.replay_directory()):
                label = "%s/%s" % (REPLAY_DIR, name)
                if name.endswith(TMP_SUFFIX):
                    report.items.append(stale_tmp(label))
                elif name.endswith(REPLAY_LOG_SUFFIX):
                    files.append((label, ReplayLog.from_bytes, None))
        indexed = set()
        for entry in self._entries:
            indexed.add(entry.filename)
            if not self.storage.exists(
                os.path.join(self.directory, entry.filename)
            ):
                report.items.append(FsckItem(entry.filename, "missing"))
                continue
            files.append((entry.filename, PersistentCache.from_bytes, entry))
        for label, parse, entry in files:
            path = os.path.join(self.directory, label)
            parsed = report.check(
                self.storage, path, label, parse,
                partial(self._fsck_quarantine, label, entry)
                if quarantine else None,
            )
            if parsed is None:
                continue
            note = (
                self._sidecar_note(parsed, vm_version)
                if label == SIDECAR_NAME else None
            )
            if note is not None:
                report.notes.append(note)
            else:
                report.items.append(FsckItem(label, "ok"))
        for filename in self.storage.listdir(self.directory):
            path = os.path.join(self.directory, filename)
            if filename in indexed or os.path.isdir(path):
                continue
            if filename.endswith(TMP_SUFFIX):
                report.items.append(stale_tmp(filename))
            elif filename.endswith(".cache"):
                report.items.append(
                    FsckItem(filename, "orphan", detail="not in the index")
                )
        return report

    def _fsck_quarantine(
        self, label: str, entry: Optional[CacheEntry], reason: str
    ) -> None:
        self._quarantine(label, reason)
        if entry is not None:
            self._drop_entry(entry)

    def _sidecar_note(
        self, store: CompiledBodyStore, vm_version: Optional[str]
    ) -> Optional[FsckItem]:
        """The fsck note for a sound sidecar, or None when it is in use.

        A stale sidecar is unreachable as a whole (wholesale
        invalidation), not damaged, and an orphaned one has no indexed
        caches to serve: both are notes, never quarantined — the next
        warm run rewrites the file under current keys.
        """
        if vm_version is None:
            # Layering note: persist/ never imports vm/ at module scope;
            # the default current-VM stamp is resolved lazily here.
            from repro.vm.engine import VM_VERSION

            vm_version = VM_VERSION
        stale = store.staleness(vm_version)
        if stale is not None:
            return FsckItem(SIDECAR_NAME, "stale-vm", detail=stale)
        if not self._entries and len(store):
            return FsckItem(
                SIDECAR_NAME,
                "orphan",
                detail=(
                    "%d compiled bodies but no indexed caches to"
                    " revive them for" % len(store)
                ),
            )
        return None
