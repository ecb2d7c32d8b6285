"""Filesystem seam for the persistence layer.

Every byte the persistent-cache subsystem reads from or writes to disk
goes through a :class:`FileStorage` object.  Production code uses the
default instance; the fault-injection harness
(:mod:`repro.testing.faultfs`) substitutes a shim that can flip bytes,
truncate reads, fail the Nth write with ``ENOSPC``/``EIO``, or simulate a
process kill between the tmp-file write and the rename.

Crash consistency contract (what the rest of the system relies on):

* :meth:`FileStorage.write_atomic` never exposes a partially written
  file at the destination path.  Data is written to ``<path>.tmp`` in
  fixed-size chunks, flushed and fsync'd, and then renamed over the
  destination.  A crash or IO error at any point leaves the destination
  either absent or holding its previous complete contents.
* :meth:`FileStorage.lock` provides an advisory exclusive lock (via
  ``flock``) so concurrent sessions accumulating into one database
  serialize their read-modify-write of the index.

All primitive operations (``_open_write``, ``_write``, ``_fsync``,
``_rename``) are separate methods precisely so the fault shim can
override them one at a time.

Damage containment (:class:`DurableDirectory`) is one layer above the
seam: a cache database and a shared body store are each a directory of
framed files plus one JSON manifest, and they quarantine, read and
write their manifest, report leftover ``.tmp`` files and log storage
events by the same rules.
"""

from __future__ import annotations

import contextlib
import json
import os
from typing import Callable, List, Optional, Tuple

from repro.persist.framing import FsckItem, FsckReport

try:  # POSIX advisory locking; degraded to a no-op where unavailable.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platform
    fcntl = None

#: Atomic writes are chunked so mid-write faults (``ENOSPC`` on the Nth
#: write, power loss) leave a *partial* tmp file, as on real hardware.
WRITE_CHUNK_BYTES = 1024

#: Suffix of the not-yet-renamed half of an atomic write.  A leftover
#: ``.tmp`` file is the signature of an interrupted write-back; ``fsck``
#: reports them and recovery ignores them.
TMP_SUFFIX = ".tmp"


class StorageError(OSError):
    """A storage operation failed (base for injected IO faults too)."""


class FileStorage:
    """Direct filesystem access with atomic write-replace semantics."""

    # -- reads ---------------------------------------------------------------

    def read_bytes(self, path: str) -> bytes:
        with open(path, "rb") as handle:
            return handle.read()

    # -- atomic writes -------------------------------------------------------

    def write_atomic(self, path: str, data: bytes) -> None:
        """Write ``data`` to ``path`` so it appears all-or-nothing.

        The destination is replaced only by the final rename; any failure
        before that leaves the previous file intact (and possibly a
        partial ``<path>.tmp`` for post-mortem inspection — never cleaned
        up here, exactly like a real crash).
        """
        tmp_path = path + TMP_SUFFIX
        handle = self._open_write(tmp_path)
        try:
            for start in range(0, len(data), WRITE_CHUNK_BYTES):
                self._write(handle, data[start : start + WRITE_CHUNK_BYTES])
            if not data:
                self._write(handle, b"")
            handle.flush()
            self._fsync(handle)
        finally:
            handle.close()
        self._rename(tmp_path, path)

    # Primitive operations, individually overridable by the fault shim.

    def _open_write(self, path: str):
        return open(path, "wb")

    def _write(self, handle, chunk: bytes) -> None:
        handle.write(chunk)

    def _fsync(self, handle) -> None:
        try:
            os.fsync(handle.fileno())
        except (OSError, ValueError):  # pragma: no cover - exotic fs
            pass

    def _rename(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    # -- namespace operations ------------------------------------------------

    def exists(self, path: str) -> bool:
        return os.path.exists(path)

    def remove(self, path: str) -> None:
        os.remove(path)

    def rename(self, src: str, dst: str) -> None:
        os.replace(src, dst)

    def listdir(self, path: str):
        return sorted(os.listdir(path))

    def makedirs(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)

    def file_size(self, path: str) -> int:
        return os.path.getsize(path)

    def stat_signature(self, path):
        """A cheap change-detection token for ``path``, or None if absent.

        Two calls returning the same token mean the file was not replaced
        in between (atomic write-replace always changes it); the shared
        body store uses this to revalidate its in-memory shard cache
        without re-reading and re-CRCing the file on every lookup.
        """
        try:
            status = os.stat(path)
        except OSError:
            return None
        return (status.st_mtime_ns, status.st_size)

    # -- locking -------------------------------------------------------------

    @contextlib.contextmanager
    def lock(self, path: str):
        """Hold an exclusive advisory lock on ``path`` (created empty)."""
        handle = open(path, "a+b")
        try:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            if fcntl is not None:
                fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
            handle.close()


#: Shared default used when callers do not inject their own storage.
DEFAULT_STORAGE = FileStorage()


#: The manifest of each kind of durable directory: a cache database's
#: index and a shared body store's registry.
INDEX_NAME = "index.json"
REGISTRY_NAME = "registry.json"

#: Where a durable directory moves a damaged file: ``quarantine/<rel>``.
QUARANTINE_DIR = "quarantine"


class DurableDirectory:
    """A directory of framed files plus one JSON manifest.

    Files are named by their path relative to :attr:`directory`
    (``rel``), in the event log, in fsck rows and in quarantine alike.
    Damage is contained by one rule per finding:

    * a damaged file is quarantined: moved to ``quarantine/<rel>``,
      serial-suffixed on collision, never deleted;
    * a manifest read moves nothing: a damaged manifest reads as empty,
      and the next :meth:`write_manifest` quarantines it first;
    * a leftover ``.tmp`` at any depth is a ``stale-tmp`` fsck row.

    Every quarantine and IO error is one ``(kind, rel, reason)`` record
    in :attr:`events`.
    """

    def __init__(
        self, directory: str, manifest: str,
        storage: Optional[FileStorage] = None,
    ):
        self.directory = directory
        #: The manifest's name, relative to the directory.
        self.manifest = manifest
        self.storage = storage or FileStorage()
        #: Why the manifest could not be read at the last read (it read
        #: as empty), or None when it is sound or absent.
        self.manifest_damage: Optional[str] = None
        #: (kind, rel, reason) records of quarantines and IO errors, and
        #: how many of them a session has already reported.
        self.events: List[tuple] = []
        self.events_reported = 0
        self.storage.makedirs(directory)

    # -- quarantine and the event log -----------------------------------------

    def quarantine(self, rel: str, reason: str) -> None:
        """Move the damaged file ``rel`` aside: never delete evidence."""
        destination = os.path.join(self.directory, QUARANTINE_DIR, rel)
        try:
            self.storage.makedirs(os.path.dirname(destination))
            target, serial = destination, 0
            while self.storage.exists(target):
                serial += 1
                target = "%s.%d" % (destination, serial)
            source = os.path.join(self.directory, rel)
            if self.storage.exists(source):
                self.storage.rename(source, target)
        except OSError as exc:
            # Quarantine is best-effort: a failing move must not turn a
            # contained corruption into a crash.
            reason = "%s (quarantine move failed: %s)" % (reason, exc)
        self.events.append(("quarantine", rel, reason))

    def quarantined_since(self, mark: int = 0) -> List[str]:
        """The files quarantined by the events from index ``mark`` on."""
        return [rel for kind, rel, _ in self.events[mark:]
                if kind == "quarantine"]

    @property
    def quarantined_count(self) -> int:
        return len(self.quarantined_since())

    def unreported_events(self) -> List[tuple]:
        """The events no earlier call returned; they are now reported."""
        events = self.events[self.events_reported:]
        self.events_reported = len(self.events)
        return events

    # -- the manifest ---------------------------------------------------------

    def read_manifest(
        self, parse: Callable[[object], object], empty
    ) -> Tuple[object, Optional[str]]:
        """``(value, damage)``: the manifest's JSON through ``parse``.

        A missing manifest is ``(empty, None)``.  One that cannot be
        read or parsed is ``(empty, reason)``, and the reason is kept in
        :attr:`manifest_damage` for the next write.  Moves nothing.
        """
        path = os.path.join(self.directory, self.manifest)
        self.manifest_damage = None
        if not self.storage.exists(path):
            return empty, None
        try:
            return parse(json.loads(self.storage.read_bytes(path))), None
        except (ValueError, TypeError, KeyError, OSError) as exc:
            self.manifest_damage = "corrupt %s: %s" % (
                os.path.splitext(self.manifest)[0], exc)
            return empty, self.manifest_damage

    def write_manifest(self, value) -> None:
        """Replace the manifest with ``value`` as JSON; a manifest the
        last read found damaged is quarantined first."""
        if self.manifest_damage is not None:
            self.quarantine(self.manifest, self.manifest_damage)
            self.manifest_damage = None
        self.storage.write_atomic(
            os.path.join(self.directory, self.manifest),
            json.dumps(value, indent=1).encode(),
        )

    # -- fsck -----------------------------------------------------------------

    def fsck_report(self, quarantine: bool) -> FsckReport:
        """A report holding what every durable directory checks alike.

        A damaged manifest (as the last read found it) is a ``corrupt``
        row, moved aside only under ``quarantine``; each leftover
        ``.tmp`` is a ``stale-tmp`` row.  The caller adds its own files.
        """
        report = FsckReport()
        damage = self.manifest_damage
        if damage is not None:
            report.items.append(FsckItem(self.manifest, "corrupt",
                                         detail=damage))
            if quarantine:
                self.quarantine(self.manifest, damage)
                self.manifest_damage = None
                report.quarantined.append(self.manifest)
        for root, dirs, names in os.walk(self.directory):
            dirs.sort()
            for name in sorted(names):
                if name.endswith(TMP_SUFFIX):
                    report.items.append(FsckItem(
                        os.path.relpath(os.path.join(root, name),
                                        self.directory),
                        "stale-tmp",
                        detail="leftover from an interrupted atomic write",
                    ))
        return report
