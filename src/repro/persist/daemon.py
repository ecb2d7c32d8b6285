"""Client transport for the per-host cache-server daemon.

:class:`DaemonBackedStore` speaks PCSD1 (see
:mod:`repro.persist.cacheserver`) to a running daemon and presents the
same surface as :class:`~repro.persist.sharedstore.SharedBodyStore` —
``lookup`` / ``publish`` / ``register_database`` / ``vm_version`` — so
it slots behind the existing ``ChainedBodyStore`` seam in
``sidecar.py`` untouched: the manager cannot tell a daemon-backed pool
from a file-backed one, which is exactly what the differential suite
asserts.

Fallback contract (the part every fault-injection test leans on):

* every store wraps a real file-backed :class:`SharedBodyStore` on the
  same directory;
* any transport failure — no socket, connect refused, timeout, torn or
  garbage frame, daemon answering ``error`` — raises
  :class:`DaemonError` internally, and the store **silently and
  permanently degrades** to the file path for the rest of the session
  (``transport`` flips ``"daemon"`` → ``"file"``,
  ``daemon_fallbacks`` counts the event);
* :class:`DaemonError` subclasses :class:`OSError`, so even an escape
  through an unexpected code path is absorbed by the same
  ``except OSError`` seams (``ChainedBodyStore.lookup_code``, the
  manager's ``STORAGE_FAILURES``) that already make file-store damage
  report-only.  A dead daemon can cost a session milliseconds, never
  correctness.

Reads are batched per shard prefix: the first lookup under a prefix
fetches the daemon's whole hot shard in one RPC and later lookups under
it are local dict hits — the daemon path's per-body cost is a hash
probe, while the flock store pays a ``stat`` per lookup.

``resolve_shared_store`` is the single attach point the CLI and
prewarm use: ``daemon://DIR`` specs and the ``REPRO_CACHE_DAEMON``
environment knob both land here.
"""

from __future__ import annotations

import os
import socket
import time
from typing import Dict, Iterable, Optional, Tuple

from repro.persist.cacheserver import (
    DaemonProtocolError,
    connect,
    default_socket_path,
    pack_frame,
    parse_frame,
    read_frame,
    write_frame,
)
from repro.persist.sharedstore import (
    PublishResult,
    SharedBodyStore,
    shard_prefix,
)

#: Spec scheme selecting the daemon transport explicitly.
DAEMON_SCHEME = "daemon://"

#: Environment knobs: ``REPRO_CACHE_DAEMON`` opts a plain ``--shared-store
#: DIR`` into the daemon transport ("1"/"auto" = conventional socket in
#: the store directory, anything else = explicit socket address);
#: ``REPRO_DAEMON_TIMEOUT_MS`` bounds every RPC.
DAEMON_ENV = "REPRO_CACHE_DAEMON"
TIMEOUT_ENV = "REPRO_DAEMON_TIMEOUT_MS"
DEFAULT_TIMEOUT_MS = 2000


class DaemonError(OSError):
    """Any failure of the daemon transport.

    An :class:`OSError` on purpose: the sidecar seam and the manager's
    ``STORAGE_FAILURES`` already treat ``OSError`` from the shared
    store as a report-only miss, so a ``DaemonError`` that escapes the
    store's own fallback still cannot touch the simulated run.
    """


def default_timeout_s() -> float:
    try:
        ms = int(os.environ.get(TIMEOUT_ENV, "") or DEFAULT_TIMEOUT_MS)
    except ValueError:
        ms = DEFAULT_TIMEOUT_MS
    return max(ms, 1) / 1000.0


class DaemonClient:
    """One connection to a cache-server daemon; request/response frames.

    The socket is opened lazily and kept for the client's lifetime
    (per-RPC reconnects would put connect latency on the lookup path).
    Every failure mode — connect, send, receive, frame damage, an
    ``error`` reply — raises :class:`DaemonError`; after a transport
    failure the connection is closed so the next request (if the owner
    retries at all) starts clean.
    """

    def __init__(
        self,
        address: str,
        vm_version: str = "",
        host_tag: str = "",
        timeout_s: Optional[float] = None,
    ):
        self.address = address
        self.vm_version = vm_version
        self.host_tag = host_tag
        self.timeout_s = (
            timeout_s if timeout_s is not None else default_timeout_s()
        )
        self.rpcs = 0
        self._sock: Optional[socket.socket] = None

    def request(
        self,
        op: str,
        meta: Optional[Dict[str, object]] = None,
        entries: Optional[Dict[str, tuple]] = None,
    ) -> Tuple[str, Dict[str, object], Dict[str, Tuple[bytes, int, int]]]:
        """One round trip; the reply's ``(op, meta, entries)``.

        An ``error`` reply raises like a transport failure — the caller
        has one failure path, and it always means "no usable daemon".
        """
        meta = dict(meta or {})
        # Empty stamps mean "not asserting a key" (the CLI's control
        # client): the daemon only rejects an *asserted* mismatch.
        if self.vm_version:
            meta.setdefault("vm", self.vm_version)
        if self.host_tag:
            meta.setdefault("host", self.host_tag)
        frame = pack_frame(op, meta, entries or {})
        try:
            if self._sock is None:
                self._sock = connect(self.address, self.timeout_s)
            self._sock.settimeout(self.timeout_s)
            write_frame(self._sock, frame)
            raw = read_frame(self._sock)
        except DaemonError:
            self.close()
            raise
        except (OSError, DaemonProtocolError, socket.timeout) as exc:
            self.close()
            raise DaemonError("daemon rpc %r failed: %s" % (op, exc)) from exc
        if raw is None:
            self.close()
            raise DaemonError("daemon closed the connection mid-request")
        try:
            reply_op, reply_meta, reply_entries = parse_frame(raw)
        except DaemonProtocolError as exc:
            self.close()
            raise DaemonError("daemon reply malformed: %s" % exc) from exc
        self.rpcs += 1
        if reply_op == "error":
            self.close()
            raise DaemonError(
                "daemon error: %s" % reply_meta.get("reason", "unknown")
            )
        return reply_op, reply_meta, reply_entries

    def ping(self) -> Dict[str, object]:
        _op, meta, _entries = self.request("ping")
        return meta

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None


class DaemonBackedStore:
    """A shared body store served by the per-host daemon.

    Drop-in for :class:`SharedBodyStore` behind the sidecar seam.  The
    wrapped file store on the same directory is both the fallback
    transport and the carrier of file-level concerns that never go over
    the socket (``register_database``, ``gc``, ``fsck``,
    ``total_bytes`` — gc marking and fsck verification are offline
    maintenance of the source of truth, not session traffic).

    Counters surfaced to session reports: ``transport``
    (``"daemon"``/``"file"``), ``daemon_rpcs``, ``daemon_fallbacks``.
    """

    def __init__(
        self,
        directory: str,
        vm_version: str,
        socket_spec: Optional[str] = None,
        timeout_s: Optional[float] = None,
        storage=None,
        max_bytes: Optional[int] = None,
        clock=time.time,
        publish_min_cost_us: Optional[int] = None,
    ):
        self.inner = SharedBodyStore(
            directory,
            vm_version=vm_version,
            storage=storage,
            max_bytes=max_bytes,
            clock=clock,
            publish_min_cost_us=publish_min_cost_us,
        )
        self.directory = directory
        self.vm_version = vm_version
        self.host_tag = self.inner.host_tag
        self.publish_min_cost_us = self.inner.publish_min_cost_us
        self.events = self.inner.events
        self.address = socket_spec or default_socket_path(directory)
        self._client = DaemonClient(
            self.address,
            vm_version=vm_version,
            host_tag=self.host_tag,
            timeout_s=timeout_s,
        )
        #: prefix → {digest: blob}: shard prefixes already fetched from
        #: the daemon; a hit here costs one dict probe, no syscall.
        self._prefix_cache: Dict[str, Dict[str, bytes]] = {}
        self.daemon_fallbacks = 0
        #: "daemon" while the socket serves us, "file" after degrading.
        self.transport = "file"
        try:
            self._client.ping()
            self.transport = "daemon"
        except DaemonError:
            self._degrade()

    @property
    def daemon_rpcs(self) -> int:
        return self._client.rpcs

    def _degrade(self) -> None:
        """Flip to the file transport for the rest of the session.

        Silent by design: a session must behave identically (minus
        latency) whether the daemon died before it started or halfway
        through — the flock store always has the published truth, plus
        at most an unflushed tail this session simply recompiles.
        """
        if self.transport == "daemon":
            self.daemon_fallbacks += 1
        self.transport = "file"
        self._prefix_cache.clear()
        self._client.close()

    # -- store surface -------------------------------------------------------

    def lookup(self, digest: str) -> Optional[bytes]:
        if self.transport != "daemon":
            return self.inner.lookup(digest)
        prefix = shard_prefix(digest)
        cached = self._prefix_cache.get(prefix)
        if cached is not None and digest in cached:
            return cached[digest]
        try:
            _op, _meta, entries = self._client.request(
                "lookup", {"prefix": prefix, "digests": [digest]}
            )
        except DaemonError:
            self._degrade()
            return self.inner.lookup(digest)
        shard = self._prefix_cache.setdefault(prefix, {})
        for found, record in entries.items():
            shard[found] = record[0]
        return shard.get(digest)

    def __contains__(self, digest: str) -> bool:
        return self.lookup(digest) is not None

    def publish(
        self,
        blobs: Dict[str, bytes],
        touch: Iterable[str] = (),
        costs: Optional[Dict[str, int]] = None,
    ) -> PublishResult:
        if self.transport != "daemon":
            return self.inner.publish(blobs, touch=touch, costs=costs)
        costs = costs or {}
        entries = {
            digest: (blob, 0, int(costs.get(digest, 0)))
            for digest, blob in blobs.items()
        }
        try:
            _op, meta, _entries = self._client.request(
                "publish", {"touch": sorted(touch)}, entries
            )
        except DaemonError:
            self._degrade()
            return self.inner.publish(blobs, touch=touch, costs=costs)
        result = PublishResult(
            published=int(meta.get("published", 0)),
            refreshed=int(meta.get("refreshed", 0)),
            evicted=int(meta.get("evicted", 0)),
            shards_written=0,
            admission_skipped=int(meta.get("admission_skipped", 0)),
        )
        # Keep already-fetched shards coherent with what we just
        # published; unfetched prefixes stay unfetched (they would be
        # filled by the daemon on first lookup anyway).
        for digest, blob in blobs.items():
            cached = self._prefix_cache.get(shard_prefix(digest))
            if cached is not None:
                cached[digest] = blob
        return result

    def register_database(self, db_directory: str) -> None:
        """Always file-level: the registry is gc's mark-root list and
        must survive the daemon (and be visible without one)."""
        self.inner.register_database(db_directory)

    def registered_databases(self):
        return self.inner.registered_databases()

    def gc(self, max_bytes: Optional[int] = None):
        return self.inner.gc(max_bytes)

    def fsck(self, quarantine: bool = False):
        return self.inner.fsck(quarantine=quarantine)

    def total_bytes(self) -> int:
        return self.inner.total_bytes()

    def total_entries(self) -> int:
        return self.inner.total_entries()

    # -- daemon control ------------------------------------------------------

    def ping(self) -> Optional[Dict[str, object]]:
        """Daemon health/stats meta, or None when unreachable (this
        does not degrade the store — it is a pure probe)."""
        try:
            return self._client.ping()
        except DaemonError:
            return None

    def flush_daemon(self) -> bool:
        """Ask the daemon to write its dirty tail back now."""
        try:
            self._client.request("flush")
            return True
        except DaemonError:
            return False

    def close(self) -> None:
        self._client.close()


# -- attach-point resolution --------------------------------------------------


def resolve_shared_store(
    spec: str,
    vm_version: str,
    timeout_s: Optional[float] = None,
    **store_kwargs,
):
    """Build the right store for a ``--shared-store`` spec.

    * ``daemon://DIR`` → :class:`DaemonBackedStore` on ``DIR``; the
      socket is ``$REPRO_CACHE_DAEMON`` when that names an address, else
      the conventional ``DIR/daemon.sock``.
    * plain ``DIR`` with ``REPRO_CACHE_DAEMON`` set (non-empty) → the
      same daemon transport, so a fleet can be switched over by
      environment alone, no per-session flag changes.
    * plain ``DIR`` otherwise → a plain :class:`SharedBodyStore`.

    Either way the store works with no daemon listening — the daemon
    transport degrades to the wrapped file store at construction.
    """
    env = os.environ.get(DAEMON_ENV, "")
    directory = shared_store_directory(spec)
    if spec.startswith(DAEMON_SCHEME) or env:
        return DaemonBackedStore(
            directory,
            vm_version,
            socket_spec=_env_socket(env),
            timeout_s=timeout_s,
            **store_kwargs,
        )
    return SharedBodyStore(directory, vm_version=vm_version, **store_kwargs)


def shared_store_directory(spec: str) -> str:
    """The store directory a ``--shared-store`` spec names."""
    if spec.startswith(DAEMON_SCHEME):
        return spec[len(DAEMON_SCHEME):] or "."
    return spec


def _env_socket(env: str) -> Optional[str]:
    """An explicit socket address from the env knob, or None for the
    conventional in-store path ("1"/"auto" mean "on, default socket")."""
    if env and env not in ("1", "auto"):
        return env
    return None
