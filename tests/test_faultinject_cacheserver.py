"""Fault injection for the cache-server daemon transport.

The daemon's whole safety argument: the flock store is the source of
truth, the socket is an accelerator, and *any* transport failure — the
daemon killed -9 mid-publish, a torn or garbage frame, a hung peer —
must degrade the client silently to the file path.  A live run is
never corrupted, never even perturbed, and ``cache fsck`` stays clean
after every fault (the daemon only ever writes through the store's
lock → merge → atomic-rename publish protocol).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import socket
import threading
import time

import pytest

from repro.persist.cacheserver import (
    FRAME_MAGIC,
    FRAME_PREAMBLE,
    CacheServer,
    DaemonProtocolError,
    default_socket_path,
    pack_frame,
    parse_frame,
    read_frame,
)
from repro.persist.daemon import (
    DaemonBackedStore,
    DaemonClient,
    DaemonError,
)
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.sharedstore import SharedBodyStore
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VM_VERSION, VMConfig
from repro.workloads.harness import run_vm

from tests.test_persist_manager import mini_workload

pytestmark = pytest.mark.faultinject


def digest_for(i: int) -> str:
    return "%02x%062x" % (i % 8, i)


def blob_for(i: int) -> bytes:
    return b"fault-body-%d" % i


def assert_fsck_clean(store_dir: str) -> None:
    report = SharedBodyStore(store_dir, vm_version=VM_VERSION).fsck()
    assert report.clean, [
        (i.filename, i.status, i.detail) for i in report.items
    ]


# -- a real daemon process to kill -------------------------------------------


def _serve_forever(store_dir: str) -> None:
    CacheServer(store_dir, vm_version=VM_VERSION,
                flush_interval_s=0.05).serve_forever()


def start_daemon_process(store_dir: str):
    context = multiprocessing.get_context("fork")
    process = context.Process(target=_serve_forever, args=(store_dir,),
                              daemon=True)
    process.start()
    address = default_socket_path(store_dir)
    deadline = time.monotonic() + 15.0
    while time.monotonic() < deadline:
        probe = DaemonClient(address, vm_version=VM_VERSION, timeout_s=0.5)
        try:
            probe.ping()
            return process
        except DaemonError:
            time.sleep(0.05)
        finally:
            probe.close()
    process.terminate()
    raise AssertionError("daemon process never came up at %s" % address)


class TestKillNine:
    def test_kill9_mid_publish_degrades_silently(self, tmp_path):
        """SIGKILL at an arbitrary point of a publish stream: the
        client flips to the file transport without surfacing anything,
        every post-kill publish lands on disk, and no shard is ever
        damaged (the unflushed pre-kill tail is lost, not torn)."""
        store_dir = str(tmp_path / "store")
        SharedBodyStore(store_dir, vm_version=VM_VERSION).publish(
            {digest_for(0): blob_for(0)}
        )
        process = start_daemon_process(store_dir)
        store = DaemonBackedStore(store_dir, VM_VERSION, timeout_s=1.0)
        assert store.transport == "daemon"
        killed_at = None
        for i in range(1, 40):
            if i == 17:
                os.kill(process.pid, signal.SIGKILL)
                process.join(timeout=10)
                killed_at = i
            # No publish may raise: before the kill they go over the
            # socket, after it the client degrades mid-stream.
            store.publish({digest_for(i): blob_for(i)},
                          costs={digest_for(i): 10})
        assert killed_at is not None
        assert store.transport == "file"
        assert store.daemon_fallbacks == 1
        fresh = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        # Everything the file transport wrote is durable; the daemon's
        # unflushed tail may be gone but nothing may be corrupt.
        for i in range(killed_at + 1, 40):
            assert fresh.lookup(digest_for(i)) == blob_for(i)
        assert fresh.lookup(digest_for(0)) == blob_for(0)
        assert_fsck_clean(store_dir)

    def test_sessions_fall_back_after_daemon_death(self, tmp_path):
        """A fleet session started after the daemon died behaves
        exactly like a file-backed session: same observables, zero
        host compiles against the warm pool, clean fsck."""
        store_dir = str(tmp_path / "store")
        workload = mini_workload()
        shared = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        clear_code_object_cache()
        run_vm(workload, "ab",
               persistence=PersistenceConfig(
                   database=CacheDatabase(str(tmp_path / "donor")),
                   shared_store=shared,
               ),
               vm_config=VMConfig(dispatch_mode="compiled",
                                  compile_threshold=1))
        process = start_daemon_process(store_dir)
        os.kill(process.pid, signal.SIGKILL)
        process.join(timeout=10)

        def consumer(tag, attached):
            clear_code_object_cache()
            return run_vm(
                workload, "ab",
                persistence=PersistenceConfig(
                    database=CacheDatabase(str(tmp_path / tag)),
                    readonly=True,
                    shared_store=attached,
                ),
                vm_config=VMConfig(dispatch_mode="compiled",
                                   compile_threshold=1),
            )

        via_daemon_spec = consumer(
            "consumer-daemon", DaemonBackedStore(store_dir, VM_VERSION,
                                                 timeout_s=0.5)
        )
        via_file = consumer(
            "consumer-file", SharedBodyStore(store_dir,
                                             vm_version=VM_VERSION)
        )
        assert via_daemon_spec.output == via_file.output
        assert via_daemon_spec.exit_status == via_file.exit_status
        assert (vars(via_daemon_spec.stats) == vars(via_file.stats))
        report = via_daemon_spec.persistence_report
        assert report["shared_transport"] == "file"
        assert report["sidecar_host_compiles"] == 0
        assert report["shared_hits"] > 0
        assert_fsck_clean(store_dir)


class TestGarbageOverTheSocket:
    """A daemon must survive any byte stream a client throws at it."""

    @pytest.fixture
    def live_server(self, tmp_path):
        store_dir = str(tmp_path / "store")
        SharedBodyStore(store_dir, vm_version=VM_VERSION).publish(
            {digest_for(1): blob_for(1)}
        )
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        server.start()
        yield server, store_dir
        server.stop()

    def _raw(self, store_dir: str) -> socket.socket:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        sock.settimeout(2.0)
        sock.connect(default_socket_path(store_dir))
        return sock

    def _assert_still_serving(self, store_dir: str) -> None:
        client = DaemonClient(default_socket_path(store_dir),
                              vm_version=VM_VERSION, timeout_s=2.0)
        try:
            assert client.ping()["entries"] >= 1
        finally:
            client.close()

    def test_garbage_magic_answers_error_and_daemon_survives(
        self, live_server
    ):
        server, store_dir = live_server
        sock = self._raw(store_dir)
        sock.sendall(b"NOTPCSD-garbage-garbage-garbage!")
        # The daemon answers with a well-formed error frame, then tears
        # the connection down (no resync over a CRC-framed stream).
        op, meta, _ = parse_frame(read_frame(sock))
        assert op == "error"
        assert "bad-frame" in meta["reason"]
        # The connection is torn down after the error frame (EOF, or a
        # reset when our unread garbage was still buffered server-side).
        try:
            assert read_frame(sock) is None
        except OSError:
            pass
        sock.close()
        assert server.stats.bad_frames >= 1
        self._assert_still_serving(store_dir)

    def test_truncated_frame_is_survived(self, live_server):
        server, store_dir = live_server
        frame = pack_frame("ping", {"vm": VM_VERSION})
        sock = self._raw(store_dir)
        sock.sendall(frame[: len(frame) // 2])
        sock.close()  # connection dies mid-frame
        self._assert_still_serving(store_dir)

    def test_oversized_length_is_rejected_before_allocation(
        self, live_server
    ):
        server, store_dir = live_server
        preamble = FRAME_PREAMBLE.pack(FRAME_MAGIC, 1, 0,
                                       1 << 31, 0xDEADBEEF)
        sock = self._raw(store_dir)
        sock.sendall(preamble)
        reply = sock.recv(1 << 16)
        sock.close()
        assert reply == b"" or b"bad-frame" in reply
        self._assert_still_serving(store_dir)

    def test_corrupt_payload_crc_is_rejected(self, live_server):
        server, store_dir = live_server
        frame = bytearray(pack_frame("ping", {"vm": VM_VERSION}))
        frame[-1] ^= 0xFF  # flip one payload byte; CRC now lies
        sock = self._raw(store_dir)
        sock.sendall(bytes(frame))
        op, meta, _ = parse_frame(read_frame(sock))
        assert op == "error"
        assert "checksum" in meta["reason"]
        sock.close()
        assert server.stats.bad_frames >= 1
        self._assert_still_serving(store_dir)


# -- misbehaving servers the client must survive ------------------------------


class FakeServer:
    """A unix-socket peer with a scripted (mis)behavior per request."""

    def __init__(self, path: str, behaviors):
        self.path = path
        self.behaviors = list(behaviors)
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.bind(path)
        self.sock.listen(8)
        self.sock.settimeout(0.2)
        self._stop = threading.Event()
        self._served = 0
        self.thread = threading.Thread(target=self._loop, daemon=True)
        self.thread.start()

    def _loop(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.sock.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            try:
                self._serve(conn)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    def _serve(self, conn):
        conn.settimeout(5.0)
        while not self._stop.is_set():
            try:
                raw = read_frame(conn)
            except (DaemonProtocolError, OSError):
                return
            if raw is None:
                return
            behavior = (self.behaviors[self._served]
                        if self._served < len(self.behaviors)
                        else self.behaviors[-1])
            self._served += 1
            if behavior == "pong":
                conn.sendall(pack_frame("pong", {"entries": 0}))
            elif behavior == "half-frame":
                conn.sendall(pack_frame("pong", {})[:10])
                return
            elif behavior == "garbage":
                conn.sendall(b"\x00" * 64)
                return
            elif behavior == "hang":
                self._stop.wait(30.0)
                return

    def close(self):
        self._stop.set()
        self.thread.join(timeout=5)
        try:
            self.sock.close()
        finally:
            if os.path.exists(self.path):
                os.unlink(self.path)


class TestClientAgainstMisbehavior:
    def seed(self, tmp_path):
        store_dir = str(tmp_path / "store")
        SharedBodyStore(store_dir, vm_version=VM_VERSION).publish(
            {digest_for(1): blob_for(1)}
        )
        return store_dir

    def test_hung_daemon_times_out_into_fallback(self, tmp_path):
        store_dir = self.seed(tmp_path)
        fake = FakeServer(default_socket_path(store_dir), ["hang"])
        try:
            start = time.monotonic()
            store = DaemonBackedStore(store_dir, VM_VERSION,
                                      timeout_s=0.2)
            elapsed = time.monotonic() - start
            assert store.transport == "file"
            assert elapsed < 5.0  # bounded by the timeout, not the hang
            assert store.lookup(digest_for(1)) == blob_for(1)
        finally:
            fake.close()

    def test_half_frame_reply_degrades_mid_session(self, tmp_path):
        store_dir = self.seed(tmp_path)
        fake = FakeServer(default_socket_path(store_dir),
                          ["pong", "half-frame"])
        try:
            store = DaemonBackedStore(store_dir, VM_VERSION,
                                      timeout_s=1.0)
            assert store.transport == "daemon"  # the pong fooled it
            # The torn reply must surface as a clean miss→fallback,
            # not an exception: the lookup is answered by the files.
            assert store.lookup(digest_for(1)) == blob_for(1)
            assert store.transport == "file"
            assert store.daemon_fallbacks == 1
        finally:
            fake.close()

    def test_garbage_reply_degrades_mid_session(self, tmp_path):
        store_dir = self.seed(tmp_path)
        fake = FakeServer(default_socket_path(store_dir),
                          ["pong", "garbage"])
        try:
            store = DaemonBackedStore(store_dir, VM_VERSION,
                                      timeout_s=1.0)
            assert store.transport == "daemon"
            result = store.publish({digest_for(2): blob_for(2)},
                                   costs={digest_for(2): 10})
            assert result.published == 1  # served by the file fallback
            assert store.transport == "file"
            fresh = SharedBodyStore(store_dir, vm_version=VM_VERSION)
            assert fresh.lookup(digest_for(2)) == blob_for(2)
        finally:
            fake.close()
        assert_fsck_clean(store_dir)

    def test_error_reply_is_daemon_error_for_the_raw_client(
        self, tmp_path
    ):
        store_dir = self.seed(tmp_path)
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        server.start()
        try:
            client = DaemonClient(default_socket_path(store_dir),
                                  vm_version="other-vm", timeout_s=1.0)
            with pytest.raises(DaemonError, match="key-mismatch"):
                client.request("lookup", {"digests": [digest_for(1)]})
            client.close()
        finally:
            server.stop()
        assert_fsck_clean(store_dir)

    def test_no_socket_at_all_is_the_quiet_path(self, tmp_path):
        store_dir = self.seed(tmp_path)
        store = DaemonBackedStore(store_dir, VM_VERSION, timeout_s=0.2)
        assert store.transport == "file"
        assert store.daemon_fallbacks == 0  # never had a daemon to lose
        assert store.lookup(digest_for(1)) == blob_for(1)
        assert store.publish({digest_for(3): blob_for(3)},
                             costs={digest_for(3): 10}).published == 1
        assert_fsck_clean(store_dir)
