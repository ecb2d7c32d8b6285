"""Differential suite for the per-host cache-server daemon.

The daemon must be a *drop-in* for the flock-backed shared store: a
session cannot tell which transport served it — not in its observable
run (output, exit status, ``VMStats``), not in its persistence report
(minus the transport counters themselves).  And the PR 4 acceptance
invariant — a never-warmed database attached to a warm pool does zero
host compiles — must now hold over the socket.
"""

from __future__ import annotations

import os

import pytest

from repro.persist.cacheserver import (
    CacheServer,
    default_socket_path,
    pack_frame,
    parse_frame,
)
from repro.persist.daemon import (
    DaemonBackedStore,
    DaemonClient,
    DaemonError,
    resolve_shared_store,
)
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.sharedstore import SharedBodyStore
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VM_VERSION, VMConfig
from repro.workloads.harness import run_vm

from tests.test_persist_manager import mini_workload

#: Report keys that name the transport itself; everything else must be
#: equal between a daemon-backed and a file-backed session.
TRANSPORT_KEYS = {"shared_transport", "daemon_rpcs", "daemon_fallbacks"}


def digest_for(i: int) -> str:
    return "%02x%062x" % (i % 8, i)


def blob_for(i: int) -> bytes:
    return b"body-%d" % i


class FakeClock:
    def __init__(self, now: int = 1_000):
        self.now = now

    def __call__(self) -> float:
        return float(self.now)


def run_session(workload, input_name, db_dir, shared=None, readonly=False):
    """One compiled-tier session with a cleared in-process memo, so
    every revive must come from a store (or be recompiled)."""
    clear_code_object_cache()
    return run_vm(
        workload,
        input_name,
        persistence=PersistenceConfig(
            database=CacheDatabase(db_dir),
            readonly=readonly,
            shared_store=shared,
        ),
        vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
    )


def observable(result) -> tuple:
    return (
        result.output,
        result.exit_status,
        result.instructions,
        vars(result.stats),
    )


def warm_store(store_dir: str, tmp_path, tag: str) -> None:
    """Donor run: publish every compiled body of the corpus to
    ``store_dir`` through the flock path (the source of truth)."""
    workload = mini_workload()
    shared = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    donor_db = str(tmp_path / ("donor-" + tag))
    for input_name in sorted(workload.inputs):
        run_session(workload, input_name, donor_db, shared=shared)


@pytest.fixture
def warm_server(tmp_path):
    store_dir = str(tmp_path / "store")
    warm_store(store_dir, tmp_path, "srv")
    server = CacheServer(store_dir, vm_version=VM_VERSION)
    server.start()
    yield server, store_dir
    server.stop()


class TestDifferential:
    def test_daemon_file_and_nostore_sessions_identical(
        self, warm_server, tmp_path
    ):
        """The transport (or its absence) never changes one observable."""
        server, store_dir = warm_server
        workload = mini_workload()
        observables = {}
        for mode in ("nostore", "file", "daemon"):
            runs = []
            for input_name in sorted(workload.inputs):
                if mode == "nostore":
                    shared = None
                elif mode == "file":
                    shared = SharedBodyStore(store_dir,
                                             vm_version=VM_VERSION)
                else:
                    shared = DaemonBackedStore(store_dir, VM_VERSION)
                    assert shared.transport == "daemon"
                result = run_session(
                    workload, input_name,
                    str(tmp_path / ("db-%s-%s" % (mode, input_name))),
                    shared=shared, readonly=True,
                )
                runs.append(observable(result))
            observables[mode] = runs
        assert observables["daemon"] == observables["file"]
        assert observables["daemon"] == observables["nostore"]

    def test_reports_identical_modulo_transport_fields(self, tmp_path):
        """Field-for-field report parity: publish counts, hit counts,
        refresh counts — the daemon replicates the flock store's exact
        accounting, on the donor (cold, publishing) side as well as the
        consumer (warm, reviving) side."""
        workload = mini_workload()
        reports = {}
        for mode in ("file", "daemon"):
            store_dir = str(tmp_path / ("store-" + mode))
            # Stamps are whole seconds, and a touch refreshes only a
            # stamp from an earlier second: every session gets its own
            # second on both transports, so refresh counts cannot
            # depend on where the wall clock's second boundaries fall.
            clock = FakeClock()
            server = None
            if mode == "daemon":
                server = CacheServer(store_dir, vm_version=VM_VERSION,
                                     clock=clock)
                server.start()
            try:
                def attach():
                    clock.now += 1
                    if mode == "daemon":
                        store = DaemonBackedStore(store_dir, VM_VERSION)
                        assert store.transport == "daemon"
                        return store
                    return SharedBodyStore(store_dir,
                                           vm_version=VM_VERSION,
                                           clock=clock)

                runs = []
                donor_db = str(tmp_path / ("donor-" + mode))
                for input_name in sorted(workload.inputs):
                    runs.append(run_session(
                        workload, input_name, donor_db, shared=attach()
                    ).persistence_report)
                for input_name in sorted(workload.inputs):
                    runs.append(run_session(
                        workload, input_name,
                        str(tmp_path / ("consumer-%s-%s"
                                        % (mode, input_name))),
                        shared=attach(), readonly=True,
                    ).persistence_report)
                reports[mode] = runs
            finally:
                if server is not None:
                    server.stop()
        for file_report, daemon_report in zip(reports["file"],
                                              reports["daemon"]):
            stripped_file = {k: v for k, v in file_report.items()
                             if k not in TRANSPORT_KEYS}
            stripped_daemon = {k: v for k, v in daemon_report.items()
                               if k not in TRANSPORT_KEYS}
            assert stripped_file == stripped_daemon
        assert all(r["shared_transport"] == "daemon"
                   for r in reports["daemon"])
        assert all(r["daemon_fallbacks"] == 0 for r in reports["daemon"])

    def test_never_warmed_db_zero_compiles_over_socket(
        self, warm_server, tmp_path
    ):
        """The PR 4 invariant over the socket: an empty database
        attached to a warm daemon revives everything and compiles
        nothing — and the isolated control actually pays compiles, so
        zero is meaningful."""
        _server, store_dir = warm_server
        workload = mini_workload()
        isolated_compiles = warm_compiles = 0
        shared_hits = rpcs = 0
        for input_name in sorted(workload.inputs):
            control = run_session(
                workload, input_name,
                str(tmp_path / ("isolated-" + input_name)), readonly=True,
            ).persistence_report
            isolated_compiles += control["sidecar_host_compiles"]
            store = DaemonBackedStore(store_dir, VM_VERSION)
            report = run_session(
                workload, input_name,
                str(tmp_path / ("warm-" + input_name)),
                shared=store, readonly=True,
            ).persistence_report
            warm_compiles += report["sidecar_host_compiles"]
            shared_hits += report["shared_hits"]
            rpcs += report["daemon_rpcs"]
            assert report["shared_transport"] == "daemon"
        assert isolated_compiles > 0
        assert warm_compiles == 0
        assert shared_hits > 0
        assert rpcs > 0


class TestServerSemantics:
    def test_hot_index_loads_existing_shards(self, tmp_path):
        store_dir = str(tmp_path / "store")
        store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        store.publish({digest_for(i): blob_for(i) for i in range(20)})
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        hot = server.hot_entries()
        assert len(hot) == 20
        assert hot[digest_for(3)][0] == blob_for(3)

    def test_lookup_heals_from_disk_behind_daemons_back(self, tmp_path):
        """A body published straight to the files while the daemon runs
        (a mixed fleet) is adopted on first socket miss."""
        store_dir = str(tmp_path / "store")
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        SharedBodyStore(store_dir, vm_version=VM_VERSION).publish(
            {digest_for(1): blob_for(1)}
        )
        assert digest_for(1) not in server.hot_entries()
        reply = server.handle_frame(pack_frame(
            "lookup", {"digests": [digest_for(1)]}
        ))
        op, meta, entries = parse_frame(reply)
        assert op == "bodies"
        assert entries[digest_for(1)][0] == blob_for(1)
        assert digest_for(1) in server.hot_entries()

    def test_touch_over_socket_refreshes_disk_stamp(self, tmp_path):
        """The read-only session's LRU signal survives the transport:
        touch → hot-index stamp now → write-back refreshes the shard."""
        clock = FakeClock(1_000)
        store_dir = str(tmp_path / "store")
        seed = SharedBodyStore(store_dir, vm_version=VM_VERSION,
                               clock=clock)
        seed.publish({digest_for(1): blob_for(1)})
        server = CacheServer(store_dir, vm_version=VM_VERSION, clock=clock)
        clock.now = 2_000
        op, meta, _ = parse_frame(server.handle_frame(pack_frame(
            "publish", {"touch": [digest_for(1)]}
        )))
        assert op == "published"
        assert meta["refreshed"] == 1
        assert server.flush() is not None
        fresh = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        entries = dict(fresh.iter_entries())
        assert entries[digest_for(1)][1] == 2_000

    def test_touch_of_absent_digest_is_noop(self, tmp_path):
        server = CacheServer(str(tmp_path / "store"),
                             vm_version=VM_VERSION)
        op, meta, _ = parse_frame(server.handle_frame(pack_frame(
            "publish", {"touch": [digest_for(9)]}
        )))
        assert op == "published"
        assert meta["refreshed"] == 0
        assert server.dirty_count() == 0

    def test_key_mismatch_answers_error_and_client_degrades(
        self, tmp_path
    ):
        store_dir = str(tmp_path / "store")
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        server.start()
        try:
            op, meta, _ = parse_frame(server.handle_frame(pack_frame(
                "lookup", {"vm": "other-vm", "digests": [digest_for(1)]}
            )))
            assert op == "error"
            assert meta["reason"] == "key-mismatch"
            # A client keyed differently silently lands on its own
            # file pool (which addresses its own keytag).
            store = DaemonBackedStore(store_dir, "other-vm")
            assert store.transport == "file"
        finally:
            server.stop()

    def test_unsupported_op_answers_error(self, tmp_path):
        server = CacheServer(str(tmp_path / "store"),
                             vm_version=VM_VERSION)
        op, meta, _ = parse_frame(server.handle_frame(pack_frame("quux")))
        assert op == "error"
        assert "unsupported-op" in meta["reason"]

    def test_flush_failure_keeps_dirty_tail(self, tmp_path, monkeypatch):
        server = CacheServer(str(tmp_path / "store"),
                             vm_version=VM_VERSION)
        server.handle_frame(pack_frame(
            "publish", {}, {digest_for(1): (blob_for(1), 0, 10)}
        ))
        assert server.dirty_count() == 1

        def broken_publish(*args, **kwargs):
            raise OSError("disk on fire")

        monkeypatch.setattr(server.store, "publish", broken_publish)
        assert server.flush() is None
        assert server.dirty_count() == 1
        assert server.stats.flush_errors == 1
        monkeypatch.undo()
        result = server.flush()
        assert result is not None and result.published == 1
        assert server.dirty_count() == 0


class TestCostAwareEviction:
    def make_server(self, tmp_path, max_bytes, clock):
        return CacheServer(str(tmp_path / "store"), vm_version=VM_VERSION,
                           max_bytes=max_bytes, clock=clock)

    def publish(self, server, digest, blob, cost):
        server.handle_frame(pack_frame(
            "publish", {}, {digest: (blob, 0, cost)}
        ))

    def test_cheapest_recompile_evicted_first(self, tmp_path):
        clock = FakeClock()
        server = self.make_server(tmp_path, max_bytes=20, clock=clock)
        cheap, pricey, mid = digest_for(1), digest_for(2), digest_for(3)
        self.publish(server, cheap, b"X" * 10, 5)
        self.publish(server, pricey, b"Y" * 10, 100)
        self.publish(server, mid, b"Z" * 10, 50)
        hot = server.hot_entries()
        assert cheap not in hot
        assert pricey in hot and mid in hot
        assert server.stats.evicted == 1

    def test_stamp_breaks_cost_ties(self, tmp_path):
        clock = FakeClock(1_000)
        server = self.make_server(tmp_path, max_bytes=20, clock=clock)
        old, new = digest_for(1), digest_for(2)
        self.publish(server, old, b"A" * 10, 50)
        clock.now = 2_000
        self.publish(server, new, b"B" * 10, 50)
        self.publish(server, digest_for(3), b"C" * 10, 999)
        hot = server.hot_entries()
        assert old not in hot
        assert new in hot

    def test_evicted_dirty_body_never_hits_disk(self, tmp_path):
        clock = FakeClock()
        server = self.make_server(tmp_path, max_bytes=10, clock=clock)
        victim, keeper = digest_for(1), digest_for(2)
        self.publish(server, victim, b"V" * 10, 5)
        self.publish(server, keeper, b"K" * 10, 500)
        assert victim not in server.hot_entries()
        server.flush()
        fresh = SharedBodyStore(str(tmp_path / "store"),
                                vm_version=VM_VERSION)
        assert fresh.lookup(victim) is None
        assert fresh.lookup(keeper) == b"K" * 10

    def test_body_healed_from_disk_respects_the_cap(self, tmp_path):
        """A lookup miss that adopts a body from the shard files must
        not leave the hot index over its cap."""
        server = self.make_server(tmp_path, max_bytes=20, clock=FakeClock())
        SharedBodyStore(str(tmp_path / "store"), vm_version=VM_VERSION
                        ).publish({digest_for(1): b"D" * 10})
        self.publish(server, digest_for(2), b"P" * 10, 50)
        self.publish(server, digest_for(3), b"Q" * 10, 60)
        _op, _meta, entries = parse_frame(server.handle_frame(pack_frame(
            "lookup", {"digests": [digest_for(1)]}
        )))
        assert entries[digest_for(1)][0] == b"D" * 10
        hot = server.hot_entries()
        assert sum(len(record[0]) for record in hot.values()) <= 20


class TestAdmissionParity:
    def test_daemon_applies_the_same_cost_floor(self, tmp_path):
        store_dir = str(tmp_path / "store")
        server = CacheServer(store_dir, vm_version=VM_VERSION,
                             publish_min_cost_us=100)
        op, meta, _ = parse_frame(server.handle_frame(pack_frame(
            "publish", {},
            {digest_for(1): (blob_for(1), 0, 50),
             digest_for(2): (blob_for(2), 0, 150)},
        )))
        assert meta["published"] == 1
        assert meta["admission_skipped"] == 1
        file_result = SharedBodyStore(
            str(tmp_path / "file-store"), vm_version=VM_VERSION,
            publish_min_cost_us=100,
        ).publish(
            {digest_for(1): blob_for(1), digest_for(2): blob_for(2)},
            costs={digest_for(1): 50, digest_for(2): 150},
        )
        assert file_result.published == meta["published"]
        assert file_result.admission_skipped == meta["admission_skipped"]


class TestResolveAndAttach:
    def test_plain_directory_is_file_backed(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE_DAEMON", raising=False)
        store = resolve_shared_store(str(tmp_path / "s"), VM_VERSION)
        assert isinstance(store, SharedBodyStore)

    def test_daemon_scheme_selects_the_daemon_transport(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_CACHE_DAEMON", raising=False)
        store = resolve_shared_store(
            "daemon://" + str(tmp_path / "s"), VM_VERSION
        )
        assert isinstance(store, DaemonBackedStore)
        assert store.transport == "file"  # nobody listening: fallback
        assert store.address == default_socket_path(str(tmp_path / "s"))

    def test_env_knob_opts_plain_directories_in(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DAEMON", "1")
        store = resolve_shared_store(str(tmp_path / "s"), VM_VERSION)
        assert isinstance(store, DaemonBackedStore)
        assert store.address == default_socket_path(str(tmp_path / "s"))

    def test_env_knob_names_an_explicit_socket(self, tmp_path, monkeypatch):
        socket_path = str(tmp_path / "elsewhere.sock")
        monkeypatch.setenv("REPRO_CACHE_DAEMON", socket_path)
        store = resolve_shared_store(str(tmp_path / "s"), VM_VERSION)
        assert isinstance(store, DaemonBackedStore)
        assert store.address == socket_path

    def test_register_database_is_always_file_level(self, tmp_path):
        store_dir = str(tmp_path / "store")
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        server.start()
        try:
            store = DaemonBackedStore(store_dir, VM_VERSION)
            store.register_database(str(tmp_path / "db"))
        finally:
            server.stop()
        fresh = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        assert str(tmp_path / "db") in fresh.registered_databases()

    def test_second_daemon_refuses_the_socket(self, tmp_path):
        store_dir = str(tmp_path / "store")
        first = CacheServer(store_dir, vm_version=VM_VERSION)
        first.start()
        try:
            second = CacheServer(store_dir, vm_version=VM_VERSION)
            with pytest.raises(OSError, match="already serving"):
                second.start()
        finally:
            first.stop()

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        store_dir = str(tmp_path / "store")
        os.makedirs(store_dir)
        # A dead daemon's leftover socket file: nobody accepts on it.
        import socket as socket_module

        leftover = socket_module.socket(socket_module.AF_UNIX,
                                        socket_module.SOCK_STREAM)
        leftover.bind(default_socket_path(store_dir))
        leftover.close()
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        server.start()
        try:
            client = DaemonClient(default_socket_path(store_dir),
                                  vm_version=VM_VERSION)
            assert client.ping()["pid"] == os.getpid()
            client.close()
        finally:
            server.stop()


class TestServeCLI:
    def test_detach_status_stop_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        store_dir = str(tmp_path / "store")
        SharedBodyStore(store_dir, vm_version=VM_VERSION).publish(
            {digest_for(i): blob_for(i) for i in range(4)}
        )
        assert main(["cache", "serve", store_dir, "--detach"]) == 0
        try:
            assert main(["cache", "serve", store_dir, "--status"]) == 0
            out = capsys.readouterr().out
            assert "4 entries" in out
            # A session attaches through the conventional socket.
            store = DaemonBackedStore(store_dir, VM_VERSION)
            assert store.transport == "daemon"
            assert store.lookup(digest_for(2)) == blob_for(2)
            store.close()
        finally:
            assert main(["cache", "serve", store_dir, "--stop"]) == 0
        assert main(["cache", "serve", store_dir, "--status"]) == 1
        assert main(["cache", "fsck", store_dir]) == 0
