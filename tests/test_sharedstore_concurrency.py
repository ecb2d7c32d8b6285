"""Multi-process stress tests for the shared compiled-body store.

The shared store's whole reason to exist is concurrent use by unrelated
processes, so these tests exercise the real protocol with real
processes: N writers publishing overlapping digest sets, M readers
polling lookups, and a concurrent gc loop — all against one store
directory.  The invariants checked are exactly the ones the locking
design promises:

* **no torn reads** — a reader sees either the exact published bytes
  for a digest or a clean miss, never garbage (content addressing makes
  "exact bytes" checkable: the blob is a pure function of the digest);
* **no lost publishes** — after every writer joins, every digest any
  writer published is present (per-shard lock → re-read → merge means
  concurrent writers cannot overwrite each other's entries);
* **gc is safe under load** — a sweeper running concurrently with
  writers and readers never corrupts a shard and never evicts a
  referenced body;
* **end-to-end equivalence** — concurrent sessions sharing one store
  produce bit-identical ``VMRunResult`` observables to the
  single-process private-sidecar path;
* **one database, many writers** — processes running different apps
  write back one database and one store at once (index, sidecar and
  shards all lock → re-read → merge), and afterwards every app starts
  warm from them.

Process counts default to the acceptance floor (>=4 concurrent
processes) and can be reduced for constrained CI via
``REPRO_STRESS_WRITERS`` / ``REPRO_STRESS_READERS`` /
``REPRO_STRESS_ROUNDS``.
"""

import multiprocessing
import os
import pickle

import pytest

from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.sharedstore import SharedBodyStore
from repro.vm.engine import VM_VERSION, VMConfig
from repro.workloads.harness import run_vm
from repro.workloads.warmup import WARMUP_APPS, build_warmup_workload

from tests.test_persist_manager import mini_workload
from tests.test_sharedstore import write_reference_index


WRITERS = int(os.environ.get("REPRO_STRESS_WRITERS", "4"))
READERS = int(os.environ.get("REPRO_STRESS_READERS", "3"))
ROUNDS = int(os.environ.get("REPRO_STRESS_ROUNDS", "6"))
DIGEST_SPACE = 48


def stress_digest(i: int) -> str:
    """Deterministic digests spread over several shard prefixes."""
    return "%02x%062x" % (i % 8, i)


def stress_blob(digest: str) -> bytes:
    """The unique bytes content-addressed by ``digest``."""
    return (b"body:" + digest.encode()) * 3


def mp_context():
    # fork keeps sys.path (and therefore the src/ layout) without any
    # re-exec bootstrapping; every worker below is module-level so the
    # suite also survives spawn-only platforms.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platform
        return multiprocessing.get_context()


def writer_worker(store_dir: str, seed: int, rounds: int) -> None:
    """Publish an overlapping, seed-rotated slice of the digest space."""
    store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    for round_no in range(rounds):
        start = (seed * 7 + round_no * 11) % DIGEST_SPACE
        batch = {
            stress_digest((start + k) % DIGEST_SPACE): stress_blob(
                stress_digest((start + k) % DIGEST_SPACE)
            )
            for k in range(DIGEST_SPACE // 2)
        }
        store.publish(batch)


def reader_worker(store_dir: str, rounds: int) -> None:
    """Poll every digest; each hit must be the exact expected bytes."""
    store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    for _ in range(rounds * 4):
        for i in range(DIGEST_SPACE):
            digest = stress_digest(i)
            blob = store.lookup(digest)
            if blob is not None and blob != stress_blob(digest):
                raise AssertionError("torn read for %s" % digest)


def gc_worker(store_dir: str, rounds: int) -> None:
    """Sweep repeatedly while writers and readers are live."""
    store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    for _ in range(rounds):
        store.gc()


def run_workers(targets) -> None:
    ctx = mp_context()
    procs = [ctx.Process(target=fn, args=args) for fn, args in targets]
    for proc in procs:
        proc.start()
    for proc in procs:
        proc.join(timeout=120)
    try:
        for proc in procs:
            assert proc.exitcode == 0, (
                "worker %s exited %s" % (proc.name, proc.exitcode)
            )
    finally:
        for proc in procs:
            if proc.is_alive():  # pragma: no cover - hung worker
                proc.terminate()


def test_overlapping_writers_lose_nothing(tmp_path):
    store_dir = str(tmp_path / "store")
    SharedBodyStore(store_dir, vm_version=VM_VERSION)
    run_workers(
        [(writer_worker, (store_dir, seed, ROUNDS)) for seed in range(WRITERS)]
    )
    store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    # Every writer covers half the space each round with rotating
    # starts; across WRITERS * ROUNDS batches the union is the full
    # space.  Every single digest must have survived the merges.
    for i in range(DIGEST_SPACE):
        digest = stress_digest(i)
        assert store.lookup(digest) == stress_blob(digest), digest
    assert store.fsck().clean


def test_readers_never_see_torn_bytes_under_write_load(tmp_path):
    store_dir = str(tmp_path / "store")
    SharedBodyStore(store_dir, vm_version=VM_VERSION)
    writers = max(2, WRITERS - READERS // 2)
    run_workers(
        [(writer_worker, (store_dir, seed, ROUNDS)) for seed in range(writers)]
        + [(reader_worker, (store_dir, ROUNDS)) for _ in range(READERS)]
    )
    assert SharedBodyStore(store_dir, vm_version=VM_VERSION).fsck().clean


def test_concurrent_gc_never_evicts_referenced(tmp_path):
    store_dir = str(tmp_path / "store")
    store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    # Reference the whole digest space from a registered database so
    # the concurrent sweeps may not legally remove anything.
    db_dir = str(tmp_path / "db")
    write_reference_index(
        db_dir, [stress_digest(i) for i in range(DIGEST_SPACE)]
    )
    # write_reference_index stores placeholder bytes; the stress blobs
    # are what the writers publish, so reference the digests but expect
    # stress blobs in the pool (content addressing keys on digest).
    store.register_database(db_dir)
    run_workers(
        [(writer_worker, (store_dir, seed, ROUNDS)) for seed in range(WRITERS)]
        + [(gc_worker, (store_dir, ROUNDS * 2))]
        + [(reader_worker, (store_dir, ROUNDS)) for _ in range(max(1, READERS - 1))]
    )
    final = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    for i in range(DIGEST_SPACE):
        digest = stress_digest(i)
        assert final.lookup(digest) == stress_blob(digest), digest
    assert final.fsck().clean


def test_unreferenced_pool_survives_concurrent_gc_without_corruption(tmp_path):
    """With no registered databases gc may sweep anything — but every
    lookup must still be exact-bytes-or-miss and the store must end
    structurally clean."""
    store_dir = str(tmp_path / "store")
    SharedBodyStore(store_dir, vm_version=VM_VERSION)
    run_workers(
        [(writer_worker, (store_dir, seed, ROUNDS)) for seed in range(max(2, WRITERS - 1))]
        + [(gc_worker, (store_dir, ROUNDS * 2))]
        + [(reader_worker, (store_dir, ROUNDS))]
    )
    final = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    for i in range(DIGEST_SPACE):
        digest = stress_digest(i)
        blob = final.lookup(digest)
        assert blob is None or blob == stress_blob(digest), digest
    assert final.fsck().clean


def observable(result) -> tuple:
    return (result.output, result.exit_status, result.instructions,
            vars(result.stats))


def session_worker(store_dir: str, db_dir: str, out_path: str) -> None:
    """One concurrent consumer session: fresh DB, shared store, compiled
    dispatch.  Pickles the run observables for the parent to compare."""
    workload = mini_workload()
    store = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    db = CacheDatabase(db_dir, shared_store=store)
    result = run_vm(
        workload,
        "a",
        persistence=PersistenceConfig(database=db),
        vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
    )
    payload = {
        "observable": observable(result),
        "host_compiles": result.persistence_report["sidecar_host_compiles"],
        "shared_hits": result.persistence_report["shared_hits"],
    }
    with open(out_path, "wb") as fh:
        fh.write(pickle.dumps(payload))


def test_concurrent_sessions_match_private_sidecar_path(tmp_path):
    """N processes race full compiled sessions against one store; each
    result must be bit-identical to the plain private-sidecar run."""
    workload = mini_workload()
    reference_db = CacheDatabase(str(tmp_path / "reference-db"))
    reference = run_vm(
        workload,
        "a",
        persistence=PersistenceConfig(database=reference_db),
        vm_config=VMConfig(dispatch_mode="compiled", compile_threshold=1),
    )
    expected = observable(reference)

    store_dir = str(tmp_path / "store")
    SharedBodyStore(store_dir, vm_version=VM_VERSION)
    sessions = max(4, WRITERS)
    outs = [str(tmp_path / ("out-%d.pkl" % i)) for i in range(sessions)]
    run_workers(
        [
            (session_worker, (store_dir, str(tmp_path / ("db-%d" % i)), outs[i]))
            for i in range(sessions)
        ]
    )
    payloads = []
    for path in outs:
        with open(path, "rb") as fh:
            payloads.append(pickle.loads(fh.read()))
    for payload in payloads:
        assert payload["observable"] == expected
    # Whether the racers overlapped enough to revive each other's
    # publishes is timing-dependent (publish happens at session end, so
    # simultaneous cold starts may all compile) — the deterministic
    # guarantee is that a follow-up session finds the pool fully warmed
    # and does zero host compiles.
    follow_up = str(tmp_path / "out-followup.pkl")
    run_workers(
        [(session_worker, (store_dir, str(tmp_path / "db-followup"), follow_up))]
    )
    with open(follow_up, "rb") as fh:
        final = pickle.loads(fh.read())
    assert final["observable"] == expected
    assert final["host_compiles"] == 0
    assert final["shared_hits"] > 0


def app_run(name: str, db_dir: str, store_dir=None, readonly=False):
    """One run of warm-up app ``name`` at compile threshold 1 against
    ``db_dir`` (and the store at ``store_dir``, if given): every body
    comes from disk or a host compile."""
    store = (SharedBodyStore(store_dir, vm_version=VM_VERSION)
             if store_dir else None)
    return run_vm(
        build_warmup_workload(name),
        "default",
        persistence=PersistenceConfig(
            database=CacheDatabase(db_dir, shared_store=store),
            readonly=readonly,
        ),
        vm_config=VMConfig(compile_threshold=1),
    )


def app_writer_worker(name, db_dir, store_dir, out_path, start) -> None:
    """One cold writer: waits at ``start`` so that every writer opens
    the database before any writes back, then pickles its observables."""
    start.wait(timeout=60)
    result = app_run(name, db_dir, store_dir)
    with open(out_path, "wb") as fh:
        fh.write(pickle.dumps(observable(result)))


def app_warm_worker(name, db_dir, store_dir, out_path) -> None:
    """Read-only warm runs of ``name`` in a fresh process: with the
    store attached (the store serves every body), then from the
    database alone (its index and sidecar serve every trace and body)."""
    runs = []
    for store in (store_dir, None):
        result = app_run(name, db_dir, store, readonly=True)
        runs.append(dict(result.host.to_dict(), observable=observable(result),
                         traces_translated=result.stats.traces_translated))
    with open(out_path, "wb") as fh:
        fh.write(pickle.dumps(runs))


def test_one_database_many_writers(tmp_path):
    """Different apps write back one database and one store at once.
    Nothing a writer stored is lost: both fscks are clean, each app's
    run matches its private-sidecar run, and every app then runs warm
    in a fresh process without translating, compiling or publishing."""
    apps = sorted(WARMUP_APPS)[:max(2, WRITERS)]
    db_dir = str(tmp_path / "db")
    store_dir = str(tmp_path / "store")
    start = mp_context().Barrier(len(apps))
    cold = {name: str(tmp_path / ("cold-%s.pkl" % name)) for name in apps}
    run_workers([(app_writer_worker, (name, db_dir, store_dir, cold[name],
                                      start)) for name in apps])
    assert CacheDatabase(db_dir).fsck().clean
    assert SharedBodyStore(store_dir, vm_version=VM_VERSION).fsck().clean
    references = {}
    for name in apps:
        reference = app_run(name, str(tmp_path / ("private-" + name)))
        references[name] = observable(reference)
        with open(cold[name], "rb") as fh:
            assert pickle.loads(fh.read()) == references[name], name

    warm = {name: str(tmp_path / ("warm-%s.pkl" % name)) for name in apps}
    run_workers([(app_warm_worker, (name, db_dir, store_dir, warm[name]))
                 for name in apps])
    for name in apps:
        with open(warm[name], "rb") as fh:
            with_store, database_alone = pickle.loads(fh.read())
        for run in (with_store, database_alone):
            assert run["traces_translated"] == 0, name
            assert run["host_compiles"] == 0, name
            assert run["shared_publishes"] == 0, name
            assert run["observable"][:3] == references[name][:3], name
        assert with_store["shared_misses"] == 0, name
        assert with_store["shared_hits"] > 0, name


def test_acceptance_floor_is_at_least_four_processes():
    """The ISSUE acceptance criterion: the stress runs with >=4
    concurrent processes unless CI explicitly dials it down."""
    if "REPRO_STRESS_WRITERS" not in os.environ:
        assert WRITERS >= 4
