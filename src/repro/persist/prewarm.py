"""Parallel cache prewarming: mass-compile a corpus ahead of first use.

``repro prewarm`` runs a workload corpus once, off the user's critical
path, across a pool of worker *processes* — each executes its share of
the corpus under a persisting session so every translated trace lands in
the cache database, every host-compiled body in the compiled-body
sidecar, and (when a shared store is given) in the per-host shared pool.
A later real run of any corpus app then starts warm: traces preload,
bodies revive, and the host compiles nothing (the ``--verify`` pass
checks exactly that invariant).

Process-level parallelism is the right grain here: CPython threads
serialize on the GIL, while the sidecar write-back path is already
multi-process safe (lock-merged, PR3) and the shared store publishes
under its own lock — so jobs can share one database directory and one
store directory with no coordination beyond round-robin partitioning of
the app list.  Workers receive *names*, not images: corpora are
deterministic per seed, so each worker rebuilds its apps locally and
only strings cross the fork boundary.
"""

from __future__ import annotations

import gc
import multiprocessing
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.sharedstore import SharedBodyStore
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VM_VERSION, VMConfig


class PrewarmError(Exception):
    pass


#: Known corpus names for the CLI (``--corpus``).
CORPUS_CHOICES = ("tiny", "warmup", "gui")


def corpus_app_names(corpus: str) -> Tuple[str, ...]:
    """Resolve a corpus name to the app names it contains."""
    if corpus == "tiny":
        from repro.workloads.warmup import TINY_APPS

        return TINY_APPS
    if corpus == "warmup":
        from repro.workloads.warmup import WARMUP_APPS

        return tuple(sorted(WARMUP_APPS))
    if corpus == "gui":
        from repro.workloads.gui import GUI_APPS

        return tuple(sorted(GUI_APPS))
    raise PrewarmError(
        "unknown corpus %r (have: %s)" % (corpus, ", ".join(CORPUS_CHOICES))
    )


def _build_app(corpus: str, name: str):
    if corpus in ("tiny", "warmup"):
        from repro.workloads.warmup import build_warmup_workload

        return build_warmup_workload(name)
    if corpus == "gui":
        from repro.workloads.gui import build_gui_suite

        apps, _store = build_gui_suite()
        try:
            return apps[name]
        except KeyError as exc:
            raise PrewarmError("unknown gui app %r" % name) from exc
    raise PrewarmError("unknown corpus %r" % corpus)


@dataclass
class PrewarmJobReport:
    """What one worker process did with its slice of the corpus."""

    job: int
    apps: List[str] = field(default_factory=list)
    traces_persisted: int = 0
    host_compiles: int = 0
    sidecar_hits: int = 0
    shared_hits: int = 0
    shared_publishes: int = 0
    wall_s: float = 0.0


@dataclass
class PrewarmReport:
    """Machine-readable summary of a prewarm invocation."""

    db_dir: str
    shared_store_dir: Optional[str]
    corpus: str
    jobs: int
    apps: int = 0
    traces_persisted: int = 0
    #: Bodies the host actually ``compile()``\\ d this invocation.
    compiled: int = 0
    #: Bodies skipped because a store already held them (revive hits).
    skipped: int = 0
    #: Bodies admitted into the shared pool.
    admitted: int = 0
    wall_s: float = 0.0
    job_reports: List[PrewarmJobReport] = field(default_factory=list)
    #: Filled by the ``--verify`` warm pass: host compiles observed when
    #: re-running the corpus against the freshly warmed stores (must be
    #: zero for the prewarm to have done its job).
    verify_host_compiles: Optional[int] = None

    def to_dict(self) -> dict:
        return asdict(self)


#: Each per-job counter and the :class:`~repro.vm.stats.HostStats` field
#: it sums over the job's runs.
_JOB_COUNTERS = {
    "traces_persisted": "new_traces_persisted",
    "host_compiles": "host_compiles",
    "sidecar_hits": "body_hits",
    "shared_hits": "shared_hits",
    "shared_publishes": "shared_publishes",
}


def _session_config(
    db_dir: str, shared_store_dir: Optional[str], readonly: bool = False
) -> PersistenceConfig:
    shared = (
        SharedBodyStore(shared_store_dir, VM_VERSION)
        if shared_store_dir
        else None
    )
    return PersistenceConfig(
        database=CacheDatabase(db_dir, shared_store=shared),
        readonly=readonly,
    )


def _run_corpus_apps(
    corpus: str,
    names: Sequence[str],
    db_dir: str,
    shared_store_dir: Optional[str],
    readonly: bool = False,
) -> Dict[str, int]:
    """Run each named app once under a persisting session; sum counters.

    Compile threshold 1: a prewarm exists to fill the stores completely,
    so every trace compiles, however few times the corpus enters it.
    """
    from repro.workloads.harness import run_vm

    totals = dict.fromkeys(_JOB_COUNTERS, 0)
    for name in names:
        workload = _build_app(corpus, name)
        for input_name in sorted(workload.inputs):
            result = run_vm(
                workload,
                input_name,
                persistence=_session_config(
                    db_dir, shared_store_dir, readonly=readonly
                ),
                vm_config=VMConfig(compile_threshold=1),
            )
            counts = result.host.to_dict()
            for key, field_name in _JOB_COUNTERS.items():
                totals[key] += counts[field_name]
    return totals


def _prewarm_worker(task: tuple) -> dict:
    """Pool entry point: run one job's slice of the corpus.

    Runs in a forked child; the inherited in-memory code-object memo is
    cleared so the job's compile counters describe real work against the
    on-disk stores, not the parent's warm memo.
    """
    job, corpus, names, db_dir, shared_store_dir = task
    # The child is short-lived and exits right after its slice: leave
    # the cycle collector off for its whole life.  A collection would
    # traverse the entire heap inherited from the fork, touching (and
    # so copy-on-write-duplicating) every parent page — a measurable
    # tax precisely when the parent is large and jobs oversubscribe the
    # machine's cores.
    gc.disable()
    clear_code_object_cache()
    start = time.perf_counter()
    totals = _run_corpus_apps(corpus, names, db_dir, shared_store_dir)
    totals["job"] = job
    totals["apps"] = list(names)
    totals["wall_s"] = time.perf_counter() - start
    return totals


def _run_jobs(
    work: Sequence[tuple],
    jobs: int,
    pool_factory: Optional[Callable[[int], object]] = None,
) -> List[dict]:
    """Run worker tasks across a process pool.

    ``pool_factory`` exists for tests: anything with the
    ``map``/``close``/``terminate``/``join`` protocol works.  On
    KeyboardInterrupt the pool is terminated (not drained) and joined
    before the interrupt propagates — a ^C during a long prewarm must
    not leave worker processes running.
    """
    if not work:
        return []
    if pool_factory is None:
        context = multiprocessing.get_context("fork")
        pool_factory = lambda n: context.Pool(processes=n)
    pool = pool_factory(min(jobs, len(work)))
    try:
        results = pool.map(_prewarm_worker, work)
    except KeyboardInterrupt:
        pool.terminate()
        pool.join()
        raise
    pool.close()
    pool.join()
    return results


def run_prewarm(
    db_dir: str,
    jobs: int = 1,
    corpus: str = "warmup",
    shared_store_dir: Optional[str] = None,
    verify: bool = False,
    app_names: Optional[Sequence[str]] = None,
    pool_factory: Optional[Callable[[int], object]] = None,
) -> PrewarmReport:
    """Prewarm ``db_dir`` (and optionally a shared store) from a corpus.

    Partitions the corpus round-robin over ``jobs`` worker processes;
    every job persists into the *same* database and store directories
    (both are multi-process safe).  With ``verify`` the corpus is re-run
    in-process against the warmed stores afterwards, asserting the host
    compiles nothing.
    """
    if jobs < 1:
        raise PrewarmError("jobs must be >= 1 (got %d)" % jobs)
    names = tuple(app_names) if app_names else corpus_app_names(corpus)
    # Fail here, in one line, rather than in every worker process; the
    # store first, so that a bad one leaves no database behind.
    if shared_store_dir:
        try:
            SharedBodyStore(shared_store_dir, VM_VERSION)
        except OSError as exc:
            raise PrewarmError(
                "cannot open shared store %s: %s" % (shared_store_dir, exc)
            ) from exc
    try:
        CacheDatabase(db_dir)
    except OSError as exc:
        raise PrewarmError(
            "cannot open cache database %s: %s" % (db_dir, exc)
        ) from exc
    report = PrewarmReport(
        db_dir=db_dir,
        shared_store_dir=shared_store_dir,
        corpus=corpus,
        jobs=jobs,
        apps=len(names),
    )
    slices: List[List[str]] = [[] for _ in range(min(jobs, len(names)))]
    for index, name in enumerate(names):
        slices[index % len(slices)].append(name)
    work = [
        (job, corpus, tuple(slice_names), db_dir, shared_store_dir)
        for job, slice_names in enumerate(slices)
    ]
    start = time.perf_counter()
    for totals in _run_jobs(work, jobs, pool_factory=pool_factory):
        job_report = PrewarmJobReport(**totals)
        report.job_reports.append(job_report)
        report.traces_persisted += job_report.traces_persisted
        report.compiled += job_report.host_compiles
        report.skipped += job_report.sidecar_hits + job_report.shared_hits
        report.admitted += job_report.shared_publishes
    report.wall_s = time.perf_counter() - start
    if verify:
        report.verify_host_compiles = verify_warm(
            db_dir, corpus, shared_store_dir, app_names=names
        )
    return report


def verify_warm(
    db_dir: str,
    corpus: str,
    shared_store_dir: Optional[str] = None,
    app_names: Optional[Sequence[str]] = None,
) -> int:
    """Re-run the corpus warm (read-only); return host compiles seen.

    Zero means the prewarm was complete: every trace preloaded and
    every body revived from a store.  The in-memory memo is cleared
    first so revives must come from disk, not from this process's own
    history.
    """
    names = tuple(app_names) if app_names else corpus_app_names(corpus)
    clear_code_object_cache()
    totals = _run_corpus_apps(
        corpus, names, db_dir, shared_store_dir, readonly=True
    )
    return totals["host_compiles"]
