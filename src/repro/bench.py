"""Wall-clock benchmark harness for the two dispatch tiers.

Times *host* wall-clock seconds — not simulated cycles — for the same
workload families the cycle-level benchmarks regenerate from the paper:

* ``fig5a_gui``: GUI startup with a warm same-input persistent cache
  (the Figure 5(a) configuration), the headline configuration for the
  compiled dispatch tier: warm runs revive every trace from the
  persistent cache and spend their time executing, which is exactly
  what trace-compiled dispatch accelerates.
* ``fig2b_gui``: plain GUI startup, no persistence (Figure 2(b)).
* ``headline_spec``: the SPEC2K INT suite (Train inputs) plus the
  Oracle phases, no persistence.
* ``sidecar_cold_warm``: compiled-tier GUI startup against a warm trace
  database, cold host (factory memo cleared, sidecar disabled) vs. warm
  sidecar (factories revived from ``compiled-bodies.pcs``).  The gap is
  exactly the host ``compile()`` cost the sidecar removes from a fresh
  process; the report also carries the host-compile counts per mode.
* ``shared_store``: the cross-application configuration the paper's
  Figure 9/10 measures, one level up — database A (per app) runs cold
  and publishes its compiled bodies to a per-host shared store
  (:mod:`repro.persist.sharedstore`); database B, which never ran any
  workload, then runs its own cold start ``isolated`` (no shared store:
  every trace pays a host ``compile()``) vs. ``shared`` (bodies revived
  from the pool A warmed: zero host ``compile()``\\ s).  B runs
  read-only so every repetition measures a genuinely cold database.
* ``record_overhead``: plain GUI startup with vs. without a recording
  session attached (:mod:`repro.replay`).  Recording logs every
  completed syscall and scheduling decision; the acceptance criterion
  caps its wall-clock cost at 10% over the plain run, so capturing a
  session for later differential replay is always affordable.
* ``indirect_heavy``: indirect-branch-bound microcorpora (alternating
  two-target pair, rotating three-target cycle, megamorphic
  eight-target table), no persistence.  The compiled tier's win here is
  the polymorphic inline-cache chains at ``jr``/``callr``/``ret`` exits
  (:mod:`repro.vm.compile`); the report carries per-corpus IC
  hit/miss/depth counters so CI can assert the chains actually engage.
* ``trace_linking``: chain-heavy microcorpora (jmp relays and a
  branchy detour loop, :mod:`repro.workloads.chains`), no persistence.
  Both timed modes run the *compiled* tier: ``nolink`` disables the
  chain trampoline (``trace_linking=False``, the PR-5 one-closure-call
  baseline), ``linked`` enables direct-exit linking plus superblock
  fusion.  The report carries per-corpus link/region counters and an
  ``oracle_identical`` flag (linked runs compared field-for-field
  against the interpreted oracle) so the win is auditable: stable
  chains must show zero dispatcher bounces and fused regions.
* ``transparency``: the anti-instrumentation corpus
  (:mod:`repro.workloads.adversarial`) — self-checksumming readers, SMC
  churners (hot, region-fused, page-boundary-straddling), a clock
  probe, and dlopen/dlclose+SMC interleavings.  Timed modes are plain
  interpreted vs. compiled dispatch; the report's point is the extras:
  every workload compared field-for-field against the interpreted
  oracle under compiled and linked dispatch at compile threshold 1 and
  under the default tier-up, the
  self-observing workloads compared byte-for-byte against the *native*
  oracle (``stale_reads`` counts mismatches — one stale code byte read
  via ``LD`` or one missed invalidation changes the folded output),
  per-churner ``smc_invalidations`` (must be nonzero), and a warm
  restart of the self-observing corpus over the sidecar, the shared
  per-host store, and the cache-server daemon (bit-identical output
  required — a persisted trace must not resurrect pre-SMC code).
* ``tiered_warmup``: the startup-heavy corpus
  (:mod:`repro.workloads.warmup`) cold (factory memo cleared per rep),
  compile threshold 1 (``eager``: every trace compiles at its first
  entry) vs. the default tier-up (``tiered``,
  ``VMConfig.compile_threshold``).  The family's headline metric is
  *time-to-first-output*: the tiered mode interprets cold traces until
  they prove reuse, so the program reaches its first write without
  paying host ``compile()`` for startup code that runs once.  The
  report also carries a ``repro prewarm`` sweep
  over ``--jobs 1/2/4`` (cold-sweep wall clock per job count, core-aware
  monotonicity flag) and the warm-run host-compile count against the
  prewarmed stores (must be zero).

Every family also reports per-mode time-to-first-output
(``<mode>_ttfo_s``, minimum over probe repetitions, measured on one
representative workload of the family) and the contender/baseline ratio
(``ttfo_ratio_x``).  Programs that never write fall back to
time-to-exit, so the column is populated for every family.

Methodology: each family is timed as a full sweep (every workload in
the family, sequentially) under each mode.  Sweeps run ``warmup``
untimed repetitions first — standard JIT-benchmark practice, here
amortizing the host ``compile()`` of trace closures, which the factory
memo (:mod:`repro.vm.compile`) shares across runs exactly like the
paper's persistent code cache shares translations across executions —
then ``reps`` timed repetitions.  The headline score is the trimmed
mean (the highest rep dropped, since timing noise only inflates);
per-mode minima and the max-over-min spread are reported alongside so
a surprising headline can be sanity-checked against run-to-run noise
without rerunning, and the CLI's ``--check`` warns when a family's
spread exceeds its noise threshold.  Before timing, one run per mode is
compared field-for-field (output, exit status, every :class:`VMStats`
counter) so a reported speedup can never come from divergent
behavior.

The result dictionary is also written as ``BENCH_wallclock.json`` at
the repository root by :func:`run_wallclock` when ``out_path`` is given
(the CLI and the benchmark suite both do).  A selective run (``--family
X``) merges into the existing file instead of clobbering it: families
measured this invocation are refreshed, families measured by earlier
invocations are preserved, and the gate is recomputed over the merged
set — so a quick single-family rerun never erases the rest of the
recorded trajectory.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import time
from typing import Callable, Dict, List, Optional, Tuple

from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.vm.engine import VMConfig
from repro.workloads.harness import FirstOutputTimer, run_vm
from repro.workloads.gui import build_gui_suite
from repro.workloads.oracle import PHASES, build_oracle
from repro.workloads.spec2k import build_suite

#: The acceptance gate: compiled dispatch must beat interpreted dispatch
#: by at least this factor (wall-clock) on the fig5a GUI workload.
GATE_WORKLOAD = "fig5a_gui"
GATE_THRESHOLD_X = 1.5

_MODES = ("interpreted", "compiled")


def _result_signature(result) -> tuple:
    """Everything observable about a run, for cross-tier comparison."""
    return (result.output, result.exit_status, vars(result.stats))


def _sweep_stats(samples: List[float]) -> Dict[str, float]:
    """Headline statistics for one mode's timed repetitions.

    ``min`` stays the headline (least-noise: host noise only ever
    inflates a rep).  The trimmed mean (highest rep dropped, given
    enough reps) and the max-over-min spread are reported alongside so
    a surprising headline is auditable against run-to-run noise.
    """
    ordered = sorted(samples)
    trimmed = ordered[:-1] if len(ordered) >= 3 else ordered
    return {
        "min_s": ordered[0],
        "trimmed_mean_s": sum(trimmed) / len(trimmed),
        "spread_pct": (
            100.0 * (ordered[-1] - ordered[0]) / ordered[0]
            if ordered[0] > 0 else 0.0
        ),
    }


def _measure_family(
    sweep: Callable[[str], list],
    warmup: int,
    reps: int,
    modes: Tuple[str, str] = _MODES,
) -> Dict[str, object]:
    """Time ``sweep`` under two modes; first mode is the baseline."""
    baseline, contender = modes
    signatures = {mode: [_result_signature(r) for r in sweep(mode)]
                  for mode in modes}
    identical = signatures[baseline] == signatures[contender]
    for _ in range(warmup):
        for mode in modes:
            sweep(mode)
    # Reps are interleaved (i, c, i, c, ...) so slow host-frequency /
    # load drift hits both modes equally instead of biasing whichever
    # mode happens to be timed last; the cycle collector is paused during
    # timed reps so its pauses cannot land in one mode's window.
    times: Dict[str, List[float]] = {mode: [] for mode in modes}
    gc_was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for _ in range(reps):
            for mode in modes:
                start = time.perf_counter()
                sweep(mode)
                times[mode].append(time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    stats = {mode: _sweep_stats(times[mode]) for mode in modes}
    family: Dict[str, object] = {
        "speedup_x": stats[baseline]["min_s"] / stats[contender]["min_s"],
        "speedup_trimmed_x": (
            stats[baseline]["trimmed_mean_s"]
            / stats[contender]["trimmed_mean_s"]
        ),
        "identical_results": identical,
    }
    for mode in modes:
        family["%s_s" % mode] = stats[mode]["min_s"]
        family["%s_trimmed_s" % mode] = stats[mode]["trimmed_mean_s"]
        family["%s_spread_pct" % mode] = stats[mode]["spread_pct"]
        family["reps_%s_s" % mode] = times[mode]
    return family


def _config(mode: str) -> VMConfig:
    return VMConfig(dispatch_mode=mode)


def _fig5a_gui_sweep(scratch_dir: str) -> Callable[[str], list]:
    """Warm same-input persistent-cache GUI startup (Figure 5(a))."""
    apps, _store = build_gui_suite()
    ordered = sorted(apps.items())
    databases = {}
    for name, app in ordered:
        db = CacheDatabase(os.path.join(scratch_dir, "fig5a-" + name))
        # Cold run populates the persistent cache (untimed setup).
        run_vm(app, "startup", persistence=PersistenceConfig(database=db),
               vm_config=_config("compiled"))
        databases[name] = db

    def sweep(mode: str) -> list:
        return [
            run_vm(app, "startup",
                   persistence=PersistenceConfig(database=databases[name]),
                   vm_config=_config(mode))
            for name, app in ordered
        ]

    return sweep


def _fig2b_gui_sweep() -> Callable[[str], list]:
    """Plain GUI startup, no persistence (Figure 2(b))."""
    apps, _store = build_gui_suite()
    ordered = sorted(apps.items())

    def sweep(mode: str) -> list:
        return [run_vm(app, "startup", vm_config=_config(mode))
                for _name, app in ordered]

    return sweep


def _headline_spec_sweep() -> Callable[[str], list]:
    """SPEC2K INT Train sweep plus the Oracle phases, no persistence."""
    spec = sorted(build_suite().items())
    oracle = build_oracle()

    def sweep(mode: str) -> list:
        results = [run_vm(wl, "train", vm_config=_config(mode))
                   for _name, wl in spec]
        results.extend(run_vm(oracle, phase, vm_config=_config(mode))
                       for phase in PHASES)
        return results

    return sweep


def _sidecar_cold_warm_sweep(scratch_dir: str):
    """Cold vs. warm host-compile cost of the compiled-body sidecar.

    Both modes run the compiled tier against a warm per-app trace
    database, so no translation happens and the tiers' simulated work is
    identical.  ``cold`` clears the in-process factory memo and disables
    the sidecar before each sweep — every trace pays a fresh host
    ``compile()``, the first-run-of-a-new-process cost.  ``warm`` also
    clears the memo but revives every factory from the on-disk sidecar.
    The wall-clock gap is exactly the host-compile work the sidecar
    removes; the per-mode host-compile counts are reported so CI can
    assert the warm path performs zero host ``compile()`` calls.
    """
    from repro.vm.compile import clear_code_object_cache

    apps, _store = build_gui_suite()
    ordered = sorted(apps.items())
    databases = {}
    for name, app in ordered:
        db = CacheDatabase(os.path.join(scratch_dir, "sidecar-" + name))
        # Cold run populates the trace cache and the sidecar (untimed).
        run_vm(app, "startup", persistence=PersistenceConfig(database=db),
               vm_config=_config("compiled"))
        databases[name] = db
    host_compiles = {"cold": 0, "warm": 0}

    def sweep(mode: str) -> list:
        clear_code_object_cache()
        results = [
            run_vm(app, "startup",
                   persistence=PersistenceConfig(
                       database=databases[name],
                       sidecar=(mode == "warm"),
                   ),
                   vm_config=_config("compiled"))
            for name, app in ordered
        ]
        host_compiles[mode] = sum(
            r.persistence_report["sidecar_host_compiles"] for r in results
        )
        return results

    def extras() -> Dict[str, object]:
        return {
            "host_compiles_cold": host_compiles["cold"],
            "host_compiles_warm": host_compiles["warm"],
        }

    return sweep, extras


def _shared_store_sweep(scratch_dir: str):
    """Cross-database body reuse through the per-host shared store.

    Setup (untimed): for each GUI app, a donor database attached to one
    shared store runs the app cold, publishing every compiled body.  The
    timed sweeps then run each app against a *consumer* database that
    never saw any workload (empty, read-only, so it stays cold across
    repetitions): ``isolated`` detaches the store and pays every host
    ``compile()``; ``shared`` revives every body DB-A published.  The
    host-compile and shared-hit counts per mode are reported so CI can
    assert the cross-database warm path performs zero host
    ``compile()`` calls.
    """
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.compile import clear_code_object_cache
    from repro.vm.engine import VM_VERSION

    apps, _store = build_gui_suite()
    ordered = sorted(apps.items())
    shared = SharedBodyStore(
        os.path.join(scratch_dir, "shared-store"), vm_version=VM_VERSION
    )
    consumers = {}
    for name, app in ordered:
        donor = CacheDatabase(
            os.path.join(scratch_dir, "shared-donor-" + name),
            shared_store=shared,
        )
        clear_code_object_cache()
        # Donor cold run: populates its trace cache, its private
        # sidecar, and — the point — the shared per-host pool (untimed).
        run_vm(app, "startup", persistence=PersistenceConfig(database=donor),
               vm_config=_config("compiled"))
        consumers[name] = CacheDatabase(
            os.path.join(scratch_dir, "shared-consumer-" + name)
        )
    host_compiles = {"isolated": 0, "shared": 0}
    shared_hits = {"isolated": 0, "shared": 0}

    def sweep(mode: str) -> list:
        clear_code_object_cache()
        results = [
            run_vm(app, "startup",
                   persistence=PersistenceConfig(
                       database=consumers[name],
                       readonly=True,
                       shared_store=(shared if mode == "shared" else None),
                   ),
                   vm_config=_config("compiled"))
            for name, app in ordered
        ]
        host_compiles[mode] = sum(
            r.persistence_report["sidecar_host_compiles"] for r in results
        )
        shared_hits[mode] = sum(
            r.persistence_report["shared_hits"] for r in results
        )
        return results

    def extras() -> Dict[str, object]:
        return {
            "host_compiles_isolated": host_compiles["isolated"],
            "host_compiles_shared": host_compiles["shared"],
            "shared_hits_shared": shared_hits["shared"],
        }

    return sweep, extras


def _fleet_worker(task: tuple) -> dict:
    """Pool entry point: one fleet member's warm session.

    Runs in a forked child.  The inherited in-memory code-object memo
    is cleared so every revive comes from a store — the child is a
    stand-in for a fresh process attaching to the per-host pool — and
    the shared-store spec string is resolved *here*, giving each member
    its own daemon connection (or its own flock-store fallback).
    """
    _mode, _index, db_dir, store_spec = task
    gc.disable()
    from repro.persist.daemon import resolve_shared_store
    from repro.vm.compile import clear_code_object_cache
    from repro.vm.engine import VM_VERSION

    clear_code_object_cache()
    apps, _store = build_gui_suite()
    name, app = sorted(apps.items())[0]
    result = run_vm(
        app, "startup",
        persistence=PersistenceConfig(
            database=CacheDatabase(db_dir),
            readonly=True,
            shared_store=resolve_shared_store(store_spec, VM_VERSION),
        ),
        vm_config=_config("compiled"),
    )
    report = result.persistence_report
    return {
        "output": result.output,
        "exit_status": result.exit_status,
        "stats": vars(result.stats),
        "host_compiles": report["sidecar_host_compiles"],
        "shared_hits": report["shared_hits"],
        "transport": report["shared_transport"],
    }


def _payload_result(payload: dict):
    """Rehydrate a worker payload into a ``_result_signature``-able
    shape (the signature reads ``output``/``exit_status``/``stats``)."""
    import types

    return types.SimpleNamespace(
        output=payload["output"],
        exit_status=payload["exit_status"],
        stats=types.SimpleNamespace(**payload["stats"]),
    )


def _payload_signature(payload: dict) -> tuple:
    return _result_signature(_payload_result(payload))


def _lookup_latencies(store, digests, passes: int = 3) -> List[float]:
    """Per-lookup wall clock (µs) over ``passes`` sweeps of ``digests``.

    Multiple passes are the point of the comparison: the flock store
    pays a ``stat`` on *every* pass (its revalidation is per-lookup),
    while the daemon client pays one RPC per shard prefix on the first
    pass and serves later passes from its prefix cache — the hot-shard
    index made client-side.
    """
    samples: List[float] = []
    for _ in range(passes):
        for digest in digests:
            start = time.perf_counter_ns()
            store.lookup(digest)
            samples.append((time.perf_counter_ns() - start) / 1000.0)
    return samples


def _percentile(samples: List[float], q: float) -> float:
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))]


def _fleet_warmup_sweep(scratch_dir: str):
    """A fleet of warm sessions against one per-host pool: daemon vs
    flock transport.

    Setup (untimed): a donor database runs the first GUI app cold,
    publishing every compiled body to a shared store, and an in-process
    :class:`~repro.persist.cacheserver.CacheServer` starts on that
    store.  Each timed sweep then forks ``REPRO_FLEET_SESSIONS``
    (default 8) real processes, each a never-warmed read-only consumer
    database attaching to the pool — over the flock files (``flock``
    mode) or over the daemon socket (``daemon`` mode).  Both modes must
    be bit-identical and compile nothing; the daemon's win is the
    lookup path, reported as p50/p99 per-lookup latency in the extras
    alongside a fallback probe (a ``daemon://`` session against the
    stopped daemon must silently produce the flock result) and a final
    fsck.
    """
    import multiprocessing

    from repro.persist.cacheserver import CacheServer
    from repro.persist.daemon import DaemonBackedStore
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.compile import clear_code_object_cache
    from repro.vm.engine import VM_VERSION

    try:
        fleet = max(1, int(os.environ.get("REPRO_FLEET_SESSIONS", "8")))
    except ValueError:
        fleet = 8
    store_dir = os.path.join(scratch_dir, "fleet-store")
    shared = SharedBodyStore(store_dir, vm_version=VM_VERSION)
    apps, _store = build_gui_suite()
    name, app = sorted(apps.items())[0]
    donor = CacheDatabase(
        os.path.join(scratch_dir, "fleet-donor"), shared_store=shared
    )
    clear_code_object_cache()
    run_vm(app, "startup", persistence=PersistenceConfig(database=donor),
           vm_config=_config("compiled"))
    server = CacheServer(store_dir, vm_version=VM_VERSION)
    server.start()
    context = multiprocessing.get_context("fork")
    specs = {"flock": store_dir, "daemon": "daemon://" + store_dir}
    host_compiles = {"flock": 0, "daemon": 0}
    shared_hits = {"flock": 0, "daemon": 0}
    transports: Dict[str, str] = {}
    reference_sig: Dict[str, tuple] = {}

    def sweep(mode: str) -> list:
        tasks = [
            (mode, index,
             os.path.join(scratch_dir, "fleet-%s-%d" % (mode, index)),
             specs[mode])
            for index in range(fleet)
        ]
        pool = context.Pool(processes=fleet)
        try:
            payloads = pool.map(_fleet_worker, tasks)
        finally:
            pool.close()
            pool.join()
        host_compiles[mode] = sum(p["host_compiles"] for p in payloads)
        shared_hits[mode] = sum(p["shared_hits"] for p in payloads)
        transports[mode] = payloads[0]["transport"]
        reference_sig[mode] = _payload_signature(payloads[0])
        return [_payload_result(p) for p in payloads]

    def extras() -> Dict[str, object]:
        digests = [digest for digest, _record in shared.iter_entries()]
        flock_lat = _lookup_latencies(
            SharedBodyStore(store_dir, vm_version=VM_VERSION), digests
        )
        client = DaemonBackedStore(store_dir, VM_VERSION)
        daemon_alive = client.transport == "daemon"
        daemon_lat = _lookup_latencies(client, digests)
        client.close()
        server.stop()
        # Fallback probe: the daemon is gone now, so a ``daemon://``
        # session must silently degrade to the flock files and still
        # produce the exact flock-mode result with zero host compiles.
        fallback = _fleet_worker(
            ("fallback", 0,
             os.path.join(scratch_dir, "fleet-fallback-0"),
             specs["daemon"])
        )
        fallback_ok = (
            fallback["transport"] == "file"
            and fallback["host_compiles"] == 0
            and _payload_signature(fallback) == reference_sig.get("flock")
        )
        fsck_clean = SharedBodyStore(
            store_dir, vm_version=VM_VERSION
        ).fsck().clean
        return {
            "fleet_processes": fleet,
            "fleet_host_compiles_flock": host_compiles["flock"],
            "fleet_host_compiles_daemon": host_compiles["daemon"],
            "fleet_shared_hits_daemon": shared_hits["daemon"],
            "daemon_transport_used": transports.get("daemon", ""),
            "daemon_alive": daemon_alive,
            "flock_lookup_p50_us": _percentile(flock_lat, 0.50),
            "flock_lookup_p99_us": _percentile(flock_lat, 0.99),
            "daemon_lookup_p50_us": _percentile(daemon_lat, 0.50),
            "daemon_lookup_p99_us": _percentile(daemon_lat, 0.99),
            "lookup_samples": len(daemon_lat),
            "fallback_ok": fallback_ok,
            "fsck_clean": fsck_clean,
        }

    return sweep, extras


def _record_overhead_sweep() -> Callable[[str], list]:
    """Recording cost on plain GUI startup (acceptance: under 10%).

    ``plain`` runs with no persistence session at all; ``record``
    attaches a recording session (no database: the log is captured in
    memory, which is all the per-syscall cost there is — the baseline
    snapshot and write-out happen at store/access time, outside the
    10% criterion).  Results must be identical: recording never alters
    the run it observes.
    """
    apps, _store = build_gui_suite()
    ordered = sorted(apps.items())

    def sweep(mode: str) -> list:
        return [
            run_vm(app, "startup",
                   persistence=(PersistenceConfig(record=True)
                                if mode == "record" else None),
                   vm_config=_config("compiled"))
            for _name, app in ordered
        ]

    return sweep


def _indirect_heavy_sweep():
    """Indirect-branch-bound corpora, no persistence.

    Each corpus keeps one ``callr`` dispatch site hot with a different
    dynamic target population (two, three, eight) so the polymorphic IC
    chain is exercised at every depth — including overflow, where the
    megamorphic corpus must degrade to the dispatcher path rather than
    thrash.  The compiled run's per-corpus IC counters are reported so
    the chains' engagement is auditable (and CI-gateable) rather than
    inferred from the speedup alone.
    """
    from repro.workloads.indirect import build_indirect_suite

    corpora = sorted(build_indirect_suite().items())
    ic_per_corpus: Dict[str, Dict[str, object]] = {}

    def sweep(mode: str) -> list:
        results = []
        for name, workload in corpora:
            result = run_vm(workload, "run", vm_config=_config(mode))
            if mode == "compiled":
                ics = result.ic_stats
                ic_per_corpus[name] = {
                    "hits": ics.hits,
                    "misses": ics.misses,
                    "hit_rate": ics.hit_rate,
                    "promotions": ics.promotions,
                    "depth_hits": list(ics.depth_hits),
                }
            results.append(result)
        return results

    def extras() -> Dict[str, object]:
        return {
            "ic_per_corpus": ic_per_corpus,
            "ic_hits": sum(c["hits"] for c in ic_per_corpus.values()),
            "ic_misses": sum(c["misses"] for c in ic_per_corpus.values()),
        }

    return sweep, extras


def _trace_linking_sweep():
    """Chain-heavy corpora: linked vs. unlinked compiled dispatch.

    Both modes execute identical simulated work (the trampoline and the
    fused regions are host-side only), so ``identical_results`` compares
    nolink against linked, and ``oracle_identical`` additionally pins
    the linked tier against the interpreted oracle — a linked speedup
    can never come from skipped simulation.  The linked run's per-corpus
    link/region counters are reported so CI can gate on the machinery
    actually engaging (zero bounces, fused regions) rather than on the
    speedup alone.
    """
    from repro.workloads.chains import build_chain_suite

    corpora = sorted(build_chain_suite().items())
    oracle_sigs = {
        name: _result_signature(
            run_vm(workload, "run",
                   vm_config=VMConfig(dispatch_mode="interpreted"))
        )
        for name, workload in corpora
    }
    link_per_corpus: Dict[str, Dict[str, object]] = {}
    oracle_identical = {"value": True}

    def sweep(mode: str) -> list:
        linked = mode == "linked"
        results = []
        for name, workload in corpora:
            result = run_vm(
                workload, "run",
                vm_config=VMConfig(
                    dispatch_mode="compiled", trace_linking=linked
                ),
            )
            if linked:
                link_per_corpus[name] = result.link_stats.to_dict()
                if _result_signature(result) != oracle_sigs[name]:
                    oracle_identical["value"] = False
            results.append(result)
        return results

    def extras() -> Dict[str, object]:
        return {
            "oracle_identical": oracle_identical["value"],
            "link_per_corpus": link_per_corpus,
            "link_bounces": sum(
                c["link_bounces"] for c in link_per_corpus.values()
            ),
            "regions_fused": sum(
                c["regions_fused"] for c in link_per_corpus.values()
            ),
            "chained_exits": sum(
                c["chained_exits"] for c in link_per_corpus.values()
            ),
        }

    return sweep, extras


def _ttfo_probe(
    workload,
    input_name: str,
    config: Optional[Callable[[str], VMConfig]] = None,
    persistence: Optional[Callable[[str], Optional[PersistenceConfig]]] = None,
    pre: Optional[Callable[[str], None]] = None,
) -> Callable[[str], float]:
    """Build a per-mode time-to-first-output probe for one workload.

    The probe runs the workload once under ``mode`` with a
    :class:`FirstOutputTimer` spliced into the process's output buffer
    and returns seconds from dispatch start to the first written byte.
    A program that never writes falls back to time-to-exit, so every
    family yields a number.  ``pre`` runs before the clock starts (e.g.
    clearing the factory memo for cold-start families).
    """

    def probe(mode: str) -> float:
        if pre is not None:
            pre(mode)
        timer = FirstOutputTimer()
        start = time.perf_counter()
        run_vm(
            workload,
            input_name,
            persistence=persistence(mode) if persistence else None,
            vm_config=config(mode) if config else _config(mode),
            output_timer=timer,
        )
        stamp = timer.first_output_s
        if stamp is None:
            stamp = time.perf_counter()
        return stamp - start

    return probe


def _gui_ttfo(
    scratch_dir: Optional[str] = None,
    persistence: Optional[Callable[[str], Optional[PersistenceConfig]]] = None,
    pre: Optional[Callable[[str], None]] = None,
    config: Optional[Callable[[str], VMConfig]] = None,
) -> Callable[[str], float]:
    """TTFO probe on the first GUI app (the GUI families' representative)."""
    apps, _store = build_gui_suite()
    _name, app = sorted(apps.items())[0]
    return _ttfo_probe(
        app, "startup", config=config, persistence=persistence, pre=pre
    )


def _fig5a_ttfo(scratch_dir: str) -> Callable[[str], float]:
    apps, _store = build_gui_suite()
    name, app = sorted(apps.items())[0]
    db = CacheDatabase(os.path.join(scratch_dir, "ttfo-fig5a-" + name))
    run_vm(app, "startup", persistence=PersistenceConfig(database=db),
           vm_config=_config("compiled"))
    return _ttfo_probe(
        app, "startup",
        persistence=lambda mode: PersistenceConfig(database=db),
    )


def _sidecar_ttfo(scratch_dir: str) -> Callable[[str], float]:
    from repro.vm.compile import clear_code_object_cache

    apps, _store = build_gui_suite()
    name, app = sorted(apps.items())[0]
    db = CacheDatabase(os.path.join(scratch_dir, "ttfo-sidecar-" + name))
    run_vm(app, "startup", persistence=PersistenceConfig(database=db),
           vm_config=_config("compiled"))
    return _ttfo_probe(
        app, "startup",
        config=lambda mode: _config("compiled"),
        persistence=lambda mode: PersistenceConfig(
            database=db, sidecar=(mode == "warm")
        ),
        pre=lambda mode: clear_code_object_cache(),
    )


def _shared_store_ttfo(scratch_dir: str) -> Callable[[str], float]:
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.compile import clear_code_object_cache
    from repro.vm.engine import VM_VERSION

    apps, _store = build_gui_suite()
    name, app = sorted(apps.items())[0]
    shared = SharedBodyStore(
        os.path.join(scratch_dir, "ttfo-shared-store"), vm_version=VM_VERSION
    )
    donor = CacheDatabase(
        os.path.join(scratch_dir, "ttfo-shared-donor-" + name),
        shared_store=shared,
    )
    run_vm(app, "startup", persistence=PersistenceConfig(database=donor),
           vm_config=_config("compiled"))
    consumer = CacheDatabase(
        os.path.join(scratch_dir, "ttfo-shared-consumer-" + name)
    )
    return _ttfo_probe(
        app, "startup",
        config=lambda mode: _config("compiled"),
        persistence=lambda mode: PersistenceConfig(
            database=consumer, readonly=True,
            shared_store=(shared if mode == "shared" else None),
        ),
        pre=lambda mode: clear_code_object_cache(),
    )


def _spec_ttfo() -> Callable[[str], float]:
    _name, workload = sorted(build_suite().items())[0]
    return _ttfo_probe(workload, "train")


def _indirect_ttfo() -> Callable[[str], float]:
    from repro.workloads.indirect import build_indirect_suite

    _name, workload = sorted(build_indirect_suite().items())[0]
    return _ttfo_probe(workload, "run")


def _chains_ttfo() -> Callable[[str], float]:
    from repro.workloads.chains import build_chain_suite

    _name, workload = sorted(build_chain_suite().items())[0]
    return _ttfo_probe(
        workload, "run",
        config=lambda mode: VMConfig(
            dispatch_mode="compiled", trace_linking=(mode == "linked")
        ),
    )


def _record_ttfo() -> Callable[[str], float]:
    apps, _store = build_gui_suite()
    _name, app = sorted(apps.items())[0]
    return _ttfo_probe(
        app, "startup",
        config=lambda mode: _config("compiled"),
        persistence=lambda mode: (
            PersistenceConfig(record=True) if mode == "record" else None
        ),
    )


#: ``repro prewarm --jobs`` values the tiered_warmup extras sweep.
_PREWARM_JOBS_SWEEP = (1, 2, 4)

#: Headroom for the core-aware monotonicity check: when extra jobs
#: cannot buy real parallelism (job count above the machine's core
#: count), the sweep only has to stay within this factor of the
#: previous job count's wall clock — wide enough for scheduler and
#: fork overhead on an oversubscribed single-core host, tight enough
#: that pathological cross-process contention (e.g. a store lock
#: livelock) still fails the gate.
_PREWARM_NOISE_X = 1.5


def _tiered_warmup_sweep(scratch_dir: str):
    """Cold startup corpus: compile threshold 1 vs. the default tier-up.

    Each repetition clears the in-process factory memo, so every sweep
    pays the full cold-start cost under both modes.  The interpreted
    oracle pins the tiered mode's observable behavior; the extras carry
    the ``repro prewarm`` jobs sweep and the warm-run verification.
    """
    from repro.persist.prewarm import run_prewarm, verify_warm
    from repro.vm.compile import clear_code_object_cache
    from repro.workloads.warmup import GATE_APP, warmup_corpus

    apps = warmup_corpus()
    ordered = sorted(apps.items())

    def config(mode: str) -> VMConfig:
        return VMConfig(compile_threshold=1) if mode == "eager" else VMConfig()

    def sweep(mode: str) -> list:
        clear_code_object_cache()
        return [run_vm(app, "default", vm_config=config(mode))
                for _name, app in ordered]

    # Tiered vs. the interpreted oracle: a TTFO win can never come from
    # divergent simulation (identical_results already pins tiered
    # against eager; this pins both against the reference tier).
    gate_app = apps[GATE_APP]
    oracle_sig = _result_signature(
        run_vm(gate_app, "default",
               vm_config=VMConfig(dispatch_mode="interpreted"))
    )
    clear_code_object_cache()
    tiered_sig = _result_signature(
        run_vm(gate_app, "default", vm_config=config("tiered"))
    )
    oracle_identical = tiered_sig == oracle_sig

    def extras() -> Dict[str, object]:
        cpu_count = os.cpu_count() or 1
        sweep_rows: List[Dict[str, object]] = []
        monotonic = True
        previous: Optional[Dict[str, object]] = None
        for jobs in _PREWARM_JOBS_SWEEP:
            db_dir = os.path.join(scratch_dir, "prewarm-j%d" % jobs)
            store_dir = os.path.join(scratch_dir, "prewarm-store-j%d" % jobs)
            shutil.rmtree(db_dir, ignore_errors=True)
            shutil.rmtree(store_dir, ignore_errors=True)
            report = run_prewarm(
                db_dir, jobs=jobs, corpus="warmup",
                shared_store_dir=store_dir,
            )
            row: Dict[str, object] = {
                "jobs": jobs,
                "wall_s": report.wall_s,
                "compiled": report.compiled,
                "admitted": report.admitted,
            }
            if previous is not None:
                # Core-aware monotonicity: more jobs must help when they
                # map to real cores, and must stay within noise headroom
                # when they cannot (single-core hosts, jobs > cores).
                if min(jobs, cpu_count) > min(previous["jobs"], cpu_count):
                    row["monotonic_ok"] = report.wall_s < previous["wall_s"]
                else:
                    row["monotonic_ok"] = (
                        report.wall_s
                        <= previous["wall_s"] * _PREWARM_NOISE_X
                    )
                monotonic = monotonic and row["monotonic_ok"]
            sweep_rows.append(row)
            previous = {"jobs": jobs, "wall_s": report.wall_s}
        warm_host_compiles = verify_warm(
            os.path.join(scratch_dir, "prewarm-j%d" % _PREWARM_JOBS_SWEEP[0]),
            "warmup",
            os.path.join(
                scratch_dir, "prewarm-store-j%d" % _PREWARM_JOBS_SWEEP[0]
            ),
        )
        return {
            "oracle_identical": oracle_identical,
            "cpu_count": cpu_count,
            "prewarm_jobs_sweep": sweep_rows,
            "jobs_monotonic_ok": monotonic,
            "prewarm_warm_host_compiles": warm_host_compiles,
        }

    ttfo = _ttfo_probe(
        gate_app, "default",
        config=config,
        pre=lambda mode: clear_code_object_cache(),
    )
    return sweep, extras, ttfo


def _transparency_sweep(scratch_dir: str):
    """The anti-instrumentation corpus under attack-grade scrutiny.

    The timed sweep is plain interpreted vs. compiled dispatch over the
    whole adversarial suite.  The extras carry the actual transparency
    audit:

    * every workload's full signature (output, exit status, every
      VMStats counter) under compiled and linked dispatch at compile
      threshold 1 and under the default tier-up, against the
      interpreted oracle;
    * the self-observing workloads (everything but the clock probe)
      byte-compared against the *native* oracle — their outputs fold
      every code byte they read and every self-write they observe, so
      ``stale_reads`` counts runs where the VM let a stale byte
      through;
    * per-churner ``smc_invalidations`` (a churner that triggers zero
      invalidations means the SMC detector never saw its stores);
    * a warm restart of the self-observing corpus over all three
      persistence transports (sidecar, shared flock store, cache-server
      daemon), each warm output compared byte-for-byte against the cold
      run — a revived trace must not resurrect pre-SMC code.

    The clock probe is timed but exempt from the native comparison and
    the warm-restart check by design: its output embeds raw
    ``SYS_CLOCK`` deltas, which legitimately differ native vs. VM (the
    probe *detects* the DBI's cost — transparency here means the deltas
    are bit-identical across all four VM tiers, which the oracle check
    enforces) and cold vs. warm (persisted traces change the cost of a
    run; that is the point of the cache).
    """
    from repro.persist.cacheserver import CacheServer
    from repro.persist.daemon import resolve_shared_store
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.compile import clear_code_object_cache
    from repro.vm.engine import VM_VERSION
    from repro.workloads.adversarial import (
        CHURN_WORKLOADS,
        PERSISTED_WORKLOADS,
        build_adversarial_suite,
    )
    from repro.workloads.harness import run_native

    suite = build_adversarial_suite()
    ordered = sorted(suite.items())

    def sweep(mode: str) -> list:
        clear_code_object_cache()
        return [run_vm(wl, "run", vm_config=_config(mode))
                for _name, wl in ordered]

    tier_configs = {
        "compiled": VMConfig(trace_linking=False, compile_threshold=1),
        "linked": VMConfig(compile_threshold=1),
        "tiered": VMConfig(),
    }

    def extras() -> Dict[str, object]:
        oracle_failures: List[str] = []
        stale_reads = 0
        churn_smc: Dict[str, int] = {}
        for name, wl in ordered:
            native = run_native(wl, "run")
            clear_code_object_cache()
            oracle = run_vm(
                wl, "run", vm_config=VMConfig(dispatch_mode="interpreted")
            )
            oracle_sig = _result_signature(oracle)
            if name != "timer" and (
                (oracle.output, oracle.exit_status)
                != (native.output, native.exit_status)
            ):
                stale_reads += 1
            for tier, config in tier_configs.items():
                clear_code_object_cache()
                result = run_vm(wl, "run", vm_config=config)
                if _result_signature(result) != oracle_sig:
                    oracle_failures.append("%s/%s" % (name, tier))
                elif name != "timer" and (
                    (result.output, result.exit_status)
                    != (native.output, native.exit_status)
                ):
                    stale_reads += 1
            if name in CHURN_WORKLOADS:
                churn_smc[name] = oracle.stats.smc_invalidations

        # Warm restart over all three transports: the adversarial
        # corpus's code observations must survive persistence.
        store_dir = os.path.join(scratch_dir, "transparency-store")
        shared = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        warm_failures: List[str] = []
        warm_preloaded = 0
        server = CacheServer(store_dir, vm_version=VM_VERSION)
        server.start()
        try:
            daemon_store = resolve_shared_store(
                "daemon://" + store_dir, VM_VERSION
            )
            for name in PERSISTED_WORKLOADS:
                wl = suite[name]
                db_dir = os.path.join(scratch_dir, "transparency-" + name)
                donor = CacheDatabase(db_dir, shared_store=shared)
                clear_code_object_cache()
                cold = run_vm(
                    wl, "run",
                    persistence=PersistenceConfig(database=donor,
                                                  sidecar=True),
                    vm_config=_config("compiled"),
                )
                cold_sig = (cold.output, cold.exit_status)
                warm_configs = {
                    "sidecar": PersistenceConfig(
                        database=CacheDatabase(db_dir, shared_store=shared),
                        sidecar=True,
                    ),
                    "shared": PersistenceConfig(
                        database=CacheDatabase(db_dir), readonly=True,
                        shared_store=shared,
                    ),
                    "daemon": PersistenceConfig(
                        database=CacheDatabase(db_dir), readonly=True,
                        shared_store=daemon_store,
                    ),
                }
                for transport, persistence in warm_configs.items():
                    clear_code_object_cache()
                    warm = run_vm(
                        wl, "run", persistence=persistence,
                        vm_config=_config("compiled"),
                    )
                    warm_preloaded += warm.stats.traces_from_persistent
                    if (warm.output, warm.exit_status) != cold_sig:
                        warm_failures.append("%s/%s" % (name, transport))
                        stale_reads += 1
        finally:
            server.stop()

        return {
            "oracle_identical": not oracle_failures,
            "oracle_failures": oracle_failures,
            "stale_reads": stale_reads,
            "churn_smc": churn_smc,
            "smc_ok": all(count > 0 for count in churn_smc.values())
            and set(churn_smc) == set(CHURN_WORKLOADS),
            "warm_identical": not warm_failures,
            "warm_failures": warm_failures,
            "warm_preloaded": warm_preloaded,
        }

    ttfo = _ttfo_probe(
        suite["checksum"], "run",
        pre=lambda mode: clear_code_object_cache(),
    )
    return sweep, extras, ttfo


def _merge_existing(
    out_path: str, results: Dict[str, object]
) -> Dict[str, object]:
    """Merge this invocation's families into an existing results file.

    A selective ``--family`` run used to rewrite ``out_path`` wholesale,
    silently discarding every family measured by earlier invocations.
    Instead: families measured now win, families only present on disk
    are preserved, and ``host``/``config`` describe the current
    invocation (the old ones described runs being replaced anyway).  An
    absent or unparsable file degrades to a plain write.
    """
    try:
        with open(out_path) as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return results
    merged_workloads = dict(previous.get("workloads") or {})
    merged_workloads.update(results["workloads"])
    merged = dict(results)
    merged["workloads"] = merged_workloads
    return merged


def run_wallclock(
    scratch_dir: str,
    warmup: int = 2,
    reps: int = 3,
    families: Optional[Tuple[str, ...]] = None,
    out_path: Optional[str] = None,
) -> Dict[str, object]:
    """Run the wall-clock suite; return (and optionally write) results.

    Args:
        scratch_dir: Writable directory for the persistent-cache
            databases the fig5a family needs.
        warmup: Untimed repetitions per family per mode.
        reps: Timed repetitions per family per mode (score = min).
        families: Subset of family names to run (default: all).
        out_path: When given, the result dict is written there as JSON.
    """
    # Each builder yields (sweep, modes, extras, ttfo): the two timed
    # modes (baseline first), an optional post-measurement extras
    # callable whose keys are merged into the family dict, and the
    # family's per-mode time-to-first-output probe.
    def _build_sidecar():
        sweep, extras = _sidecar_cold_warm_sweep(scratch_dir)
        return sweep, ("cold", "warm"), extras, _sidecar_ttfo(scratch_dir)

    def _build_shared_store():
        sweep, extras = _shared_store_sweep(scratch_dir)
        return (
            sweep, ("isolated", "shared"), extras,
            _shared_store_ttfo(scratch_dir),
        )

    def _build_indirect_heavy():
        sweep, extras = _indirect_heavy_sweep()
        return sweep, _MODES, extras, _indirect_ttfo()

    def _build_trace_linking():
        sweep, extras = _trace_linking_sweep()
        return sweep, ("nolink", "linked"), extras, _chains_ttfo()

    def _build_tiered_warmup():
        sweep, extras, ttfo = _tiered_warmup_sweep(scratch_dir)
        return sweep, ("eager", "tiered"), extras, ttfo

    def _build_transparency():
        sweep, extras, ttfo = _transparency_sweep(scratch_dir)
        return sweep, _MODES, extras, ttfo

    def _build_fleet_warmup():
        # No TTFO probe: the family's headline is the N-process fleet
        # wall clock plus the per-lookup latency extras (the daemon's
        # extras stop the in-process server, so a later probe would
        # only measure the fallback path anyway).
        sweep, extras = _fleet_warmup_sweep(scratch_dir)
        return sweep, ("flock", "daemon"), extras, None

    builders: Dict[str, Callable[[], tuple]] = {
        "fig5a_gui": lambda: (
            _fig5a_gui_sweep(scratch_dir), _MODES, None,
            _fig5a_ttfo(scratch_dir),
        ),
        "fig2b_gui": lambda: (_fig2b_gui_sweep(), _MODES, None, _gui_ttfo()),
        "headline_spec": lambda: (
            _headline_spec_sweep(), _MODES, None, _spec_ttfo()
        ),
        "sidecar_cold_warm": _build_sidecar,
        "shared_store": _build_shared_store,
        "indirect_heavy": _build_indirect_heavy,
        "trace_linking": _build_trace_linking,
        "record_overhead": lambda: (
            _record_overhead_sweep(), ("plain", "record"), None,
            _record_ttfo(),
        ),
        "tiered_warmup": _build_tiered_warmup,
        "fleet_warmup": _build_fleet_warmup,
        "transparency": _build_transparency,
    }
    selected = families if families is not None else tuple(builders)
    unknown = [name for name in selected if name not in builders]
    if unknown:
        raise ValueError("unknown bench families: %s" % ", ".join(unknown))

    workloads: Dict[str, object] = {}
    for name in selected:
        sweep, modes, extras, ttfo = builders[name]()
        family = _measure_family(sweep, warmup, reps, modes=modes)
        if extras is not None:
            family.update(extras())
        if ttfo is not None:
            for mode in modes:
                family["%s_ttfo_s" % mode] = min(
                    ttfo(mode) for _ in range(max(2, reps))
                )
            baseline, contender = modes
            baseline_ttfo = family["%s_ttfo_s" % baseline]
            if baseline_ttfo > 0:
                family["ttfo_ratio_x"] = (
                    family["%s_ttfo_s" % contender] / baseline_ttfo
                )
        workloads[name] = family

    results: Dict[str, object] = {
        "host": {
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "config": {"warmup_reps": warmup, "timed_reps": reps},
        "workloads": workloads,
    }
    if out_path is not None:
        results = _merge_existing(out_path, results)
    # The gate reads the merged set, so a selective rerun that skipped
    # the gate workload still reports the last measured gate numbers.
    merged_workloads = results["workloads"]
    gate: Dict[str, object] = {
        "workload": GATE_WORKLOAD,
        "threshold_x": GATE_THRESHOLD_X,
    }
    results["gate"] = gate
    if GATE_WORKLOAD in merged_workloads:
        family = merged_workloads[GATE_WORKLOAD]
        # The gate reads the trimmed mean, not the best rep: a single
        # lucky repetition must not pass (or fail) the acceptance bar.
        trimmed = family.get("speedup_trimmed_x", family["speedup_x"])
        gate["speedup_x"] = family["speedup_x"]
        gate["speedup_trimmed_x"] = trimmed
        gate["pass"] = (
            family["identical_results"] and trimmed >= GATE_THRESHOLD_X
        )

    if out_path is not None:
        payload = json.dumps(results, indent=2, sort_keys=True) + "\n"
        with open(out_path, "w") as handle:
            handle.write(payload)
    return results


def default_output_path() -> str:
    """``BENCH_wallclock.json`` at the repository root (next to src/)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)),
                        "BENCH_wallclock.json")
