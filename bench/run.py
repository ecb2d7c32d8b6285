#!/usr/bin/env python3
"""Fresh-process benchmark of the persistent code cache.

Run from the repository root:

    python3 bench/run.py --seed 1 [--out FILE]    all four workloads, then
                                                  one traced round each
    python3 bench/run.py --smoke                  one round per workload
    python3 bench/run.py --workload gui_warm --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --compare A.json B.json

The single-workload form prints one JSON object as its last line: the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``.  bench/README.md describes the workloads,
the metrics and the execution model.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import random
import select
import shutil
import signal
import statistics
import sys
import time
from collections import Counter
from contextlib import nullcontext

import spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_FILE = os.path.join(ROOT, "BENCHMARK.json")
WORK_ROOT = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("gui_cold", "gui_warm", "spec_ref", "farm_mixed")
#: Workloads whose timed runs start from a database warmed to a fixed
#: point: any translation or host compile in them is a failure.
WARM = ("gui_warm", "spec_ref")
#: Untraced rounds per workload in the full report (each >= 100 runs).
FULL_ROUNDS = {"gui_cold": 20, "gui_warm": 40, "spec_ref": 10,
               "farm_mixed": 5}
#: Wall seconds of one untraced round on the reference host (2-vCPU
#: Xeon), runs and host-speed samples included; sizes ``--seconds``.
ROUND_S = {"gui_cold": 2.75, "gui_warm": 0.49, "spec_ref": 1.85,
           "farm_mixed": 8.0}
#: A run sets up to SETUP_REPS times while the set-ups so far fit in
#: SETUP_BUDGET_S; ``setup_s`` is their median.  Cheap set-ups repeat,
#: long ones (one is already steady) run once.
SETUP_REPS = 3
SETUP_BUDGET_S = 8.0
#: Warm-up runs allowed before a database must stop changing.
WARM_MAX_RUNS = 6
CHILD_TIMEOUT_S = 120.0
#: Iterations of the host-speed loop, and the loop time that run times
#: are scaled to (see :func:`host_ms`).
HOST_LOOP_ITERS = 40_000
HOST_REF_MS = 3.2


class SetupError(Exception):
    """The workload could not be brought to its measured state."""


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/`` or exit non-zero."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        raise SystemExit("bench: cannot import repro from %s: %s" % (src, exc))
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit("bench: repro resolved outside %s" % src)
    # Everything a run child needs, imported once in the template.
    import repro.persist.sharedstore  # noqa: F401
    import repro.workloads.gui  # noqa: F401
    import repro.workloads.spec2k  # noqa: F401


# -- child processes -----------------------------------------------------------


def in_child(fn):
    """Run ``fn()`` in a child forked from this process.

    Returns ``(value, error, maxrss_kb)``: ``fn``'s JSON-able result, or
    a reason string when it raised, died or timed out.  The child is
    always reaped before this returns or raises.
    """
    sys.stdout.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            payload = {"value": fn()}
        except BaseException as exc:  # reported to the parent, never raised
            payload = {"error": "%s: %s" % (type(exc).__name__, exc)}
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pipe.write(json.dumps(payload).encode())
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks = []
    error = None
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    try:
        while True:
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([read_fd], [], [], left)[0]:
                error = "child timed out after %.0f s" % CHILD_TIMEOUT_S
                os.kill(pid, signal.SIGKILL)
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _pid, status, usage = os.wait4(pid, 0)
    if error is None and not chunks:
        error = "child died (wait status %d)" % status
    if error is not None:
        return None, error, usage.ru_maxrss
    try:
        payload = json.loads(b"".join(chunks))
    except ValueError:
        return None, "child sent a truncated result", usage.ru_maxrss
    return payload.get("value"), payload.get("error"), usage.ru_maxrss


def observable(result) -> list:
    """What a run must reproduce: exit status, output digest, insts."""
    return [result.exit_status, hashlib.sha256(result.output).hexdigest(),
            result.instructions]


def failure_reason(result, reference, warm: bool):
    """Why a finished VM run counts as failed, or None."""
    got = observable(result)
    if got != reference:
        return "differs from native reference: %r != %r" % (got, reference)
    report = result.persistence_report
    if (result.stats.persistence_degraded or report["fallback_jit_only"]
            or report["storage_errors"]):
        return "persistence degraded: %s" % report["degraded_reason"]
    for key in ("sidecar_state", "shared_store_state"):
        if report[key].startswith(("io-error", "write-error", "quarantined")):
            return "storage error: %s=%s" % (key, report[key])
    if warm and (result.stats.traces_translated
                 or report["sidecar_host_compiles"]):
        return "warm run translated %d traces and host-compiled %d bodies" % (
            result.stats.traces_translated, report["sidecar_host_compiles"])
    return None


def host_ms() -> float:
    """Wall time of a fixed pure-Python loop: the host-speed index.

    The shared host's speed drifts by several percent over tens of
    seconds, and it slows by up to half for stretches of a second or
    more.  A run child times the loop just before and just after its
    ``run_vm`` call, and the run's times are scaled by ``HOST_REF_MS``
    over the mean of the two, so that the slowdown cancels.
    """
    start = time.perf_counter()
    table = {}
    for i in range(HOST_LOOP_ITERS):
        table[i & 255] = table.get(i & 127, 0) + i
    return (time.perf_counter() - start) * 1e3


def timed_run(workload, input_name, db_dir, shared_dir, reference, warm,
              traced):
    """One ``run_vm`` call; executes inside a fresh run child."""
    from repro.persist.database import CacheDatabase
    from repro.persist.manager import PersistenceConfig
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.engine import VM_VERSION
    from repro.workloads import harness

    shared = SharedBodyStore(shared_dir, VM_VERSION) if shared_dir else None
    config = PersistenceConfig(
        database=CacheDatabase(db_dir, shared_store=shared)
    )
    recorder = spans.Recorder()
    run_vm = harness.run_vm
    tracing = nullcontext()
    if traced:
        run_vm = recorder.wrap(spans.ROOT, run_vm)
        tracing = spans.installed(recorder)
    loop_before = host_ms()
    with tracing:
        start = time.perf_counter()
        result = run_vm(workload, input_name, persistence=config)
        elapsed = time.perf_counter() - start
    loop_after = host_ms()
    stats = result.stats
    report = result.persistence_report
    links = result.link_stats
    return {
        "ms": elapsed * 1e3,
        "host_ms": (loop_before + loop_after) / 2,
        "fail": failure_reason(result, reference, warm),
        "counters": {
            "guest_insts": result.instructions,
            "vm_entries": stats.vm_entries,
            "translates": stats.traces_translated,
            "flushes": stats.cache_flushes,
            "ic_hits": result.ic_stats.hits,
            "ic_misses": result.ic_stats.misses,
            "chained_exits": links.link_direct_hops + links.link_ic_hops,
            "link_bounces": links.link_bounces,
            "regions": links.regions_fused,
            "host_compiles": report["sidecar_host_compiles"],
            "body_hits": report["sidecar_hits"],
            "shared_hits": report["shared_hits"],
            "shared_misses": report["shared_misses"],
            "shared_publishes": report["shared_publishes"],
            "preloaded": report["preloaded"],
            "invalidated": report["invalidated"],
        },
        "spans": recorder.spans,
    }


# -- workloads -------------------------------------------------------------------


def dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(base, name))
        for base, _dirs, names in os.walk(path) for name in names
    )


def dir_snapshot(path: str) -> list:
    """Every file's path, size and mtime: equal snapshots mean no write."""
    snapshot = []
    for base, _dirs, names in os.walk(path):
        for name in names:
            info = os.stat(os.path.join(base, name))
            snapshot.append((base, name, info.st_size, info.st_mtime_ns))
    return sorted(snapshot)


class Bench:
    """Template for one workload: its programs, cases, native references
    and the persistent state its timed runs start from.

    Built in the parent process, which never calls ``run_vm`` itself:
    every run, warm-up and reference executes in a forked child, so each
    child starts with the empty runtime memos of a new process.
    """

    def __init__(self, workload: str, seed: int, work_dir: str):
        from repro.workloads.gui import build_gui_suite
        from repro.workloads.spec2k import MULTI_INPUT_BENCHMARKS, build_suite

        self.workload = workload
        self.work_dir = work_dir
        self.rng = random.Random(seed)
        self.programs = {}
        self.cases = []
        if workload == "spec_ref":
            self.programs.update(build_suite())
            self.cases += [(name, "ref-1") for name in self.programs]
        else:
            apps, _store = build_gui_suite()
            self.programs.update(apps)
            self.cases += [(name, "startup") for name in apps]
        if workload == "farm_mixed":
            suite = build_suite(MULTI_INPUT_BENCHMARKS)
            self.programs.update(suite)
            self.cases += [
                (name, input_name) for name, program in suite.items()
                for input_name in sorted(program.inputs)
                if input_name.startswith("ref-")
            ]
        self.references = {}
        os.makedirs(work_dir)

    def close(self) -> None:
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def _path(self, *parts: str) -> str:
        return os.path.join(self.work_dir, *parts)

    def setup(self) -> list:
        """Native references, then (warm workloads) warm-up; returns the
        :func:`host_ms` samples taken on the way, one per child run."""
        from repro.workloads.harness import run_native

        def references():
            refs, loops = [], []
            for name, input_name in self.cases:
                refs.append(observable(run_native(self.programs[name],
                                                  input_name)))
                loops.append(host_ms())
            return refs, loops

        value, error, _rss = in_child(references)
        if error is not None:
            raise SetupError("native references: %s" % error)
        refs, loops = value
        self.references = dict(zip(self.cases, refs))
        if self.workload in WARM:
            for case in self.cases:
                loops += self._warm(case)
        return loops

    def _warm(self, case) -> list:
        """Repeat runs until one translates nothing, host-compiles
        nothing and leaves the database bytes unchanged; returns the
        runs' host-speed samples."""
        db_dir = self._path("db", case[0])
        loops = []
        for _attempt in range(WARM_MAX_RUNS):
            before = dir_snapshot(db_dir)
            run = self.run(case, db_dir, None, traced=False, warm=False)
            if run["fail"] is not None:
                raise SetupError("%s warm-up: %s" % (case, run["fail"]))
            loops.append(run["host_ms"])
            counters = run["counters"]
            if (not counters["translates"] and not counters["host_compiles"]
                    and dir_snapshot(db_dir) == before):
                return loops
        raise SetupError("%s: database still changing after %d runs"
                         % (case, WARM_MAX_RUNS))

    def run(self, case, db_dir, shared_dir, traced: bool, warm: bool) -> dict:
        name, input_name = case
        value, error, maxrss_kb = in_child(lambda: timed_run(
            self.programs[name], input_name, db_dir, shared_dir,
            self.references[case], warm, traced,
        ))
        if value is None:
            value = {"ms": None, "host_ms": None, "fail": error,
                     "counters": {}, "spans": []}
        value["case"] = list(case)
        value["traced"] = traced
        value["maxrss_kb"] = maxrss_kb
        value["layers"] = spans.self_times(value.pop("spans"))
        if value["ms"] is not None:
            scale = HOST_REF_MS / value["host_ms"]
            value["ms"] *= scale
            for total in value["layers"].values():
                total[0] *= scale
        return value

    def run_round(self, order, traced: bool):
        """Every case once, in ``order``; returns ``(runs, cache bytes on
        disk after the round)``."""
        warm = self.workload in WARM
        runs = []
        cold_bytes = 0
        pass_dir = self._path("pass")
        for case in order:
            if self.workload == "gui_cold":
                db_dir = self._path("cold")
                runs.append(self.run(case, db_dir, None, traced, warm))
                cold_bytes += dir_bytes(db_dir)
                shutil.rmtree(db_dir, ignore_errors=True)
            elif self.workload == "farm_mixed":
                runs.append(self.run(
                    case, os.path.join(pass_dir, case[0]),
                    os.path.join(pass_dir, "shared"), traced, warm,
                ))
            else:
                runs.append(self.run(case, self._path("db", case[0]), None,
                                     traced, warm))
        if self.workload == "gui_cold":
            return runs, cold_bytes
        if self.workload == "farm_mixed":
            nbytes = dir_bytes(pass_dir)
            shutil.rmtree(pass_dir, ignore_errors=True)
            return runs, nbytes
        return runs, dir_bytes(self._path("db"))


def prepare(workload: str, seed: int, work_dir: str, reps: int):
    """Set the workload up to ``reps`` times, while another set-up still
    fits in :data:`SETUP_BUDGET_S`; returns the last template and the
    median set-up time in seconds (template build, native references and
    warm-up).  Each set-up's time is scaled for host speed like a run's,
    by the median of the loop samples taken around and during it."""
    times = []
    raw_s = 0.0
    while True:
        loops = [host_ms()]
        start = time.perf_counter()
        bench = Bench(workload, seed,
                      os.path.join(work_dir, "setup%d" % len(times)))
        # Children then skip the template's heap in every collection
        # and do not copy its pages by touching their GC headers.
        gc.freeze()
        try:
            loops += bench.setup()
        except BaseException:
            bench.close()
            raise
        elapsed = time.perf_counter() - start
        loops.append(host_ms())
        raw_s += elapsed
        times.append(elapsed * HOST_REF_MS / statistics.median(loops))
        if (len(times) == reps or raw_s / len(times) * (len(times) + 1)
                > SETUP_BUDGET_S):
            break
        bench.close()
        del bench
        gc.unfreeze()
        gc.collect()
    return bench, statistics.median(times)


def measure(bench: Bench, pattern, rounds: int, seconds=None):
    """Repeat ``pattern`` (a tuple of traced flags, one per round)
    ``rounds`` times; returns the runs and the untraced rounds' cache
    bytes.

    The rounds of one repetition share its case order.  Odd repetitions
    draw a new seeded order and even ones run the previous order
    backwards, so that within a pair every case runs as early as it runs
    late: on the farm, where a case's cost depends on what ran before
    it in the pass, that keeps the seed from moving the percentiles.
    With ``seconds``, stop early, but not before the first pair, when
    one more repetition would end past that deadline, so a slow host
    does not stretch the run."""
    runs = []
    cache_bytes = []
    start = time.perf_counter()
    order = list(bench.cases)
    for done in range(1, rounds + 1):
        if done % 2:
            bench.rng.shuffle(order)
        else:
            order.reverse()
        for traced in pattern:
            round_runs, nbytes = bench.run_round(order, traced)
            runs += round_runs
            if not traced:
                cache_bytes.append(nbytes)
        elapsed = time.perf_counter() - start
        if (seconds is not None and done >= 2
                and elapsed * (done + 1) / done > seconds):
            break
    return runs, cache_bytes


def rounds_for(workload: str, seconds: float, pattern) -> int:
    """Repetitions of ``pattern`` that take about ``seconds`` on the
    reference host.  A fixed count, so that every run of a workload
    measures the same work and sample count unless the host is slow."""
    return max(1, round(seconds / (ROUND_S[workload] * len(pattern))))


# -- metrics ---------------------------------------------------------------------


def unit_of(name: str) -> str:
    for suffix, unit in (("_per_s", "1/s"), ("_ms", "ms"), ("_s", "s"),
                         ("_mb", "MB"), ("_ratio", "ratio"),
                         ("_rate", "ratio"), ("_pct", "%"),
                         ("_per_guest_inst", "ns")):
        if name.endswith(suffix):
            return unit
    return "count"


def percentile(values, pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(runs, cache_bytes, setup_s: float) -> dict:
    """Metrics of the untraced runs; ``error_rate`` counts every run."""
    untraced = [run for run in runs if not run["traced"]]
    times = [run["ms"] for run in untraced if run["fail"] is None]
    if not times:
        raise SetupError("no untraced run succeeded")
    return {
        "run_p50_ms": statistics.median(times),
        "run_p90_ms": percentile(times, 90),
        "runs_per_s": len(times) / (sum(times) / 1e3),
        "cache_mb": statistics.median(cache_bytes) / 1e6,
        "peak_rss_mb": max(run["maxrss_kb"] for run in untraced) * 1024 / 1e6,
        "setup_s": setup_s,
        "error_rate": sum(run["fail"] is not None for run in runs) / len(runs),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs) -> dict:
    """Per-run means of the traced runs' layer times and counters."""
    traced = [run for run in runs if run["traced"] and run["fail"] is None]
    plain = [run["ms"] for run in runs
             if not run["traced"] and run["fail"] is None]
    if not traced or not plain:
        raise SetupError("no traced and untraced run pair succeeded")
    n = len(traced)
    self_ns = Counter()
    calls = Counter()
    c = Counter()
    for run in traced:
        for name, (ns, count) in run["layers"].items():
            self_ns[name] += ns
            calls[name] += count
        c.update(run["counters"])
    traced_ms = statistics.fmean(run["ms"] for run in traced)
    metrics = {
        name + "_ms": self_ns[name] / 1e6 / n
        for name in [layer[0] for layer in spans.LAYERS] + [spans.ROOT]
    }
    metrics.update({
        "vm.trace.selects": calls["vm.trace.select"] / n,
        "vm.translator.translates": c["translates"] / n,
        "vm.compile.compiles": calls["vm.compile.compile"] / n,
        "vm.compile.regions": c["regions"] / n,
        "vm.compile.host_compiles": c["host_compiles"] / n,
        "vm.compile.body_hit_ratio": _ratio(
            c["body_hits"], c["body_hits"] + c["host_compiles"]),
        "vm.codecache.inserts": calls["vm.codecache.insert"] / n,
        "vm.codecache.flushes": c["flushes"] / n,
        "vm.engine.guest_insts": c["guest_insts"] / n,
        "vm.engine.ns_per_guest_inst": _ratio(
            self_ns["vm.engine.self"], c["guest_insts"]),
        "vm.engine.vm_entries": c["vm_entries"] / n,
        "vm.engine.ic_hit_ratio": _ratio(
            c["ic_hits"], c["ic_hits"] + c["ic_misses"]),
        "vm.engine.chained_exits": c["chained_exits"] / n,
        "vm.engine.link_bounces": c["link_bounces"] / n,
        "persist.manager.preloaded": c["preloaded"] / n,
        "persist.manager.invalidated": c["invalidated"] / n,
        "persist.manager.revive_ratio": _ratio(
            c["preloaded"], c["preloaded"] + c["translates"]),
        "persist.sidecar.hits": (c["body_hits"] - c["shared_hits"]) / n,
        "persist.sharedstore.hit_ratio": _ratio(
            c["shared_hits"], c["shared_hits"] + c["shared_misses"]),
        "persist.sharedstore.publishes": c["shared_publishes"] / n,
        # The wall time the layer times add up to.
        "trace.run_ms": traced_ms,
        "trace.overhead_pct": 100 * (traced_ms / statistics.fmean(plain) - 1),
    })
    return metrics


def isolation_checks(results: dict) -> list:
    """``(name, passed, detail)`` for the properties the workloads were
    chosen for, from each workload's traced round."""
    checks = []
    for workload, result in results.items():
        layers = result["per_layer"]
        wall = layers["trace.run_ms"]
        attributed = sum(value for name, value in layers.items()
                         if name.endswith("_ms") and name != "trace.run_ms")
        checks.append(("%s: layers + other within 5%% of traced wall"
                       % workload, abs(attributed / wall - 1) <= 0.05,
                       "%.2f of %.2f ms" % (attributed, wall)))
        checks.append(("%s: error_rate 0" % workload,
                       result["end_to_end"]["error_rate"] == 0,
                       "; ".join(result["failures"][:3])))
        shared = sum(value for name, value in layers.items()
                     if name.startswith("persist.sharedstore.")
                     and name.endswith("_ms"))
        if workload == "farm_mixed":
            checks.append(("farm_mixed: persist.sharedstore.* non-zero",
                           shared > 0, "%.3f" % shared))
        else:
            checks.append(("%s: persist.sharedstore.* zero" % workload,
                           shared == 0, "%.3f" % shared))
        share = None
        if workload == "gui_cold":
            share = ("vm.compile", 0.50, layers["vm.compile.compile_ms"]
                     + layers["vm.compile.region_ms"])
        elif workload == "spec_ref":
            share = ("vm.engine.self", 0.80, layers["vm.engine.self_ms"])
        elif workload == "gui_warm":
            share = ("persist.*", 0.25, sum(
                value for name, value in layers.items()
                if name.startswith("persist.") and name.endswith("_ms")))
        if share is not None:
            label, floor, value = share
            checks.append(("%s: %s >= %d%% of run time"
                           % (workload, label, floor * 100),
                           value / wall >= floor,
                           "%.1f%%" % (100 * value / wall)))
    return checks


# -- modes -----------------------------------------------------------------------


def load_spec() -> dict:
    with open(SPEC_FILE) as handle:
        return json.load(handle)


def bench_workload(workload: str, seed: int, work_dir: str, reps: int,
                   plans):
    """Set one workload up, then :func:`measure` each ``(pattern,
    rounds, seconds)`` of ``plans`` on the same template; returns the
    set-up time and one ``(runs, cache_bytes)`` per plan."""
    bench, setup_s = prepare(workload, seed, work_dir, reps)
    try:
        return setup_s, [measure(bench, *plan) for plan in plans]
    finally:
        bench.close()
        gc.unfreeze()


def contract_mode(args) -> int:
    """One workload for about ``--seconds``; the last stdout line is the
    result object the harness reads."""
    spec = load_spec()
    pattern = (False, True) if args.trace else (False,)
    seconds = args.seconds or spec["run_seconds"]
    rounds = rounds_for(args.workload, seconds, pattern)
    work_dir = os.path.join(WORK_ROOT, "%s-%d" % (args.workload, os.getpid()))
    try:
        setup_s, [(runs, cache_bytes)] = bench_workload(
            args.workload, args.seed, work_dir, SETUP_REPS,
            [(pattern, rounds, seconds)],
        )
        if args.trace:
            values = layer_metrics(runs)
            names = [metric["name"] for metric in spec["per_layer"]]
        else:
            values = end_to_end(runs, cache_bytes, setup_s)
            names = [metric["name"] for metric in spec["end_to_end"]]
    except SetupError as exc:
        print("bench: %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = sum(run["fail"] is not None for run in runs)
    for run in runs:
        if run["fail"] is not None:
            print("failed %s: %s" % (run["case"], run["fail"]))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit_of(name)}
                    for name in names},
    }))
    return 0


def full_mode(args) -> int:
    """Every workload: untraced rounds, then an untraced and a traced
    round in one order for the layer split; prints a report and
    optionally writes it as JSON."""
    rounds = 1 if args.smoke else None
    reps = 1 if args.smoke else SETUP_REPS
    results = {}
    work_dir = os.path.join(WORK_ROOT, "full-%d" % os.getpid())
    try:
        for workload in WORKLOADS:
            setup_s, [(runs, cache_bytes), (paired, paired_bytes)] = (
                bench_workload(
                    workload, args.seed, os.path.join(work_dir, workload),
                    reps, [((False,), rounds or FULL_ROUNDS[workload]),
                           ((False, True), 1)],
                ))
            runs += paired
            results[workload] = {
                "samples": sum(not run["traced"] for run in runs),
                "host_loop_ms": statistics.median(
                    run["host_ms"] for run in runs if run["ms"] is not None),
                "attempted": len(runs),
                "failed": sum(run["fail"] is not None for run in runs),
                "failures": ["%s: %s" % (run["case"], run["fail"])
                             for run in runs if run["fail"] is not None],
                "end_to_end": end_to_end(
                    runs, cache_bytes + paired_bytes, setup_s),
                "per_layer": layer_metrics(paired),
            }
            print_workload(workload, results[workload])
    except SetupError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    checks = isolation_checks(results)
    print("\nchecks")
    for name, passed, detail in checks:
        print("  %-4s %s  %s" % ("ok" if passed else "FAIL", name, detail))
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"seed": args.seed, "smoke": args.smoke,
                       "workloads": results,
                       "checks": [list(check) for check in checks]},
                      handle, indent=1, sort_keys=True)
    return 0 if all(passed for _name, passed, _detail in checks) else 1


def print_workload(workload: str, result: dict) -> None:
    print("\n%s  (%d timed runs, %d attempted, %d failed, host loop %.3f ms)"
          % (workload, result["samples"], result["attempted"],
             result["failed"], result["host_loop_ms"]))
    for section in ("end_to_end", "per_layer"):
        for name, value in result[section].items():
            print("  %-34s %14.4f %s" % (name, value, unit_of(name)))


def compare_mode(path_a: str, path_b: str) -> int:
    """One row per workload and metric of two full reports; rows whose
    change is worse than the metric's bound are marked."""
    spec = load_spec()
    bounds = {metric["name"]: (metric["bound"], metric["better"])
              for metric in spec["end_to_end"]}
    bounds["error_rate"] = (0.0, "lower")
    with open(path_a) as handle:
        a = json.load(handle)["workloads"]
    with open(path_b) as handle:
        b = json.load(handle)["workloads"]
    print("%-11s %-34s %14s %14s %9s %7s" % (
        "workload", "metric", "A", "B", "change", "bound"))
    worse = 0
    for workload in [name for name in WORKLOADS if name in a and name in b]:
        for section in ("end_to_end", "per_layer"):
            for name, value_a in a[workload][section].items():
                if name not in b[workload][section]:
                    continue
                value_b = b[workload][section][name]
                change = (value_b - value_a) / abs(value_a) if value_a else (
                    0.0 if value_b == value_a else float("inf"))
                bound, better = bounds.get(name, (None, None))
                mark = ""
                if bound is not None:
                    loss = change if better == "lower" else -change
                    if loss > bound:
                        mark = "  OUTSIDE"
                        worse += 1
                print("%-11s %-34s %14.4f %14.4f %+8.1f%% %7s%s" % (
                    workload, name, value_a, value_b, 100 * change,
                    "-" if bound is None else "%g%%" % (100 * bound), mark))
    print("%d metric(s) outside their bound" % worse)
    return 1 if worse else 0


def main(argv=None) -> int:
    # A terminated parent unwinds, so its live child is killed and
    # reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="measure one workload (single-result mode)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full report as JSON")
    parser.add_argument("--smoke", action="store_true",
                        help="one round per workload, one set-up")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_mode(*args.compare)
    import_repro()
    if args.workload:
        return contract_mode(args)
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
