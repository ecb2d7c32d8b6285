"""Wall-clock benchmark harness: host seconds, not simulated cycles.

The cycle-level benchmarks regenerate the paper's figures from the cost
model; this harness times how fast the simulator itself gets through
the same workload families, each as an A/B pair of modes (baseline
first) with a correctness gate.

Each family is declared once, by :func:`_family` on the function that
builds its sweep, and that function's docstring describes the family.
A declaration (:class:`Family`) holds the family's name and two modes,
the sweep builder, the table cells and detail lines the family adds to
the generic report, and its named ``--check`` predicates
(:class:`Check`).  The builder does the family's untimed setup and
returns a :class:`Sweep`, which also runs the family's time-to-first-
output case.  :func:`run_wallclock`, :func:`render` and :func:`judge`
loop over :data:`FAMILIES`; ``repro bench`` and
``benchmarks/test_wallclock.py`` call them and name no family.

Methodology: each family is timed as a full sweep (every case in the
family, sequentially) under each mode.  Before timing, one sweep per
mode is compared field-for-field (output, exit status, every
:class:`VMStats` counter) into ``identical_results``, and every family's
gate requires it, so a reported speedup can never come from divergent
behavior.  Sweeps then run ``warmup`` untimed repetitions — standard
JIT-benchmark practice, here amortizing the host ``compile()`` of trace
closures, which the factory memo (:mod:`repro.vm.compile`) shares across
runs exactly like the paper's persistent code cache shares translations
across executions — then ``reps`` timed repetitions, interleaved across
the two modes with the cycle collector paused.  The headline score is
the trimmed mean (the highest rep dropped, since timing noise only
inflates); per-mode minima and the max-over-min spread are reported
alongside so a surprising headline can be checked against run-to-run
noise without rerunning, and the report warns when a spread exceeds
:data:`SPREAD_WARN_PCT`.

Every family with a probe also reports per-mode time-to-first-output
(``<mode>_ttfo_s``, minimum over ``max(2, reps)`` probes) and the
contender/baseline ratio (``ttfo_ratio_x``).  A probe is one run of the
family's TTFO case through its own sweep path, against the databases
that sweep prepared, with a :class:`FirstOutputTimer` spliced into the
output buffer; a program that never writes falls back to time-to-exit.

The result dictionary is also written as ``BENCH_wallclock.json`` at
the repository root by :func:`run_wallclock` when ``out_path`` is given
(the CLI and the benchmark suite both do), atomically, so an interrupted
write leaves the previous file whole.  A selective run (``--family X``)
merges into the existing file instead of clobbering it: families
measured this invocation are refreshed, families measured by earlier
invocations are preserved, and the ``gate`` block is recomputed over the
merged set — so a quick single-family rerun never erases the rest of
the recorded trajectory.
"""

from __future__ import annotations

import gc
import json
import operator
import os
import platform
import shutil
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.storage import FileStorage
from repro.vm.compile import clear_code_object_cache
from repro.vm.engine import VMConfig
from repro.workloads.harness import FirstOutputTimer, run_vm
from repro.workloads.gui import build_gui_suite
from repro.workloads.oracle import PHASES, build_oracle
from repro.workloads.spec2k import build_suite

#: The acceptance gate: compiled dispatch must beat interpreted dispatch
#: by at least this factor (wall-clock) on the fig5a GUI workload.
GATE_WORKLOAD = "fig5a_gui"
GATE_THRESHOLD_X = 1.5

#: A mode whose max-over-min spread exceeds this ran on a machine too
#: loaded for its family's speedup to be trusted.
SPREAD_WARN_PCT = 25.0

_MODES = ("interpreted", "compiled")


class Check(NamedTuple):
    """One named ``--check`` predicate: ``<name> <op> <bound>``.

    ``name`` is the family field judged (a dotted name reaches into
    nested dicts) unless ``value`` derives it from the family; a string
    ``bound`` names another field of the same family.  An absent field
    fails.  A ``quiet`` predicate is a timing floor too noise-sensitive
    for ``--check``: only ``judge(..., quiet=True)``, which the
    benchmark suite runs on a quiet host, applies it.
    """

    name: str
    op: str = "=="
    bound: object = True
    value: Optional[Callable[[dict], object]] = None
    quiet: bool = False


_OPS = {
    "==": operator.eq,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Judged first on every family: both modes agreed bit-for-bit.
IDENTICAL = Check("identical_results")


class Sweep(NamedTuple):
    """A family's prepared sweep.

    ``run(mode)`` runs every case once under ``mode`` and returns the
    results; ``extras()`` returns the family's own JSON keys once timing
    is done; ``first_output_s(mode)`` is the time-to-first-output probe,
    or None for a family without one.
    """

    run: Callable[[str], list]
    extras: Callable[[], Dict[str, object]]
    first_output_s: Optional[Callable[[str], float]] = None


class Family(NamedTuple):
    """One ``repro bench`` family, declared by :func:`_family`.

    ``prepare(scratch_dir)`` does the family's untimed setup and returns
    its :class:`Sweep`.  ``checks`` are its ``--check`` predicates after
    :data:`IDENTICAL`; ``cells(family)`` maps column labels to the
    formatted values the family adds to its table row, and
    ``details(family)`` returns its detail lines.
    """

    name: str
    modes: Tuple[str, str]
    prepare: Callable[[str], Sweep]
    checks: Tuple[Check, ...] = ()
    cells: Callable[[dict], Dict[str, str]] = lambda family: {}
    details: Callable[[dict], List[str]] = lambda family: []


#: Every family, in the order a full run measures them.
FAMILIES: List[Family] = []


def _family(name: str, modes: Tuple[str, str] = _MODES, **declaration):
    """Declare the decorated function as family ``name``'s sweep
    builder; ``declaration`` holds the other :class:`Family` fields."""

    def declare(prepare: Callable[[str], Sweep]) -> Callable[[str], Sweep]:
        FAMILIES.append(Family(name, modes, prepare, **declaration))
        return prepare

    return declare


def _result_signature(result) -> tuple:
    """Everything observable about a run, for cross-tier comparison."""
    return (result.output, result.exit_status, vars(result.stats))


def _observed(result) -> tuple:
    """What the program itself printed and returned (native runs too)."""
    return (result.output, result.exit_status)


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
    modes: Tuple[str, str],
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


def _compiled(_mode: str) -> VMConfig:
    """Both modes run the compiled tier; they differ in persistence."""
    return _config("compiled")


def _case_sweep(
    cases: Sequence[tuple],
    config: Callable[[str], VMConfig],
    persistence: Optional[Callable[[str, str], object]] = None,
    fresh: bool = False,
    collect: Optional[Callable[[str, list], Dict[str, object]]] = None,
    extras: Callable[[], Dict[str, object]] = dict,
    ttfo: Optional[str] = None,
) -> Sweep:
    """A sweep over ``(name, workload, input_name)`` cases, in order.

    ``config(mode)`` and ``persistence(mode, name)`` configure each run.
    ``fresh`` clears the in-process factory memo before every sweep and
    every probe, so each pays a fresh process's host ``compile()`` cost.
    ``collect(mode, results)`` reads JSON keys off every full sweep (a
    probe is not one); the latest value of each joins ``extras()``.  The
    time-to-first-output probe runs case ``ttfo`` (default: the first)
    through the same path.
    """
    collected: Dict[str, object] = {}

    def run_case(mode: str, case: tuple, output_timer=None):
        name, workload, input_name = case
        return run_vm(
            workload,
            input_name,
            persistence=persistence(mode, name) if persistence else None,
            vm_config=config(mode),
            output_timer=output_timer,
        )

    def run(mode: str) -> list:
        if fresh:
            clear_code_object_cache()
        results = [run_case(mode, case) for case in cases]
        if collect is not None:
            collected.update(collect(mode, results))
        return results

    probe_case = (cases[0] if ttfo is None
                  else next(case for case in cases if case[0] == ttfo))

    def first_output_s(mode: str) -> float:
        if fresh:
            clear_code_object_cache()
        timer = FirstOutputTimer()
        start = time.perf_counter()
        run_case(mode, probe_case, timer)
        stamp = timer.first_output_s
        if stamp is None:
            stamp = time.perf_counter()
        return stamp - start

    return Sweep(run, lambda: dict(collected, **extras()), first_output_s)


def _gui_cases() -> List[tuple]:
    apps, _store = build_gui_suite()
    return [(name, app, "startup") for name, app in sorted(apps.items())]


def _populated_databases(
    scratch_dir: str, prefix: str, cases: Sequence[tuple]
) -> Dict[str, CacheDatabase]:
    """One database per case, populated by an untimed cold run."""
    databases = {}
    for name, workload, input_name in cases:
        db = CacheDatabase(os.path.join(scratch_dir, prefix + name))
        run_vm(workload, input_name,
               persistence=PersistenceConfig(database=db),
               vm_config=_config("compiled"))
        databases[name] = db
    return databases


def _host_total(results: list, name: str) -> int:
    """One :class:`~repro.vm.stats.HostStats` counter summed over runs."""
    return sum(result.host.to_dict()[name] for result in results)


def _host_group(result, group: str) -> Dict[str, object]:
    """One ``HostStats`` group of a run (``ic``, ``links``, ``cache``),
    keyed without its prefix."""
    prefix = group + "."
    return {
        key[len(prefix):]: value
        for key, value in result.host.to_dict().items()
        if key.startswith(prefix)
    }


@_family(
    "fig5a_gui",
    checks=(Check("speedup_trimmed_x", ">=", GATE_THRESHOLD_X),),
)
def _fig5a_gui(scratch_dir: str) -> Sweep:
    """GUI startup with a warm same-input persistent cache (Figure 5(a)).

    Warm runs revive every trace from the persistent cache and spend
    their time executing, which is exactly what trace-compiled dispatch
    accelerates; this is the acceptance gate's family
    (:data:`GATE_THRESHOLD_X`, which ``--check-threshold`` overrides).
    """
    cases = _gui_cases()
    databases = _populated_databases(scratch_dir, "fig5a-", cases)
    return _case_sweep(
        cases, _config,
        persistence=lambda mode, name: PersistenceConfig(
            database=databases[name]
        ),
    )


@_family("fig2b_gui")
def _fig2b_gui(scratch_dir: str) -> Sweep:
    """Plain GUI startup, no persistence (Figure 2(b))."""
    return _case_sweep(_gui_cases(), _config)


@_family("headline_spec")
def _headline_spec(scratch_dir: str) -> Sweep:
    """The SPEC2K INT suite (Train inputs) plus the Oracle phases, no
    persistence."""
    cases = [(name, workload, "train")
             for name, workload in sorted(build_suite().items())]
    oracle = build_oracle()
    cases.extend(("oracle-" + phase, oracle, phase) for phase in PHASES)
    return _case_sweep(cases, _config)


@_family(
    "sidecar_cold_warm",
    ("cold", "warm"),
    checks=(
        Check("host_compiles_warm", "==", 0),
        Check("host_compiles_cold", ">", 0),
    ),
    cells=lambda f: {
        "host_compiles": "%d/%d"
        % (f["host_compiles_cold"], f["host_compiles_warm"]),
    },
)
def _sidecar_cold_warm(scratch_dir: str) -> Sweep:
    """Cold vs. warm host-compile cost of the compiled-body sidecar.

    Both modes run the compiled tier against a warm per-app trace
    database, so no translation happens and the modes' simulated work is
    identical.  ``cold`` clears the in-process factory memo and disables
    the sidecar before each sweep — every hot trace pays a fresh host
    ``compile()``, the first-run-of-a-new-process cost.  ``warm`` also
    clears the memo but revives every factory from the on-disk sidecar.
    The wall-clock gap is exactly the host-compile work the sidecar
    removes, and the per-mode host-compile counts show the warm path
    compiles nothing while the cold one pays.
    """
    cases = _gui_cases()
    databases = _populated_databases(scratch_dir, "sidecar-", cases)
    return _case_sweep(
        cases, _compiled,
        persistence=lambda mode, name: PersistenceConfig(
            database=databases[name], sidecar=(mode == "warm")
        ),
        fresh=True,
        collect=lambda mode, results: {
            "host_compiles_" + mode: _host_total(results, "host_compiles"),
        },
    )


@_family(
    "shared_store",
    ("isolated", "shared"),
    checks=(
        Check("host_compiles_shared", "==", 0),
        Check("host_compiles_isolated", ">", 0),
        Check("shared_hits_shared", ">", 0),
    ),
    cells=lambda f: {
        "host_compiles": "%d/%d"
        % (f["host_compiles_isolated"], f["host_compiles_shared"]),
        "shared_hits": "%d" % f["shared_hits_shared"],
    },
)
def _shared_store(scratch_dir: str) -> Sweep:
    """Cross-database body reuse through the per-host shared store: the
    cross-application configuration of the paper's Figures 9/10, one
    level up.

    Setup (untimed): for each GUI app, a donor database attached to one
    shared store (:mod:`repro.persist.sharedstore`) runs the app cold,
    publishing its compiled bodies.  The timed sweeps then run each app
    against a *consumer* database that never saw any workload (empty,
    read-only, so it stays cold across repetitions): ``isolated``
    detaches the store and pays every host ``compile()``; ``shared``
    revives the bodies the donors published.  The gate requires zero
    shared-mode host compiles, a nonzero isolated count (so the zero
    means something) and at least one shared hit.
    """
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.engine import VM_VERSION

    cases = _gui_cases()
    shared = SharedBodyStore(
        os.path.join(scratch_dir, "shared-store"), vm_version=VM_VERSION
    )
    consumers = {}
    for name, app, input_name in cases:
        donor = CacheDatabase(
            os.path.join(scratch_dir, "shared-donor-" + name),
            shared_store=shared,
        )
        clear_code_object_cache()
        run_vm(app, input_name, persistence=PersistenceConfig(database=donor),
               vm_config=_config("compiled"))
        consumers[name] = CacheDatabase(
            os.path.join(scratch_dir, "shared-consumer-" + name)
        )

    def collect(mode: str, results: list) -> Dict[str, object]:
        counts = {"host_compiles_" + mode: _host_total(
            results, "host_compiles"
        )}
        if mode == "shared":
            counts["shared_hits_shared"] = _host_total(results, "shared_hits")
        return counts

    return _case_sweep(
        cases, _compiled,
        persistence=lambda mode, name: PersistenceConfig(
            database=consumers[name],
            readonly=True,
            shared_store=(shared if mode == "shared" else None),
        ),
        fresh=True, collect=collect,
    )


def _ic_lines(family: dict) -> List[str]:
    lines = ["indirect_heavy inline-cache chains (compiled tier):"]
    for corpus, ic in sorted(family["ic_per_corpus"].items()):
        lines.append(
            "  %-17s hit rate %5.1f%%  hits/misses %d/%d  promotions %d  "
            "depth hits %s"
            % (corpus, 100.0 * ic["hit_rate"], ic["hits"], ic["misses"],
               ic["promotions"], ic["depth_hits"])
        )
    return lines


@_family(
    "indirect_heavy",
    checks=(
        # The chains must engage on the corpora built to fit them.
        # Megamorphic is excluded: its callr site cycles more targets
        # than the chain holds, so a low hit rate there is by design.
        Check("ic_per_corpus.alternating_pair.hit_rate", ">", 0.8),
        Check("ic_per_corpus.rotating_3.hit_rate", ">", 0.8),
    ),
    details=_ic_lines,
)
def _indirect_heavy(scratch_dir: str) -> Sweep:
    """Indirect-branch-bound corpora, no persistence.

    Each corpus keeps one ``callr`` dispatch site hot with a different
    dynamic target population (two, three, eight) so the polymorphic IC
    chain (:mod:`repro.vm.compile`) is exercised at every depth —
    including overflow, where the megamorphic corpus must degrade to the
    dispatcher path rather than thrash.  The compiled sweep's per-corpus
    IC counters (``ic_per_corpus``) make the chains' engagement
    gateable rather than inferred from the speedup alone.
    """
    from repro.workloads.indirect import build_indirect_suite

    cases = [(name, workload, "run")
             for name, workload in sorted(build_indirect_suite().items())]

    def collect(mode: str, results: list) -> Dict[str, object]:
        if mode != "compiled":
            return {}
        per_corpus = {
            name: _host_group(result, "ic")
            for (name, _workload, _input), result in zip(cases, results)
        }
        totals = {"ic_" + key: sum(c[key] for c in per_corpus.values())
                  for key in ("hits", "misses")}
        return dict(totals, ic_per_corpus=per_corpus)

    return _case_sweep(cases, _config, collect=collect)


def _link_lines(family: dict) -> List[str]:
    lines = ["trace_linking chain corpora (linked compiled tier):"]
    for corpus, link in sorted(family["link_per_corpus"].items()):
        lines.append(
            "  %-10s direct hops %-7d region entries/hops %d/%d  "
            "fused %d  bounces %d"
            % (corpus, link["link_direct_hops"], link["region_entries"],
               link["region_hops"], link["regions_fused"],
               link["link_bounces"])
        )
    return lines


@_family(
    "trace_linking",
    ("nolink", "linked"),
    checks=(
        Check("oracle_identical"),
        Check("link_bounces", "==", 0),
        Check("regions_fused", ">", 0),
        Check("speedup_trimmed_x", ">=", 1.3, quiet=True),
    ),
    cells=lambda f: {
        "bounces": "%d" % f["link_bounces"],
        "regions": "%d" % f["regions_fused"],
        "oracle": str(f["oracle_identical"]),
    },
    details=_link_lines,
)
def _trace_linking(scratch_dir: str) -> Sweep:
    """Chain-heavy corpora (:mod:`repro.workloads.chains`): linked vs.
    unlinked compiled dispatch, no persistence.

    Both modes run the compiled tier: ``nolink`` disables the chain
    trampoline (``trace_linking=False``), ``linked`` enables direct-exit
    linking plus superblock fusion.  Both execute identical simulated
    work (the trampoline and the fused regions are host-side only), so
    ``identical_results`` compares them, and ``oracle_identical``
    additionally pins every linked sweep against the interpreted oracle.
    The linked sweep's per-corpus link/region counters
    (``link_per_corpus``) let the gate require zero dispatcher bounces
    and engaged fusion rather than read the speedup alone.
    """
    from repro.workloads.chains import build_chain_suite

    cases = [(name, workload, "run")
             for name, workload in sorted(build_chain_suite().items())]
    oracle_sigs = {
        name: _result_signature(
            run_vm(workload, input_name,
                   vm_config=VMConfig(dispatch_mode="interpreted"))
        )
        for name, workload, input_name in cases
    }
    diverged: List[str] = []

    def config(mode: str) -> VMConfig:
        return VMConfig(dispatch_mode="compiled",
                        trace_linking=(mode == "linked"))

    def collect(mode: str, results: list) -> Dict[str, object]:
        if mode != "linked":
            return {}
        per_corpus = {}
        for (name, _workload, _input), result in zip(cases, results):
            per_corpus[name] = _host_group(result, "links")
            if _result_signature(result) != oracle_sigs[name]:
                diverged.append(name)
        totals = {key: sum(c[key] for c in per_corpus.values())
                  for key in ("link_bounces", "regions_fused",
                              "chained_exits")}
        return dict(totals, oracle_identical=not diverged,
                    link_per_corpus=per_corpus)

    return _case_sweep(cases, config, collect=collect)


def _record_overhead_pct(family: dict) -> float:
    return 100.0 * (family["record_s"] / family["plain_s"] - 1.0)


@_family(
    "record_overhead",
    ("plain", "record"),
    checks=(Check("overhead_pct", "<", 10.0, value=_record_overhead_pct),),
    cells=lambda f: {"overhead": "%.1f%%" % _record_overhead_pct(f)},
)
def _record_overhead(scratch_dir: str) -> Sweep:
    """Recording cost on plain GUI startup (acceptance: under 10%).

    ``plain`` runs with no persistence session at all; ``record``
    attaches a recording session (:mod:`repro.replay`) with no database:
    the log is captured in memory, which is all the per-syscall cost
    there is — the baseline snapshot and write-out happen at
    store/access time, outside the 10% criterion.  Results must be
    identical: recording never alters the run it observes.
    """
    return _case_sweep(
        _gui_cases(), _compiled,
        persistence=lambda mode, name: (
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


def _prewarm_lines(family: dict) -> List[str]:
    lines = ["prewarm cold-sweep wall clock (%d cores):"
             % family["cpu_count"]]
    for row in family["prewarm_jobs_sweep"]:
        lines.append(
            "  --jobs %d  %.2fs  compiled %d  admitted %d%s"
            % (row["jobs"], row["wall_s"], row["compiled"], row["admitted"],
               "" if row.get("monotonic_ok", True) else "  (regressed)")
        )
    return lines


@_family(
    "tiered_warmup",
    ("eager", "tiered"),
    checks=(
        Check("oracle_identical"),
        Check("ttfo_ratio_x", "<=", 0.6),
        Check("prewarm_warm_host_compiles", "==", 0),
        Check("jobs_monotonic_ok"),
    ),
    cells=lambda f: {
        "ttfo_ratio": "%.2f" % f["ttfo_ratio_x"],
        "warm_compiles": "%d" % f["prewarm_warm_host_compiles"],
        "jobs_mono": str(f["jobs_monotonic_ok"]),
        "oracle": str(f["oracle_identical"]),
    },
    details=_prewarm_lines,
)
def _tiered_warmup(scratch_dir: str) -> Sweep:
    """Cold startup corpus (:mod:`repro.workloads.warmup`): compile
    threshold 1 (``eager``) vs. the default tier-up (``tiered``).

    Each sweep and probe clears the in-process factory memo, so both
    modes pay the full cold-start cost.  The headline is
    time-to-first-output on ``GATE_APP``: the tiered mode interprets
    cold traces until they prove reuse, so the program reaches its first
    write without paying host ``compile()`` for startup code that runs
    once.  The interpreted oracle pins the tiered mode's observable
    behavior; the extras carry a ``repro prewarm`` sweep over ``--jobs
    1/2/4`` (cold-sweep wall clock per job count, core-aware
    monotonicity flag) and the warm-run host-compile count against the
    prewarmed stores (must be zero).
    """
    from repro.persist.prewarm import run_prewarm, verify_warm
    from repro.workloads.warmup import GATE_APP, warmup_corpus

    apps = warmup_corpus()
    cases = [(name, app, "default") for name, app in sorted(apps.items())]

    def config(mode: str) -> VMConfig:
        return VMConfig(compile_threshold=1) if mode == "eager" else VMConfig()

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
            if sweep_rows:
                # Core-aware monotonicity: more jobs must help when they
                # map to real cores, and must stay within noise headroom
                # when they cannot (single-core hosts, jobs > cores).
                previous = sweep_rows[-1]
                if min(jobs, cpu_count) > min(previous["jobs"], cpu_count):
                    row["monotonic_ok"] = report.wall_s < previous["wall_s"]
                else:
                    row["monotonic_ok"] = (
                        report.wall_s
                        <= previous["wall_s"] * _PREWARM_NOISE_X
                    )
            sweep_rows.append(row)
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
            "jobs_monotonic_ok": all(
                row.get("monotonic_ok", True) for row in sweep_rows
            ),
            "prewarm_warm_host_compiles": warm_host_compiles,
        }

    return _case_sweep(cases, config, fresh=True, extras=extras,
                       ttfo=GATE_APP)


def _transparency_lines(family: dict) -> List[str]:
    lines = ["transparency SMC churners (interpreted oracle):"]
    for corpus, count in sorted(family["churn_smc"].items()):
        lines.append("  %-15s invalidations %d" % (corpus, count))
    lines.extend("  oracle divergence: %s" % failure
                 for failure in family["oracle_failures"])
    lines.extend("  warm divergence: %s" % failure
                 for failure in family["warm_failures"])
    return lines


@_family(
    "transparency",
    checks=(
        Check("oracle_identical"),
        Check("stale_reads", "==", 0),
        Check("smc_ok"),
        Check("warm_identical"),
        Check("warm_preloaded", ">", 0),
    ),
    cells=lambda f: {
        "stale_reads": "%d" % f["stale_reads"],
        "smc_inval": "%d" % sum(f["churn_smc"].values()),
        "warm": str(f["warm_identical"]),
        "preloaded": "%d" % f["warm_preloaded"],
        "oracle": str(f["oracle_identical"]),
    },
    details=_transparency_lines,
)
def _transparency(scratch_dir: str) -> Sweep:
    """The anti-instrumentation corpus
    (:mod:`repro.workloads.adversarial`) under attack-grade scrutiny.

    The timed sweep is plain interpreted vs. compiled dispatch over the
    whole adversarial suite, each sweep from a cleared factory memo.
    The extras carry the actual transparency audit:

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
    * a warm restart of the self-observing corpus from the sidecar and
      from the shared store, each warm output compared byte-for-byte
      against the cold run — a revived trace must not resurrect pre-SMC
      code.

    The clock probe is timed but exempt from the native comparison and
    the warm-restart check by design: its output embeds raw
    ``SYS_CLOCK`` deltas, which legitimately differ native vs. VM (the
    probe *detects* the DBI's cost — transparency here means the deltas
    are bit-identical across all four VM tiers, which the oracle check
    enforces) and cold vs. warm (persisted traces change the cost of a
    run; that is the point of the cache).
    """
    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.engine import VM_VERSION
    from repro.workloads.adversarial import (
        CHURN_WORKLOADS,
        PERSISTED_WORKLOADS,
        build_adversarial_suite,
    )
    from repro.workloads.harness import run_native

    suite = build_adversarial_suite()
    ordered = sorted(suite.items())

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
            native = _observed(run_native(wl, "run"))
            self_observing = name != "timer"
            clear_code_object_cache()
            oracle = run_vm(
                wl, "run", vm_config=VMConfig(dispatch_mode="interpreted")
            )
            oracle_sig = _result_signature(oracle)
            if self_observing and _observed(oracle) != native:
                stale_reads += 1
            for tier, config in tier_configs.items():
                clear_code_object_cache()
                result = run_vm(wl, "run", vm_config=config)
                if _result_signature(result) != oracle_sig:
                    oracle_failures.append("%s/%s" % (name, tier))
                elif self_observing and _observed(result) != native:
                    stale_reads += 1
            if name in CHURN_WORKLOADS:
                churn_smc[name] = oracle.stats.smc_invalidations

        # Warm restart from the sidecar and from the shared store: the
        # adversarial corpus's code observations must survive persistence.
        store_dir = os.path.join(scratch_dir, "transparency-store")
        shared = SharedBodyStore(store_dir, vm_version=VM_VERSION)
        warm_failures: List[str] = []
        warm_preloaded = 0
        for name in PERSISTED_WORKLOADS:
            wl = suite[name]
            db_dir = os.path.join(scratch_dir, "transparency-" + name)
            donor = CacheDatabase(db_dir, shared_store=shared)
            clear_code_object_cache()
            cold = run_vm(
                wl, "run",
                persistence=PersistenceConfig(database=donor, sidecar=True),
                vm_config=_config("compiled"),
            )
            cold_sig = _observed(cold)
            warm_configs = {
                "sidecar": PersistenceConfig(
                    database=CacheDatabase(db_dir, shared_store=shared),
                    sidecar=True,
                ),
                "shared": PersistenceConfig(
                    database=CacheDatabase(db_dir), readonly=True,
                    shared_store=shared,
                ),
            }
            for source, persistence in warm_configs.items():
                clear_code_object_cache()
                warm = run_vm(
                    wl, "run", persistence=persistence,
                    vm_config=_config("compiled"),
                )
                warm_preloaded += warm.stats.traces_from_persistent
                if _observed(warm) != cold_sig:
                    warm_failures.append("%s/%s" % (name, source))
                    stale_reads += 1

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

    cases = [(name, wl, "run") for name, wl in ordered]
    return _case_sweep(cases, _config, fresh=True, extras=extras,
                       ttfo="checksum")


def _field(family: dict, path: str):
    """``family[a][b]...`` for a dotted ``path``; None when absent."""
    value: object = family
    for key in path.split("."):
        if not isinstance(value, dict):
            return None
        value = value.get(key)
    return value


def _shown(value) -> str:
    return "%.3g" % value if isinstance(value, float) else str(value)


class Verdict(NamedTuple):
    """One family's ``--check`` verdict and the line that reports it."""

    ok: bool
    line: str


def judge(
    results: Dict[str, object],
    names: Sequence[str],
    threshold: Optional[float] = None,
    quiet: bool = False,
) -> List[Verdict]:
    """Judge each family in ``names`` on :data:`IDENTICAL` and its checks.

    ``repro bench`` passes the families its invocation measured, never
    ones carried over from an earlier run.  ``threshold`` replaces the
    bound of every ``speedup_trimmed_x`` predicate judged
    (``--check-threshold``); ``quiet`` adds the quiet-host timing
    floors.  Each verdict's line names the family and prints every value
    it judged with the bound it applied.
    """
    verdicts = []
    for decl in FAMILIES:
        if decl.name not in names:
            continue
        family = results["workloads"][decl.name]
        shown, failed = [], []
        for check in (IDENTICAL,) + decl.checks:
            if check.quiet and not quiet:
                continue
            bound = check.bound
            if threshold is not None and check.name == "speedup_trimmed_x":
                bound = threshold
            value = (check.value(family) if check.value
                     else _field(family, check.name))
            if isinstance(bound, str):
                limit = _field(family, bound)
                bound_text = "%s %s" % (bound, _shown(limit))
            else:
                limit, bound_text = bound, _shown(bound)
            if value is None or limit is None or not _OPS[check.op](
                value, limit
            ):
                failed.append(check.name)
            if bound is True:
                shown.append("%s=%s" % (check.name, _shown(value)))
            else:
                shown.append("%s=%s (%s %s)" % (
                    check.name, _shown(value), check.op, bound_text
                ))
        line = "check %s: %s -> %s" % (
            decl.name, "  ".join(shown),
            "FAIL (%s)" % ", ".join(failed) if failed else "PASS",
        )
        verdicts.append(Verdict(not failed, line))
    return verdicts


def render(results: Dict[str, object], names: Sequence[str]) -> str:
    """The report for each family in ``names``.

    One table row per family — both modes' best rep, the best-rep and
    trimmed-mean speedups, both spreads, both TTFOs (``-`` without a
    probe), identity, then the family's own cells — followed by each
    family's detail lines and a warning for every mode whose spread
    exceeds :data:`SPREAD_WARN_PCT`.  Pairs read baseline/contender.
    """
    rows, lines, warnings = [], [], []
    for decl in FAMILIES:
        if decl.name not in names:
            continue
        family = results["workloads"][decl.name]
        baseline, contender = decl.modes
        ttfo = [family.get("%s_ttfo_s" % mode) for mode in decl.modes]
        rows.append({
            "family": decl.name,
            "modes": "%s/%s" % decl.modes,
            "best_s": "%.3f/%.3f" % (family["%s_s" % baseline],
                                     family["%s_s" % contender]),
            "speedup_x": "%.2f" % family["speedup_x"],
            "trimmed_x": "%.2f" % family["speedup_trimmed_x"],
            "spread": "%.0f%%/%.0f%%" % tuple(
                family["%s_spread_pct" % mode] for mode in decl.modes
            ),
            "ttfo_s": "-" if None in ttfo else "%.3f/%.3f" % tuple(ttfo),
            "identical": str(family["identical_results"]),
            "notes": "  ".join(
                "%s %s" % cell for cell in decl.cells(family).items()
            ),
        })
        lines.extend(decl.details(family))
        for mode in decl.modes:
            spread = family["%s_spread_pct" % mode]
            if spread > SPREAD_WARN_PCT:
                warnings.append(
                    "warning: %s %s_spread_pct %.0f%% exceeds %.0f%% — "
                    "rerun on a quieter machine before trusting the "
                    "speedup" % (decl.name, mode, spread, SPREAD_WARN_PCT)
                )
    config = results["config"]
    table = format_table(
        rows,
        columns=["family", "modes", "best_s", "speedup_x", "trimmed_x",
                 "spread", "ttfo_s", "identical", "notes"],
        title="Wall-clock benchmark (%d timed reps, %d warmup; "
              "pairs are baseline/contender)"
              % (config["timed_reps"], config["warmup_reps"]),
    )
    return "\n".join([table] + lines + warnings)


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
        scratch_dir: Writable directory for the families' databases.
        warmup: Untimed repetitions per family per mode.
        reps: Timed repetitions per family per mode (at least 1).
        families: Subset of family names to run (default: all).
        out_path: When given, the result dict is merged into the file
            there (see :func:`_merge_existing`) and written atomically.
    """
    declared = {decl.name: decl for decl in FAMILIES}
    selected = families if families is not None else tuple(declared)
    unknown = [name for name in selected if name not in declared]
    if unknown:
        raise ValueError("unknown bench families: %s" % ", ".join(unknown))

    workloads: Dict[str, object] = {}
    for name in selected:
        decl = declared[name]
        sweep = decl.prepare(scratch_dir)
        family = _measure_family(sweep.run, warmup, reps, decl.modes)
        family.update(sweep.extras())
        if sweep.first_output_s is not None:
            for mode in decl.modes:
                family["%s_ttfo_s" % mode] = min(
                    sweep.first_output_s(mode) for _ in range(max(2, reps))
                )
            baseline, contender = decl.modes
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
        FileStorage().write_atomic(out_path, payload.encode("utf-8"))
    return results


def default_output_path() -> str:
    """``BENCH_wallclock.json`` at the repository root (next to src/)."""
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.join(os.path.dirname(os.path.dirname(here)),
                        "BENCH_wallclock.json")
