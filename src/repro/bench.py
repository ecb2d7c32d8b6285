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
behavior.  Sweeps then run ``warmup`` untimed repetitions, which warm
the host process (imports, the allocator) but no compiled code: every
run starts with an empty factory memo, as a new process does, and a
body outlives its run only through a persistence session's body store.
Then ``reps`` timed repetitions run, interleaved across the two modes
with the cycle collector paused.  The headline score is the trimmed
mean (the highest rep dropped, since timing noise only inflates);
per-mode minima and the max-over-min spread are reported alongside so
a surprising headline can be checked against run-to-run noise without
rerunning, and the report warns when a spread exceeds
:data:`SPREAD_WARN_PCT`.

Every family also reports per-mode time-to-first-output
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
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.analysis.report import format_table
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.persist.storage import FileStorage
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
    nested dicts) unless ``value`` derives it from the family.  An
    absent field fails.  A ``quiet`` predicate is a timing floor too
    noise-sensitive for ``--check``: only ``judge(..., quiet=True)``,
    which the benchmark suite runs on a quiet host, applies it.
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
    is done; ``first_output_s(mode)`` is the time-to-first-output probe.
    """

    run: Callable[[str], list]
    extras: Callable[[], Dict[str, object]]
    first_output_s: Callable[[str], float]


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
    collect: Optional[Callable[[str, list], Dict[str, object]]] = None,
    ttfo: Optional[str] = None,
) -> Sweep:
    """A sweep over ``(name, workload, input_name)`` cases, in order.

    ``config(mode)`` and ``persistence(mode, name)`` configure each run.
    ``collect(mode, results)`` reads JSON keys off every full sweep (a
    probe is not one); the latest value of each is the sweep's
    ``extras()``.  The time-to-first-output probe runs case ``ttfo``
    (default: the first) through the same path.
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
        results = [run_case(mode, case) for case in cases]
        if collect is not None:
            collected.update(collect(mode, results))
        return results

    probe_case = (cases[0] if ttfo is None
                  else next(case for case in cases if case[0] == ttfo))

    def first_output_s(mode: str) -> float:
        timer = FirstOutputTimer()
        start = time.perf_counter()
        run_case(mode, probe_case, timer)
        stamp = timer.first_output_s
        if stamp is None:
            stamp = time.perf_counter()
        return stamp - start

    return Sweep(run, collected.copy, first_output_s)


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
    checks=(
        Check("speedup_trimmed_x", ">=", GATE_THRESHOLD_X),
        Check("host_compiles_compiled", "==", 0),
    ),
)
def _fig5a_gui(scratch_dir: str) -> Sweep:
    """GUI startup with a warm same-input persistent cache (Figure 5(a)).

    Warm runs revive every trace from the persistent cache and spend
    their time executing, which is exactly what trace-compiled dispatch
    accelerates; this is the acceptance gate's family
    (:data:`GATE_THRESHOLD_X`, which ``--check-threshold`` overrides).
    Each compiled run starts with an empty factory memo, as a new
    process does, and binds the bodies its hot traces need from the
    database's sidecar: ``host_compiles_compiled == 0`` checks that a
    warm run of the input that filled its database compiles nothing.
    """
    cases = _gui_cases()
    databases = _populated_databases(scratch_dir, "fig5a-", cases)
    return _case_sweep(
        cases, _config,
        persistence=lambda mode, name: PersistenceConfig(
            database=databases[name]
        ),
        collect=lambda mode, results: {
            "host_compiles_" + mode: _host_total(results, "host_compiles"),
        },
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


def _ic_lines(family: dict) -> List[str]:
    lines = ["indirect_heavy inline caches (compiled tier):"]
    for corpus, ic in sorted(family["ic_per_corpus"].items()):
        lines.append(
            "  %-17s hit rate %5.1f%%  hits/misses %d/%d  fills %d  "
            "resets %d"
            % (corpus, 100.0 * ic["hit_rate"], ic["hits"], ic["misses"],
               ic["fills"], ic["resets"])
        )
    return lines


@_family(
    "indirect_heavy",
    checks=(
        # The caches must engage on the two- and three-target corpora.
        # Megamorphic is reported, not gated: it was built to overflow
        # the bounded chain the per-site dict replaced.
        Check("ic_per_corpus.alternating_pair.hit_rate", ">", 0.8),
        Check("ic_per_corpus.rotating_3.hit_rate", ">", 0.8),
    ),
    details=_ic_lines,
)
def _indirect_heavy(scratch_dir: str) -> Sweep:
    """Indirect-branch-bound corpora, no persistence.

    Each corpus keeps one ``callr`` dispatch site hot with a different
    dynamic target population (two, three, eight), so each site's
    inline-cache dict (:mod:`repro.vm.compile`) holds that many
    targets.  The compiled sweep's per-corpus IC counters
    (``ic_per_corpus``) make the caches' engagement gateable rather
    than inferred from the speedup alone.
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
    lines = ["trace_linking chain corpora (compiled tier):"]
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
    checks=(
        Check("link_bounces", "==", 0),
        Check("regions_fused", ">", 0),
        Check("speedup_trimmed_x", ">=", 1.3, quiet=True),
    ),
    cells=lambda f: {
        "bounces": "%d" % f["link_bounces"],
        "regions": "%d" % f["regions_fused"],
    },
    details=_link_lines,
)
def _trace_linking(scratch_dir: str) -> Sweep:
    """Chain-heavy corpora (:mod:`repro.workloads.chains`): interpreted
    vs. compiled dispatch, no persistence.

    The compiled mode chains closures through patched direct exits and
    fuses stable hot chains into superblock regions.  Both are host-side
    only, so ``identical_results`` pins every compiled sweep against the
    interpreted oracle.  The compiled sweep's per-corpus link/region
    counters (``link_per_corpus``) let the gate require zero dispatcher
    bounces and engaged fusion rather than read the speedup alone.
    """
    from repro.workloads.chains import build_chain_suite

    cases = [(name, workload, "run")
             for name, workload in sorted(build_chain_suite().items())]

    def collect(mode: str, results: list) -> Dict[str, object]:
        if mode != "compiled":
            return {}
        per_corpus = {
            name: _host_group(result, "links")
            for (name, _workload, _input), result in zip(cases, results)
        }
        totals = {key: sum(c[key] for c in per_corpus.values())
                  for key in ("link_bounces", "regions_fused",
                              "chained_exits")}
        return dict(totals, link_per_corpus=per_corpus)

    return _case_sweep(cases, _config, collect=collect)


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


@_family(
    "tiered_warmup",
    ("eager", "tiered"),
    checks=(Check("ttfo_ratio_x", "<=", 0.6),),
    cells=lambda f: {"ttfo_ratio": "%.2f" % f["ttfo_ratio_x"]},
)
def _tiered_warmup(scratch_dir: str) -> Sweep:
    """Cold startup corpus (:mod:`repro.workloads.warmup`): compile
    threshold 1 (``eager``) vs. the default tier-up (``tiered``).

    Every run starts with an empty factory memo and no persistence, so
    both modes pay the full cold-start cost.  The headline is
    time-to-first-output on ``GATE_APP``: the tiered mode interprets
    cold traces until they prove reuse, so the program reaches its first
    write without paying host ``compile()`` for startup code that runs
    once.  ``identical_results`` pins the tiered mode against the eager
    one, and ``tests/test_tierup.py`` pins both against the interpreted
    oracle.
    """
    from repro.workloads.warmup import GATE_APP, warmup_corpus

    apps = warmup_corpus()
    cases = [(name, app, "default") for name, app in sorted(apps.items())]

    def config(mode: str) -> VMConfig:
        return VMConfig(compile_threshold=1) if mode == "eager" else VMConfig()

    return _case_sweep(cases, config, ttfo=GATE_APP)


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
            if value is None or not _OPS[check.op](value, bound):
                failed.append(check.name)
            if bound is True:
                shown.append("%s=%s" % (check.name, _shown(value)))
            else:
                shown.append("%s=%s (%s %s)" % (
                    check.name, _shown(value), check.op, _shown(bound)
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
    trimmed-mean speedups, both spreads, both TTFOs, identity, then the
    family's own cells — followed by each
    family's detail lines and a warning for every mode whose spread
    exceeds :data:`SPREAD_WARN_PCT`.  Pairs read baseline/contender.
    """
    rows, lines, warnings = [], [], []
    for decl in FAMILIES:
        if decl.name not in names:
            continue
        family = results["workloads"][decl.name]
        baseline, contender = decl.modes
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
            "ttfo_s": "%.3f/%.3f" % tuple(
                family["%s_ttfo_s" % mode] for mode in decl.modes
            ),
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
