"""Command-line interface.

Usage::

    python -m repro list
    python -m repro run spec 176.gcc ref-1
    python -m repro run gui gftp startup --pcache /tmp/db
    python -m repro run gui gqview startup --pcache /tmp/db --inter-app
    python -m repro run oracle oracle Work --tool memtrace --pcache /tmp/db
    python -m repro run shell ls run --pcache /tmp/db
    python -m repro run gui gftp startup --pcache /tmp/db2 --shared-store /tmp/shared-store
    python -m repro run nondet dice short --record --pcache /tmp/db
    python -m repro replay /tmp/db --diff
    python -m repro replay /tmp/db --log dice-short-0000.pcrl --mode compiled
    python -m repro timeline spec 176.gcc ref-1
    python -m repro pcache list /tmp/db
    python -m repro pcache show /tmp/db --index 0
    python -m repro cache fsck /tmp/db
    python -m repro cache fsck /tmp/db --quarantine
    python -m repro cache fsck /tmp/shared-store
    python -m repro cache gc /tmp/shared-store --json
    python -m repro cache gc /tmp/shared-store --max-bytes 1048576
    python -m repro bench --reps 5 --check
    python -m repro disasm path/to/image.sbf

``run`` executes a workload input natively or under the DBI engine
(optionally with instrumentation and a persistent-cache database) and
prints the cycle breakdown; ``run --record`` captures the session's
nondeterminism into a PCRL1 replay log; ``replay`` re-runs recorded
sessions against the current build and diffs them against their
recorded baselines; ``pcache`` inspects cache databases; ``timeline``
renders the Figure 2(a)-style translation-request timeline.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Dict, Optional

from repro import __version__, bench
from repro.analysis.report import format_table
from repro.analysis.timeline import render_timeline, summarize_timeline
from repro.binfmt.image import Image
from repro.isa.disassembler import disassemble
from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.persist.cachefile import CacheFileError, PersistentCache
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.tools import BBCountTool, CoverageTool, InsCountTool, MemTraceTool
from repro.vm.client import NullTool
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import Workload, run_native, run_vm
from repro.workloads.oracle import build_oracle
from repro.workloads.shell import build_shell_suite
from repro.workloads.spec2k import build_suite

_TOOLS = {
    "none": lambda: None,
    "null": NullTool,
    "bbcount": BBCountTool,
    "inscount": InsCountTool,
    "memtrace": MemTraceTool,
    "coverage": CoverageTool,
}


def _load_workloads(suite: str) -> Dict[str, Workload]:
    """Build the named workload suite."""
    if suite == "spec":
        return build_suite()
    if suite == "gui":
        apps, _store = build_gui_suite()
        return apps
    if suite == "oracle":
        return {"oracle": build_oracle()}
    if suite == "shell":
        tools, _store = build_shell_suite()
        return tools
    if suite == "nondet":
        from repro.workloads.nondet import build_nondet_suite

        return build_nondet_suite()
    raise SystemExit(
        "unknown suite %r (choose: spec, gui, oracle, shell, nondet)" % suite
    )


def _resolve(suite: str, name: str) -> Workload:
    workloads = _load_workloads(suite)
    if name not in workloads:
        raise SystemExit(
            "no workload %r in suite %r (have: %s)"
            % (name, suite, ", ".join(sorted(workloads)))
        )
    return workloads[name]


def _layout(seed: Optional[int]):
    return FixedLayout() if seed is None else PerturbedLayout(seed)


def _open_database(directory: str, **kwargs) -> CacheDatabase:
    """The database a run writes to, created if missing; a directory
    that cannot be created ends the command with one stderr line."""
    try:
        return CacheDatabase(directory, **kwargs)
    except OSError as exc:
        raise SystemExit(
            "error: cannot open cache database %s: %s" % (directory, exc)
        ) from exc


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be at least 0, got %d" % value)
    return value


def _positive_finite_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            "must be positive and finite, got %s" % text
        )
    return value


def _shared_store_dir(text: str) -> str:
    """``run --shared-store``'s type: a store directory.  The retired
    socket scheme ends the command here, while parsing, so nothing is
    created."""
    if text.startswith("daemon://"):
        raise SystemExit(
            "error: --shared-store daemon://DIR was removed with the "
            "cache-server daemon; use --shared-store DIR"
        )
    return text


def _existing_database(directory: str) -> CacheDatabase:
    """The database a read-only command inspects: never created here."""
    if not os.path.isdir(directory):
        raise SystemExit("error: no cache database at %s" % directory)
    return _open_database(directory)


def _indexed_database(directory: str) -> CacheDatabase:
    """An existing database whose index reads; a damaged index ends the
    command with one stderr line and is left where it is."""
    db = _existing_database(directory)
    if db.manifest_damage is not None:
        raise SystemExit("error: cannot read %s: %s" % (
            os.path.join(directory, db.manifest), db.manifest_damage))
    return db


# ---------------------------------------------------------------------------
# Subcommands.
# ---------------------------------------------------------------------------

def cmd_list(args) -> int:
    """``repro list``: print every suite, workload and input."""
    rows = []
    for suite in ("spec", "gui", "oracle", "shell", "nondet"):
        for name, workload in sorted(_load_workloads(suite).items()):
            rows.append(
                {
                    "suite": suite,
                    "workload": name,
                    "inputs": " ".join(sorted(workload.inputs)),
                }
            )
    print(format_table(rows, columns=["suite", "workload", "inputs"]))
    return 0


def cmd_run(args) -> int:
    """``repro run``: execute one workload input and print stats."""
    workload = _resolve(args.suite, args.workload)
    layout = _layout(args.layout_seed)

    if args.native:
        if args.record:
            raise SystemExit("--record requires the VM (drop --native)")
        result = run_native(workload, args.input, layout=layout)
        print("exit status:  %d" % result.exit_status)
        print("instructions: %d" % result.instructions)
        print("cycles:       %.0f" % result.cycles)
        return 0

    tool_factory = _TOOLS[args.tool]
    persistence = None
    if args.record:
        # Recording sessions are persistence-neutral: the cache tiers
        # stay off so the captured result is a pure function of the
        # program and the logged nondeterminism.
        if args.inter_app or args.pic or args.readonly or args.shared_store:
            raise SystemExit(
                "--record disables the cache tiers; drop --inter-app/"
                "--pic/--readonly/--shared-store"
            )
        persistence = PersistenceConfig(
            database=_open_database(args.pcache) if args.pcache else None,
            record=True,
            record_meta={
                "name": "%s-%s" % (args.workload, args.input),
                "suite": args.suite,
                "workload": args.workload,
                "input": args.input,
                "tool_name": args.tool,
                "layout_seed": args.layout_seed,
            },
        )
    elif args.pcache:
        shared = None
        if args.shared_store:
            from repro.persist.sharedstore import SharedBodyStore
            from repro.vm.engine import VM_VERSION

            try:
                shared = SharedBodyStore(args.shared_store, VM_VERSION)
            except OSError as exc:
                raise SystemExit(
                    "error: cannot open shared store %s: %s"
                    % (args.shared_store, exc)
                ) from exc
        persistence = PersistenceConfig(
            database=_open_database(args.pcache, shared_store=shared),
            inter_application=args.inter_app,
            relocatable=args.pic,
            readonly=args.readonly,
        )
    result = run_vm(
        workload,
        args.input,
        tool=tool_factory(),
        persistence=persistence,
        layout=layout,
    )
    print("exit status:  %d" % result.exit_status)
    print("instructions: %d" % result.instructions)
    stats = result.stats
    for key, value in stats.breakdown().items():
        print("%-16s %12.0f cycles" % (key, value))
    print("traces translated:      %d" % stats.traces_translated)
    print("traces from pcache:     %d" % stats.traces_from_persistent)
    print("vm overhead fraction:   %.1f%%" % (100 * stats.overhead_fraction()))
    host = result.host
    if args.record:
        line = "recording: %s (%d events)" % (
            host.record_state, host.record_events
        )
        if host.record_log:
            line += " -> %s" % host.record_log
        print(line)
    _print_host_stats(host)
    return 0


def _print_host_stats(host) -> None:
    """A run's :class:`~repro.vm.stats.HostStats` as one two-column
    table, then its storage events, one line each."""
    counters = host.to_dict()
    events = counters.pop("events")
    rows = [
        {"host counter": name,
         "value": "%.3f" % value if isinstance(value, float) else value}
        for name, value in counters.items()
    ]
    print(format_table(rows, columns=["host counter", "value"]))
    for kind, filename, reason in events:
        print("storage event: %s %s: %s" % (kind, filename, reason))


def cmd_replay(args) -> int:
    """``repro replay``: replay recorded sessions against this build.

    With ``--log NAME`` one stored log is replayed (under ``--mode``,
    default both dispatch tiers) and its result diffed against the
    recorded baseline.  ``--diff`` sweeps every log in the database
    through :class:`~repro.replay.harness.DifferentialReplayHarness`.
    Exit code 0 only when every replay is bit-identical; structural
    divergence, result drift, and unreadable logs all exit 1.
    """
    from repro.replay.harness import (
        REPLAY_MODES,
        DifferentialReplayHarness,
        replay_session,
        resolve_standard,
    )
    from repro.replay.log import ReplayLogError
    from repro.replay.session import ReplayDivergence

    db = _existing_database(args.directory)
    modes = REPLAY_MODES if args.mode == "both" else (args.mode,)

    if args.log and not args.diff:
        try:
            log = db.load_replay_log(args.log)
        except (OSError, ReplayLogError) as exc:
            # A damaged log is already quarantined; either way there is
            # nothing to replay.
            raise SystemExit(
                "error: cannot load replay log %s: %s" % (args.log, exc)
            ) from exc
        workload, input_name, tool_factory = resolve_standard(log.meta)
        failures = 0
        for mode in modes:
            try:
                outcome = replay_session(
                    log, workload, input_name, tool=tool_factory(),
                    dispatch_mode=mode,
                )
            except ReplayDivergence as exc:
                print("%s [%s]: DIVERGENCE: %s" % (args.log, mode, exc))
                failures += 1
                continue
            if outcome.bit_identical:
                print("%s [%s]: bit-identical" % (args.log, mode))
            else:
                failures += 1
                print("%s [%s]: %d field(s) differ"
                      % (args.log, mode, len(outcome.diff)))
                for line in outcome.diff:
                    print("  %s" % line)
        return 1 if failures else 0

    report = DifferentialReplayHarness(db).replay_all(modes=modes)
    if not report.outcomes:
        print("(no replay logs in %s)" % args.directory)
        return 0
    rows = [
        {
            "log": outcome.log_name,
            "mode": outcome.mode,
            "status": outcome.status,
            "detail": (outcome.detail or "; ".join(outcome.diff[:2]) or "-"),
        }
        for outcome in report.outcomes
    ]
    print(format_table(rows, columns=["log", "mode", "status", "detail"]))
    counts = report.counts()
    print("replay: %s (%s)" % (
        "clean" if report.clean else "drift found",
        ", ".join("%d %s" % (counts[k], k) for k in sorted(counts)),
    ))
    return 0 if report.clean else 1


def cmd_timeline(args) -> int:
    """``repro timeline``: render the translation timeline."""
    workload = _resolve(args.suite, args.workload)
    result = run_vm(workload, args.input)
    summary = summarize_timeline(result.stats)
    print("[%s]" % render_timeline(result.stats, width=args.width))
    print(
        "%d translation events; %.0f%% in the first decile, %.0f%% in the "
        "last half; VM overhead %.0f%%"
        % (
            summary.total_events,
            100 * summary.early_fraction,
            100 * summary.late_fraction,
            100 * result.stats.overhead_fraction(),
        )
    )
    return 0


def cmd_pcache_list(args) -> int:
    """``repro pcache list``: print the database index."""
    db = _indexed_database(args.directory)
    rows = [
        {
            "app": entry.app_path,
            "traces": entry.trace_count,
            "bytes": entry.file_size,
            "file": entry.filename,
        }
        for entry in db.entries()
    ]
    if not rows:
        print("(empty database)")
        return 0
    print(format_table(rows, columns=["app", "traces", "bytes", "file"]))
    return 0


def cmd_pcache_show(args) -> int:
    """``repro pcache show``: dump one cache file's contents."""
    db = _indexed_database(args.directory)
    entries = db.entries()
    if not entries:
        raise SystemExit("empty database")
    if not 0 <= args.index < len(entries):
        raise SystemExit("index out of range (0..%d)" % (len(entries) - 1))
    entry = entries[args.index]
    path = os.path.join(args.directory, entry.filename)
    # Read-only: a damaged file is named, never quarantined or moved.
    try:
        cache = PersistentCache.load(path)
    except CacheFileError as exc:
        raise SystemExit("error: cannot read %s: damaged %s: %s"
                         % (path, exc.section, exc)) from exc
    except OSError as exc:
        raise SystemExit("error: cannot read %s: %s" % (path, exc)) from exc
    print("app:          %s" % cache.app_path)
    print("vm version:   %s" % cache.vm_version)
    print("tool:         %s" % cache.tool_identity[:16])
    print("generation:   %d" % cache.generation)
    print("traces:       %d" % len(cache.traces))
    print("code pool:    %d bytes" % cache.total_code_bytes)
    print("data pool:    %d bytes" % cache.total_data_bytes)
    print("image keys:")
    for path, key in sorted(cache.image_keys.items()):
        print("  %-24s base=0x%x size=%d mtime=%d" % (path, key.base, key.size, key.mtime))
    by_image: Dict[str, int] = {}
    for trace in cache.traces:
        by_image[trace.image_path] = by_image.get(trace.image_path, 0) + 1
    print("traces by image:")
    for path, count in sorted(by_image.items()):
        print("  %-24s %d" % (path, count))
    return 0


def cmd_cache_fsck(args) -> int:
    """``repro cache fsck``: validate every framed file section by section.

    Exit code 0 when the database is fully healthy, 1 when any damage,
    orphan, or interrupted write was found.  ``--quarantine`` moves
    damaged files into the ``quarantine/`` subdirectory (never deletes
    them) and drops damaged cache files from the index.  Pointed at a
    shared compiled-body store directory instead of a database, it
    validates every shard of every pool.
    """
    from repro.persist.sharedstore import SharedBodyStore, is_shared_store
    from repro.vm.engine import VM_VERSION

    if is_shared_store(args.directory):
        kind = "shared store"
        owner = SharedBodyStore(args.directory, vm_version=VM_VERSION)
    else:
        kind = "database"
        owner = _existing_database(args.directory)
    report = owner.fsck(quarantine=args.quarantine)
    if not report.items and not report.notes:
        print("(empty %s: nothing to check)" % kind)
        return 0
    rows = [
        {
            "file": item.filename,
            "status": item.status,
            "section": item.section or "-",
            "detail": item.detail or "-",
        }
        for item in report.items
    ]
    if rows:
        print(format_table(rows, columns=["file", "status", "section", "detail"]))
    for note in report.notes:
        # Informational findings (stale or orphaned sidecar, stale pool):
        # worth surfacing, but not damage — they never flip the exit
        # code.  A leftover tmp is a stale-tmp row, in either kind.
        print("note: %s %s: %s" % (note.filename, note.status,
                                   note.detail or ""))
    for filename in report.quarantined:
        print("quarantined: %s" % filename)
    print("fsck: %s" % ("clean" if report.clean else "damage found"))
    return 0 if report.clean else 1


def cmd_cache_gc(args) -> int:
    """``repro cache gc``: mark-and-sweep a shared compiled-body store.

    Marks every digest referenced by a registered database's private
    sidecar, sweeps unmarked bodies shard by shard, removes pools keyed
    for other VM versions wholesale, and (with ``--max-bytes``) evicts
    least-recently-used bodies until the pool fits.  ``--db`` registers
    extra databases before marking.  Always exits 0 on a completed run
    (an unreadable reference index is reported, not fatal: eviction can
    only cost a recompile); ``--json`` prints the machine-readable
    report.  A damaged ``registry.json`` is a warning: gc marks nothing
    from it and leaves it where it is.  A missing directory is an error
    (exit 1), never created.
    """
    import json as json_module

    from repro.persist.sharedstore import SharedBodyStore
    from repro.vm.engine import VM_VERSION

    if not os.path.isdir(args.directory):
        raise SystemExit("error: no shared store at %s" % args.directory)
    store = SharedBodyStore(args.directory, vm_version=VM_VERSION)
    for db_dir in args.db or []:
        store.register_database(db_dir)
    report = store.gc(max_bytes=args.max_bytes)
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
        return 0
    print("registered databases:  %d" % len(report.registered_databases))
    print("referenced digests:    %d" % report.referenced)
    print("scanned:               %d bodies, %d bytes"
          % (report.scanned_entries, report.scanned_bytes))
    print("swept (unreferenced):  %d bodies, %d bytes"
          % (report.swept_entries, report.swept_bytes))
    print("evicted (LRU cap):     %d bodies, %d bytes"
          % (report.lru_evicted_entries, report.lru_evicted_bytes))
    print("stale pools removed:   %d" % len(report.stale_pools_removed))
    print("remaining:             %d bodies, %d bytes"
          % (report.remaining_entries, report.remaining_bytes))
    for shard in report.quarantined_shards:
        print("quarantined: %s" % shard)
    if report.registry_damage is not None:
        print("warning: damaged %s: %s" % (store.manifest,
                                           report.registry_damage))
    for db_dir in report.unreadable_indexes:
        print("warning: unreadable reference index: %s" % db_dir)
    return 0


def cmd_removed(args) -> int:
    """A removed command: any arguments end here, in one stderr line."""
    raise SystemExit(args.removed)


def _results_path_problem(path: str) -> Optional[str]:
    """Why ``path`` cannot take a results file, or None; creates nothing."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        return "%s is not a directory" % directory
    if os.path.isdir(path):
        return "it is a directory"
    if not os.access(directory, os.W_OK):
        return "%s is not writable" % directory
    return None


def cmd_bench(args) -> int:
    """``repro bench``: the wall-clock benchmark families.

    Verdicts, and with ``--check`` the exit code, cover the families
    this invocation measured; families carried over from the results
    file are listed, not judged.
    """
    import tempfile

    out_path = args.out or bench.default_output_path()
    problem = _results_path_problem(out_path)
    if problem is not None:
        print("error: cannot write results to %s: %s" % (out_path, problem),
              file=sys.stderr)
        return 1
    measured = tuple(args.family or (decl.name for decl in bench.FAMILIES))
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        results = bench.run_wallclock(
            scratch_dir=scratch,
            warmup=args.warmup,
            reps=args.reps,
            families=measured,
            out_path=out_path,
        )
    print(bench.render(results, measured))
    print("results written to %s" % out_path)
    carried = sorted(set(results["workloads"]) - set(measured))
    if carried:
        print("carried over, not judged: %s" % ", ".join(carried))
    verdicts = bench.judge(results, measured, threshold=args.check_threshold)
    for verdict in verdicts:
        print(verdict.line)
    return 1 if args.check and not all(v.ok for v in verdicts) else 0


def cmd_disasm(args) -> int:
    """``repro disasm``: disassemble an SBF image's .text."""
    image = Image.load(args.image)
    text = image.section(".text")
    for line in disassemble(bytes(text.data), base=args.base + text.vaddr):
        print(line)
    return 0


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------

def _add_removed(subparsers, name: str, message: str) -> None:
    """Register the removed command ``name``.  No prefix character can
    occur in argv, so every old command line, options and ``--help``
    included, parses as positionals and reaches ``message``."""
    sub = subparsers.add_parser(name, add_help=False, prefix_chars="\0")
    sub.add_argument("arguments", nargs="*")
    sub.set_defaults(func=cmd_removed, removed=message)


def _name_live_commands(subparsers) -> None:
    """Name only live commands in the usage: argparse lists every
    registered choice there unless the action has a metavar."""
    subparsers.metavar = "{%s}" % ",".join(
        name for name, sub in subparsers.choices.items()
        if sub.get_default("func") is not cmd_removed
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Persistent code caching for a DBI engine (CGO 2007 "
                    "reproduction).",
    )
    parser.add_argument("--version", action="version",
                        version="repro %s" % __version__)
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("list", help="list workloads and inputs")
    sub.set_defaults(func=cmd_list)

    sub = subparsers.add_parser("run", help="run a workload input")
    sub.add_argument("suite",
                     choices=("spec", "gui", "oracle", "shell", "nondet"))
    sub.add_argument("workload")
    sub.add_argument("input")
    sub.add_argument("--native", action="store_true",
                     help="interpret natively instead of under the VM")
    sub.add_argument("--tool", choices=sorted(_TOOLS), default="none",
                     help="instrumentation tool (default: none)")
    sub.add_argument("--shared-store", metavar="DIR", type=_shared_store_dir,
                     help="attach the per-host shared compiled-body store "
                          "at DIR (requires --pcache)")
    sub.add_argument("--pcache", metavar="DIR",
                     help="persistent-cache database directory")
    sub.add_argument("--inter-app", action="store_true",
                     help="inter-application cache lookup")
    sub.add_argument("--pic", action="store_true",
                     help="position-independent translations")
    sub.add_argument("--readonly", action="store_true",
                     help="do not write the cache back")
    sub.add_argument("--layout-seed", type=int, default=None,
                     help="perturb library load addresses with this seed")
    sub.add_argument("--record", action="store_true",
                     help="record the session's nondeterminism into a "
                          "PCRL1 replay log (stored under --pcache when "
                          "given; disables the cache tiers)")
    sub.set_defaults(func=cmd_run)

    sub = subparsers.add_parser(
        "replay", help="replay recorded sessions against this build"
    )
    sub.add_argument("directory",
                     help="cache database holding the replay/ logs")
    sub.add_argument("--log", metavar="NAME",
                     help="replay only this stored log")
    sub.add_argument("--diff", action="store_true",
                     help="differential sweep: replay every stored log "
                          "and diff against its recorded baseline")
    sub.add_argument("--mode",
                     choices=("interpreted", "compiled", "both"),
                     default="both",
                     help="dispatch tier(s) to replay under "
                          "(default: both)")
    sub.set_defaults(func=cmd_replay)

    sub = subparsers.add_parser("timeline",
                                help="translation-request timeline (Fig 2a)")
    sub.add_argument("suite",
                     choices=("spec", "gui", "oracle", "shell", "nondet"))
    sub.add_argument("workload")
    sub.add_argument("input")
    sub.add_argument("--width", type=int, default=72)
    sub.set_defaults(func=cmd_timeline)

    pcache = subparsers.add_parser("pcache",
                                   help="inspect persistent cache databases")
    pcache_sub = pcache.add_subparsers(dest="pcache_command", required=True)
    sub = pcache_sub.add_parser("list", help="list database entries")
    sub.add_argument("directory")
    sub.set_defaults(func=cmd_pcache_list)
    sub = pcache_sub.add_parser("show", help="show one cache file")
    sub.add_argument("directory")
    sub.add_argument("--index", type=int, default=0)
    sub.set_defaults(func=cmd_pcache_show)

    cache = subparsers.add_parser(
        "cache", help="maintain persistent cache databases"
    )
    cache_sub = cache.add_subparsers(dest="cache_command", required=True)
    sub = cache_sub.add_parser(
        "fsck", help="check database or shared-store integrity "
                     "(per-section checksums)"
    )
    sub.add_argument("directory")
    sub.add_argument("--quarantine", action="store_true",
                     help="move damaged files aside and drop them from "
                          "the index (never deletes)")
    sub.set_defaults(func=cmd_cache_fsck)
    sub = cache_sub.add_parser(
        "gc", help="mark-and-sweep a shared compiled-body store"
    )
    sub.add_argument("directory")
    sub.add_argument("--db", action="append", metavar="DIR",
                     help="register this database before marking "
                          "(repeatable)")
    sub.add_argument("--max-bytes", type=_non_negative_int, default=None,
                     help="LRU/size cap: evict least-recently-used "
                          "bodies until the pool fits (0 evicts all)")
    sub.add_argument("--json", action="store_true",
                     help="print the machine-readable report")
    sub.set_defaults(func=cmd_cache_gc)
    _add_removed(
        cache_sub, "serve",
        "error: repro cache serve was removed with the cache-server "
        "daemon; sessions share a store with --shared-store DIR",
    )

    sub = subparsers.add_parser(
        "bench", help="wall-clock dispatch-tier benchmark suite"
    )
    sub.add_argument("--warmup", type=_non_negative_int, default=2,
                     help="untimed repetitions per family/mode (default 2)")
    sub.add_argument("--reps", type=_positive_int, default=5,
                     help="timed repetitions per family/mode (default 5)")
    sub.add_argument("--family", action="append",
                     choices=[decl.name for decl in bench.FAMILIES],
                     help="run only this family (repeatable; default all)")
    sub.add_argument("--out", metavar="PATH",
                     help="result JSON path (default BENCH_wallclock.json "
                          "at the repo root)")
    sub.add_argument("--check", action="store_true",
                     help="exit non-zero when a measured family's gate "
                          "fails")
    sub.add_argument("--check-threshold", type=_positive_finite_float,
                     default=None,
                     help="override the acceptance gate's speedup "
                          "threshold (default: the recorded 1.5x)")
    sub.set_defaults(func=cmd_bench)

    _add_removed(
        subparsers, "prewarm",
        "error: repro prewarm was removed; warm a database and a store "
        "by running each app with repro run --pcache DIR --shared-store DIR",
    )

    sub = subparsers.add_parser("disasm", help="disassemble an SBF image")
    sub.add_argument("image")
    sub.add_argument("--base", type=lambda v: int(v, 0), default=0)
    sub.set_defaults(func=cmd_disasm)

    _name_live_commands(subparsers)
    _name_live_commands(cache_sub)
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
