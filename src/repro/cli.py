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
import os
import sys
from typing import Dict, Optional

from repro import __version__
from repro.analysis.report import format_table
from repro.analysis.timeline import render_timeline, summarize_timeline
from repro.binfmt.image import Image
from repro.isa.disassembler import disassemble
from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.persist.cachefile import PersistentCache
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


def _existing_database(directory: str) -> CacheDatabase:
    """The database a read-only command inspects: never created here."""
    if not os.path.isdir(directory):
        raise SystemExit("error: no cache database at %s" % directory)
    return _open_database(directory)


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
            # ``daemon://DIR`` (or REPRO_CACHE_DAEMON in the environment)
            # selects the cache-server transport; a plain directory keeps
            # the flock store.  Both fall back to the files when no
            # daemon is listening.
            from repro.persist.daemon import resolve_shared_store
            from repro.vm.engine import VM_VERSION

            try:
                shared = resolve_shared_store(args.shared_store, VM_VERSION)
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
    if args.record:
        report = result.persistence_report or {}
        line = "recording: %s (%d events)" % (
            report.get("record_state", "?"), report.get("record_events", 0)
        )
        if report.get("record_log"):
            line += " -> %s" % report["record_log"]
        print(line)
    elif result.persistence_report:
        print("persistence: %s" % result.persistence_report)
    return 0


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
    db = _existing_database(args.directory)
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
    db = _existing_database(args.directory)
    entries = db.entries()
    if not entries:
        raise SystemExit("empty database")
    if not 0 <= args.index < len(entries):
        raise SystemExit("index out of range (0..%d)" % (len(entries) - 1))
    entry = entries[args.index]
    cache = PersistentCache.load(os.path.join(args.directory, entry.filename))
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
        kind, events = "shared store", []
        owner = SharedBodyStore(args.directory, vm_version=VM_VERSION)
    else:
        owner = _existing_database(args.directory)
        kind, events = "database", list(owner.events)
    for event, filename, reason in events:
        # Damage found while merely opening the database (corrupt index).
        print("%-12s %s: %s" % (event, filename, reason))
    report = owner.fsck(quarantine=args.quarantine)
    if not report.items and not report.notes and not events:
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
        # Informational findings (stale or orphaned sidecar, stale pool,
        # leftover store tmp): worth surfacing, but not damage — they
        # never flip the exit code.
        print("note: %s %s: %s" % (note.filename, note.status,
                                   note.detail or ""))
    for filename in report.quarantined:
        print("quarantined: %s" % filename)
    healthy = report.clean and not events
    print("fsck: %s" % ("clean" if healthy else "damage found"))
    return 0 if healthy else 1


def cmd_cache_gc(args) -> int:
    """``repro cache gc``: mark-and-sweep a shared compiled-body store.

    Marks every digest referenced by a registered database's private
    sidecar, sweeps unmarked bodies shard by shard, removes pools keyed
    for other VM versions wholesale, and (with ``--max-bytes``) evicts
    least-recently-used bodies until the pool fits.  ``--db`` registers
    extra databases before marking.  Always exits 0 on a completed run
    (an unreadable reference index is reported, not fatal: eviction can
    only cost a recompile); ``--json`` prints the machine-readable
    report.  A missing directory is an error (exit 1), never created.
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
    for db_dir in report.unreadable_indexes:
        print("warning: unreadable reference index: %s" % db_dir)
    return 0


def cmd_cache_serve(args) -> int:
    """``repro cache serve``: the per-host cache-server daemon.

    Foreground by default (^C flushes and exits cleanly).  ``--detach``
    spawns the daemon as its own session with output to
    ``DIR/daemon.log`` and waits until it answers a ping; ``--status``
    pings a running daemon; ``--stop`` asks one to flush and exit.  The
    daemon serves exactly one store directory, and sessions attach with
    ``--shared-store daemon://DIR`` (or ``REPRO_CACHE_DAEMON=1``).
    """
    import json as json_module
    import subprocess
    import time as time_module

    from repro.persist.cacheserver import CacheServer, default_socket_path
    from repro.persist.daemon import DaemonClient, DaemonError
    from repro.vm.engine import VM_VERSION

    address = args.socket or default_socket_path(args.directory)

    if args.status or args.stop:
        client = DaemonClient(address, vm_version=VM_VERSION)
        try:
            if args.stop:
                client.request("shutdown")
                # The daemon tears down (final flush, socket unlink)
                # within its poll interval; wait until pings fail so
                # "stop" returning means "stopped".
                deadline = time_module.monotonic() + 10.0
                while time_module.monotonic() < deadline:
                    probe = DaemonClient(address, vm_version=VM_VERSION,
                                         timeout_s=0.5)
                    try:
                        probe.ping()
                    except DaemonError:
                        break
                    finally:
                        probe.close()
                    time_module.sleep(0.1)
                print("daemon at %s stopped" % address)
                return 0
            meta = client.ping()
        except DaemonError as exc:
            print("no daemon at %s (%s)" % (address, exc), file=sys.stderr)
            return 1
        finally:
            client.close()
        if args.json:
            print(json_module.dumps(meta, indent=2, sort_keys=True))
        else:
            print(
                "daemon pid %s at %s: %s entries (%s bytes hot, %s dirty)"
                % (meta.get("pid"), address, meta.get("entries"),
                   meta.get("hot_bytes"), meta.get("dirty"))
            )
        return 0

    if args.detach:
        log_path = os.path.join(args.directory, "daemon.log")
        command = [sys.executable, "-m", "repro", "cache", "serve",
                   args.directory, "--socket", address]
        if args.max_bytes is not None:
            command += ["--max-bytes", str(args.max_bytes)]
        command += ["--flush-interval", str(args.flush_interval)]
        try:
            os.makedirs(args.directory, exist_ok=True)
            with open(log_path, "ab") as log:
                subprocess.Popen(
                    command, stdout=log, stderr=log,
                    stdin=subprocess.DEVNULL, start_new_session=True,
                )
        except OSError as exc:
            print("error: cannot serve %s: %s" % (args.directory, exc),
                  file=sys.stderr)
            return 1
        deadline = time_module.monotonic() + 15.0
        while time_module.monotonic() < deadline:
            probe = DaemonClient(address, vm_version=VM_VERSION,
                                 timeout_s=0.5)
            try:
                meta = probe.ping()
            except DaemonError:
                time_module.sleep(0.1)
                continue
            finally:
                probe.close()
            print("daemon pid %s serving %s at %s (%s entries warm)"
                  % (meta.get("pid"), args.directory, address,
                     meta.get("entries")))
            return 0
        print("daemon did not come up at %s (see %s)" % (address, log_path),
              file=sys.stderr)
        return 1

    try:
        server = CacheServer(
            args.directory,
            vm_version=VM_VERSION,
            address=address,
            max_bytes=args.max_bytes,
            flush_interval_s=args.flush_interval,
        )
        bound = server.start()
    except OSError as exc:
        print("error: cannot serve %s: %s" % (args.directory, exc),
              file=sys.stderr)
        return 1
    print("serving %s at %s (%d entries warm); ^C to stop"
          % (args.directory, bound, len(server.hot_entries())))
    try:
        while not server._shutdown.wait(0.2):
            pass
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    return 0


def cmd_bench(args) -> int:
    """``repro bench``: wall-clock dispatch-tier benchmark suite."""
    import tempfile

    from repro.bench import (
        GATE_THRESHOLD_X,
        GATE_WORKLOAD,
        default_output_path,
        run_wallclock,
    )

    out_path = args.out or default_output_path()
    families = tuple(args.family) if args.family else None
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as scratch:
        results = run_wallclock(
            scratch_dir=scratch,
            warmup=args.warmup,
            reps=args.reps,
            families=families,
            out_path=out_path,
        )

    def ttfo_cell(family, baseline, contender):
        """Per-family time-to-first-output column: baseline/contender."""
        base = family.get("%s_ttfo_s" % baseline)
        cont = family.get("%s_ttfo_s" % contender)
        if base is None or cont is None:
            return "-"
        return "%.3f/%.3f" % (base, cont)

    tier_rows, sidecar_rows, shared_rows, record_rows = [], [], [], []
    link_rows, warmup_rows, fleet_rows, transparency_rows = [], [], [], []
    for name, family in sorted(results["workloads"].items()):
        if "eager_s" in family:
            # The tiered-warmup family's headline is TTFO: compile
            # threshold 1 vs. the default tier-up on cold startup.
            warmup_rows.append(
                {
                    "workload": name,
                    "eager_ttfo_s": "%.3f" % family["eager_ttfo_s"],
                    "tiered_ttfo_s": "%.3f" % family["tiered_ttfo_s"],
                    "ttfo_ratio": "%.2f" % family["ttfo_ratio_x"],
                    "warm_compiles": "%d" % (
                        family["prewarm_warm_host_compiles"]
                    ),
                    "jobs_mono": str(family["jobs_monotonic_ok"]),
                    "identical": str(
                        family["identical_results"]
                        and family["oracle_identical"]
                    ),
                }
            )
        elif "nolink_s" in family:
            # The trace-linking family compares the compiled tier
            # against itself with linking + fusion disabled; the
            # headline number is the trimmed-mean speedup.
            link_rows.append(
                {
                    "workload": name,
                    "nolink_s": "%.3f" % family["nolink_s"],
                    "linked_s": "%.3f" % family["linked_s"],
                    "speedup_x": "%.2f" % family["speedup_trimmed_x"],
                    "bounces": "%d" % family["link_bounces"],
                    "regions": "%d" % family["regions_fused"],
                    "ttfo_s": ttfo_cell(family, "nolink", "linked"),
                    "identical": str(
                        family["identical_results"]
                        and family["oracle_identical"]
                    ),
                }
            )
        elif "isolated_s" in family:
            # The shared-store family times a never-warmed database's
            # cold run with vs. without the per-host body pool.
            shared_rows.append(
                {
                    "workload": name,
                    "isolated_s": "%.3f" % family["isolated_s"],
                    "shared_s": "%.3f" % family["shared_s"],
                    "speedup_x": "%.2f" % family["speedup_x"],
                    "host_compiles": "%d/%d" % (
                        family["host_compiles_isolated"],
                        family["host_compiles_shared"],
                    ),
                    "shared_hits": "%d" % family["shared_hits_shared"],
                    "ttfo_s": ttfo_cell(family, "isolated", "shared"),
                    "identical": str(family["identical_results"]),
                }
            )
        elif "flock_s" in family:
            # The fleet-warmup family times an N-process warm fleet
            # over the flock files vs. the cache-server daemon; the
            # per-lookup p50 latencies are the daemon's headline.
            fleet_rows.append(
                {
                    "workload": name,
                    "flock_s": "%.3f" % family["flock_s"],
                    "daemon_s": "%.3f" % family["daemon_s"],
                    "procs": "%d" % family["fleet_processes"],
                    "host_compiles": "%d/%d" % (
                        family["fleet_host_compiles_flock"],
                        family["fleet_host_compiles_daemon"],
                    ),
                    "lookup_p50_us": "%.1f/%.1f" % (
                        family["flock_lookup_p50_us"],
                        family["daemon_lookup_p50_us"],
                    ),
                    "fallback": str(family["fallback_ok"]),
                    "identical": str(family["identical_results"]),
                }
            )
        elif "plain_s" in family:
            # The record-overhead family times plain vs. recording runs;
            # the interesting number is the relative cost, not a speedup.
            record_rows.append(
                {
                    "workload": name,
                    "plain_s": "%.3f" % family["plain_s"],
                    "record_s": "%.3f" % family["record_s"],
                    "overhead": "%.1f%%" % (
                        100.0 * (family["record_s"] / family["plain_s"] - 1.0)
                    ),
                    "ttfo_s": ttfo_cell(family, "plain", "record"),
                    "identical": str(family["identical_results"]),
                }
            )
        elif "stale_reads" in family:
            # The transparency family's headline is the audit, not the
            # sweep time: oracle identity across dispatch tiers, zero
            # stale code-byte reads, engaged SMC detection, and
            # bit-identical warm restarts over every transport.
            churn_smc = family.get("churn_smc") or {}
            transparency_rows.append(
                {
                    "workload": name,
                    "interpreted_s": "%.3f" % family["interpreted_s"],
                    "compiled_s": "%.3f" % family["compiled_s"],
                    "stale_reads": "%d" % family["stale_reads"],
                    "smc_inval": "%d" % sum(churn_smc.values()),
                    "warm": str(family["warm_identical"]),
                    "ttfo_s": ttfo_cell(family, "interpreted", "compiled"),
                    "identical": str(
                        family["identical_results"]
                        and family["oracle_identical"]
                    ),
                }
            )
        elif "interpreted_s" in family:
            tier_rows.append(
                {
                    "workload": name,
                    "interpreted_s": "%.3f" % family["interpreted_s"],
                    "compiled_s": "%.3f" % family["compiled_s"],
                    "speedup_x": "%.2f" % family["speedup_x"],
                    "spread": "%.0f%%/%.0f%%" % (
                        family["interpreted_spread_pct"],
                        family["compiled_spread_pct"],
                    ),
                    "ttfo_s": ttfo_cell(family, "interpreted", "compiled"),
                    "identical": str(family["identical_results"]),
                }
            )
        else:
            # The sidecar family times cold vs. warm host-compile cost
            # under the compiled tier, so its columns differ.
            sidecar_rows.append(
                {
                    "workload": name,
                    "cold_s": "%.3f" % family["cold_s"],
                    "warm_s": "%.3f" % family["warm_s"],
                    "speedup_x": "%.2f" % family["speedup_x"],
                    "host_compiles": "%d/%d" % (
                        family["host_compiles_cold"],
                        family["host_compiles_warm"],
                    ),
                    "ttfo_s": ttfo_cell(family, "cold", "warm"),
                    "identical": str(family["identical_results"]),
                }
            )
    if tier_rows:
        print(format_table(
            tier_rows,
            columns=["workload", "interpreted_s", "compiled_s", "speedup_x",
                     "spread", "ttfo_s", "identical"],
            title="Wall-clock dispatch benchmark (best of %d, %d warmup)"
                  % (args.reps, args.warmup),
        ))
    if sidecar_rows:
        print(format_table(
            sidecar_rows,
            columns=["workload", "cold_s", "warm_s", "speedup_x",
                     "host_compiles", "ttfo_s", "identical"],
            title="Compiled-body sidecar: cold vs. warm host compile()",
        ))
    if shared_rows:
        print(format_table(
            shared_rows,
            columns=["workload", "isolated_s", "shared_s", "speedup_x",
                     "host_compiles", "shared_hits", "ttfo_s", "identical"],
            title="Shared per-host store: DB-A warms DB-B",
        ))
    if record_rows:
        print(format_table(
            record_rows,
            columns=["workload", "plain_s", "record_s", "overhead",
                     "ttfo_s", "identical"],
            title="Recording overhead: plain vs. record-enabled runs",
        ))
    if link_rows:
        print(format_table(
            link_rows,
            columns=["workload", "nolink_s", "linked_s", "speedup_x",
                     "bounces", "regions", "ttfo_s", "identical"],
            title="Trace linking + superblock fusion "
                  "(trimmed-mean speedup)",
        ))
    if warmup_rows:
        print(format_table(
            warmup_rows,
            columns=["workload", "eager_ttfo_s", "tiered_ttfo_s",
                     "ttfo_ratio", "warm_compiles", "jobs_mono", "identical"],
            title="Tiered warm-up: compile threshold 1 vs. tier-up "
                  "(time-to-first-output)",
        ))
    if fleet_rows:
        print(format_table(
            fleet_rows,
            columns=["workload", "flock_s", "daemon_s", "procs",
                     "host_compiles", "lookup_p50_us", "fallback",
                     "identical"],
            title="Fleet warm-up: flock store vs. cache-server daemon "
                  "(per-lookup p50 flock/daemon)",
        ))
    if transparency_rows:
        print(format_table(
            transparency_rows,
            columns=["workload", "interpreted_s", "compiled_s",
                     "stale_reads", "smc_inval", "warm", "ttfo_s",
                     "identical"],
            title="Transparency under attack: anti-instrumentation corpus",
        ))
        tr_family = results["workloads"].get("transparency")
        if tr_family and tr_family.get("churn_smc"):
            print("transparency SMC churners (interpreted oracle):")
            for corpus, count in sorted(tr_family["churn_smc"].items()):
                print("  %-15s invalidations %d" % (corpus, count))
    tw_family = results["workloads"].get("tiered_warmup")
    if tw_family and tw_family.get("prewarm_jobs_sweep"):
        print("prewarm cold-sweep wall clock (%d cores):"
              % tw_family.get("cpu_count", 1))
        for row in tw_family["prewarm_jobs_sweep"]:
            print(
                "  --jobs %d  %.2fs  compiled %d  admitted %d%s"
                % (row["jobs"], row["wall_s"], row["compiled"],
                   row["admitted"],
                   "" if row.get("monotonic_ok", True) else "  (regressed)")
            )
    tl_family = results["workloads"].get("trace_linking")
    if tl_family and tl_family.get("link_per_corpus"):
        print("trace_linking chain corpora (linked compiled tier):")
        for corpus, link in sorted(tl_family["link_per_corpus"].items()):
            print(
                "  %-10s direct hops %-7d region entries/hops %d/%d  "
                "fused %d  bounces %d"
                % (corpus, link["link_direct_hops"],
                   link["region_entries"], link["region_hops"],
                   link["regions_fused"], link["link_bounces"])
            )
    ih_family = results["workloads"].get("indirect_heavy")
    if ih_family and ih_family.get("ic_per_corpus"):
        print("indirect_heavy inline-cache chains (compiled tier):")
        for corpus, ic in sorted(ih_family["ic_per_corpus"].items()):
            print(
                "  %-17s hit rate %5.1f%%  hits/overflow/misses %d/%d/%d  "
                "promotions %d  depth hits %s"
                % (corpus, 100.0 * ic["hit_rate"], ic["hits"],
                   # .get: merged JSON may predate the megamorphic tier.
                   ic.get("overflow_hits", 0), ic["misses"],
                   ic["promotions"], ic["depth_hits"])
            )
    print("results written to %s" % out_path)

    gate = results["gate"]
    if "pass" in gate:
        print(
            "gate: %s speedup %.2fx (threshold %.1fx) -> %s"
            % (GATE_WORKLOAD, gate["speedup_x"], GATE_THRESHOLD_X,
               "PASS" if gate["pass"] else "FAIL")
        )
        if args.check:
            # An explicit --check-threshold overrides the recorded gate
            # for the exit code only (CI smoke uses 1.0: merely "not
            # slower", robust to shared-runner noise).
            threshold = (
                args.check_threshold if args.check_threshold is not None
                else GATE_THRESHOLD_X
            )
            family = results["workloads"][GATE_WORKLOAD]
            trimmed = family.get("speedup_trimmed_x", family["speedup_x"])
            ok = family["identical_results"] and trimmed >= threshold
            if not ok:
                return 1
    if args.check and "sidecar_cold_warm" in results["workloads"]:
        family = results["workloads"]["sidecar_cold_warm"]
        warm_ok = (family["identical_results"]
                   and family["host_compiles_warm"] == 0)
        print(
            "sidecar: host compiles cold=%d warm=%d -> %s"
            % (family["host_compiles_cold"], family["host_compiles_warm"],
               "PASS" if warm_ok else "FAIL")
        )
        if not warm_ok:
            return 1
    if args.check and "shared_store" in results["workloads"]:
        family = results["workloads"]["shared_store"]
        # The cross-application acceptance gate: a database that never
        # ran a workload performs zero host compile()s when another
        # database on the host already published the bodies — and the
        # isolated control actually paid them, so zero is meaningful.
        shared_ok = (
            family["identical_results"]
            and family["host_compiles_shared"] == 0
            and family["host_compiles_isolated"] > 0
            and family["shared_hits_shared"] > 0
        )
        print(
            "shared store: host compiles isolated=%d shared=%d "
            "(shared hits %d) -> %s"
            % (family["host_compiles_isolated"],
               family["host_compiles_shared"],
               family["shared_hits_shared"],
               "PASS" if shared_ok else "FAIL")
        )
        if not shared_ok:
            return 1
    if args.check and "record_overhead" in results["workloads"]:
        family = results["workloads"]["record_overhead"]
        overhead_pct = 100.0 * (family["record_s"] / family["plain_s"] - 1.0)
        record_ok = family["identical_results"] and overhead_pct < 10.0
        print(
            "record overhead: %.1f%% (cap 10%%), identical=%s -> %s"
            % (overhead_pct, family["identical_results"],
               "PASS" if record_ok else "FAIL")
        )
        if not record_ok:
            return 1
    if args.check and "indirect_heavy" in results["workloads"]:
        family = results["workloads"]["indirect_heavy"]
        per = family.get("ic_per_corpus") or {}
        # The chains must actually engage on the corpora built to fit
        # them.  Megamorphic is deliberately excluded: its callr site
        # cycles more targets than the chain holds, so a near-zero hit
        # rate there is the designed behavior, not a regression.
        ic_ok = (
            family["identical_results"]
            and all(per.get(name, {}).get("hit_rate", 0.0) > 0.0
                    for name in ("alternating_pair", "rotating_3"))
        )
        print(
            "indirect ICs: identical=%s alternating_pair=%.1f%% "
            "rotating_3=%.1f%% -> %s"
            % (family["identical_results"],
               100.0 * per.get("alternating_pair", {}).get("hit_rate", 0.0),
               100.0 * per.get("rotating_3", {}).get("hit_rate", 0.0),
               "PASS" if ic_ok else "FAIL")
        )
        if not ic_ok:
            return 1
    if args.check and "trace_linking" in results["workloads"]:
        family = results["workloads"]["trace_linking"]
        # The linked tier must win without changing a single observable:
        # bit-identical to the no-link tier AND to the interpreted
        # oracle, with every stable-chain exit resolved in cache (zero
        # dispatcher bounces) and fusion actually engaged.
        link_ok = (
            family["identical_results"]
            and family["oracle_identical"]
            and family["link_bounces"] == 0
            and family["regions_fused"] > 0
        )
        print(
            "trace linking: identical=%s oracle=%s bounces=%d "
            "regions=%d -> %s"
            % (family["identical_results"], family["oracle_identical"],
               family["link_bounces"], family["regions_fused"],
               "PASS" if link_ok else "FAIL")
        )
        if not link_ok:
            return 1
    if args.check and "tiered_warmup" in results["workloads"]:
        family = results["workloads"]["tiered_warmup"]
        # The tiered warm-up acceptance gate: the default tier-up must
        # reach first output in at most 60% of the threshold-1 cold
        # TTFO without changing one observable (bit-identical to
        # threshold 1 AND to the interpreted oracle), the prewarm jobs sweep
        # must scale core-awarely, and a prewarmed store must leave the
        # warm run nothing to compile.
        ratio = family.get("ttfo_ratio_x", 1.0)
        warmup_ok = (
            family["identical_results"]
            and family["oracle_identical"]
            and ratio <= 0.6
            and family["prewarm_warm_host_compiles"] == 0
            and family["jobs_monotonic_ok"]
        )
        print(
            "tiered warmup: ttfo ratio %.2f (cap 0.60) warm compiles=%d "
            "jobs monotonic=%s identical=%s oracle=%s -> %s"
            % (ratio, family["prewarm_warm_host_compiles"],
               family["jobs_monotonic_ok"], family["identical_results"],
               family["oracle_identical"],
               "PASS" if warmup_ok else "FAIL")
        )
        if not warmup_ok:
            return 1
    if args.check and "fleet_warmup" in results["workloads"]:
        family = results["workloads"]["fleet_warmup"]
        # The fleet acceptance gate: the warm fleet compiles nothing
        # over the socket, both transports are bit-identical, warm
        # daemon lookups beat the flock store's stat-revalidated path,
        # sessions against a dead daemon silently fall back to the
        # files, and the store is still fsck-clean after the daemon's
        # write-backs.  The fleet wall clock itself is not gated: on a
        # loaded single-core CI runner, N-process spawn noise dwarfs
        # the lookup path either way.
        fleet_ok = (
            family["identical_results"]
            and family["daemon_alive"]
            and family["fleet_host_compiles_daemon"] == 0
            and family["daemon_lookup_p50_us"]
                < family["flock_lookup_p50_us"]
            and family["fallback_ok"]
            and family["fsck_clean"]
        )
        print(
            "fleet warmup: %d procs, host compiles flock=%d daemon=%d, "
            "lookup p50 %.1f/%.1fus p99 %.1f/%.1fus (flock/daemon), "
            "fallback=%s fsck=%s identical=%s -> %s"
            % (family["fleet_processes"],
               family["fleet_host_compiles_flock"],
               family["fleet_host_compiles_daemon"],
               family["flock_lookup_p50_us"],
               family["daemon_lookup_p50_us"],
               family["flock_lookup_p99_us"],
               family["daemon_lookup_p99_us"],
               family["fallback_ok"], family["fsck_clean"],
               family["identical_results"],
               "PASS" if fleet_ok else "FAIL")
        )
        if not fleet_ok:
            return 1
    if args.check and "transparency" in results["workloads"]:
        family = results["workloads"]["transparency"]
        # The transparency acceptance gate: every dispatch tier
        # bit-identical to the interpreted oracle (output, exit status,
        # every VMStats counter), zero stale code-byte reads against
        # the native oracle (cold and across every warm transport),
        # the SMC detector engaged on every churner, and warm restarts
        # that actually revived persisted traces.
        churn_smc = family.get("churn_smc") or {}
        transparency_ok = (
            family["identical_results"]
            and family["oracle_identical"]
            and family["stale_reads"] == 0
            and family["smc_ok"]
            and family["warm_identical"]
            and family["warm_preloaded"] > 0
        )
        print(
            "transparency: identical=%s oracle=%s stale reads=%d "
            "churn invalidations=%d warm=%s (preloaded %d) -> %s"
            % (family["identical_results"], family["oracle_identical"],
               family["stale_reads"], sum(churn_smc.values()),
               family["warm_identical"], family["warm_preloaded"],
               "PASS" if transparency_ok else "FAIL")
        )
        for failure in family.get("oracle_failures") or []:
            print("  oracle divergence: %s" % failure)
        for failure in family.get("warm_failures") or []:
            print("  warm divergence: %s" % failure)
        if not transparency_ok:
            return 1
    if args.check:
        # Noise advisory (never flips the exit code): a family whose
        # per-mode max-over-min spread exceeds the threshold ran on a
        # machine too loaded for its numbers to be trusted.
        for name, family in sorted(results["workloads"].items()):
            for key in sorted(family):
                if key.endswith("_spread_pct") and family[key] > 25.0:
                    print(
                        "warning: %s %s %.0f%% exceeds 25%% — rerun on "
                        "a quieter machine before trusting the speedup"
                        % (name, key, family[key])
                    )
    return 0


def cmd_prewarm(args) -> int:
    """``repro prewarm``: mass-compile a corpus ahead of first use."""
    from repro.persist.prewarm import PrewarmError, run_prewarm

    try:
        report = run_prewarm(
            args.pcache,
            jobs=args.jobs,
            corpus=args.corpus,
            shared_store_dir=args.shared_store,
            verify=args.verify,
        )
    except PrewarmError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    if args.json:
        import json
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(
            "prewarmed %d app(s) with %d job(s) in %.2fs"
            % (report.apps, report.jobs, report.wall_s)
        )
        print(
            "  traces persisted: %d" % report.traces_persisted
        )
        print(
            "  bodies: compiled %d, skipped (already stored) %d"
            % (report.compiled, report.skipped)
        )
        if args.shared_store:
            print(
                "  shared store: admitted %d, below cost floor %d"
                % (report.admitted, report.admission_skipped)
            )
        for job in report.job_reports:
            print(
                "  job %d: %s  %.2fs  compiled %d"
                % (job.job, ",".join(job.apps), job.wall_s,
                   job.host_compiles)
            )
    if args.verify:
        verified = report.verify_host_compiles == 0
        print(
            "verify: warm run host compiles = %d -> %s"
            % (report.verify_host_compiles,
               "PASS" if verified else "FAIL")
        )
        if not verified:
            return 1
    return 0


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
    sub.add_argument("--shared-store", metavar="DIR",
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
    sub.add_argument("--max-bytes", type=int, default=None,
                     help="LRU/size cap: evict least-recently-used "
                          "bodies until the pool fits")
    sub.add_argument("--json", action="store_true",
                     help="print the machine-readable report")
    sub.set_defaults(func=cmd_cache_gc)
    sub = cache_sub.add_parser(
        "serve", help="serve a shared store to a session fleet "
                      "(per-host cache-server daemon)"
    )
    sub.add_argument("directory",
                     help="shared-store directory to serve")
    sub.add_argument("--socket", metavar="ADDR", default=None,
                     help="socket address: a unix path or tcp://HOST:PORT "
                          "(default: DIR/daemon.sock)")
    sub.add_argument("--max-bytes", type=int, default=None,
                     help="hot-index byte cap; eviction ranks by "
                          "(cost_us, stamp) ascending")
    sub.add_argument("--flush-interval", type=float, default=2.0,
                     help="seconds between write-backs to the shard "
                          "files (default 2.0)")
    sub.add_argument("--detach", action="store_true",
                     help="run the daemon in the background (logs to "
                          "DIR/daemon.log) and wait until it answers")
    sub.add_argument("--status", action="store_true",
                     help="ping a running daemon and print its stats")
    sub.add_argument("--stop", action="store_true",
                     help="ask a running daemon to flush and exit")
    sub.add_argument("--json", action="store_true",
                     help="print --status output as JSON")
    sub.set_defaults(func=cmd_cache_serve)

    sub = subparsers.add_parser(
        "bench", help="wall-clock dispatch-tier benchmark suite"
    )
    sub.add_argument("--warmup", type=int, default=2,
                     help="untimed repetitions per family/mode (default 2)")
    sub.add_argument("--reps", type=int, default=5,
                     help="timed repetitions per family/mode (default 5)")
    sub.add_argument("--family", action="append",
                     choices=("fig5a_gui", "fig2b_gui", "headline_spec",
                              "sidecar_cold_warm", "shared_store",
                              "indirect_heavy", "record_overhead",
                              "trace_linking", "tiered_warmup",
                              "fleet_warmup", "transparency"),
                     help="run only this family (repeatable; default all)")
    sub.add_argument("--out", metavar="PATH",
                     help="result JSON path (default BENCH_wallclock.json "
                          "at the repo root)")
    sub.add_argument("--check", action="store_true",
                     help="exit non-zero when the fig5a speedup gate fails")
    sub.add_argument("--check-threshold", type=float, default=None,
                     help="override the --check speedup threshold "
                          "(default: the recorded 1.5x gate)")
    sub.set_defaults(func=cmd_bench)

    sub = subparsers.add_parser(
        "prewarm",
        help="mass-compile a workload corpus into caches ahead of use",
    )
    sub.add_argument("--pcache", required=True, metavar="DIR",
                     help="cache database directory to warm")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default 1)")
    sub.add_argument("--corpus", choices=("tiny", "warmup", "gui"),
                     default="warmup",
                     help="workload corpus to compile (default warmup)")
    sub.add_argument("--shared-store", metavar="DIR",
                     help="also publish compiled bodies to this per-host "
                          "shared store")
    sub.add_argument("--verify", action="store_true",
                     help="re-run the corpus warm afterwards; exit "
                          "non-zero unless the host compiles nothing")
    sub.add_argument("--json", action="store_true",
                     help="print the machine-readable report")
    sub.set_defaults(func=cmd_prewarm)

    sub = subparsers.add_parser("disasm", help="disassemble an SBF image")
    sub.add_argument("image")
    sub.add_argument("--base", type=lambda v: int(v, 0), default=0)
    sub.set_defaults(func=cmd_disasm)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
