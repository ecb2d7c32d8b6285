#!/usr/bin/env python3
"""Every layer of one ``bench/run.py`` workload.

``bench/run.py --workload W --trace 1`` prints only the per-layer metrics
that ``BENCHMARK.json`` names, and its full mode measures all four
workloads.  This driver sets one workload up with ``bench/run.py``'s own
functions, measures untraced and traced rounds for ``--seconds``, and
prints every metric of its ``layer_metrics`` (each layer's self time per
run, scaled to the reference host like a run's time, and the counters),
then one JSON line.  ``bench/`` is loaded by path from this checkout, so
two checkouts can be measured against each other in interleaved runs:

    python3 tools/layers.py --workload gui_warm --seconds 15
    make layers W=gui_warm

The exit status is 1 when a run failed or the set-up did not finish.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shutil
import sys

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"
)


def load_bench():
    """``bench/run.py`` as a module, with ``bench/`` importable for its
    ``import spans``."""
    sys.path.insert(0, BENCH_DIR)
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_run", os.path.join(BENCH_DIR, "run.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(BENCH_DIR)
    return module


def main(argv=None) -> int:
    bench = load_bench()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=bench.WORKLOADS,
                        required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    args = parser.parse_args(argv)
    bench.import_repro()
    pattern = (False, True)
    rounds = bench.rounds_for(args.workload, args.seconds, pattern)
    work_dir = os.path.join(
        bench.WORK_ROOT, "layers-%s-%d" % (args.workload, os.getpid())
    )
    try:
        _setup_s, [(runs, _cache_bytes)] = bench.bench_workload(
            args.workload, args.seed, work_dir, 1,
            [(pattern, rounds, args.seconds)],
        )
        layers = bench.layer_metrics(runs)
    except bench.SetupError as exc:
        print("layers: %s: %s" % (args.workload, exc), file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failed = [run for run in runs if run["fail"] is not None]
    for run in failed:
        print("failed %s: %s" % (run["case"], run["fail"]))
    print("%s  (%d traced runs of %d)" % (
        args.workload, sum(run["traced"] for run in runs), len(runs)))
    for name, value in layers.items():
        print("  %-34s %14.4f %s" % (name, value, bench.unit_of(name)))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "attempted": len(runs), "failed": len(failed),
                      "layers": layers}, sort_keys=True))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
