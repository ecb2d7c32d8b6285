#!/usr/bin/env python3
"""Interleaved ``bench/run.py`` pairs between two checkouts.

Each pair runs ``python3 bench/run.py --workload W --seed S+i`` once in
each checkout, the parent first in even pairs and the change first in
odd ones, so drift of the host over the session falls on both sides.
For every end-to-end metric of ``BENCHMARK.json`` it then prints both
medians, the parent's quartiles, and in how many pairs the change was
better; the last line is one JSON object with the same numbers:

    python3 tools/pairs.py --parent ../parent --change . \\
        --workload spec_ref --pairs 10 --seed 700
    make pairs PARENT=../parent W=spec_ref SEED=700

Every run measures for ``BENCHMARK.json``'s ``run_seconds``.  Take
seeds that no earlier measurement of the change used.  A gain is one
the change wins in most pairs, with medians further apart than the
parent's interquartile range (``separated``).  The exit status is 1
when a run failed or printed no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float]:
    """The first and third quartile of ``values`` (one value is both)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(pairs: Sequence[Tuple[str, str]],
              end_to_end: Sequence[dict]) -> Dict[str, dict]:
    """Per end-to-end metric, what ``pairs`` of result lines say.

    ``pairs`` holds one ``(parent line, change line)`` per pair, each
    the JSON line ``bench/run.py --workload`` prints last;
    ``end_to_end`` is ``BENCHMARK.json``'s list of metrics, whose
    ``better`` says which way a win goes.  A metric a line lacks is
    left out of that pair.
    """
    summary = {}
    for metric in end_to_end:
        name = metric["name"]
        lower = metric["better"] == "lower"
        parent, change, wins = [], [], 0
        for parent_line, change_line in pairs:
            a = json.loads(parent_line)["metrics"].get(name)
            b = json.loads(change_line)["metrics"].get(name)
            if a is None or b is None:
                continue
            a, b = a["value"], b["value"]
            parent.append(a)
            change.append(b)
            wins += (b < a) if lower else (b > a)
        if not parent:
            continue
        q1, q3 = quartiles(parent)
        parent_median = statistics.median(parent)
        change_median = statistics.median(change)
        summary[name] = {
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_q1": q1,
            "parent_q3": q3,
            "wins": wins,
            "pairs": len(parent),
            "separated": abs(change_median - parent_median) > q3 - q1,
        }
    return summary


def run_bench(checkout: str, workload: str, seed: int) -> Tuple[str, str]:
    """One ``bench/run.py`` run in ``checkout``, as long as its
    ``BENCHMARK.json`` says: ``(result line, error)``, one of them
    empty."""
    command = [sys.executable, os.path.join("bench", "run.py"),
               "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return "", "exit %d: %s" % (done.returncode,
                                    (done.stderr or done.stdout).strip())
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        return "", "runs failed: %s" % "\n".join(lines[:-1])
    return lines[-1], ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="checkout of the parent commit")
    parser.add_argument("--change", required=True,
                        help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True,
                        help="pair i runs seed SEED + i on both sides")
    args = parser.parse_args(argv)
    with open(os.path.join(args.change, "BENCHMARK.json")) as handle:
        end_to_end = json.load(handle)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    pairs: List[Tuple[str, str]] = []
    for index in range(args.pairs):
        seed = args.seed + index
        order = ("parent", "change") if index % 2 == 0 else (
            "change", "parent")
        lines = {}
        for side in order:
            line, error = run_bench(sides[side], args.workload, seed)
            if error:
                print("pairs: %s run, seed %d: %s" % (side, seed, error),
                      file=sys.stderr)
                return 1
            lines[side] = line
        pairs.append((lines["parent"], lines["change"]))
        print("pair %d (seed %d, %s first) done" % (index, seed, order[0]),
              flush=True)
    summary = summarize(pairs, end_to_end)
    print("%-12s %12s %12s %25s %7s" % (
        "metric", "parent", "change", "parent quartiles", "wins"))
    for name, row in summary.items():
        print("%-12s %12.4f %12.4f %12.4f-%-12.4f %3d/%-3d%s" % (
            name, row["parent_median"], row["change_median"],
            row["parent_q1"], row["parent_q3"], row["wins"], row["pairs"],
            "  separated" if row["separated"] else ""))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "pairs": len(pairs), "metrics": summary},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
