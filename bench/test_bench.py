"""Self-tests of the benchmark: ``python3 -m pytest bench``."""

import json
import os
import subprocess
import sys

import run
import spans

run.import_repro()


def test_self_times_of_nested_spans():
    # root 0-100 > a 10-40 (> b 15-25), a 50-70, c 80-90
    tree = [
        ["root", 0, 100, -1],
        ["a", 10, 40, 0],
        ["b", 15, 25, 1],
        ["a", 50, 70, 0],
        ["c", 80, 90, 0],
    ]
    totals = spans.self_times(tree)
    assert totals == {"root": [40, 1], "a": [40, 2], "b": [10, 1],
                      "c": [10, 1]}
    assert sum(ns for ns, _calls in totals.values()) == 100


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    from repro.workloads.gui import build_gui_suite
    from repro.workloads.harness import run_native

    originals = []
    for _name, module, path in spans.LAYERS:
        owner, leaf = spans._owner(module, path)
        originals.append((owner, leaf, vars(owner)[leaf]))
    apps, _store = build_gui_suite()
    app = apps["file-roller"]
    reference = run.observable(run_native(app, "startup"))
    result = run.timed_run(app, "startup", str(tmp_path / "db"), None,
                           reference, warm=False, traced=True)
    assert result["fail"] is None
    recorded = {span[0] for span in result["spans"]}
    assert {spans.ROOT, "loader.load", "vm.engine.self",
            "vm.compile.compile", "persist.manager.exit"} <= recorded
    for owner, leaf, raw in originals:
        assert vars(owner)[leaf] is raw, (owner, leaf)


def test_smoke_prints_every_benchmark_metric(tmp_path):
    out = tmp_path / "smoke.json"
    proc = subprocess.run(
        [sys.executable, os.path.join(run.ROOT, "bench", "run.py"),
         "--smoke", "--out", str(out)],
        capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    spec = run.load_spec()
    report = json.loads(out.read_text())["workloads"]
    lines = proc.stdout.splitlines()
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert run.unit_of(metric["name"]) == metric["unit"]
        printed = [line.split() for line in lines
                   if line.split()[:1] == [metric["name"]]]
        assert len(printed) == len(run.WORKLOADS), metric["name"]
        assert all(row[-1] == metric["unit"] for row in printed)
    for workload in run.WORKLOADS:
        assert report[workload]["end_to_end"]["error_rate"] == 0


def test_layer_counts_repeat_for_a_seed(tmp_path):
    # The farm is the order-sensitive workload: its counts depend on
    # which case ran first, so a seed must fix them.
    def counts():
        _setup_s, [(runs, _bytes)] = run.bench_workload(
            "farm_mixed", 7, str(tmp_path / "work"), 1, [((False, True), 1)],
        )
        metrics = run.layer_metrics(runs)
        return {name: value for name, value in metrics.items()
                if run.unit_of(name) in ("count", "ratio")}

    first = counts()
    assert first["vm.compile.compiles"] > 0
    assert counts() == first
