"""``tools/pairs.py``'s summary of interleaved benchmark pairs.

The tool runs ``bench/run.py --workload`` in two checkouts; these tests
feed its summary function canned result lines, the JSON line a
contract-mode run prints last, and check the medians, the parent's
quartiles, the wins and the separation it derives from them.
"""

import importlib.util
import json
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

END_TO_END = [
    {"name": "run_p50_ms", "better": "lower"},
    {"name": "runs_per_s", "better": "higher"},
]


@pytest.fixture(scope="module")
def pairs():
    spec = importlib.util.spec_from_file_location(
        "pairs_tool", os.path.join(ROOT, "tools", "pairs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def line(p50, per_s=None):
    metrics = {"run_p50_ms": {"value": p50, "unit": "ms"}}
    if per_s is not None:
        metrics["runs_per_s"] = {"value": per_s, "unit": "1/s"}
    return json.dumps({"correct": True, "attempted": 10, "failed": 0,
                       "metrics": metrics})


def test_a_clear_gain(pairs):
    canned = [(line(70.0 + i, 14.0), line(63.0 + i, 16.0))
              for i in range(5)]
    summary = pairs.summarize(canned, END_TO_END)
    p50 = summary["run_p50_ms"]
    assert p50["parent_median"] == 72.0
    assert p50["change_median"] == 65.0
    assert (p50["parent_q1"], p50["parent_q3"]) == (71.0, 73.0)
    assert p50["wins"] == p50["pairs"] == 5
    assert p50["separated"]
    # Higher is better for a rate.
    assert summary["runs_per_s"]["wins"] == 5


def test_noise_is_not_separated(pairs):
    parent = [70.0, 74.0, 66.0, 72.0, 68.0]
    change = [71.0, 69.0, 67.0, 73.0, 70.0]
    summary = pairs.summarize(
        [(line(a), line(b)) for a, b in zip(parent, change)], END_TO_END)
    p50 = summary["run_p50_ms"]
    assert p50["wins"] == 1
    assert (p50["parent_q1"], p50["parent_q3"]) == (68.0, 72.0)
    assert not p50["separated"]
    # No line held the rate, so it is left out.
    assert "runs_per_s" not in summary


def test_one_pair_has_no_spread(pairs):
    summary = pairs.summarize([(line(70.0), line(69.0))], END_TO_END)
    p50 = summary["run_p50_ms"]
    assert p50["parent_q1"] == p50["parent_q3"] == 70.0
    assert p50["wins"] == 1 and p50["separated"]
