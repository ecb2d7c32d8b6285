"""What the fresh-process benchmark (``bench/run.py``) reads of a run.

``bench/`` changes only together with ``BENCHMARK.json``, so a rename of
anything its ``timed_run`` reads -- a result attribute, a report key, or
a layer entry point that ``spans.installed`` wraps (each must stay
defined on its own class) -- would otherwise surface only in ``make
bench-contract-smoke``.  These tests call ``timed_run`` in-process for
one SPEC ``ref-1`` program, whose hot loop host-compiles at the default
tier-up, untraced and traced: cold, warm once the database stops
changing, and against a shared body store.
"""

import importlib.util
import os
import sys

import pytest

from repro.workloads.harness import run_native
from repro.workloads.spec2k import build_suite

BENCH_DIR = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench"
)

#: Every counter ``timed_run`` reports per run.
COUNTERS = {
    "guest_insts", "vm_entries", "translates", "flushes", "ic_hits",
    "ic_misses", "chained_exits", "link_bounces", "regions",
    "host_compiles", "body_hits", "shared_hits", "shared_misses",
    "shared_publishes", "preloaded", "invalidated",
}


@pytest.fixture(scope="module")
def bench_run():
    """``bench/run.py`` loaded by path, with ``bench/`` importable for
    its ``import spans``."""
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


@pytest.fixture(scope="module")
def gzip(bench_run):
    program = build_suite()["164.gzip"]
    return program, bench_run.observable(run_native(program, "ref-1"))


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_timed_run_reads_every_counter(bench_run, gzip, tmp_path, traced):
    program, reference = gzip
    db_dir = str(tmp_path / "db")

    def timed(warm, db=db_dir, shared=None):
        run = bench_run.timed_run(
            program, "ref-1", db, shared, reference, warm, traced
        )
        assert run["fail"] is None
        counters = run["counters"]
        assert set(counters) == COUNTERS
        assert all(isinstance(value, int) for value in counters.values())
        assert bool(run["spans"]) == traced
        return counters

    assert timed(warm=False)["translates"] > 0
    for _attempt in range(bench_run.WARM_MAX_RUNS):
        before = bench_run.dir_snapshot(db_dir)
        counters = timed(warm=False)
        if (not counters["translates"] and not counters["host_compiles"]
                and bench_run.dir_snapshot(db_dir) == before):
            break
    else:
        pytest.fail("database still changing after %d runs"
                    % bench_run.WARM_MAX_RUNS)
    assert timed(warm=True)["preloaded"] > 0
    shared = str(tmp_path / "shared")
    assert timed(warm=False, db=str(tmp_path / "db2"),
                 shared=shared)["shared_publishes"] > 0
