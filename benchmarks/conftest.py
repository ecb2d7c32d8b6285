"""Shared fixtures for the experiment regenerators.

Every benchmark regenerates one of the paper's tables or figures: it runs
the relevant workloads through the VM (with and without persistence),
prints the regenerated rows/series, asserts the paper's qualitative shape,
and archives the text under ``benchmarks/results/`` for EXPERIMENTS.md.

Workload builds and expensive sweeps are session-scoped so the whole
suite shares them.  All simulations are deterministic: pytest-benchmark
timings measure the *simulator*, while the regenerated numbers are
simulated cycles.
"""

from __future__ import annotations

import os

import pytest

from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig
from repro.workloads.gui import build_gui_suite
from repro.workloads.harness import run_native, run_vm
from repro.workloads.oracle import build_oracle
from repro.workloads.spec2k import build_suite

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


@pytest.fixture(scope="session")
def spec_suite():
    return build_suite()


@pytest.fixture(scope="session")
def gui_suite():
    apps, store = build_gui_suite()
    return apps


@pytest.fixture(scope="session")
def oracle_workload():
    return build_oracle()


@pytest.fixture(scope="session")
def results_dir():
    os.makedirs(RESULTS_DIR, exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record(results_dir, request):
    """Persist a regenerated table/figure and echo it to stdout."""

    def _record(name: str, text: str) -> None:
        path = os.path.join(results_dir, name + ".txt")
        with open(path, "w") as handle:
            handle.write(text + "\n")
        print("\n" + text)

    return _record


def fresh_db(tmp_path_factory, label: str) -> CacheDatabase:
    return CacheDatabase(str(tmp_path_factory.mktemp("pccdb-" + label)))


def assert_healthy_persistence(result, context=""):
    """A measurement run must never have taken the degradation path.

    The storage layer downgrades to JIT-only on any fault rather than
    crashing (docs/cache-format.md), which would silently corrupt a
    regenerated figure: the run completes with plausible-looking but
    cache-less cycle counts.  Every persisted measurement asserts the
    fault path stayed cold.
    """
    host = result.host
    assert host.fallback_jit_only is False, (context, host.degraded_reason)
    assert host.cache_quarantined == 0, (context, host.events)
    assert host.storage_errors == 0, (context, host.events)


def cold_and_warm(workload, input_name, db, tool_factory=None, layout=None):
    """Run twice with persistence: (cold run, fully warm run)."""
    cold = run_vm(
        workload, input_name,
        tool=tool_factory() if tool_factory else None,
        persistence=PersistenceConfig(database=db),
        layout=layout,
    )
    warm = run_vm(
        workload, input_name,
        tool=tool_factory() if tool_factory else None,
        persistence=PersistenceConfig(database=db),
        layout=layout,
    )
    return cold, warm


def baseline_vm(workload, input_name, tool_factory=None, layout=None):
    return run_vm(
        workload, input_name,
        tool=tool_factory() if tool_factory else None,
        layout=layout,
    )


def native_run(workload, input_name, layout=None):
    return run_native(workload, input_name, layout=layout)
