"""Multi-process tests for ``repro prewarm`` (:mod:`repro.persist.prewarm`).

Prewarming is the one workflow whose *normal* mode is several real
processes hammering one database directory and one shared store at
once, so the tests here run the real pool (fork context, module-level
workers) rather than mocking it:

* **completeness** — after a parallel prewarm, a warm re-run of the
  whole corpus performs zero host ``compile()`` calls (the invariant
  ``repro prewarm --verify`` gates);
* **job accounting** — every app lands in exactly one job slice and the
  per-job reports cover the corpus;
* **interrupt hygiene** — a KeyboardInterrupt mid-pool terminates and
  joins the workers before propagating (no orphaned processes), checked
  against a stub pool so the test is deterministic.

Job counts default to 2 and can be raised for stress runs via
``REPRO_STRESS_PREWARM_JOBS``.
"""

import os

import pytest

from repro.persist.prewarm import (
    PrewarmError,
    _run_jobs,
    corpus_app_names,
    run_prewarm,
    verify_warm,
)
from repro.workloads.warmup import TINY_APPS

JOBS = int(os.environ.get("REPRO_STRESS_PREWARM_JOBS", "2"))


def test_parallel_prewarm_leaves_nothing_to_compile(tmp_path):
    """The acceptance invariant: prewarm with real worker processes,
    then a warm in-process re-run compiles nothing."""
    db_dir = str(tmp_path / "db")
    store_dir = str(tmp_path / "store")
    report = run_prewarm(
        db_dir, jobs=JOBS, corpus="tiny",
        shared_store_dir=store_dir, verify=True,
    )
    assert report.jobs == JOBS
    assert report.apps == len(TINY_APPS)
    assert report.compiled > 0
    assert report.admitted > 0
    assert report.verify_host_compiles == 0
    # Every app ran in exactly one job slice.
    assigned = [app for job in report.job_reports for app in job.apps]
    assert sorted(assigned) == sorted(TINY_APPS)
    # An explicit second verify pass agrees (fresh in-process memo).
    assert verify_warm(db_dir, "tiny", store_dir) == 0


def test_second_prewarm_is_all_hits(tmp_path):
    """Re-prewarming a warm database compiles nothing and publishes
    nothing new — the idempotence a cron-driven prewarm relies on."""
    db_dir = str(tmp_path / "db")
    store_dir = str(tmp_path / "store")
    run_prewarm(db_dir, jobs=JOBS, corpus="tiny",
                shared_store_dir=store_dir)
    again = run_prewarm(db_dir, jobs=JOBS, corpus="tiny",
                        shared_store_dir=store_dir)
    assert again.compiled == 0
    assert again.skipped > 0
    assert again.admitted == 0


def test_jobs_above_corpus_size_degrade_gracefully(tmp_path):
    """More jobs than apps: the pool shrinks to the work available."""
    report = run_prewarm(
        str(tmp_path / "db"), jobs=len(TINY_APPS) + 3, corpus="tiny",
    )
    assert report.compiled > 0
    assert len(report.job_reports) == len(TINY_APPS)
    assert verify_warm(str(tmp_path / "db"), "tiny") == 0


def test_invalid_inputs_rejected(tmp_path):
    with pytest.raises(PrewarmError):
        run_prewarm(str(tmp_path / "db"), jobs=0, corpus="tiny")
    with pytest.raises(PrewarmError):
        corpus_app_names("nonexistent")


def test_cli_json_report_round_trips(tmp_path, capsys):
    """``repro prewarm --json`` emits the machine-readable report."""
    import json

    from repro.cli import main

    assert main(["prewarm", "--pcache", str(tmp_path / "db"),
                 "--corpus", "tiny", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["corpus"] == "tiny"
    assert report["compiled"] > 0
    assigned = [app for job in report["job_reports"] for app in job["apps"]]
    assert sorted(assigned) == sorted(TINY_APPS)


class StubPool:
    """Records the shutdown protocol ``_run_jobs`` drives."""

    def __init__(self, error=None):
        self.error = error
        self.calls = []

    def map(self, fn, work):
        self.calls.append("map")
        if self.error is not None:
            raise self.error
        return [fn(item) for item in work]

    def close(self):
        self.calls.append("close")

    def terminate(self):
        self.calls.append("terminate")

    def join(self):
        self.calls.append("join")


def test_keyboard_interrupt_terminates_pool():
    """^C mid-prewarm must terminate (not drain) and join the pool
    before the interrupt propagates to the caller."""
    pool = StubPool(error=KeyboardInterrupt())
    with pytest.raises(KeyboardInterrupt):
        _run_jobs([("task",)], jobs=2, pool_factory=lambda n: pool)
    assert pool.calls == ["map", "terminate", "join"]


def test_clean_run_closes_pool():
    pool = StubPool()
    sentinel = []

    def fake_worker(task):
        sentinel.append(task)
        return {"job": 0, "apps": [], "traces_persisted": 0,
                "host_compiles": 0, "sidecar_hits": 0, "shared_hits": 0,
                "shared_publishes": 0, "wall_s": 0.0}

    import repro.persist.prewarm as prewarm_module
    original = prewarm_module._prewarm_worker
    prewarm_module._prewarm_worker = fake_worker
    try:
        results = _run_jobs([("a",), ("b",)], jobs=2,
                            pool_factory=lambda n: pool)
    finally:
        prewarm_module._prewarm_worker = original
    assert len(results) == 2
    assert pool.calls == ["map", "close", "join"]
    assert sentinel == [("a",), ("b",)]
