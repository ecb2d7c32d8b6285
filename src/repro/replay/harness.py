"""Record/replay orchestration: one-call recording, strict replay, and
the differential-replay regression harness.

The rr line of work (PAPERS.md) turns every captured execution into a
free differential test: replay substitutes the recorded nondeterminism,
so any output/stats difference against the recorded baseline is a real
behavior change in the current build, not environmental noise.  The
pieces here:

* :func:`record_session` — run one workload input under the engine with
  a recording session attached; returns the result, the finished
  :class:`~repro.replay.log.ReplayLog` and (when a database was given)
  the stored log's name.
* :func:`replay_session` — re-run a recorded session against the
  current build under any dispatch mode, strict-checking structure and
  diffing the result against the recorded baseline.
* :class:`DifferentialReplayHarness` — replay every log stored in a
  database (``repro replay --diff``), under one or both dispatch
  modes, and report per-log verdicts: the regression-farm workflow.

Sessions are identified for later replay by their log ``meta`` —
``suite``/``workload``/``input``/``tool_name``/``layout_seed`` — which
:func:`resolve_standard` maps back onto the standard workload suites.
A custom resolver can be injected for synthetic corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.loader.layout import FixedLayout, PerturbedLayout
from repro.machine.costs import CostModel, DEFAULT_COST_MODEL
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.replay.log import ReplayLog, result_snapshot, snapshot_diff
from repro.replay.session import ReplayDivergence
from repro.vm.engine import Engine, VMConfig

#: Both dispatch tiers — the default differential-replay matrix.
REPLAY_MODES = ("interpreted", "compiled")


def _layout(seed):
    return FixedLayout() if seed is None else PerturbedLayout(int(seed))


def _tool_factory(name: Optional[str]) -> Callable[[], object]:
    """Map a friendly tool name (as stored in log meta) to a factory.

    Every replay needs a *fresh* tool instance — tools accumulate
    analysis state across a run.
    """
    if not name or name == "none":
        return lambda: None
    from repro.tools import (
        BBCountTool,
        CoverageTool,
        InsCountTool,
        MemTraceTool,
    )
    from repro.vm.client import NullTool

    table = {
        "null": NullTool,
        "bbcount": BBCountTool,
        "inscount": InsCountTool,
        "memtrace": MemTraceTool,
        "coverage": CoverageTool,
    }
    try:
        return table[name]
    except KeyError:
        raise KeyError(
            "unknown tool %r in replay log meta (have: %s)"
            % (name, ", ".join(sorted(table)))
        )


def _load_suite(suite: str) -> Dict[str, object]:
    if suite == "spec":
        from repro.workloads.spec2k import build_suite

        return build_suite()
    if suite == "gui":
        from repro.workloads.gui import build_gui_suite

        return build_gui_suite()[0]
    if suite == "oracle":
        from repro.workloads.oracle import build_oracle

        return {"oracle": build_oracle()}
    if suite == "shell":
        from repro.workloads.shell import build_shell_suite

        return build_shell_suite()[0]
    if suite == "nondet":
        from repro.workloads.nondet import build_nondet_suite

        return build_nondet_suite()
    raise KeyError(
        "unknown suite %r in replay log meta"
        " (choose: spec, gui, oracle, shell, nondet)" % (suite,)
    )


def resolve_standard(meta: Dict[str, object]):
    """Default session resolver over the standard workload suites.

    Returns ``(workload, input_name, tool_factory)`` for a log whose
    meta carries ``suite``/``workload``/``input``/``tool_name``.
    """
    suite = meta.get("suite")
    if not suite:
        raise KeyError("replay log meta has no 'suite' (custom resolver needed)")
    workloads = _load_suite(str(suite))
    name = str(meta.get("workload", ""))
    if name not in workloads:
        raise KeyError(
            "no workload %r in suite %r (have: %s)"
            % (name, suite, ", ".join(sorted(workloads)))
        )
    return workloads[name], str(meta.get("input", "")), _tool_factory(
        meta.get("tool_name")
    )


def _run(workload, input_name, config, tool, layout, cost_model, vm_config):
    process = workload.load(layout)
    session = PersistentCacheSession(config)
    engine = Engine(
        tool=tool, cost_model=cost_model, config=vm_config,
        persistence=session,
    )
    result = engine.run(process, args=workload.input(input_name).to_args())
    return result, session


@dataclass
class RecordOutcome:
    """One recorded session: its live result and the captured log."""

    result: object
    log: ReplayLog
    #: Stored filename inside the database's replay/ dir ("" when the
    #: recording had no database, or the log write failed — see
    #: ``result.host.record_state``).
    log_name: str = ""


def record_session(
    workload,
    input_name: str,
    database=None,
    tool=None,
    tool_name: str = "none",
    suite: Optional[str] = None,
    layout_seed: Optional[int] = None,
    dispatch_mode: str = "compiled",
    cost_model: CostModel = DEFAULT_COST_MODEL,
    name: Optional[str] = None,
    extra_meta: Optional[Dict[str, object]] = None,
) -> RecordOutcome:
    """Run one workload input with recording on; capture its session log."""
    meta: Dict[str, object] = {
        "name": name or "%s-%s" % (workload.name, input_name),
        "suite": suite,
        "workload": workload.name,
        "input": input_name,
        "tool_name": tool_name,
        "layout_seed": layout_seed,
    }
    if extra_meta:
        meta.update(extra_meta)
    config = PersistenceConfig(
        database=database, record=True, record_meta=meta
    )
    result, session = _run(
        workload,
        input_name,
        config,
        tool,
        _layout(layout_seed),
        cost_model,
        VMConfig(dispatch_mode=dispatch_mode),
    )
    return RecordOutcome(
        result=result,
        log=session.recorded_log,
        log_name=result.host.record_log,
    )


@dataclass
class ReplaySessionOutcome:
    """One strict replay of one log under one dispatch mode."""

    result: object
    #: Field-level differences against the recorded baseline ([] when
    #: the replay reproduced the recording bit-identically).
    diff: List[str] = field(default_factory=list)

    @property
    def bit_identical(self) -> bool:
        return not self.diff


def replay_session(
    log: ReplayLog,
    workload,
    input_name: str,
    tool=None,
    dispatch_mode: Optional[str] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> ReplaySessionOutcome:
    """Strictly replay ``log`` against the current build.

    ``dispatch_mode`` defaults to the recorded one but may be any mode:
    the tiers are bit-identical, so a recording under one must replay
    bit-identically under the other.  Structural divergence raises
    :class:`~repro.replay.session.ReplayDivergence`; value drift shows
    up in the returned ``diff``.
    """
    if dispatch_mode is None:
        dispatch_mode = str(log.meta.get("dispatch_mode", "compiled"))
    config = PersistenceConfig(replay_log=log)
    result, _session = _run(
        workload,
        input_name,
        config,
        tool,
        _layout(log.meta.get("layout_seed")),
        cost_model,
        VMConfig(dispatch_mode=dispatch_mode),
    )
    diff: List[str] = []
    if log.baseline is not None:
        diff = snapshot_diff(log.baseline, result_snapshot(result))
    return ReplaySessionOutcome(result=result, diff=diff)


@dataclass
class DifferentialOutcome:
    """Verdict for one (log, dispatch mode) replay."""

    log_name: str
    mode: str
    #: "match" | "diff" | "divergence" | "error"
    status: str
    diff: List[str] = field(default_factory=list)
    detail: str = ""


@dataclass
class DifferentialReport:
    """All verdicts of one ``repro replay --diff`` sweep."""

    outcomes: List[DifferentialOutcome] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return bool(self.outcomes) and all(
            outcome.status == "match" for outcome in self.outcomes
        )

    def counts(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for outcome in self.outcomes:
            tally[outcome.status] = tally.get(outcome.status, 0) + 1
        return tally


class DifferentialReplayHarness:
    """Replays every log in a database against the current build.

    ``resolve(meta) -> (workload, input_name, tool_factory)`` rebuilds
    the session's workload from its log meta;
    :func:`resolve_standard` covers the standard suites.
    """

    def __init__(self, database, resolve=None,
                 cost_model: CostModel = DEFAULT_COST_MODEL):
        self.database = database
        self.resolve = resolve or resolve_standard
        self.cost_model = cost_model

    def replay_all(
        self, modes: Tuple[str, ...] = REPLAY_MODES
    ) -> DifferentialReport:
        report = DifferentialReport()
        for log_name in self.database.list_replay_logs():
            try:
                log = self.database.load_replay_log(log_name)
            except Exception as exc:
                # Damaged (now quarantined) or unreadable log: loud
                # per-log verdict, the sweep continues.
                report.outcomes.append(
                    DifferentialOutcome(log_name, "-", "error", detail=str(exc))
                )
                continue
            try:
                workload, input_name, tool_factory = self.resolve(log.meta)
            except Exception as exc:
                report.outcomes.append(
                    DifferentialOutcome(log_name, "-", "error", detail=str(exc))
                )
                continue
            for mode in modes:
                try:
                    outcome = replay_session(
                        log,
                        workload,
                        input_name,
                        tool=tool_factory(),
                        dispatch_mode=mode,
                        cost_model=self.cost_model,
                    )
                except ReplayDivergence as exc:
                    report.outcomes.append(
                        DifferentialOutcome(
                            log_name, mode, "divergence", detail=str(exc)
                        )
                    )
                    continue
                report.outcomes.append(
                    DifferentialOutcome(
                        log_name,
                        mode,
                        "match" if outcome.bit_identical else "diff",
                        diff=outcome.diff,
                    )
                )
        return report
