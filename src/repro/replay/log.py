"""The ``PCRL1`` session-log format and run-result snapshots.

One replay log captures everything nondeterministic about one engine
run, plus a canonical snapshot of the run's observable result so a later
replay can be diffed against it without rerunning the original build:

* ``meta`` — the session's fixed nondeterminism seeds and identity:
  initial ``OSState`` pid and rng state, the layout-perturbation seed,
  the workload/input/tool/dispatch-mode identity, and the recording
  VM's version stamp (informational: replay works across versions —
  that is the point of differential replay).
* ``events`` — the ordered nondeterminism trace, one compact JSON
  record per decision point (see :mod:`repro.replay.session` for the
  hooks that produce and consume them):

  ====  ======================  =====================================
  tag   shape                   meaning
  ====  ======================  =====================================
  "v"   ``["v", number, value]``  value-carrying nondeterministic
                                  syscall (the :data:`repro.machine.
                                  syscalls.NONDET_SYSCALLS` subset)
  "s"   ``["s", number]``         any other completed syscall
                                  (structural: order checking only)
  "t"   ``["t", kind, tid]``      scheduler decision after a yield or
                                  thread exit; ``tid`` -1 = no
                                  runnable thread remained
  "n"   ``["n", tid]``            thread id assigned by a spawn
  ====  ======================  =====================================

* ``baseline`` — the canonical :func:`result_snapshot` of the recorded
  run's ``VMRunResult`` (output, exit status, every ``VMStats`` field,
  tool accounting, cache occupancy).  The run's ``HostStats``
  (``VMRunResult.host``), host-side accounting that is allowed to
  differ between builds and tiers, is deliberately excluded.

The file uses the shared sectioned framing of
:mod:`repro.persist.framing` (the PCC3/PCS1 preamble, per-section CRCs,
whole-file trailer CRC, atomic write-replace through the storage seam):
the header JSON carries ``meta`` and the section table, followed by the
``events`` and ``baseline`` JSON sections.  Damage is named
section-first, like every other framed file.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.persist.framing import (  # noqa: F401  (PREAMBLE re-exported)
    PREAMBLE,
    FrameError,
    Framing,
)

MAGIC = b"PCRL"
FORMAT_VERSION = 1

#: Section names used in error attribution and fsck reports.
SECTIONS = ("header", "events", "baseline")

#: Filename suffix of replay logs inside a database's ``replay/`` dir.
REPLAY_LOG_SUFFIX = ".pcrl"


class ReplayLogError(FrameError):
    """A replay-log file is malformed; ``section`` is one of
    :data:`SECTIONS`, ``"preamble"`` or ``"trailer"``."""


FRAMING = Framing(MAGIC, FORMAT_VERSION, SECTIONS[1:], ReplayLogError)


def _canonical(value):
    """The exact representation a loaded log carries.

    Equivalent to ``json.loads(json.dumps(value))`` but walks plain
    JSON-ready data (the entire snapshot in practice) without the
    serialize/parse round trip — this runs inside every recorded
    session, so it is on the recording-overhead budget.  Anything the
    fast path does not recognize (non-string dict keys, exotic types)
    falls back to the real round trip for bit-exact behaviour.
    """
    kind = type(value)
    if kind is int or kind is str or kind is float or kind is bool \
            or value is None:
        return value
    if kind is list or kind is tuple:
        return [_canonical(item) for item in value]
    if kind is dict and all(type(key) is str for key in value):
        return {key: _canonical(item) for key, item in value.items()}
    return json.loads(json.dumps(value, sort_keys=True))


# -- result snapshots ---------------------------------------------------------


def stats_snapshot(stats) -> Dict[str, object]:
    """JSON-ready snapshot of every :class:`~repro.vm.stats.VMStats`
    field, canonicalized so recorded and replayed sides compare with
    ``==`` (tuples become lists, sets become sorted lists)."""
    snap: Dict[str, object] = {}
    for key, value in vars(stats).items():
        if key == "trace_identities":
            value = sorted([list(identity) for identity in value])
        elif key == "translation_events":
            value = [list(event) for event in value]
        snap[key] = value
    return snap


def accounting_snapshot(accounting) -> Dict[str, object]:
    """JSON-ready snapshot of a :class:`~repro.vm.client.ToolAccounting`."""
    return {key: value for key, value in vars(accounting).items()}


def result_snapshot(result) -> Dict[str, object]:
    """The bit-identity contract of one ``VMRunResult``, as canonical JSON.

    Includes everything the replay acceptance criterion covers: output,
    exit status, instruction count, the full ``VMStats``, the tool
    accounting and the code-cache occupancy.  Excludes ``result.host``,
    the host-side counters that legitimately vary across builds, tiers
    and compile thresholds.
    """
    return _canonical(
        {
            "exit_status": result.exit_status,
            "instructions": result.instructions,
            "output_b64": base64.b64encode(result.output).decode("ascii"),
            "stats": stats_snapshot(result.stats),
            "tool_accounting": accounting_snapshot(result.tool_accounting),
            "cache_traces": result.cache_traces,
            "cache_code_bytes": result.cache_code_bytes,
            "cache_data_bytes": result.cache_data_bytes,
        }
    )


def snapshot_diff(baseline, current, prefix: str = "") -> List[str]:
    """Human-readable field-level differences between two snapshots.

    Returns ``[]`` when bit-identical; otherwise one ``"path: recorded
    X, replayed Y"`` line per leaf that differs.
    """
    diffs: List[str] = []
    if isinstance(baseline, dict) and isinstance(current, dict):
        for key in sorted(set(baseline) | set(current)):
            path = "%s.%s" % (prefix, key) if prefix else str(key)
            if key not in baseline:
                diffs.append("%s: absent in recording" % path)
            elif key not in current:
                diffs.append("%s: absent in replay" % path)
            else:
                diffs.extend(snapshot_diff(baseline[key], current[key], path))
        return diffs
    if baseline != current:
        diffs.append(
            "%s: recorded %r, replayed %r" % (prefix or "value", baseline, current)
        )
    return diffs


# -- the log ------------------------------------------------------------------


@dataclass
class ReplayLog:
    """In-memory view of one recorded session."""

    meta: Dict[str, object] = field(default_factory=dict)
    events: List[list] = field(default_factory=list)
    baseline: Optional[Dict[str, object]] = None

    def to_bytes(self) -> bytes:
        return FRAMING.pack(
            {"meta": _canonical(self.meta)},
            [
                json.dumps(self.events, sort_keys=True).encode(),
                json.dumps(self.baseline, sort_keys=True).encode(),
            ],
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ReplayLog":
        _flags, header, sections = FRAMING.parse(blob)
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise ReplayLogError("header meta is not a dict", section="header")
        events = FRAMING.json_section(sections, "events")
        if not all(isinstance(event, list) and event for event in events):
            raise ReplayLogError(
                "events section is not a list of records", section="events"
            )
        baseline = FRAMING.json_section(sections, "baseline", object)
        return cls(meta=meta, events=events, baseline=baseline)
