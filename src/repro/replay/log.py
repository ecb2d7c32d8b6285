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
  tool accounting, cache occupancy).  Host-side accounting that is
  allowed to differ between builds and tiers (``persistence_report``,
  ``ic_stats``, ``link_stats``) is deliberately excluded.

File framing follows the PCC2/PCS1 discipline exactly (same preamble
shape, per-section CRCs, whole-file trailer CRC, atomic write-replace
through the storage seam)::

    offset  size  field
    0       4     magic "PCRL"
    4       2     u16 format_version (1)
    6       2     u16 reserved (0)
    8       4     u32 header_len
    12      4     u32 CRC-32 of the header JSON
    16      n     header JSON (meta + section table)
    16+n    e     events JSON
    ...     b     baseline JSON
    end-4   4     u32 CRC-32 of bytes [0, end-4)
"""

from __future__ import annotations

import base64
import json
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

MAGIC = b"PCRL"
FORMAT_VERSION = 1

#: Same preamble shape as PCC v2 / PCS1.
PREAMBLE = struct.Struct("<4sHHII")

#: Section names used in error attribution and fsck reports.
SECTIONS = ("header", "events", "baseline")

#: Filename suffix of replay logs inside a database's ``replay/`` dir.
REPLAY_LOG_SUFFIX = ".pcrl"


class ReplayLogError(Exception):
    """Raised when a replay-log file is malformed.

    ``section`` names where the damage was detected: one of
    :data:`SECTIONS`, ``"preamble"`` or ``"trailer"``.
    """

    def __init__(self, message: str, section: str = ""):
        super().__init__(message)
        self.section = section


def _crc(blob: bytes) -> int:
    return zlib.crc32(blob) & 0xFFFFFFFF


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
    accounting and the code-cache occupancy.  Excludes the host-side-only
    fields that legitimately vary across builds, tiers and compile
    thresholds: ``persistence_report``, ``ic_stats`` and ``link_stats``.
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
        events_blob = json.dumps(self.events, sort_keys=True).encode()
        baseline_blob = json.dumps(
            self.baseline if self.baseline is not None else None,
            sort_keys=True,
        ).encode()
        header = {
            "format_version": FORMAT_VERSION,
            "meta": _canonical(self.meta),
            "sections": {
                "events": [len(events_blob), _crc(events_blob)],
                "baseline": [len(baseline_blob), _crc(baseline_blob)],
            },
        }
        header_blob = json.dumps(header, sort_keys=True).encode()
        body = b"".join(
            [
                PREAMBLE.pack(
                    MAGIC, FORMAT_VERSION, 0, len(header_blob),
                    _crc(header_blob),
                ),
                header_blob,
                events_blob,
                baseline_blob,
            ]
        )
        return body + struct.pack("<I", _crc(body))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ReplayLog":
        header, events_blob, baseline_blob = _parse_frame(blob)
        try:
            events = json.loads(events_blob)
            if not isinstance(events, list) or not all(
                isinstance(event, list) and event for event in events
            ):
                raise ReplayLogError(
                    "events section is not a list of records",
                    section="events",
                )
        except ValueError as exc:
            raise ReplayLogError(
                "malformed events JSON: %s" % exc, section="events"
            ) from exc
        try:
            baseline = json.loads(baseline_blob)
        except ValueError as exc:
            raise ReplayLogError(
                "malformed baseline JSON: %s" % exc, section="baseline"
            ) from exc
        meta = header.get("meta")
        if not isinstance(meta, dict):
            raise ReplayLogError("header meta is not a dict", section="header")
        return cls(meta=meta, events=events, baseline=baseline)


def _parse_frame(blob: bytes):
    """Validate framing and CRCs; return (header, events, baseline) blobs."""
    if len(blob) < PREAMBLE.size + 4:
        raise ReplayLogError("file shorter than preamble", section="preamble")
    trailer = struct.unpack("<I", blob[-4:])[0]
    if _crc(blob[:-4]) != trailer:
        raise ReplayLogError("trailer CRC mismatch", section="trailer")
    magic, version, _reserved, header_len, header_crc = PREAMBLE.unpack(
        blob[: PREAMBLE.size]
    )
    if magic != MAGIC:
        raise ReplayLogError("bad magic %r" % magic, section="preamble")
    if version != FORMAT_VERSION:
        raise ReplayLogError(
            "unsupported format version %d" % version, section="preamble"
        )
    header_end = PREAMBLE.size + header_len
    if header_end + 4 > len(blob):
        raise ReplayLogError("truncated header", section="header")
    header_blob = blob[PREAMBLE.size : header_end]
    if _crc(header_blob) != header_crc:
        raise ReplayLogError("header CRC mismatch", section="header")
    try:
        header = json.loads(header_blob)
        sections = header["sections"]
        events_len, events_crc = sections["events"]
        baseline_len, baseline_crc = sections["baseline"]
    except (ValueError, KeyError, TypeError) as exc:
        raise ReplayLogError(
            "malformed header: %s" % exc, section="header"
        ) from exc
    events_end = header_end + events_len
    baseline_end = events_end + baseline_len
    if baseline_end + 4 != len(blob):
        raise ReplayLogError(
            "section table does not cover the file", section="header"
        )
    events_blob = blob[header_end:events_end]
    if _crc(events_blob) != events_crc:
        raise ReplayLogError("events CRC mismatch", section="events")
    baseline_blob = blob[events_end:baseline_end]
    if _crc(baseline_blob) != baseline_crc:
        raise ReplayLogError("baseline CRC mismatch", section="baseline")
    return header, events_blob, baseline_blob


def verify_replay_log(blob: bytes) -> Dict[str, str]:
    """Section-attributed damage map for fsck: empty when healthy."""
    try:
        ReplayLog.from_bytes(blob)
    except ReplayLogError as exc:
        return {exc.section or "unknown": str(exc)}
    return {}
