"""Record-and-replay tier for the DBI engine.

The VM's nondeterminism surface is small and fully enumerable — the
results of ``SYS_GETPID``/``SYS_CLOCK``/``SYS_RAND``/``SYS_GETTID``,
the cooperative spawn/yield scheduling decisions, the layout
perturbation seed, and the initial :class:`~repro.machine.syscalls.
OSState` seeds.  Recording logs exactly that into a compact per-session
``PCRL1`` file (:mod:`repro.replay.log`); replay substitutes the logged
values at each nondeterminism point (:mod:`repro.replay.session`) and
reproduces the original run bit-identically under either dispatch
tier.  :mod:`repro.replay.harness` turns a directory of recorded
sessions into a differential regression suite (rr-style: every captured
session is a free test of the current build).

This package init stays dependency-light: the harness (which pulls in
the workload suites) is imported lazily by its users, never here.
"""

from repro.replay.log import (  # noqa: F401
    REPLAY_LOG_SUFFIX,
    ReplayLog,
    ReplayLogError,
    result_snapshot,
    snapshot_diff,
)
from repro.replay.session import (  # noqa: F401
    RecordingHook,
    ReplayDivergence,
    ReplayHook,
)
