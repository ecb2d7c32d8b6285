"""Layer spans recorded from outside the program under test.

A traced run wraps the public entry point of each layer where its
callers look it up (a module global such as
``repro.persist.manager.revive_trace``, or a method on its class) and
records one span per call: ``[name, start_ns, end_ns, parent_index]``.
Nothing under ``src/`` knows it is being traced.  Per-dispatch calls
(``CodeCache.lookup``, compiled closures) are deliberately not wrapped:
their cost stays inside ``vm.engine.self`` and their counts come from
the run's own counters.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from typing import Dict, List, Tuple

#: Root span: the whole ``run_vm`` call.  Its self time is the harness
#: glue no layer claims (session/engine construction and the like).
ROOT = "harness.other"

#: ``(span name, module, attribute path)`` of every wrapped entry point.
#: A span's self time is reported as the ``<name>_ms`` metric.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("loader.load", "repro.workloads.harness", "load_process"),
    # Engine.run's self time is the dispatch loop plus compiled-closure
    # execution: everything below it that is not another layer.
    ("vm.engine.self", "repro.vm.engine", "Engine.run"),
    ("vm.trace.select", "repro.vm.trace", "TraceSelector.select"),
    ("vm.translator.translate", "repro.vm.translator", "Translator.translate"),
    ("vm.compile.compile", "repro.vm.compile", "TraceCompiler.compile"),
    ("vm.compile.region", "repro.vm.compile", "TraceCompiler.compile_region"),
    ("vm.codecache.insert", "repro.vm.codecache", "CodeCache.insert"),
    ("persist.manager.start", "repro.persist.manager",
     "PersistentCacheSession.on_process_start"),
    ("persist.manager.exit", "repro.persist.manager",
     "PersistentCacheSession.on_exit"),
    ("persist.convert.revive", "repro.persist.manager", "revive_trace"),
    ("persist.convert.persist", "repro.persist.manager", "persist_trace"),
    ("persist.database.lookup", "repro.persist.database",
     "CacheDatabase.lookup"),
    ("persist.database.open_sidecar", "repro.persist.database",
     "CacheDatabase.open_sidecar"),
    ("persist.database.store", "repro.persist.database", "CacheDatabase.store"),
    ("persist.database.store_sidecar", "repro.persist.database",
     "CacheDatabase.store_sidecar"),
    ("persist.cachefile.parse", "repro.persist.cachefile",
     "PersistentCache.from_bytes"),
    ("persist.cachefile.serialize", "repro.persist.cachefile",
     "PersistentCache.to_bytes"),
    ("persist.sidecar.lookup", "repro.persist.sidecar",
     "CompiledBodyStore.lookup_code"),
    ("persist.sharedstore.lookup", "repro.persist.sharedstore",
     "SharedBodyStore.lookup"),
    ("persist.sharedstore.publish", "repro.persist.sharedstore",
     "SharedBodyStore.publish"),
)

Span = List  # [name, start_ns, end_ns, parent_index]


class Recorder:
    """In-memory span list for one traced run (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[int] = []

    def wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return traced


def _owner(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, leaf = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, leaf


@contextmanager
def installed(recorder: Recorder):
    """Wrap every entry point in :data:`LAYERS`; restore them on exit."""
    saved = []
    try:
        for name, module, path in LAYERS:
            owner, leaf = _owner(module, path)
            raw = vars(owner)[leaf]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(name, raw.__func__))
            else:
                wrapped = recorder.wrap(name, raw)
            saved.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped)
        yield recorder
    finally:
        for owner, leaf, raw in reversed(saved):
            setattr(owner, leaf, raw)


def self_times(spans: List[Span]) -> Dict[str, List[int]]:
    """``{name: [self_ns, calls]}`` over a span list.

    Calls nest strictly (one thread), so a span's children cover
    disjoint parts of its interval and its self time is its duration
    minus the sum of its children's durations.
    """
    covered = [0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: Dict[str, List[int]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        total = totals.setdefault(name, [0, 0])
        total[0] += end - start - covered[index]
        total[1] += 1
    return totals
