"""Convenience harness: run a workload natively or under the VM.

Experiments use this to avoid repeating the load/attach/run boilerplate.
A :class:`Workload` bundles an executable image with its library resolver
and its named inputs; :func:`run_native` and :func:`run_vm` execute one
input end to end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.binfmt.image import Image
from repro.loader.layout import LoadLayout
from repro.loader.linker import ImageStore, LoadedProcess, load_process
from repro.machine.costs import CostModel, DEFAULT_COST_MODEL
from repro.machine.cpu import Machine, RunResult, run_native as _interpret
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.vm.client import Tool
from repro.vm.engine import Engine, VMConfig, VMRunResult
from repro.workloads.builder import InputSpec


@dataclass
class Workload:
    """An executable, its libraries, and its inputs."""

    name: str
    image: Image
    store: ImageStore = field(default_factory=ImageStore)
    inputs: Dict[str, InputSpec] = field(default_factory=dict)
    #: Images loadable at run time through dlopen (index = position).
    modules: list = field(default_factory=list)

    def input(self, name: str) -> InputSpec:
        try:
            return self.inputs[name]
        except KeyError as exc:
            raise KeyError(
                "workload %r has no input %r (have: %s)"
                % (self.name, name, ", ".join(sorted(self.inputs)))
            ) from exc

    def load(self, layout: Optional[LoadLayout] = None) -> LoadedProcess:
        return load_process(
            self.image, self.store, layout=layout,
            optional_modules=self.modules,
        )


class FirstOutputTimer(bytearray):
    """Output buffer that stamps the host clock at the first byte.

    Drop-in replacement for ``OSState.output`` (a plain bytearray that
    syscall handling only ever ``extend``\\ s): ``first_output_s`` holds
    ``time.perf_counter()`` at the moment the first non-empty write
    lands, or None if the program never wrote.  Subtracting the
    caller's pre-run stamp gives time-to-first-output (TTFO) — the
    metric the tiered warm-up bench family gates, since the compile
    tier-up's whole point is taking host ``compile()`` off this path.
    """

    def __init__(self) -> None:
        super().__init__()
        self.first_output_s: Optional[float] = None

    def extend(self, data) -> None:  # type: ignore[override]
        if self.first_output_s is None and len(data):
            self.first_output_s = time.perf_counter()
        super().extend(data)


def run_native(
    workload: Workload,
    input_name: str,
    layout: Optional[LoadLayout] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
) -> RunResult:
    """Interpret one input directly on the simulated hardware."""
    process = workload.load(layout)
    machine = Machine(process)
    machine.set_args(*workload.input(input_name).to_args())
    return _interpret(machine, cost_model)


def run_vm(
    workload: Workload,
    input_name: str,
    tool: Optional[Tool] = None,
    persistence: Optional[PersistenceConfig] = None,
    layout: Optional[LoadLayout] = None,
    cost_model: CostModel = DEFAULT_COST_MODEL,
    vm_config: Optional[VMConfig] = None,
    output_timer: Optional[FirstOutputTimer] = None,
) -> VMRunResult:
    """Run one input under the DBI engine.

    ``persistence`` (when given) attaches a fresh
    :class:`~repro.persist.manager.PersistentCacheSession` for this run —
    sessions are single-use, mirroring one VM process lifetime.

    ``output_timer`` (when given) replaces the process's output buffer
    so the harness can observe time-to-first-output; the run's
    observable results are unaffected (same bytes, stats, status).
    """
    process = workload.load(layout)
    session = (
        PersistentCacheSession(persistence) if persistence is not None else None
    )
    engine = Engine(
        tool=tool,
        cost_model=cost_model,
        config=vm_config,
        persistence=session,
    )
    machine = None
    if output_timer is not None:
        machine = Machine(process)
        machine.os_state.output = output_timer
    return engine.run(
        process, args=workload.input(input_name).to_args(), machine=machine
    )
