"""Startup-heavy corpus for the tiered warm-up (compile tier-up) bench.

The compiled tier's tier-up (:mod:`repro.vm.compile`) pays off exactly
when a run's cold phase is *compile-dominated*: lots of distinct traces
that each execute about once before the program produces its first
observable output.  Compiling at first entry then charges every host
``compile()`` to the time-to-first-output (TTFO) critical path for
bodies whose single execution could have been interpreted, which is the
CGO'07 paper's cold-start story (startup code is translated, executed
once, and never revisited).

Each app here is built to that profile:

* many unconditional init blocks with ``repeat=1`` — straight-line
  trees of functions, so traces and cold code are one-to-one and every
  body runs exactly once before the marker below;
* one hand-built ``announce`` init registered *after* all the cold
  blocks, emitting the program's first ``SYS_WRITE`` — the TTFO marker
  the bench harness stamps (see ``FirstOutputTimer`` in
  :mod:`repro.bench`);
* a small hot kernel afterwards so steady state exists but stays cheap
  (TTFO, not throughput, is what this family times).

Apps are built *by name* and deterministically per seed, so a child
process can rebuild any of them from its name alone.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.machine.syscalls import SYS_WRITE
from repro.workloads.builder import AppBuilder, FunctionCode, InputSpec
from repro.workloads.harness import Workload

#: ``name -> (seed, init blocks, block size, hot iterations)``.
WARMUP_APPS: Dict[str, Tuple[int, int, int, int]] = {
    "startup_a": (0xA11CE, 36, 96, 50),
    "startup_b": (0xB0B52, 36, 96, 50),
    "startup_c": (0xC4C70, 32, 104, 50),
    "startup_d": (0xD00D1, 32, 104, 50),
    "startup_e": (0xE66E2, 28, 112, 50),
    "startup_f": (0xF00F3, 28, 112, 50),
}

#: The app the ``tiered_warmup`` bench family gates TTFO on (largest
#: cold footprint of the six).
GATE_APP = "startup_a"


def _announce_function(stamp: int) -> FunctionCode:
    """A leaf that emits the app's first output: 8 stamp bytes.

    ``SYS_WRITE`` takes the length in ``a0`` and the address in ``a1``
    (:func:`repro.machine.syscalls._execute`); the stamp goes through
    this function's own stack frame.
    """
    fn = FunctionCode()
    fn.emit(ins.addi(regs.SP, regs.SP, -16))
    fn.emit(ins.movi(regs.T0, stamp))
    fn.emit(ins.st(regs.SP, regs.T0, 0))
    fn.emit(ins.movi(regs.A0, 8))
    fn.emit(ins.or_(regs.A1, regs.SP, regs.ZERO))
    fn.emit(ins.movi(regs.RV, SYS_WRITE))
    fn.emit(ins.syscall())
    fn.emit(ins.addi(regs.SP, regs.SP, 16))
    fn.emit(ins.ret())
    return fn


def build_warmup_workload(name: str) -> Workload:
    """Build one warm-up app by name (deterministic per seed)."""
    try:
        seed, blocks, block_size, hot_iterations = WARMUP_APPS[name]
    except KeyError as exc:
        raise KeyError(
            "unknown warmup app %r (have: %s)"
            % (name, ", ".join(sorted(WARMUP_APPS)))
        ) from exc
    builder = AppBuilder("warmup/%s" % name, seed=seed)
    # Cold startup first: every block tree is translated (and, at
    # compile threshold 1, compiled) and executed exactly once before
    # the output marker.
    for index in range(blocks):
        builder.add_init_block(
            "init_%02d" % index, size=block_size, subfunctions=3, repeat=1
        )
    builder.add_custom_init("announce", _announce_function(seed & 0xFFFF))
    builder.set_hot_kernel(size=32, helpers=1, helper_size=10)
    image = builder.build()
    inputs = {
        "default": InputSpec(name="default", hot_iterations=hot_iterations),
    }
    return Workload(name=name, image=image, inputs=inputs)


def warmup_corpus(names: Tuple[str, ...] = ()) -> Dict[str, Workload]:
    """Build the full (or a named subset of the) warm-up corpus."""
    selected = names or tuple(sorted(WARMUP_APPS))
    return {name: build_warmup_workload(name) for name in selected}
