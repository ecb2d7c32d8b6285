"""The trace-body pass: what a compiled body need not check or write.

Run by :class:`repro.vm.compile.TraceCompiler` over the traces of one
body, a solo trace or a region's members in chain order, before any
source is emitted.  It decides, per uop, how the uop's register write
is emitted (:func:`plan`):

* **Ranges.**  Every register holds an int64, and each ``alu`` op's
  value lies in the interval its :data:`repro.machine.cpu.SEMANTICS`
  row's ``bounds`` gives for its operands' intervals.  A write needs
  the interpreters' wrap check only when that interval can leave int64.
  The facts flow in straight-line order: through a trace, and across a
  region's junctions into the next member.  They start from "any int64"
  at the body's first member (a loop's head too, which is entered again
  through the back edge) and after every analysis callback, which may
  write registers.  A load and a ``div`` give any int64; the zero
  register is always 0.
* **Dead writes.**  A write is left out when a later ``alu`` op of the
  same trace writes the same register and nothing can observe it in
  between: only ``alu`` ops, none reading the register as rs1 or rs2,
  and no analysis callback.  Any other op may fault or leave the trace
  with the register visible, so it ends the search.  Every write to the
  zero register is left out too.  A dead load keeps its access, which
  may fault, and a dead ``div`` its zero test.

The pass is linear in the body's length.
"""

from __future__ import annotations

from typing import List

from repro.isa import registers as regs
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.machine.cpu import INT64, SEMANTICS

#: A write with the wrap check (its interval can leave int64).
WRAP = 1
#: A write left out (:func:`plan`); a plain write is 0.
DEAD = 2

_LOW, _HIGH = INT64

#: Per opcode: its kind, whether its value reads rs1 and rs2, and its
#: interval rule.
_OPS = {
    int(op): (row.kind, "r[{rs1}]" in (row.operand or ""),
              "r[{rs2}]" in (row.operand or ""), row.bounds)
    for op, row in SEMANTICS.items()
}
_WRITERS = ("alu", "div", "load")


def _dead_writes(translated) -> List[int]:
    """:data:`DEAD` for each uop of ``translated`` whose write is never
    observed, else 0, from one backward scan: ``killed`` holds the
    registers an ``alu`` write overwrites before anything could observe
    them."""
    uops = translated.trace.uops
    points = translated.points_by_index
    flags = [0] * len(uops)
    killed: set = set()
    for index in range(len(uops) - 1, -1, -1):
        op, rd, rs1, rs2, _imm = uops[index]
        kind, reads1, reads2, _bounds = _OPS[op]
        if kind in _WRITERS and (rd == regs.ZERO or rd in killed):
            flags[index] = DEAD
        if kind != "alu" or index in points:
            killed = set()
            continue
        killed.add(rd)
        if reads1:
            killed.discard(rs1)
        if reads2:
            killed.discard(rs2)
    return flags


def plan(traces) -> List[List[int]]:
    """Per trace of one body, in the order control flows through them,
    and per uop, how its register write is emitted: 0 plain,
    :data:`WRAP` or :data:`DEAD`."""
    plans = []
    ranges = [INT64] * regs.NUM_REGISTERS
    ranges[regs.ZERO] = (0, 0)
    for translated in traces:
        flags = _dead_writes(translated)
        points = translated.points_by_index
        trace = translated.trace
        for index, (op, rd, rs1, rs2, imm) in enumerate(trace.uops):
            if index in points:
                ranges = [INT64] * regs.NUM_REGISTERS
                ranges[regs.ZERO] = (0, 0)
            kind, _reads1, reads2, bounds = _OPS[op]
            if kind == "call":
                link = trace.entry + (index + 1) * INSTRUCTION_SIZE
                ranges[regs.LR] = (link, link)
            if kind not in _WRITERS or rd == regs.ZERO:
                continue
            value = None
            if bounds is not None:
                value = bounds(ranges[rs1],
                               ranges[rs2] if reads2 else (imm, imm),
                               reads2 and rs1 == rs2)
            if value is None or value[0] < _LOW or value[1] > _HIGH:
                value = INT64
                if kind != "load" and not flags[index]:
                    flags[index] = WRAP
            ranges[rd] = value
        plans.append(flags)
    return plans
