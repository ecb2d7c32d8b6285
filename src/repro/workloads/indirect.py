"""Indirect-branch-heavy bench corpora for the ``indirect_heavy`` family.

The compiled tier's indirect-branch inline caches (:mod:`repro.vm.compile`,
docs/performance.md) are a wall-clock optimization of exactly one
control-flow shape: ``jr``/``callr``/``ret`` sites whose dynamic target
set repeats.  This module builds the three corpora the wall-clock suite
times, one ``callr`` site each, cycling a different number of targets:

* ``alternating_pair`` — the site flip-flops between two helpers.  A
  monomorphic cache missed here on *every* call; a site's dict holds
  both once each has been resolved.
* ``rotating_3`` — the site cycles through three helpers; the count is
  deliberately not a power of two.
* ``megamorphic`` — the site cycles through eight helpers, the
  indirect "switch" shape: its dict serves eight targets as it serves
  two.

Every helper returns through ``ret`` — itself an indirect branch with
its own (mostly monomorphic) site — so call *and* return prediction
are both on the timed path, mirroring Pin's indirect-branch chaining
workload mix.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.binfmt.image import ImageBuilder
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.machine.cpu import HEAP_BASE
from repro.machine.syscalls import SYS_EXIT
from repro.workloads.builder import InputSpec
from repro.workloads.harness import Workload

#: Helpers in every image (the megamorphic corpus cycles through all).
N_HELPERS = 8

#: Straight-line ALU work per helper body: enough weight that compiled
#: dispatch has something to win on beyond the branch itself.
HELPER_WORK = 12

#: ``(corpus name, targets cycled, call-loop iterations)``.
CORPORA: Tuple[Tuple[str, int, int], ...] = (
    ("alternating_pair", 2, 4000),
    ("rotating_3", 3, 3000),
    ("megamorphic", N_HELPERS, 2000),
)


def _helper(index: int) -> List[object]:
    """One leaf helper: deterministic ALU churn, accumulate, return.

    Scratch registers are picked outside the dispatcher loop's set
    (t0/t2/t3/t5/t6 belong to ``main``).
    """
    acc = regs.T0 + 8
    tmp = regs.T0 + 9
    body = [ins.addi(acc, acc, index + 1)]
    for step in range(HELPER_WORK):
        op = (index + step) % 4
        if op == 0:
            body.append(ins.xori(tmp, acc, 0x55 + index))
        elif op == 1:
            body.append(ins.addi(tmp, tmp, step + 1))
        elif op == 2:
            body.append(ins.shli(tmp, tmp, (step % 3) + 1))
        else:
            body.append(ins.add(acc, acc, tmp))
    body.append(ins.andi(acc, acc, 0xFFFF))
    body.append(ins.addi(regs.A0, regs.A0, index + 1))
    body.append(ins.ret())
    return body


def build_indirect_app(name: str, n_targets: int, iters: int) -> Workload:
    """One corpus: a table-driven ``callr`` loop over ``n_targets``.

    The dispatch table lives at ``HEAP_BASE`` (helper addresses are
    run-time data, so the branch is genuinely indirect); the cycling
    index resets by compare-and-branch, which works for any target
    count — the rotating-3 corpus is deliberately not a power of two.
    """
    if not 1 <= n_targets <= N_HELPERS:
        raise ValueError("n_targets out of range: %d" % n_targets)
    builder = ImageBuilder(name)
    for i in range(N_HELPERS):
        builder.add_function("h%d" % i, _helper(i))

    t0, t2, t3, t5, t6 = (regs.T0 + i for i in (0, 2, 3, 5, 6))
    code: List[object] = []
    refs: List[Tuple[int, str]] = []
    # Dispatch table at HEAP_BASE: table[i] = &h_i.
    code.append(ins.movi(t0, HEAP_BASE))
    for i in range(n_targets):
        refs.append((len(code), "h%d" % i))
        code.append(ins.movi(t6, 0))              # t6 = &h_i    [reloc]
        code.append(ins.st(t0, t6, i * 8))

    code.append(ins.movi(t3, 0))                  # t3 = index
    code.append(ins.movi(t2, iters))              # t2 = countdown
    head = len(code)
    code.append(ins.shli(t5, t3, 3))
    code.append(ins.add(t5, t0, t5))
    code.append(ins.ld(t5, t5, 0))                # t5 = table[index]
    code.append(ins.callr(t5))
    # index = (index + 1) % n_targets, branch-and-reset so any target
    # count works (no power-of-two mask requirement).
    code.append(ins.addi(t3, t3, 1))
    code.append(ins.movi(t6, n_targets))
    code.append(ins.slt(t6, t3, t6))              # t6 = index < n
    here = len(code)
    code.append(ins.bne(t6, regs.ZERO, (here + 2 - (here + 1)) * 8))
    code.append(ins.movi(t3, 0))
    code.append(ins.addi(t2, t2, -1))
    here = len(code)
    code.append(ins.bne(t2, regs.ZERO, (head - (here + 1)) * 8))

    code.append(ins.andi(regs.A0, regs.A0, 127))  # exit-status range
    code.append(ins.movi(regs.RV, SYS_EXIT))
    code.append(ins.syscall())
    builder.add_function("main", code, symbol_refs=refs)
    builder.set_entry("main")
    return Workload(
        name=name,
        image=builder.build(),
        inputs={"run": InputSpec(name="run")},
    )


def build_indirect_suite() -> Dict[str, Workload]:
    """The three ``indirect_heavy`` corpora, by name."""
    return {
        name: build_indirect_app(name, n_targets, iters)
        for name, n_targets, iters in CORPORA
    }
