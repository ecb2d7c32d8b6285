"""Chain-heavy bench corpora for the ``trace_linking`` family.

The compiled tier's cross-trace linking (closures hand their linked
successor straight to :mod:`repro.vm.engine`'s dispatch loop) and
superblock fusion (:mod:`repro.vm.compile`'s region closures) are
wall-clock optimizations of exactly one control-flow shape: stable
chains of traces connected by *direct* exits — ``jmp`` relays and hot
branch back-edges whose successor never changes.  This module builds
the four corpora the wall-clock suite times, one per chain regime:

* ``relay_4`` — four straight-line blocks in a ring, each ending in a
  ``jmp`` to the next, with a countdown back-branch closing the loop.
  The whole ring fits inside one superblock region
  (:data:`repro.vm.compile.REGION_MAX_MEMBERS`), so steady state is one
  region entry plus one back-edge hop per iteration.
* ``relay_8`` — eight blocks, exactly one full region.
* ``relay_12`` — twelve blocks, longer than a region may grow.  The
  fusion driver must cap the first region and fuse the tail into a
  second one; steady state crosses a region boundary every iteration.
* ``branchy_6`` — six blocks where the third takes a deterministic
  parity side exit through a detour block every other iteration.  The
  side exit leaves the fused region mid-body back onto the member
  trace's own branch slot, and the region must extend as its tail
  links prove hot — both seams the differential suite pins down.

Every block is shorter than one trace
(:data:`repro.vm.trace.DEFAULT_MAX_TRACE_INSTS`) and ends in an
unconditional transfer, so blocks and traces are one-to-one by
construction and the chain shape is exact, not emergent.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.binfmt.image import ImageBuilder
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.machine.syscalls import SYS_EXIT
from repro.workloads.builder import InputSpec
from repro.workloads.harness import Workload

#: Straight-line ALU work per block: sized like a real basic block
#: (5-10 instructions), the regime where per-trace dispatch overhead —
#: exactly what linking and fusion remove — dominates execution.
BLOCK_WORK = 5

#: ``(corpus name, relay blocks, detour?, loop iterations)``.
CORPORA: Tuple[Tuple[str, int, bool, int], ...] = (
    ("relay_4", 4, False, 4000),
    ("relay_8", 8, False, 2500),
    ("relay_12", 12, False, 1500),
    ("branchy_6", 6, True, 3000),
)


def _block_work(code: List[object], block: int) -> None:
    """Deterministic ALU churn for one relay block.

    Scratch registers are picked outside the loop-control set (t2/t4
    belong to ``main``'s relay skeleton).
    """
    acc = regs.T0 + 8
    tmp = regs.T0 + 9
    code.append(ins.addi(acc, acc, block + 1))
    for step in range(BLOCK_WORK - 3):
        op = (block + step) % 4
        if op == 0:
            code.append(ins.xori(tmp, acc, 0x3C + block))
        elif op == 1:
            code.append(ins.addi(tmp, tmp, step + 1))
        elif op == 2:
            code.append(ins.shli(tmp, tmp, (step % 3) + 1))
        else:
            code.append(ins.add(acc, acc, tmp))
    code.append(ins.andi(acc, acc, 0xFFFF))
    code.append(ins.addi(regs.A0, regs.A0, block + 1))


def build_chain_app(
    name: str, n_blocks: int, detour: bool, iters: int
) -> Workload:
    """One corpus: ``n_blocks`` jmp-relay blocks looped ``iters`` times.

    The relay lives in a single function so every transfer target is a
    known instruction index; ``jmp`` immediates are emitted
    image-relative and rebased at load through RELATIVE relocations.
    """
    if n_blocks < 2:
        raise ValueError("a relay needs at least two blocks: %d" % n_blocks)
    builder = ImageBuilder(name)
    cnt = regs.T0 + 2
    par = regs.T0 + 4

    code: List[object] = []
    relative_sites: List[int] = []
    code.append(ins.movi(regs.A0, 0))
    code.append(ins.movi(cnt, iters))

    block_starts: List[int] = []
    detour_branch_site = -1
    for block in range(n_blocks):
        block_starts.append(len(code))
        _block_work(code, block)
        if detour and block == 2:
            # Parity side exit: every other iteration detours before
            # rejoining the relay at the next block.  The branch offset
            # is patched once the detour block is placed.
            code.append(ins.andi(par, cnt, 1))
            detour_branch_site = len(code)
            code.append(ins.bne(par, regs.ZERO, 0))
        if block < n_blocks - 1:
            # jmp to the very next instruction: a no-op transfer at the
            # machine level, but an unconditional DIRECT exit to the
            # trace selector — it pins the block/trace boundary.
            here = len(code)
            relative_sites.append(here)
            code.append(ins.jmp((here + 1) * INSTRUCTION_SIZE))

    # Loop control closes the last block: countdown, back-branch to the
    # relay head, then the exit sequence on fall-through.
    code.append(ins.addi(cnt, cnt, -1))
    here = len(code)
    code.append(
        ins.bne(cnt, regs.ZERO, (block_starts[0] - (here + 1)) * INSTRUCTION_SIZE)
    )
    code.append(ins.andi(regs.A0, regs.A0, 127))  # exit-status range
    code.append(ins.movi(regs.RV, SYS_EXIT))
    code.append(ins.syscall())

    if detour:
        detour_start = len(code)
        _block_work(code, n_blocks)
        here = len(code)
        relative_sites.append(here)
        code.append(ins.jmp(block_starts[3] * INSTRUCTION_SIZE))
        site = detour_branch_site
        code[site] = ins.bne(
            par, regs.ZERO, (detour_start - (site + 1)) * INSTRUCTION_SIZE
        )

    builder.add_function("main", code, relative_sites=relative_sites)
    builder.set_entry("main")
    return Workload(
        name=name,
        image=builder.build(),
        inputs={"run": InputSpec(name="run")},
    )


def build_chain_suite() -> Dict[str, Workload]:
    """The four ``trace_linking`` corpora, by name."""
    return {
        name: build_chain_app(name, n_blocks, detour, iters)
        for name, n_blocks, detour, iters in CORPORA
    }
