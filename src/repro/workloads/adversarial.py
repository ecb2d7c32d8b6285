"""Anti-instrumentation workloads: programs that attack transparency.

"Unveiling Dynamic Binary Instrumentation Techniques" (PAPERS.md)
catalogs how real programs detect or defeat DBI engines: they checksum
their own code, rewrite hot code in tight loops, probe the clock
around known-cost phases, and churn module load state.  The persistent
tier is only sound if the engine stays *transparent* under all of this
(paper §3.2.1's invalidation discipline): a program must read its
original code bytes, observe every self-write take effect, and see a
clock that behaves like retired work — under every dispatch tier and
whether its traces came from a fresh translation or a persisted cache.

Five programs, each folding what it observes into its output bytes and
exit status so one stale byte or skipped invalidation is visible in
the result:

* ``checksum`` — reads its own code pages (the hot kernel's and a
  prefix of ``main`` itself, i.e. the very page the reader executes
  from) via ``LD`` and folds the checksum into output between
  executions of the checksummed code.
* ``churn_hot`` — rewrites the first instruction of a hot, directly
  called (and therefore link-chained) function in a tight loop,
  alternating two encodings; every store must invalidate the live
  trace before the next call.
* ``churn_region`` — drives a three-stage ``jmp`` relay hot enough to
  fuse into a superblock region, then patches a *middle* member and
  re-runs the chain; the fused closure must not serve stale member
  code.
* ``churn_boundary`` — an unaligned 8-byte store that lands on a
  512-byte code-page boundary: its low half rewrites the tail of one
  page, its high half the first bytes of an indirectly called function
  starting exactly at the next page (the page-straddle case the SMC
  detector historically missed).
* ``dlopen_smc`` — interleaves dlopen/call/SMC/dlclose cycles: a
  patched plugin must run its new code, and the pristine reload after
  dlclose must *not* revive the modified traces stashed by
  module-aware retention.
* ``timer`` — polls ``SYS_CLOCK`` around fixed spin phases and
  *branches* on the deltas, writing both the raw deltas and the
  branch decisions; mid-run clock reads must be monotone, advance
  with retired work, and agree across dispatch tiers.

All programs read their iteration count from ``a2`` (the standard
``InputSpec.hot_iterations`` slot) and run at least once.
``tests/test_adversarial.py`` runs this suite natively, under the
interpreted oracle, at compile threshold 1 and under the default
tier-up, and across warm restarts from the sidecar and from the shared
per-host store.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.binfmt.image import ImageBuilder, ImageKind
from repro.binfmt.sections import align_up
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa.encoding import encode
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.machine.syscalls import (
    SYS_CLOCK,
    SYS_DLCLOSE,
    SYS_DLOPEN,
    SYS_EXIT,
    SYS_WRITE,
)
from repro.workloads.builder import FunctionCode, InputSpec
from repro.workloads.harness import Workload

#: Code-page size of the machine's SMC detector (see repro.machine.cpu).
CODE_PAGE = 512

#: Suite members whose loops rewrite executed code; each must trigger
#: ``smc_invalidations > 0`` (``tests/test_adversarial.py``).
CHURN_WORKLOADS = (
    "churn_hot", "churn_region", "churn_boundary", "dlopen_smc",
)

#: Suite members whose output depends only on code bytes and register
#: state — never on the clock — so warm persisted runs (sidecar, shared
#: store) must reproduce the cold output byte for byte
#: (``tests/test_adversarial.py``'s warm restarts).  The
#: ``timer`` program is excluded by design: persisted traces legitimately
#: change the *cost* of a run (that is the whole point of the cache), so
#: its raw clock deltas differ warm vs. cold while staying bit-identical
#: across dispatch tiers under any one persistence configuration.
PERSISTED_WORKLOADS = (
    "checksum", "churn_hot", "churn_region", "churn_boundary", "dlopen_smc",
)


def _word_of(inst: Instruction) -> int:
    """The encoded instruction as a signed 64-bit store operand."""
    return int.from_bytes(encode(inst), "little", signed=True)


def _syscall(fn: FunctionCode, number: int) -> None:
    fn.emit(ins.movi(regs.RV, number))
    fn.emit(ins.syscall())


def _write_reg(fn: FunctionCode, reg: int) -> None:
    """Append ``reg``'s 8 bytes to the program output (via the stack)."""
    fn.emit(ins.st(regs.SP, reg, 0))
    fn.emit(ins.movi(regs.A0, 8))
    fn.emit(ins.or_(regs.A1, regs.SP, regs.ZERO))
    _syscall(fn, SYS_WRITE)


def _materialize(fn: FunctionCode, reg: int, value: int) -> None:
    """Build an arbitrary 64-bit value in ``reg`` (4 x 16-bit chunks).

    ``movi`` immediates are 32-bit, so encoded instruction words (whose
    high half is an imm field) are assembled by shift-and-or — the same
    trick a real anti-instrumentation payload uses to avoid carrying
    its patch bytes in a data section.
    """
    unsigned = value & 0xFFFF_FFFF_FFFF_FFFF
    fn.emit(ins.movi(reg, (unsigned >> 48) & 0xFFFF))
    for shift in (32, 16, 0):
        fn.emit(ins.shli(reg, reg, 16))
        chunk = (unsigned >> shift) & 0xFFFF
        if chunk:
            fn.emit(ins.ori(reg, reg, chunk))


def _back_branch(fn: FunctionCode, head: int, counter: int, limit: int) -> None:
    """``blt counter, limit, head`` with the image-relative offset."""
    here = len(fn.code)
    fn.emit(ins.blt(counter, limit, (head - (here + 1)) * INSTRUCTION_SIZE))


# -- checksum: self-reading code ---------------------------------------------

#: Words of ``main`` the checksum program reads from its own entry — a
#: prefix so the count does not depend on main's own final length.
_MAIN_PREFIX_WORDS = 16


def _build_checksum():
    image = ImageBuilder("adv/checksum", ImageKind.EXECUTABLE)

    # The checksummed kernel: a distinctive straight-line body leaving
    # its result in t12.  Executed (so translated) between reads.
    kernel = FunctionCode()
    kernel.emit(ins.movi(regs.T0 + 10, 0x1234))
    kernel.emit(ins.xori(regs.T0 + 10, regs.T0 + 10, 0x0FF))
    kernel.emit(ins.shli(regs.T0 + 11, regs.T0 + 10, 3))
    kernel.emit(ins.add(regs.T0 + 12, regs.T0 + 10, regs.T0 + 11))
    kernel.emit(ins.addi(regs.T0 + 12, regs.T0 + 12, 77))
    kernel.emit(ins.xori(regs.T0 + 12, regs.T0 + 12, 0x5A5A))
    kernel.emit(ins.ret())
    image.add_function("kernel", kernel.code)
    kernel_words = len(kernel.code)

    main = FunctionCode()
    main.emit(ins.or_(regs.S1, regs.A2, regs.ZERO))
    main.emit(ins.movi(regs.S0, 0))
    main.emit_call("kernel")
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 12))
    main.emit(ins.movi(regs.T0 + 4, 0))  # outer counter
    outer_head = len(main.code)

    def checksum_pass(symbol: str, words: int) -> None:
        """Fold ``words`` code words starting at ``symbol`` into s0."""
        main.symbol_refs.append((len(main.code), symbol))
        main.emit(ins.movi(regs.T0 + 1, 0))
        main.emit(ins.movi(regs.T0 + 2, words))
        main.emit(ins.movi(regs.T0 + 3, 0))
        head = len(main.code)
        main.emit(ins.ld(regs.T0 + 5, regs.T0 + 1, 0))
        main.emit(ins.xor(regs.S0, regs.S0, regs.T0 + 5))
        main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 5))
        main.emit(ins.addi(regs.T0 + 1, regs.T0 + 1, INSTRUCTION_SIZE))
        main.emit(ins.addi(regs.T0 + 3, regs.T0 + 3, 1))
        _back_branch(main, head, regs.T0 + 3, regs.T0 + 2)

    checksum_pass("kernel", kernel_words)
    # Read the page the reader itself executes from.
    checksum_pass("main", _MAIN_PREFIX_WORDS)
    _write_reg(main, regs.S0)
    main.emit_call("kernel")
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 12))
    main.emit(ins.addi(regs.T0 + 4, regs.T0 + 4, 1))
    _back_branch(main, outer_head, regs.T0 + 4, regs.S1)
    main.emit(ins.andi(regs.A0, regs.S0, 127))
    _syscall(main, SYS_EXIT)
    image.add_function("main", main.code, symbol_refs=main.symbol_refs)
    image.set_entry("main")
    return image.build()


# -- churn_hot: SMC on a hot, linked trace -----------------------------------

def _build_churn_hot():
    image = ImageBuilder("adv/churn-hot", ImageKind.EXECUTABLE)
    # patchme: movi t8, 1111 ; ret — the rewritten instruction.
    image.add_function(
        "patchme", [ins.movi(regs.T0 + 8, 1111), ins.ret()]
    )
    main = FunctionCode()
    main.emit(ins.or_(regs.S1, regs.A2, regs.ZERO))
    main.emit(ins.movi(regs.S0, 0))
    main.symbol_refs.append((len(main.code), "patchme"))
    main.emit(ins.movi(regs.T0 + 1, 0))  # t1 = &patchme
    _materialize(main, regs.T0 + 5, _word_of(ins.movi(regs.T0 + 8, 1111)))
    _materialize(main, regs.T0 + 6, _word_of(ins.movi(regs.T0 + 8, 2222)))
    main.emit(ins.movi(regs.T0 + 4, 0))
    head = len(main.code)
    # Patch to the alternate encoding, call, fold; restore, call, fold.
    main.emit(ins.st(regs.T0 + 1, regs.T0 + 6, 0))
    main.emit(ins.movi(regs.T0 + 8, 0))
    main.emit_call("patchme")
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 8))
    main.emit(ins.st(regs.T0 + 1, regs.T0 + 5, 0))
    main.emit(ins.movi(regs.T0 + 8, 0))
    main.emit_call("patchme")
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 8))
    _write_reg(main, regs.S0)
    main.emit(ins.addi(regs.T0 + 4, regs.T0 + 4, 1))
    _back_branch(main, head, regs.T0 + 4, regs.S1)
    main.emit(ins.andi(regs.A0, regs.S0, 127))
    _syscall(main, SYS_EXIT)
    image.add_function("main", main.code, symbol_refs=main.symbol_refs)
    image.set_entry("main")
    return image.build()


# -- churn_region: SMC on a fused superblock member --------------------------

#: Hot-loop trips per phase.  Each patch evicts the relay's page, so
#: every phase starts the relay's hop counts over; 24 trips exceed the
#: region-fusion hop threshold (REGION_FUSE_THRESHOLD = 16 in
#: repro.vm.compile), so a straight piece of the relay fuses before the
#: patch lands.  The phase's loop, which would need its back edge taken
#: LOOP_FUSE_THRESHOLD (64) times on one set of traces, never fuses.
_REGION_PHASE_TRIPS = 24

#: Straight-line filler per relay stage, keeping each stage its own
#: trace (stages must not fit together under max_trace_insts).
_STAGE_FILLER = 14


def _stage_body(result_delta: int) -> FunctionCode:
    fn = FunctionCode()
    fn.emit(ins.addi(regs.T0 + 9, regs.T0 + 9, result_delta))
    for index in range(_STAGE_FILLER):
        fn.emit(ins.addi(regs.T0 + 10, regs.T0 + 10, index + 1))
        fn.emit(ins.xori(regs.T0 + 10, regs.T0 + 10, 0x33))
    return fn


def _build_churn_region():
    image = ImageBuilder("adv/churn-region", ImageKind.EXECUTABLE)
    # Relay built back to front so each jmp knows its target's vaddr.
    stage_c = _stage_body(3)
    stage_c.emit(ins.ret())
    vaddr_c = image.add_function("stage_c", stage_c.code)

    # stage_b's FIRST instruction is the patch target: movi t9, 5.
    stage_b = FunctionCode()
    stage_b.emit(ins.movi(regs.T0 + 9, 5))
    for index in range(_STAGE_FILLER):
        stage_b.emit(ins.addi(regs.T0 + 11, regs.T0 + 11, index + 2))
    stage_b.emit(ins.jmp(vaddr_c))
    vaddr_b = image.add_function(
        "stage_b", stage_b.code, relative_sites=[len(stage_b.code) - 1]
    )

    stage_a = _stage_body(0)
    stage_a.emit(ins.jmp(vaddr_b))
    image.add_function(
        "stage_a", stage_a.code, relative_sites=[len(stage_a.code) - 1]
    )

    main = FunctionCode()
    main.emit(ins.or_(regs.S1, regs.A2, regs.ZERO))
    main.emit(ins.movi(regs.S0, 0))
    main.symbol_refs.append((len(main.code), "stage_b"))
    main.emit(ins.movi(regs.T0 + 1, 0))  # t1 = &stage_b (patch site)
    _materialize(main, regs.T0 + 5, _word_of(ins.movi(regs.T0 + 9, 5)))
    _materialize(main, regs.T0 + 6, _word_of(ins.movi(regs.T0 + 9, 9)))
    main.emit(ins.movi(regs.T0 + 7, _REGION_PHASE_TRIPS))
    main.emit(ins.movi(regs.T0 + 4, 0))
    outer_head = len(main.code)

    def hot_phase() -> None:
        main.emit(ins.movi(regs.T0 + 3, 0))
        head = len(main.code)
        main.emit_call("stage_a")
        main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 9))
        main.emit(ins.addi(regs.T0 + 3, regs.T0 + 3, 1))
        _back_branch(main, head, regs.T0 + 3, regs.T0 + 7)

    hot_phase()  # fuse the chain
    main.emit(ins.st(regs.T0 + 1, regs.T0 + 6, 0))  # patch the member
    hot_phase()  # fused region must serve the new code
    main.emit(ins.st(regs.T0 + 1, regs.T0 + 5, 0))  # restore
    _write_reg(main, regs.S0)
    main.emit(ins.addi(regs.T0 + 4, regs.T0 + 4, 1))
    _back_branch(main, outer_head, regs.T0 + 4, regs.S1)
    main.emit(ins.andi(regs.A0, regs.S0, 127))
    _syscall(main, SYS_EXIT)
    image.add_function("main", main.code, symbol_refs=main.symbol_refs)
    image.set_entry("main")
    return image.build()


# -- churn_boundary: the page-straddling store -------------------------------

def _straddle_words() -> Tuple[int, int]:
    """The two 8-byte values the boundary store alternates between.

    The store lands at ``&patchme - 4``: its low half rewrites the imm
    field of the filler ``nop`` ending the previous page (kept zero,
    byte-identical), its high half rewrites the (opcode, rd, rs1, rs2)
    low half of ``patchme[0]`` — retargeting the ``movi`` between t8
    and t9 while the imm half stays in place.
    """
    nop_tail = encode(ins.nop())[4:8]
    to_t8 = encode(ins.movi(regs.T0 + 8, 500))[0:4]
    to_t9 = encode(ins.movi(regs.T0 + 9, 500))[0:4]
    word_t8 = int.from_bytes(nop_tail + to_t8, "little", signed=True)
    word_t9 = int.from_bytes(nop_tail + to_t9, "little", signed=True)
    return word_t8, word_t9


def _pad_to_page_boundary(image: ImageBuilder) -> int:
    """Pad ``.text`` with nops so the next function starts a new page.

    At least one filler word is always emitted, so the byte before the
    boundary is a known ``nop`` imm byte.  Returns the boundary vaddr.
    """
    size = image.text_size
    target = align_up(size + INSTRUCTION_SIZE, CODE_PAGE)
    pad = (target - size) // INSTRUCTION_SIZE
    image.add_function("pad_%d" % size, [ins.nop()] * pad)
    return target


def _build_churn_boundary():
    image = ImageBuilder("adv/churn-boundary", ImageKind.EXECUTABLE)
    word_t8, word_t9 = _straddle_words()

    main = FunctionCode()
    main.emit(ins.or_(regs.S1, regs.A2, regs.ZERO))
    main.emit(ins.movi(regs.S0, 0))
    main.symbol_refs.append((len(main.code), "patchme"))
    main.emit(ins.movi(regs.T0 + 1, 0))                 # t1 = &patchme
    main.emit(ins.addi(regs.T0 + 2, regs.T0 + 1, -4))   # t2 = store site
    _materialize(main, regs.T0 + 5, word_t8)
    _materialize(main, regs.T0 + 6, word_t9)
    main.emit(ins.movi(regs.T0 + 4, 0))
    head = len(main.code)
    # Retarget patchme's movi to t9 across the page boundary, call it
    # indirectly (its trace never overlaps the store's first page), and
    # fold both candidate registers — a stale trace leaves t9 zero.
    main.emit(ins.st(regs.T0 + 2, regs.T0 + 6, 0))
    main.emit(ins.movi(regs.T0 + 8, 0))
    main.emit(ins.movi(regs.T0 + 9, 0))
    main.emit(ins.callr(regs.T0 + 1))
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 8))
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 9))
    main.emit(ins.st(regs.T0 + 2, regs.T0 + 5, 0))      # restore to t8
    main.emit(ins.movi(regs.T0 + 8, 0))
    main.emit(ins.movi(regs.T0 + 9, 0))
    main.emit(ins.callr(regs.T0 + 1))
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 8))
    main.emit(ins.shli(regs.T0 + 9, regs.T0 + 9, 1))
    main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 9))
    _write_reg(main, regs.S0)
    main.emit(ins.addi(regs.T0 + 4, regs.T0 + 4, 1))
    _back_branch(main, head, regs.T0 + 4, regs.S1)
    main.emit(ins.andi(regs.A0, regs.S0, 127))
    _syscall(main, SYS_EXIT)
    image.add_function("main", main.code, symbol_refs=main.symbol_refs)

    boundary = _pad_to_page_boundary(image)
    # patchme starts exactly on the 512-byte boundary: movi t8, 500; ret.
    vaddr = image.add_function(
        "patchme", [ins.movi(regs.T0 + 8, 500), ins.ret()]
    )
    assert vaddr == boundary and vaddr % CODE_PAGE == 0
    image.set_entry("main")
    return image.build()


# -- dlopen_smc: module churn with self-modification -------------------------

def _build_plugin():
    builder = ImageBuilder("adv/plugin.so", ImageKind.SHARED_LIBRARY, mtime=3)
    builder.add_function(
        "plugin_entry",
        [
            ins.movi(regs.T0 + 8, 7),
            ins.addi(regs.T0 + 8, regs.T0 + 8, 3),
            ins.ret(),
        ],
    )
    return builder.build()


def _build_dlopen_smc():
    image = ImageBuilder("adv/plugin-host", ImageKind.EXECUTABLE)
    main = FunctionCode()
    main.emit(ins.or_(regs.S1, regs.A2, regs.ZERO))
    main.emit(ins.movi(regs.S0, 0))
    # Patched plugin_entry[0]: movi t8, 30 (the +3 tail still runs).
    _materialize(main, regs.T0 + 6, _word_of(ins.movi(regs.T0 + 8, 30)))
    main.emit(ins.movi(regs.T0 + 4, 0))
    head = len(main.code)

    def dlopen() -> None:
        main.emit(ins.movi(regs.A0, 0))
        _syscall(main, SYS_DLOPEN)
        main.emit(ins.or_(regs.T0 + 1, regs.RV, regs.ZERO))

    def dlclose() -> None:
        main.emit(ins.movi(regs.A0, 0))
        _syscall(main, SYS_DLCLOSE)

    def call_plugin() -> None:
        main.emit(ins.movi(regs.T0 + 8, 0))
        main.emit(ins.callr(regs.T0 + 1))
        main.emit(ins.add(regs.S0, regs.S0, regs.T0 + 8))

    dlopen()
    call_plugin()                                  # pristine: 10
    main.emit(ins.st(regs.T0 + 1, regs.T0 + 6, 0))  # SMC in the module
    call_plugin()                                  # patched: 33
    dlclose()
    dlopen()                                       # pristine reload
    call_plugin()                                  # 10 again, never 33
    dlclose()
    _write_reg(main, regs.S0)
    main.emit(ins.addi(regs.T0 + 4, regs.T0 + 4, 1))
    _back_branch(main, head, regs.T0 + 4, regs.S1)
    main.emit(ins.andi(regs.A0, regs.S0, 127))
    _syscall(main, SYS_EXIT)
    image.add_function("main", main.code, symbol_refs=main.symbol_refs)
    image.set_entry("main")
    return image.build()


# -- timer: clock probes around fixed phases ---------------------------------

#: Spin trips of the two probe phases; the second is deliberately
#: longer so the deltas order deterministically.
_TIMER_PHASES = (32, 96)

#: Delta threshold the probe branches on, in simulated cycles: between
#: the two phases' costs under either tier's cost model, so the branch
#: genuinely splits (one phase under, one over) instead of degenerating.
_TIMER_THRESHOLD = 400


def _build_timer():
    image = ImageBuilder("adv/timer", ImageKind.EXECUTABLE)
    main = FunctionCode()
    main.emit(ins.or_(regs.S1, regs.A2, regs.ZERO))
    main.emit(ins.movi(regs.S0, 0))
    main.emit(ins.movi(regs.T0 + 6, _TIMER_THRESHOLD))
    main.emit(ins.movi(regs.T0 + 4, 0))
    outer_head = len(main.code)
    for trips in _TIMER_PHASES:
        _syscall(main, SYS_CLOCK)
        main.emit(ins.or_(regs.T0 + 1, regs.RV, regs.ZERO))
        main.emit(ins.movi(regs.T0 + 2, 0))
        spin_head = len(main.code)
        main.emit(ins.addi(regs.T0 + 3, regs.T0 + 3, 5))
        main.emit(ins.xori(regs.T0 + 3, regs.T0 + 3, 9))
        main.emit(ins.addi(regs.T0 + 2, regs.T0 + 2, 1))
        main.emit(ins.movi(regs.T0 + 7, trips))
        _back_branch(main, spin_head, regs.T0 + 2, regs.T0 + 7)
        _syscall(main, SYS_CLOCK)
        main.emit(ins.sub(regs.T0 + 5, regs.RV, regs.T0 + 1))
        _write_reg(main, regs.T0 + 5)  # the raw delta
        # Branch on the delta: the anti-instrumentation decision point.
        main.emit(ins.blt(regs.T0 + 5, regs.T0 + 6, 2 * INSTRUCTION_SIZE))
        main.emit(ins.addi(regs.S0, regs.S0, 1))        # delta >= threshold
        main.emit(ins.beq(regs.ZERO, regs.ZERO, INSTRUCTION_SIZE))
        main.emit(ins.addi(regs.S0, regs.S0, 100))      # delta < threshold
    _write_reg(main, regs.S0)  # the decision trail
    main.emit(ins.addi(regs.T0 + 4, regs.T0 + 4, 1))
    _back_branch(main, outer_head, regs.T0 + 4, regs.S1)
    main.emit(ins.andi(regs.A0, regs.S0, 127))
    _syscall(main, SYS_EXIT)
    image.add_function("main", main.code, symbol_refs=main.symbol_refs)
    image.set_entry("main")
    return image.build()


def build_adversarial_suite() -> Dict[str, Workload]:
    """The anti-instrumentation suite, standard ``run`` inputs."""

    def workload(name, image, iterations, modules=()):
        return Workload(
            name=name,
            image=image,
            inputs={"run": InputSpec(name="run", hot_iterations=iterations)},
            modules=list(modules),
        )

    return {
        "checksum": workload("checksum", _build_checksum(), 6),
        "churn_hot": workload("churn_hot", _build_churn_hot(), 8),
        "churn_region": workload("churn_region", _build_churn_region(), 3),
        "churn_boundary": workload(
            "churn_boundary", _build_churn_boundary(), 8
        ),
        "dlopen_smc": workload(
            "dlopen_smc", _build_dlopen_smc(), 6, modules=[_build_plugin()]
        ),
        "timer": workload("timer", _build_timer(), 5),
    }
