"""Loop regions: a hot loop runs inside one closure.

A chain of traces that closes a cycle fuses, once its back edge has been
taken :data:`~repro.vm.compile.LOOP_FUSE_THRESHOLD` times, into one
region closure whose back edge is a guarded ``continue`` and whose
indirect junctions fall through only on the next member the site's
inline cache names (:meth:`repro.vm.engine.Engine._maybe_fuse`,
:meth:`repro.vm.compile.TraceCompiler.compile_region`).  Each case runs
a loop past that threshold, then crosses one seam of the fused body: a
store into a later member, a store into the head, the instruction
budget at an indirect junction and at the back edge, a return to a site
the cache did not predict, a code-cache flush, and a warm restart that
revives the body; and analysis callbacks inside a fused loop.  Each
compares the compiled tier with the interpreted oracle on the whole
final-state :func:`~tests.conftest.signature`.
"""

from __future__ import annotations

import pytest

from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa.instructions import INSTRUCTION_SIZE
from repro.loader.linker import load_process
from repro.machine.cpu import HEAP_BASE, Machine, MachineFault, run_native
from repro.persist.database import CacheDatabase
from repro.persist.manager import PersistenceConfig, PersistentCacheSession
from repro.tools import BBCountTool, InsCountTool, MemTraceTool
from repro.vm.compile import (
    DEFAULT_COMPILE_THRESHOLD,
    LOOP_FUSE_THRESHOLD,
    REGION_FUSE_THRESHOLD,
)
from repro.vm.engine import Engine, VMConfig
from repro.workloads.adversarial import CODE_PAGE

from tests.conftest import final_state, image_from_asm, signature
from tests.test_dispatch_equivalence import MODES, _eager_config
from tests.test_smc import _word_of

pytestmark = pytest.mark.usefixtures("final_states")

#: Iterations of every loop here: the back edge crosses the loop
#: threshold, and the fused body runs the rest.
TRIPS = LOOP_FUSE_THRESHOLD + 40

#: Pads the program with ``nop`` up to the next code page.
PAGE = object()


def program(*lines):
    """The image of asm ``lines``, one statement or label each; a
    :data:`PAGE` entry starts the next statement on a new code page,
    so a store into the code after it evicts none of the code before."""
    text, count = [], 0
    for line in lines:
        if line is PAGE:
            pad = -count % (CODE_PAGE // INSTRUCTION_SIZE)
            text += ["    nop"] * pad
            count += pad
        else:
            text.append(line)
            count += not line.endswith(":")
    return image_from_asm("\n".join(text))


def materialize(reg: str, inst) -> list:
    """Statements that build ``inst``'s encoded word in ``reg``."""
    word = _word_of(inst) & 0xFFFF_FFFF_FFFF_FFFF
    lines = ["    movi %s, %d" % (reg, word >> 48)]
    for shift in (32, 16, 0):
        lines.append("    shli %s, %s, 16" % (reg, reg))
        lines.append("    ori %s, %s, %d" % (reg, reg, (word >> shift) & 0xFFFF))
    return lines


def select(dest: str, flag: str, when_zero: str, when_one: str) -> list:
    """``dest = when_one if flag else when_zero`` with no branch, so the
    loop's trace shape does not depend on the value."""
    return [
        "    sub %s, %s, %s" % (dest, when_one, when_zero),
        "    mul %s, %s, %s" % (dest, dest, flag),
        "    add %s, %s, %s" % (dest, when_zero, dest),
    ]


EXIT = ["    andi a0, s1, 127", "    movi rv, 1", "    syscall"]


def run(image, mode, **config):
    return Engine(config=_eager_config(mode, **config)).run(
        load_process(image))


def equivalent(image, **config):
    """The compiled and the interpreted run of ``image``; their
    signatures are equal, and the compiled run fused a loop."""
    results = {mode: run(image, mode, **config) for mode in MODES}
    assert signature(results["compiled"]) == signature(
        results["interpreted"])
    assert results["compiled"].host.links.regions_fused >= 1
    return results["compiled"]


def patch_image(store_into_head: bool):
    """A two-member loop, ``near`` on code page 0 and ``far`` on page 1,
    headed by ``near``, or, with ``store_into_head``, by ``far`` (the
    target of the back edge).  Each iteration adds ``a0`` to s1; ``far``
    sets it to 7.
    ``near`` stores a word to the heap each round, and ``movi a0, 99``
    over ``far``'s first instruction in time for far's last run: ``far``
    is the loop's second member (the junction into it must leave) or its
    head (the back edge must leave).  Natively, and on every tier, the
    program exits ``(7 * (TRIPS - 1) + 99) & 127``, or ``7 * TRIPS &
    127`` if a stale ``far`` ran."""
    near = [
        "near:",
        # 1 from the round before far's last run: s0 counts down in
        # near after the head far, and in far after the head near.
        "    movi t7, %d" % (3 if store_into_head else 2),
        "    slt t7, s0, t7",
        *select("t1", "t7", "t6", "t5"),  # the heap, or far
        "    st t2, 0(t1)",
    ]
    if store_into_head:
        near += ["    addi s0, s0, -1", "    bne s0, zero, far", *EXIT]
        far = ["far:", "    movi a0, 7", "    add s1, s1, a0", "    jmp near"]
    else:
        near += ["    jmp far"]
        far = ["far:", "    movi a0, 7", "    add s1, s1, a0",
               "    addi s0, s0, -1", "    bne s0, zero, near", *EXIT]
    return program(
        "main:",
        "    movi s0, %d" % TRIPS,
        "    movi s1, 0",
        "    movi t5, far",
        "    movi t6, %d" % HEAP_BASE,
        *materialize("t2", ins.movi(regs.A0, 99)),
        "    jmp %s" % ("far" if store_into_head else "near"),
        *near,
        PAGE,
        *far,
    )


@pytest.mark.parametrize("store_into_head", [False, True],
                         ids=["later-member", "head"])
def test_store_into_loop_code_leaves_the_region(store_into_head):
    """The store evicts ``far`` and unlinks the slot into it, so the
    running region leaves at the junction into ``far``, or at the back
    edge when ``far`` is the head, and the dispatcher translates the
    patched code."""
    image = patch_image(store_into_head)
    compiled = equivalent(image)
    expected = (7 * (TRIPS - 1) + 99) & 127
    native = run_native(Machine(load_process(image)))
    assert native.exit_status == compiled.exit_status == expected
    assert compiled.stats.smc_invalidations >= 1
    assert compiled.host.cache.region_invalidations >= 1


def own_page_image(rounds: int):
    """``near`` and ``far`` on one code page, ``far`` translated after
    ``near``, for ``rounds`` rounds: each round ``near`` stores a word
    to the heap and jumps to ``far``, which sets a0 to 7 and loops back.
    The last round's store puts ``movi a0, 99`` over far's first
    instruction: it evicts both traces, and ``near``, still running,
    must leave through the translation map to the patched code, not
    through its link to the dead ``far``."""
    return program(
        "main:",
        "    movi s0, %d" % rounds,
        "    movi t5, far",
        "    movi t6, %d" % HEAP_BASE,
        *materialize("t2", ins.movi(regs.A0, 99)),
        "    jmp near",
        "near:",
        "    movi t7, 2",
        "    slt t7, s0, t7",                  # 1 in the last round
        *select("t1", "t7", "t6", "t5"),  # the heap, or far
        "    st t2, 0(t1)",
        "    jmp far",
        "far:",
        "    movi a0, 7",
        "    addi s0, s0, -1",
        "    bne s0, zero, near",
        "    movi rv, 1",
        "    syscall",
    )


@pytest.mark.parametrize(
    "rounds", [3, TRIPS + DEFAULT_COMPILE_THRESHOLD],
    ids=["solo", "fused-loop"])
def test_trace_evicted_by_its_own_store_leaves_through_the_map(rounds):
    """Natively the last round runs the patched ``far`` and exits 99;
    so must every tier, whether ``near`` runs cold, as a solo body or as
    the head of the fused loop, whose junction into ``far`` must leave."""
    image = own_page_image(rounds)
    assert run_native(Machine(load_process(image))).exit_status == 99
    oracle = run(image, "interpreted")
    assert oracle.exit_status == 99
    for threshold in (1, DEFAULT_COMPILE_THRESHOLD):
        compiled = Engine(config=VMConfig(compile_threshold=threshold)).run(
            load_process(image))
        assert signature(compiled) == signature(oracle), threshold
        assert compiled.host.links.regions_fused == (rounds > 3), threshold


#: ``loop`` -> ``f`` -> ``back`` -> ``loop``: f's ``ret`` is an indirect
#: junction, and ``back``'s ``bne`` the back edge.
CALL_LOOP = program(
    "main:",
    "    movi s0, %d" % TRIPS,
    "    movi s1, 0",
    "loop:",
    "    addi s1, s1, 1",
    "    call f",
    "back:",
    "    addi s1, s1, 2",
    "    addi s0, s0, -1",
    "    bne s0, zero, loop",
    *EXIT,
    "f:",
    "    addi s1, s1, 3",
    "    ret",
)


def budget_fault(image, mode, budget):
    """``(message, pc, final state)`` of ``image`` run out of budget."""
    machine = Machine(load_process(image))
    engine = Engine(config=_eager_config(mode, max_instructions=budget))
    with pytest.raises(MachineFault) as excinfo:
        engine.run(machine.process, machine=machine)
    return str(excinfo.value), excinfo.value.pc, final_state(machine)


def test_budget_runs_out_where_the_oracle_faults():
    """Budgets over one whole iteration of the fused loop: each runs out
    at one member boundary, the indirect junction after f's ``ret`` and
    the back edge into ``loop`` among them, and the compiled tier faults
    at the oracle's pc with its final state."""
    process = load_process(CALL_LOOP)
    loop = process.resolve_symbol("main") + 2 * INSTRUCTION_SIZE
    back = loop + 2 * INSTRUCTION_SIZE
    fused = Engine(config=_eager_config("compiled")).run(
        load_process(CALL_LOOP))
    assert fused.host.links.regions_fused == 1
    assert fused.host.links.region_entries == 1
    start = 7 * (TRIPS - 10)  # well inside the fused loop
    pcs = set()
    for budget in range(start, start + 7):
        faults = {mode: budget_fault(CALL_LOOP, mode, budget)
                  for mode in MODES}
        assert faults["compiled"] == faults["interpreted"], budget
        pcs.add(faults["compiled"][1])
    assert {loop, back} <= pcs, sorted(map(hex, pcs))


def test_return_to_an_unpredicted_site_side_exits():
    """``f`` returns through ``ret`` to the site its caller put in lr:
    ``site_a`` while the loop fuses, so its junction predicts
    ``site_a``, then ``site_a`` and ``site_b`` in turn.  On ``site_b``
    the junction leaves, as the solo body would, instead of running
    ``site_a``'s member."""
    image = program(
        "main:",
        "    movi s0, %d" % TRIPS,
        "    movi s1, 0",
        "    movi t5, site_a",
        "    movi t6, site_b",
        "loop:",
        "    andi t7, s0, 1",
        "    movi t8, 21",
        "    slt t8, s0, t8",
        "    and t7, t7, t8",           # odd rounds once s0 < 21
        *select("lr", "t7", "t5", "t6"),
        "    jmp f",
        "f:",
        "    addi s1, s1, 3",
        "    ret",
        "site_a:",
        "    addi s1, s1, 1",
        "    jmp tail",
        "site_b:",
        "    addi s1, s1, 5",
        "    jmp tail",
        "tail:",
        "    addi s0, s0, -1",
        "    bne s0, zero, loop",
        *EXIT,
    )
    compiled = equivalent(image)
    native = run_native(Machine(load_process(image)))
    assert native.exit_status == compiled.exit_status == (
        4 * TRIPS + 4 * 10) & 127
    # The unpredicted returns resolve through the inline cache.
    assert compiled.host.ic.misses >= 1


def test_code_cache_flush_mid_loop():
    """After the loop fused, one round detours through more cold code
    than the code pool holds: the flush drops every trace and the
    region, and the loop fuses again from new traces."""
    cold = ["    addi s1, s1, 1"] * 120
    image = program(
        "main:",
        "    movi s0, %d" % (2 * TRIPS),
        "    movi s1, 0",
        "    movi t9, %d" % (TRIPS + 10),
        "loop:",
        "    addi s1, s1, 2",
        "    call f",
        "    addi s0, s0, -1",
        "    beq s0, t9, detour",
        "    bne s0, zero, loop",
        *EXIT,
        "f:",
        "    addi s1, s1, 3",
        "    ret",
        "detour:",
        *cold,
        "    jmp loop",
    )
    compiled = equivalent(image, code_pool_bytes=1200)
    assert compiled.stats.cache_flushes >= 1
    assert compiled.host.links.regions_fused >= 2
    assert compiled.exit_status == (5 * 2 * TRIPS + 120) & 127


def test_warm_run_revives_the_loop_body(tmp_path):
    """The cold run records the loop body with the traces' bodies; the
    warm run fuses the same loop and binds it from the sidecar with no
    host compile, and both runs match the oracle's."""
    runs = {}
    for mode in MODES:
        db = CacheDatabase(str(tmp_path / mode))
        runs[mode] = [
            Engine(
                config=_eager_config(mode),
                persistence=PersistentCacheSession(
                    PersistenceConfig(database=db)),
            ).run(load_process(CALL_LOOP))
            for _ in range(2)
        ]
    for leg in (0, 1):
        assert signature(runs["compiled"][leg]) == signature(
            runs["interpreted"][leg]), leg
    cold, warm = runs["compiled"]
    assert cold.host.regions_compiled == 1
    assert warm.stats.traces_translated == 0
    assert warm.host.links.regions_fused == 1
    assert warm.host.host_compiles == 0
    assert warm.host.body_hits == cold.host.host_compiles


@pytest.mark.parametrize("tool_factory", [
    BBCountTool, InsCountTool, MemTraceTool,
])
def test_analysis_callbacks_in_a_loop_region(tool_factory):
    """Instrumented members: the fused loop fires every callback with
    the oracle's context, so the tool's final state and the run's
    signature agree on both tiers."""
    image = program(
        "main:",
        "    movi s0, %d" % TRIPS,
        "    movi s1, 0",
        "loop:",
        "    st s1, -8(sp)",
        "    call f",
        "    ld t1, -8(sp)",
        "    add s1, s1, t1",
        "    addi s0, s0, -1",
        "    bne s0, zero, loop",
        *EXIT,
        "f:",
        "    addi s1, s1, 3",
        "    ret",
    )
    results, states = {}, {}
    for mode in MODES:
        tool = tool_factory()
        results[mode] = Engine(tool=tool, config=_eager_config(mode)).run(
            load_process(image))
        states[mode] = vars(tool)
    assert signature(results["compiled"]) == signature(
        results["interpreted"])
    assert states["compiled"] == states["interpreted"]
    links = results["compiled"].host.links
    assert links.regions_fused == 1 and links.region_hops > 0


def test_loop_threshold_is_a_count_of_back_edges():
    """A loop that stops at the threshold fuses nothing, not even a
    straight piece, and one that runs two fusion periods past it fuses
    once: the walk that finds it starts at every
    :data:`~repro.vm.compile.REGION_FUSE_THRESHOLD`-th hop through a
    final exit, the first one after the back edge's 64th included."""
    def loop(trips):
        return program(
            "main:",
            "    movi s0, %d" % trips,
            "    movi s1, 0",
            "loop:",
            "    addi s1, s1, 1",
            "    call f",
            "    addi s0, s0, -1",
            "    bne s0, zero, loop",
            *EXIT,
            "f:",
            "    ret",
        )

    short = run(loop(LOOP_FUSE_THRESHOLD), "compiled")
    assert short.host.links.regions_fused == 0
    assert short.host.regions_compiled == 0
    long = run(loop(LOOP_FUSE_THRESHOLD + 2 * REGION_FUSE_THRESHOLD),
               "compiled")
    assert long.host.links.regions_fused == 1
    assert long.host.links.region_entries == 1


def test_caller_of_a_self_looping_function_fuses_straight():
    """``f`` loops on itself through its ``bne`` and returns to two call
    sites in turn, so the walk from a call site comes back to ``f``, the
    trace it just reached: a cycle of one trace is no loop, and the call
    site and ``f`` fuse straight, as a chain with no cycle does."""
    image = program(
        "main:",
        "    movi s0, 40",
        "    movi s1, 0",
        "outer:",
        "    movi t1, 3",
        "    call f",
        "    movi t1, 2",
        "    call f",
        "    addi s0, s0, -1",
        "    bne s0, zero, outer",
        *EXIT,
        "f:",
        "    addi s1, s1, 1",
        "    addi t1, t1, -1",
        "    bne t1, zero, f",
        "    ret",
    )
    compiled = equivalent(image)
    assert compiled.exit_status == (5 * 40) & 127
    assert compiled.host.links.regions_fused == 1
    assert compiled.host.links.region_entries > 0
