"""The trace-body pass at the int64 edges.

The compiled tier leaves out the wrap check of a register write whose
interval lies within int64, and every register write that a later ALU
write overwrites before anything can observe it
(:mod:`repro.vm.bodypass`).  A wrong interval rule leaves a value
outside int64 in a register; a wrong dead-write scan leaves the old
value where a later read, a fault or an exit sees it.

Every case runs natively, under the interpreted oracle, on the cold
tier, and compiled at threshold 1 and the default.  The engine runs must agree
on the whole :func:`~tests.conftest.signature`, final registers and
memory included, and native execution on the exit status, the output
and the final state.  Each op with an interval rule takes operands at
and next to the int64 edges, known exactly to the pass (built from
``movi``/``shli``/``shri``/``addi``) or unknown (reloaded from the
stack), in solo traces and in traces of a loop that fuses; probes after
each op test the interval its rule gives (a left shift by 32 and by 62,
and an add and a subtract of int64's minimum), and every result is
stored.
"""

from __future__ import annotations

import pytest

from repro.loader.linker import load_process
from repro.machine.cpu import INT64, Machine, MachineFault, run_native
from repro.vm.compile import (
    DEFAULT_COMPILE_THRESHOLD,
    LOOP_FUSE_THRESHOLD,
    REGION_FUSE_THRESHOLD,
)
from repro.vm.engine import Engine, VMConfig

from tests.conftest import final_state, image_from_asm, signature

pytestmark = pytest.mark.usefixtures("final_states")

LOW, HIGH = INT64
#: The int64 edges and their neighbours.
EDGES = (LOW, LOW + 1, -1, 0, 1, HIGH - 1, HIGH)
#: The 32-bit immediate's edges and their neighbours.
IMMEDIATES = (-(1 << 31), -(1 << 31) + 1, -1, 0, 1, (1 << 31) - 2,
              (1 << 31) - 1)
#: Shift immediates: amounts 0, 1, 31, 62 and 63, and two that wrap.
SHIFTS = (0, 1, 31, 62, 63, 64, -1)

#: Every op with an interval rule, by the operands it takes: two
#: registers, a register and an immediate, or an immediate.
REGISTER_OPS = ("add", "sub", "mul", "and", "or", "xor", "shl", "shr",
                "slt")
IMMEDIATE_OPS = ("addi", "andi", "ori", "xori", "shli", "shri")
CONSTANT_OPS = ("lui", "movi")

#: The engine tiers a case runs on; native execution is the reference.
TIERS = {
    "oracle": VMConfig(dispatch_mode="interpreted"),
    "cold": VMConfig(compile_threshold=1 << 30),
    "compiled-1": VMConfig(compile_threshold=1),
    "compiled-default": VMConfig(compile_threshold=DEFAULT_COMPILE_THRESHOLD),
}

#: Iterations of every loop: every trace compiles by the default
#: threshold, the back edge then crosses the loop threshold, and the
#: fused body runs the rest.
TRIPS = (DEFAULT_COMPILE_THRESHOLD + LOOP_FUSE_THRESHOLD
         + 2 * REGION_FUSE_THRESHOLD)
#: Cases per loop: with the loop's tail, seven traces, under the most a
#: region fuses.
LOOP_CASES = 6

EXIT = ["movi a0, 0", "movi rv, 1", "syscall"]


def constant(reg: str, value: int) -> list:
    """Statements that leave the edge ``value`` in ``reg``, with the
    tightest interval the pass can prove for it: exact at int64's
    minimum, ``0..max`` at its maximum."""
    if -1 <= value <= 1:
        return ["movi %s, %d" % (reg, value)]
    shift = "shli %s, %s, 63" if value < 0 else "shri %s, %s, 1"
    lines = ["movi %s, -1" % reg, shift % (reg, reg)]
    if value in (LOW + 1, HIGH - 1):
        lines.append("addi %s, %s, %d" % (reg, reg, 1 if value < 0 else -1))
    return lines


def cases(op: str) -> list:
    """``op``'s operand pairs: every two edges, and for a register op
    every edge twice in one register too (``x - x``, ``x ^ x``)."""
    if op in CONSTANT_OPS:
        return [(None, imm, False) for imm in IMMEDIATES]
    if op in IMMEDIATE_OPS:
        seconds = SHIFTS if op in ("shli", "shri") else IMMEDIATES
        return [(x, imm, False) for x in EDGES for imm in seconds]
    return ([(x, y, False) for x in EDGES for y in EDGES]
            + [(x, x, True) for x in EDGES])


def case_lines(op: str, case, slot: int, known: bool) -> list:
    """One case: its operands in t0 and t1, ``op`` into t2, the probes
    into t3..t6, each stored to its own stack word from ``slot`` on.
    Unless ``known``, the operands reach ``op`` through the stack."""
    x, y, same = case
    lines = []
    if x is not None:
        lines += constant("t0", x)
    if op in REGISTER_OPS and not same:
        lines += constant("t1", y)
    if not known:
        lines += ["st t0, -8(sp)", "st t1, -16(sp)",
                  "ld t0, -8(sp)", "ld t1, -16(sp)"]
    if op in REGISTER_OPS:
        lines.append("%s t2, t0, %s" % (op, "t0" if same else "t1"))
    elif op in IMMEDIATE_OPS:
        lines.append("%s t2, t0, %d" % (op, y))
    else:
        lines.append("%s t2, %d" % (op, y))
    lines += constant("t7", LOW)
    lines += ["shli t3, t2, 32", "shli t4, t2, 62", "add t5, t2, t7",
              "sub t6, t2, t7"]
    lines += ["st t%d, %d(sp)" % (reg, -8 * (slot + reg + 1)) for reg in
              range(2, 7)]
    return lines


def straight(op: str, known: bool):
    """``op``'s cases in one straight run of solo traces, each ending in
    a ``jmp`` to the next."""
    text = ["main:"]
    for number, case in enumerate(cases(op)):
        text += case_lines(op, case, 8 * number, known)
        text += ["jmp case%d" % number, "case%d:" % number]
    return image_from_asm("\n".join(text + EXIT))


def loops(op: str):
    """``op``'s cases in loops of :data:`LOOP_CASES` traces each, one
    loop after another, every loop run :data:`TRIPS` times."""
    text = ["main:"]
    every = cases(op)
    for first in range(0, len(every), LOOP_CASES):
        head = "loop%d" % first
        text += ["movi s0, %d" % TRIPS, "%s:" % head]
        for number in range(first, min(first + LOOP_CASES, len(every))):
            text += case_lines(op, every[number], 8 * number, True)
            text += ["jmp case%d" % number, "case%d:" % number]
        text += ["addi s0, s0, -1", "bne s0, zero, %s" % head]
    return image_from_asm("\n".join(text + EXIT))


def run_everywhere(image, args=()):
    """Run ``image`` natively and on every tier of :data:`TIERS`; the
    engine runs' signatures, and the native run's exit status, output
    and final state, must all agree.  Returns the engine results."""
    machine = Machine(load_process(image))
    machine.set_args(*args)
    native = run_native(machine)
    results = {
        tier: Engine(config=config).run(load_process(image), args=args)
        for tier, config in TIERS.items()
    }
    expected = signature(results["oracle"])
    for tier, result in results.items():
        assert signature(result) == expected, tier
    oracle = results["oracle"]
    assert (native.exit_status, native.output) == (
        oracle.exit_status, oracle.output)
    assert final_state(machine) == oracle.final_state
    return results


def fault_everywhere(image, args=()):
    """Run ``image``, which faults, natively and on every tier: the
    fault's message and the final state at the fault must agree."""
    outcomes = {}
    for tier, config in (("native", None), *TIERS.items()):
        machine = Machine(load_process(image))
        with pytest.raises(MachineFault) as fault:
            if config is None:
                machine.set_args(*args)
                run_native(machine)
            else:
                Engine(config=config).run(machine.process, args=args,
                                          machine=machine)
        outcomes[tier] = (str(fault.value), final_state(machine))
    assert all(outcome == outcomes["native"]
               for outcome in outcomes.values()), outcomes


class TestRegistersHoldInt64:
    def test_out_of_int64_argument_is_wrapped_before_it_runs(self):
        """``a0`` passed as ``-2**63 - 3`` holds ``2**63 - 3``, so
        ``slt`` finds it non-negative on every tier; a compiled ``ori``
        that kept the unwrapped value made the compiled tier exit 1."""
        image = image_from_asm("\n".join([
            "main:", "ori a0, a0, 0", "slt a0, a0, zero", "movi rv, 1",
            "syscall",
        ]))
        results = run_everywhere(image, args=(LOW - 3,))
        assert results["compiled-1"].exit_status == 0


class TestIntervalRules:
    @pytest.mark.parametrize(
        "op", REGISTER_OPS + IMMEDIATE_OPS + CONSTANT_OPS)
    @pytest.mark.parametrize("known", [True, False],
                             ids=["known", "unknown"])
    def test_solo_traces(self, op, known):
        run_everywhere(straight(op, known))

    @pytest.mark.parametrize(
        "op", REGISTER_OPS + IMMEDIATE_OPS + CONSTANT_OPS)
    def test_fused_loops(self, op):
        results = run_everywhere(loops(op))
        for tier in ("compiled-1", "compiled-default"):
            assert results[tier].host.links.regions_fused >= len(
                range(0, len(cases(op)), LOOP_CASES)), tier


def looped(body: list, exit_reg: str):
    """``body`` as the first trace of a fused loop of :data:`TRIPS`
    rounds, whose ``s1`` is 1 in the last round and 0 before; the
    program exits with ``exit_reg``."""
    return image_from_asm("\n".join([
        "main:", "movi s0, %d" % TRIPS, "loop:",
        "movi s1, 2", "slt s1, s0, s1",
        *body,
        "jmp tail", "tail:",
        "addi s0, s0, -1", "bne s0, zero, loop",
        "andi a0, %s, 127" % exit_reg, "movi rv, 1", "syscall",
    ]))


class TestDeadWrites:
    """A write stays where anything observes the register before the
    next write: a read through rs2 alone, a fault, or an exit."""

    #: ``t0 = 12`` is read only through ``sub``'s rs2 before ``movi``
    #: overwrites it; ``t2`` is -5, or 2 had the add been left out.
    READ_THROUGH_RS2 = [
        "movi t0, 5", "movi t1, 7", "add t0, t0, t1", "sub t2, t1, t0",
        "movi t0, 1",
    ]

    def test_read_through_rs2_only(self):
        image = image_from_asm("\n".join(
            ["main:", *self.READ_THROUGH_RS2, "andi a0, t2, 127",
             "movi rv, 1", "syscall"]))
        assert run_everywhere(image)["compiled-1"].exit_status == 123

    def test_read_through_rs2_only_in_a_fused_loop(self):
        results = run_everywhere(looped(self.READ_THROUGH_RS2, "t2"))
        assert results["compiled-1"].exit_status == 123
        assert results["compiled-default"].host.links.regions_fused == 1

    def test_faulting_load_between_the_writes(self):
        """The load faults with ``t0`` at 5, not at its old 0."""
        image = image_from_asm("\n".join([
            "main:", "movi t0, 5", "ld t1, 0(a0)", "movi t0, 9",
            "andi a0, t0, 127", "movi rv, 1", "syscall",
        ]))
        fault_everywhere(image, args=(0x100,))

    def test_faulting_load_between_the_writes_in_a_fused_loop(self):
        """The last round's load address is unmapped: the fault comes
        out of the fused loop with ``t0`` at the round's count."""
        fault_everywhere(looped([
            # t2 = sp - 8, or 0x100 in the last round.
            "addi t3, sp, -8", "movi t4, 256", "sub t2, t4, t3",
            "mul t2, t2, s1", "add t2, t3, t2",
            "add t0, s0, zero", "ld t1, 0(t2)", "movi t0, 9",
        ], "t0"))

    def test_branch_between_the_writes(self):
        image = image_from_asm("\n".join([
            "main:", "movi t0, 5", "bne a0, zero, out", "movi t0, 9",
            "out:", "andi a0, t0, 127", "movi rv, 1", "syscall",
        ]))
        assert run_everywhere(image, args=(1,))["compiled-1"].exit_status == 5

    def test_branch_between_the_writes_in_a_fused_loop(self):
        """The last round leaves the loop at the branch with ``t0`` at
        the round's count."""
        results = run_everywhere(looped([
            "add t0, s0, zero", "bne s1, zero, out", "movi t0, 9",
            "jmp tail", "out:", "andi a0, t0, 127", "movi rv, 1",
            "syscall",
        ], "t0"))
        assert results["compiled-1"].exit_status == 1
        assert results["compiled-default"].host.links.regions_fused == 1
