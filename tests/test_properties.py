"""Property-based tests on core invariants (hypothesis).

These generate random-but-valid programs and cache contents and check the
properties every experiment silently depends on:

* translated execution is architecturally identical to native execution
  for *any* program;
* a persist/revive round trip reproduces the trace exactly;
* cache files survive serialization byte-exactly, and a record whose
  code does not decode is code-pool damage;
* liveness analysis is a sound over-approximation.
"""

import dataclasses
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.binfmt.image import ImageBuilder
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa.opcodes import Opcode
from repro.loader.linker import load_process
from repro.machine.cpu import Machine, run_native
from repro.machine.syscalls import SYS_EXIT
from repro.persist.cachefile import (
    CacheFileError,
    PersistedExit,
    PersistedTrace,
    PersistentCache,
)
from repro.persist.keys import MappingKey
from repro.vm.engine import Engine
from repro.vm.trace import ExitKind, Trace, TraceExit
from repro.vm.translator import compute_liveness


# --------------------------------------------------------------------------
# Random straight-line program generation: ALU ops + stack memory +
# bounded loops, always terminating in exit(status).
# --------------------------------------------------------------------------

_SCRATCH = list(range(10, 18))


def _random_program(seed: int, length: int, loops: int):
    rng = random.Random(seed)
    code = [ins.movi(reg, rng.randrange(-100, 100)) for reg in _SCRATCH]
    for _ in range(length):
        kind = rng.randrange(8)
        rd, rs1, rs2 = (rng.choice(_SCRATCH) for _ in range(3))
        if kind == 0:
            code.append(ins.add(rd, rs1, rs2))
        elif kind == 1:
            code.append(ins.sub(rd, rs1, rs2))
        elif kind == 2:
            code.append(ins.xor(rd, rs1, rs2))
        elif kind == 3:
            code.append(ins.addi(rd, rs1, rng.randrange(-50, 50)))
        elif kind == 4:
            code.append(ins.slt(rd, rs1, rs2))
        elif kind == 5:
            code.append(ins.shli(rd, rs1, rng.randrange(1, 4)))
        elif kind == 6:
            code.append(ins.st(regs.SP, rs1, 8 * rng.randrange(0, 4)))
        else:
            code.append(ins.ld(rd, regs.SP, 8 * rng.randrange(0, 4)))
    for _ in range(loops):
        counter = 20  # t10: reserved loop counter
        trip = rng.randrange(1, 9)
        code.append(ins.movi(counter, trip))
        body_len = rng.randrange(1, 4)
        head = len(code)
        for _ in range(body_len):
            code.append(
                ins.addi(rng.choice(_SCRATCH), rng.choice(_SCRATCH),
                         rng.randrange(-3, 3))
            )
        code.append(ins.addi(counter, counter, -1))
        offset = (head - (len(code) + 1)) * 8
        code.append(ins.bne(counter, regs.ZERO, offset))
    code.append(ins.movi(regs.RV, SYS_EXIT))
    code.append(ins.andi(regs.A0, rng.choice(_SCRATCH), 127))
    code.append(ins.syscall())
    return code


def _build(code):
    builder = ImageBuilder("prop")
    builder.add_function("main", code)
    builder.set_entry("main")
    return builder.build()


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    length=st.integers(0, 40),
    loops=st.integers(0, 3),
)
def test_vm_native_equivalence_property(seed, length, loops):
    """For any generated program, the VM preserves architectural behaviour."""
    image = _build(_random_program(seed, length, loops))
    native = run_native(Machine(load_process(image)))
    under_vm = Engine().run(load_process(image))
    assert under_vm.exit_status == native.exit_status
    assert under_vm.instructions == native.instructions


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    length=st.integers(1, 30),
)
def test_liveness_soundness_property(seed, length):
    """Any register actually read before being written must be live-in."""
    code = _random_program(seed, length, 0)
    trace = Trace(entry=0, instructions=code[:24])
    trace.exits = [TraceExit(ExitKind.FALLTHROUGH, len(trace.instructions) - 1,
                             target=len(trace.instructions) * 8)]
    liveness = compute_liveness(trace)
    written = set()
    for index, inst in enumerate(trace.instructions):
        for reg in inst.registers_read():
            if reg not in written:
                # Read before any in-trace write: must be live at entry.
                assert liveness[0] & (1 << reg), (index, reg)
        written |= inst.registers_written()


_OPCODE_BYTES = sorted(int(op) for op in Opcode)


def _decodable(trace: PersistedTrace) -> PersistedTrace:
    """``trace`` with its first ``n_insts`` code words folded into
    decodable ones (opcode and register bytes mapped into range), as
    every record of a cache file must be; immediates and the stub bytes
    after the body stay as drawn."""
    n_insts = min(trace.n_insts, len(trace.code) // 8)
    code = bytearray(trace.code)
    for word in range(0, n_insts * 8, 8):
        code[word] = _OPCODE_BYTES[code[word] % len(_OPCODE_BYTES)]
        for offset in range(word + 1, word + 4):
            code[offset] %= regs.NUM_REGISTERS
    return dataclasses.replace(trace, n_insts=n_insts, code=bytes(code))


_trace_strategy = st.builds(
    PersistedTrace,
    entry=st.integers(0x1000, 0xFFFF00).map(lambda a: a & ~7),
    image_path=st.sampled_from(["app", "libx.so", "liby.so"]),
    image_offset=st.integers(0, 0xFFFF).map(lambda a: a & ~7),
    n_insts=st.integers(1, 24),
    code=st.binary(min_size=8, max_size=256),
    exits=st.lists(
        st.builds(
            PersistedExit,
            kind=st.integers(0, 5),
            index=st.integers(0, 23),
            target=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
            target_path=st.sampled_from(["", "app", "libx.so"]),
            target_offset=st.integers(0, 0xFFFF),
        ),
        max_size=4,
    ),
    data_size=st.integers(64, 2048),
    liveness=st.lists(st.integers(0, 2**32 - 1), max_size=24),
).map(_decodable)


@settings(max_examples=40, deadline=None)
@given(traces=st.lists(_trace_strategy, max_size=6))
def test_cachefile_roundtrip_property(traces):
    """Any syntactically valid cache serializes and parses byte-exactly."""
    cache = PersistentCache(vm_version="v", tool_identity="t", app_path="app")
    cache.image_keys["app"] = MappingKey("app", 0x1000, 64, "hd", 1)
    seen = set()
    for trace in traces:
        if trace.identity in seen:
            continue
        seen.add(trace.identity)
        cache.traces.append(trace)
    clone = PersistentCache.from_bytes(cache.to_bytes())
    assert len(clone.traces) == len(cache.traces)
    for original, loaded in zip(cache.traces, clone.traces):
        assert loaded.entry == original.entry
        assert loaded.code == original.code
        assert loaded.exits == original.exits
        assert loaded.data_size == original.data_size


@settings(max_examples=40, deadline=None)
@given(
    trace=_trace_strategy,
    word=st.integers(0, 23),
    offset=st.integers(0, 3),
    illegal_opcode=st.sampled_from(
        sorted(set(range(256)) - set(_OPCODE_BYTES))
    ),
    bad_register=st.integers(regs.NUM_REGISTERS, 255),
)
def test_cachefile_rejects_undecodable_code_property(
    trace, word, offset, illegal_opcode, bad_register
):
    """A record whose body has a word ``decode`` rejects is code-pool
    damage, even though every CRC of the file holds."""
    position = word % trace.n_insts * 8 + offset
    code = bytearray(trace.code)
    code[position] = illegal_opcode if offset == 0 else bad_register
    cache = PersistentCache(vm_version="v", tool_identity="t", app_path="app")
    cache.traces.append(dataclasses.replace(trace, code=bytes(code)))
    with pytest.raises(CacheFileError) as excinfo:
        PersistentCache.from_bytes(cache.to_bytes())
    assert excinfo.value.section == "code_pool"


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    length=st.integers(0, 25),
    loops=st.integers(0, 2),
)
def test_persistence_architectural_transparency_property(seed, length, loops, tmp_path_factory):
    """Running from a persistent cache is indistinguishable from cold."""
    from repro.persist.database import CacheDatabase
    from repro.persist.manager import PersistenceConfig, PersistentCacheSession

    image = _build(_random_program(seed, length, loops))
    db = CacheDatabase(str(tmp_path_factory.mktemp("pdb")))

    def run():
        session = PersistentCacheSession(PersistenceConfig(database=db))
        return Engine(persistence=session).run(load_process(image))

    cold = run()
    warm = run()
    assert warm.stats.traces_translated == 0
    assert warm.exit_status == cold.exit_status
    assert warm.instructions == cold.instructions
