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
from repro.isa.encoding import decode_uops
from repro.persist.cachefile import (
    CacheFileError,
    PersistedReloc,
    PersistentCache,
    TraceRow,
)
from repro.persist.keys import MappingKey
from repro.vm.engine import Engine
from repro.vm.trace import ExitKind, TraceExit
from repro.vm.translator import compute_liveness, modeled_data_size

from tests.conftest import trace_of


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
    trace = trace_of(0, code[:24])
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


def _decodable(code: bytes, n_insts: int) -> bytes:
    """``code`` with its first ``n_insts`` words folded into decodable
    ones (opcode and register bytes mapped into range), as every row of
    a cache file must be; immediates and the stub bytes after the body
    stay as drawn."""
    code = bytearray(code)
    for word in range(0, n_insts * 8, 8):
        code[word] = _OPCODE_BYTES[code[word] % len(_OPCODE_BYTES)]
        for offset in range(word + 1, word + 4):
            code[offset] %= regs.NUM_REGISTERS
    return bytes(code)


_IMAGE_PATHS = ["app", "libx.so", "liby.so"]

#: An exit and its target's image path and offset.
_exit_strategy = st.tuples(
    st.builds(
        TraceExit,
        kind=st.sampled_from(ExitKind),
        index=st.integers(0, 23),
        target=st.one_of(st.none(), st.integers(0, 2**31 - 1)),
    ),
    st.sampled_from([""] + _IMAGE_PATHS),
    st.integers(0, 0xFFFF),
)


def _relocs(n_insts: int):
    """Relocations of sites inside an ``n_insts``-instruction body."""
    return st.lists(st.builds(
        PersistedReloc,
        index=st.integers(0, n_insts - 1),
        target_path=st.sampled_from([""] + _IMAGE_PATHS),
        target_offset=st.integers(0, 0xFFFF),
    ), max_size=4)


@st.composite
def _traces(draw) -> TraceRow:
    """A decodable row whose data size covers its modeled records (PCC3
    reads entry, offsets, liveness and exits back from them), plus up to
    512 bytes of slack; liveness is absent or one mask per instruction,
    as the translator writes it."""
    code = draw(st.binary(min_size=8, max_size=256))
    n_insts = min(draw(st.integers(1, 24)), len(code) // 8)
    code = _decodable(code, n_insts)
    exits = draw(st.lists(_exit_strategy, max_size=4))
    liveness = draw(st.one_of(
        st.just([]),
        st.lists(st.integers(0, 2**32 - 1), min_size=n_insts,
                 max_size=n_insts),
    ))
    body = code[: n_insts * 8]
    return TraceRow(
        image_path=draw(st.sampled_from(_IMAGE_PATHS)),
        entry=draw(st.integers(0x1000, 0xFFFF00)) & ~7,
        image_offset=draw(st.integers(0, 0xFFFF)) & ~7,
        code=code,
        body=body,
        uops=decode_uops(body),
        exits=[trace_exit for trace_exit, _path, _offset in exits],
        exit_places=[(at, offset)
                     for at, (_exit, _path, offset) in enumerate(exits)],
        relocs=draw(_relocs(n_insts)),
        data_size=(modeled_data_size(n_insts, len(exits))
                   + draw(st.integers(0, 512))),
        liveness=liveness,
        paths=[path for _exit, path, _offset in exits],
    )


def _resolved(row: TraceRow) -> TraceRow:
    """``row`` with each exit place as its target's (image path,
    offset): a parsed row indexes the file's path table, a row built in
    memory its own list."""
    return row._replace(
        exit_places=[(row.paths[path], offset)
                     for path, offset in row.exit_places],
        paths=None,
    )


_trace_strategy = _traces()


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
    blob = cache.to_bytes()
    clone = PersistentCache.from_bytes(blob)
    # Every field: entry, paths and offsets, code, exits (targets of
    # None, empty target paths), relocations, data size and liveness.
    assert ([_resolved(row) for row in clone.traces]
            == [_resolved(row) for row in cache.traces])
    assert clone.image_keys == cache.image_keys
    assert clone.to_bytes() == blob


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
    position = word % len(trace.uops) * 8 + offset
    code = bytearray(trace.code)
    code[position] = illegal_opcode if offset == 0 else bad_register
    cache = PersistentCache(vm_version="v", tool_identity="t", app_path="app")
    cache.traces.append(trace._replace(code=bytes(code)))
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
