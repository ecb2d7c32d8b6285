"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
import hashlib

import pytest

from repro.binfmt.image import Image, ImageBuilder, ImageKind
from repro.isa.assembler import assemble
from repro.isa.encoding import encode_all
from repro.loader.linker import ImageStore, load_process
from repro.machine.cpu import Machine
from repro.persist.database import CacheDatabase
from repro.vm.engine import Engine
from repro.vm.trace import Trace


def image_from_asm(
    source: str,
    path: str = "app",
    kind: ImageKind = ImageKind.EXECUTABLE,
    needed=(),
    entry: str = "main",
    exports=None,
    mtime: int = 1,
) -> Image:
    """Assemble source text into a complete image."""
    unit = assemble(source)
    builder = ImageBuilder(path, kind, needed=needed, mtime=mtime)
    builder.add_unit(unit, exports=exports)
    if kind == ImageKind.EXECUTABLE:
        builder.set_entry(entry)
    return builder.build()


#: A minimal program: a short loop, a call, then exit(7).
TINY_PROGRAM = """
main:
    movi t0, 10
loop:
    addi t0, t0, -1
    bne  t0, zero, loop
    call helper
    movi rv, 1
    movi a0, 7
    syscall
helper:
    addi t1, t1, 3
    ret
"""


@pytest.fixture
def tiny_image() -> Image:
    return image_from_asm(TINY_PROGRAM)


@pytest.fixture
def tiny_machine(tiny_image) -> Machine:
    return Machine(load_process(tiny_image))


@pytest.fixture
def cache_db(tmp_path) -> CacheDatabase:
    return CacheDatabase(str(tmp_path / "pcc-db"))


def trace_of(entry: int, instructions, exits=None) -> Trace:
    """A trace of ``instructions`` at ``entry``, as if selected there."""
    return Trace(entry, encode_all(instructions),
                 [inst.as_tuple() for inst in instructions],
                 [] if exits is None else exits)


def make_machine(source: str, store: ImageStore = None, **kwargs) -> Machine:
    """Assemble, link and wrap a program for execution."""
    image = image_from_asm(source, **kwargs)
    return Machine(load_process(image, store))


def final_state(machine: Machine) -> dict:
    """Digests of what a run leaves in ``machine``: ``registers`` over
    every thread's register file, ``memory`` over the bytes of every
    mapping."""
    registers = [(thread.tid, thread.alive, thread.registers)
                 for thread in machine.threads]
    memory = hashlib.sha256()
    for mapping in machine.process.space.mappings:
        memory.update(b"%s@%d:%d;" % (mapping.name.encode(), mapping.base,
                                      mapping.size))
        memory.update(mapping.data)
    return {
        "registers": hashlib.sha256(repr(registers).encode()).hexdigest(),
        "memory": memory.hexdigest(),
    }


@contextlib.contextmanager
def recording_final_state():
    """Within the block, every :meth:`Engine.run` result carries its
    machine's :func:`final_state` as ``result.final_state``.  The digest
    is taken outside ``src/``, so no run pays for it unless a test
    asks."""
    original = Engine.run

    def run(engine, process, args=(), machine=None):
        machine = machine or Machine(process)
        result = original(engine, process, args, machine)
        result.final_state = final_state(machine)
        return result

    Engine.run = run
    try:
        yield
    finally:
        Engine.run = original


@pytest.fixture
def final_states():
    """:func:`recording_final_state` for one test."""
    with recording_final_state():
        yield


def signature(result) -> dict:
    """Everything observable from one engine run, for exact comparison
    across tiers: output, exit status, every counter, the code cache's
    occupancy and the run's :func:`final_state` (which needs the
    :func:`final_states` fixture)."""
    return {
        "output": result.output,
        "exit_status": result.exit_status,
        "instructions": result.instructions,
        "stats": vars(result.stats),
        "accounting": vars(result.tool_accounting),
        "cache_traces": result.cache_traces,
        "cache_code_bytes": result.cache_code_bytes,
        "cache_data_bytes": result.cache_data_bytes,
        "final_state": result.final_state,
    }
