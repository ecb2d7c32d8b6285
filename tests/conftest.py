"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.binfmt.image import Image, ImageBuilder, ImageKind
from repro.isa.assembler import assemble
from repro.isa.encoding import encode_all
from repro.loader.linker import ImageStore, load_process
from repro.machine.cpu import Machine
from repro.persist.database import CacheDatabase
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
