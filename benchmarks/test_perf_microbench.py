"""Simulator micro-benchmarks (wall-clock, not simulated cycles).

Unlike the experiment regenerators, these measure the *reproduction
itself*: interpreter and dispatcher throughput, translation rate, and
cache-file (de)serialization — the numbers that determine how large a
workload the simulator can carry.  pytest-benchmark runs these with its
normal multi-round statistics.
"""

import pytest

from repro.binfmt.image import ImageBuilder
from repro.isa.assembler import assemble
from repro.loader.linker import load_process
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.machine.cpu import Machine, run_native
from repro.persist.cachefile import PersistentCache
from repro.vm.engine import Engine
from repro.vm.trace import TraceSelector
from repro.vm.translator import Translator

HOT_LOOP = """
main:
    movi t0, 20000
loop:
    addi t1, t1, 3
    xor  t2, t1, t0
    st   t2, -8(sp)
    ld   t3, -8(sp)
    addi t0, t0, -1
    bne  t0, zero, loop
    movi rv, 1
    movi a0, 0
    syscall
"""


def _image():
    builder = ImageBuilder("perf")
    builder.add_unit(assemble(HOT_LOOP), exports=["main"])
    builder.set_entry("main")
    return builder.build()


@pytest.fixture(scope="module")
def image():
    return _image()


def test_perf_native_interpreter(benchmark, image):
    def run():
        return run_native(Machine(load_process(image)))

    result = benchmark(run)
    assert result.exit_status == 0
    benchmark.extra_info["instructions"] = result.instructions


def test_perf_vm_dispatcher(benchmark, image):
    def run():
        return Engine().run(load_process(image))

    result = benchmark(run)
    assert result.exit_status == 0
    benchmark.extra_info["instructions"] = result.instructions


def test_perf_translation(benchmark, image):
    """Trace selection + translation rate over the image's code."""
    process = load_process(image)
    selector = TraceSelector(process.space.mapping_at)
    translator = Translator(DEFAULT_COST_MODEL)
    entry = process.entry_address
    text_end = entry + image.section(".text").size

    def translate_all():
        count = 0
        pc = entry
        while pc < text_end:
            trace = selector.select(pc, image_path="perf", image_base=entry)
            translator.translate(trace)
            pc += trace.size
            count += 1
        return count

    traces = benchmark(translate_all)
    assert traces >= 1


def test_perf_cachefile_roundtrip(benchmark, image, tmp_path):
    """Serialize + parse a populated cache file."""
    from repro.persist.database import CacheDatabase
    from repro.persist.manager import PersistenceConfig, PersistentCacheSession

    db = CacheDatabase(str(tmp_path / "db"))
    session = PersistentCacheSession(PersistenceConfig(database=db))
    Engine(persistence=session).run(load_process(image))
    entry = db.entries()[0]
    import os

    blob = open(os.path.join(db.directory, entry.filename), "rb").read()

    def roundtrip():
        cache = PersistentCache.from_bytes(blob)
        return len(cache.to_bytes())

    size = benchmark(roundtrip)
    assert size == len(blob)
