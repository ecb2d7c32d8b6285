#!/usr/bin/env python
"""Quickstart: run a program under the DBI engine, then persist its cache.

Builds a small program for the synthetic machine, runs it three ways —
natively, under the VM with an empty code cache, and under the VM reusing
a persistent code cache — and prints the time (simulated cycles) each run
took, plus where it went.

Run with:  python examples/quickstart.py
"""

import shutil
import tempfile

from repro.binfmt import ImageBuilder, ImageKind
from repro.isa import assemble
from repro.loader import load_process
from repro.machine import Machine, run_native
from repro.persist import CacheDatabase, PersistenceConfig, PersistentCacheSession
from repro.vm import Engine

#: Cold startup functions: each runs once, like real program
#: initialization — the code whose translation cost persistence recoups.
COLD_FUNCTIONS = 40

MAIN_TEMPLATE = """
main:
%(init_calls)s
    movi t0, 400           ; steady-state loop trip count
loop:
    st   t0, 0(sp)         ; a little memory traffic
    ld   t1, 0(sp)
    addi t0, t0, -1
    call work
    bne  t0, zero, loop
    movi rv, 1             ; SYS_EXIT
    movi a0, 0
    syscall
work:
    addi t2, t2, 3
    xor  t3, t2, t1
    ret
"""

COLD_TEMPLATE = """
init_%(index)d:
    movi t4, %(index)d
    addi t5, t4, 17
    xor  t6, t5, t4
    shli t7, t6, 2
    st   t7, -8(sp)
    ld   t4, -8(sp)
    sub  t5, t4, t6
    slt  t6, t5, t7
    ret
"""


def build_image():
    init_calls = "\n".join(
        "    call init_%d" % index for index in range(COLD_FUNCTIONS)
    )
    source = MAIN_TEMPLATE % {"init_calls": init_calls}
    source += "".join(
        COLD_TEMPLATE % {"index": index} for index in range(COLD_FUNCTIONS)
    )
    builder = ImageBuilder("quickstart-app", ImageKind.EXECUTABLE)
    builder.add_unit(assemble(source), exports=["main"])
    builder.set_entry("main")
    return builder.build()


def main():
    image = build_image()

    # 1. Native execution: the baseline hardware run.
    native = run_native(Machine(load_process(image)))
    print("native:        %10.0f cycles  (%d instructions, exit=%d)"
          % (native.cycles, native.instructions, native.exit_status))

    # 2. Under the VM, empty code cache: every trace must be translated.
    cold = Engine().run(load_process(image))
    print("VM (cold):     %10.0f cycles  (%.1fx slower; %d traces translated)"
          % (cold.stats.total_cycles,
             cold.stats.total_cycles / native.cycles,
             cold.stats.traces_translated))

    # 3. With persistence: the first run writes a cache, the second
    # reuses it and translates nothing.
    cache_dir = tempfile.mkdtemp(prefix="pcc-quickstart-")
    try:
        db = CacheDatabase(cache_dir)

        def persistent_run():
            session = PersistentCacheSession(PersistenceConfig(database=db))
            return Engine(persistence=session).run(load_process(image))

        first = persistent_run()
        second = persistent_run()
        print("VM (persist1): %10.0f cycles  (cache written: %d traces)"
              % (first.stats.total_cycles,
                 first.host.total_traces_after_write))
        print("VM (persist2): %10.0f cycles  (%d translated, %d from cache)"
              % (second.stats.total_cycles,
                 second.stats.traces_translated,
                 second.stats.traces_from_persistent))
        saved = 1 - second.stats.total_cycles / cold.stats.total_cycles
        print("persistence eliminated %.0f%% of the VM run time" % (100 * saved))

        assert second.stats.traces_translated == 0
        assert second.exit_status == native.exit_status
        assert second.instructions == native.instructions
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
