#!/usr/bin/env python
"""Multi-threaded execution under the VM and the persistent cache.

The paper's system "supports inter-execution, as well as inter-application
persistence of single-threaded, multi-threaded, and multi-process
applications" (§3.2), with the cache written "when the last thread of
execution performs the exit system call" (§3.2.2).

This example builds a program whose main thread spawns worker threads
that cooperate through shared memory and yield-based scheduling, runs it
natively and under the VM (bit-identical results), and shows the
persistent cache written at last-thread exit accelerating the next run.

Run with:  python examples/multithreaded.py
"""

import shutil
import tempfile

from repro.binfmt import ImageBuilder
from repro.isa import assemble
from repro.loader import load_process
from repro.machine import Machine, run_native
from repro.persist import CacheDatabase, PersistenceConfig, PersistentCacheSession
from repro.vm import Engine

PROGRAM = """
main:
    movi s0, 0            ; workers spawned
spawn:
    movi a0, worker
    or   a1, s0, zero     ; worker index as argument
    movi rv, 9            ; SYS_THREAD_CREATE
    syscall
    addi s0, s0, 1
    movi t0, 4
    blt  s0, t0, spawn
    ; let the workers run to completion
    movi s1, 0
drain:
    movi rv, 10           ; SYS_YIELD
    syscall
    addi s1, s1, 1
    movi t0, 8
    blt  s1, t0, drain
    movi t0, total
    ld   a0, 0(t0)
    movi rv, 1            ; exit(total) -- the LAST thread to exit
    syscall

worker:
    ; contribute (index+1)*10 into the shared total.  The yield comes
    ; BEFORE the read-modify-write so updates never interleave — with
    ; cooperative scheduling this is a correct (and deterministic) lock.
    addi t1, a0, 1
    movi t2, 10
    mul  t1, t1, t2
    movi rv, 10           ; yield, then update atomically-by-construction
    syscall
    movi t3, total
    ld   t4, 0(t3)
    add  t4, t4, t1
    st   t4, 0(t3)
    movi rv, 1            ; thread exit
    movi a0, 0
    syscall
"""


def build_image():
    builder = ImageBuilder("mt-example")
    builder.add_unit(assemble(PROGRAM), exports=["main"])
    builder.add_data("total", b"\x00" * 8)
    builder.set_entry("main")
    return builder.build()


def main():
    image = build_image()

    native = run_native(Machine(load_process(image)))
    print("native: exit=%d (sum of worker contributions), %d instructions"
          % (native.exit_status, native.instructions))

    machine = Machine(load_process(image))
    vm = Engine().run(load_process(image), machine=machine)
    print("VM:     exit=%d, %d instructions (identical interleaving)"
          % (vm.exit_status, vm.instructions))
    assert (vm.exit_status, vm.instructions) == (
        native.exit_status, native.instructions
    )

    cache_dir = tempfile.mkdtemp(prefix="pcc-mt-")
    try:
        db = CacheDatabase(cache_dir)

        def persistent_run():
            session = PersistentCacheSession(PersistenceConfig(database=db))
            return Engine(persistence=session).run(load_process(image))

        first = persistent_run()
        second = persistent_run()
        print("persistence: run1 wrote %d traces at last-thread exit; "
              "run2 translated %d (reused %d)"
              % (first.host.total_traces_after_write,
                 second.stats.traces_translated,
                 second.stats.traces_from_persistent))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


if __name__ == "__main__":
    main()
