"""The closure source the compiled tier emits is pinned per ``VM_VERSION``.

Persisted bodies are named by a digest of their trace key, not of their
source (:func:`repro.vm.compile._body_digest`), and the sidecar and the
shared store drop bodies only when ``VM_VERSION`` changes.  A codegen
change that kept the version would let a warm run revive bodies built
from the old source.  This test hashes every source
:class:`~repro.vm.compile.TraceCompiler` emits for a small fixed corpus
and compares the digest with the one recorded for the current version,
so such a change fails here until the version is bumped and its digest
recorded.
"""

import hashlib

from repro.loader.linker import load_process
from repro.machine.cpu import SEMANTICS
from repro.tools import MemTraceTool
from repro.vm import compile as vm_compile
from repro.vm.engine import VM_VERSION, Engine, VMConfig

from tests.conftest import image_from_asm

#: sha256 of the corpus's closure sources, one entry per VM version.
CLOSURE_SOURCE_SHA256 = {
    "repro-dbi-1.9.0":
        "e93957eebf7929b6dba5e4c5ecc8fa312b4d22c9510e161199783081e9606f44",
    "repro-dbi-1.10.0":
        "ab43d29b073ba3415f078eb8b8d7da7bf188d6d9efa824863224b67767250aaa",
    "repro-dbi-1.11.0":
        "9aff5b6cf4beee6d881e5fa376327d90fe19003a1e568da59e5afc8cca0747c1",
}

#: Every opcode, so every kind of :data:`repro.machine.cpu.SEMANTICS`;
#: ``ret`` and ``jr`` exits through the indirect inline cache; the hot
#: ``loop`` -> ``second`` -> ``helper`` -> ``third`` cycle, whose first
#: two traces hold loads and stores, runs past the loop threshold and
#: fuses into a loop region: ``helper``'s ``ret`` is an indirect
#: junction, and ``third``'s ``bge`` the back edge.
CORPUS = """
main:
    movi t0, 100
    movi t1, 3
loop:
    st   t1, 0(sp)
    ld   t2, 0(sp)
    add  t3, t2, t0
    sub  t3, t3, t1
    mul  t3, t3, t0
    and  t4, t3, t0
    or   t4, t4, t1
    xor  t4, t4, t3
    jmp  second
second:
    shl  t5, t4, t1
    shr  t5, t5, t1
    slt  t6, t1, t0
    andi t6, t6, 255
    ori  t6, t6, 16
    xori t6, t6, 3
    shli t7, t6, 2
    shri t7, t7, 1
    st   t7, 8(sp)
    ld   t7, 8(sp)
    call helper
    jmp  third
third:
    lui  t8, 2
    movi t9, 7
    div  t8, t8, t9
    nop
    addi t0, t0, -1
    blt  t0, zero, done
    beq  t0, zero, out
    bge  t0, t1, loop
    bne  t0, zero, loop
out:
    call helper
    movi t2, helper
    callr t2
    movi t3, done
    jr   t3
done:
    movi rv, 11
    syscall
    halt
helper:
    addi a0, a0, 1
    ret
"""


def emitted_sources(monkeypatch, tool=None):
    """Every closure source one compile-at-first-entry run of the corpus
    emits, with the compiled traces' uops."""
    sources, uops = [], []

    def recording(original, members_of):
        def generate(self, translated, *args):
            source = original(self, translated, *args)
            sources.append(source)
            for member in members_of(translated):
                uops.extend(member.trace.uops)
            return source
        return generate

    compiler = vm_compile.TraceCompiler
    monkeypatch.setattr(compiler, "_generate", recording(
        compiler._generate, lambda translated: [translated]))
    monkeypatch.setattr(compiler, "_generate_region", recording(
        compiler._generate_region, lambda members: members))
    engine = Engine(tool=tool, config=VMConfig(compile_threshold=1))
    result = engine.run(load_process(image_from_asm(CORPUS)))
    monkeypatch.undo()
    assert result.exit_status == 0
    return sources, uops


def test_closure_source_is_pinned_per_vm_version(monkeypatch):
    plain, plain_uops = emitted_sources(monkeypatch)
    tooled, tooled_uops = emitted_sources(monkeypatch, MemTraceTool())
    # What the corpus must cover for the digest to pin every code path.
    kinds = {SEMANTICS[uop[0]].kind for uop in plain_uops + tooled_uops}
    assert kinds == {row.kind for row in SEMANTICS.values()}
    assert any("ic_resolve(ic0, target)" in source for source in plain)
    assert any("while True:" in source and "if e is not m" in source
               for source in plain)
    assert any("cb0(acx)" in source for source in tooled)
    assert any("pack_into(wd, o, r[" in source
               and "unpack_from(wd, o)" in source for source in plain)
    digest = hashlib.sha256("\0".join(plain + tooled).encode()).hexdigest()
    assert CLOSURE_SOURCE_SHA256.get(VM_VERSION) == digest, (
        "the emitted closure source changed: bump VM_VERSION and record "
        "its digest %s" % digest
    )
