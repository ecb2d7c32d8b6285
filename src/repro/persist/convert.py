"""Conversion between in-memory translated traces and stored trace rows.

Persisting walks the live trace and records, besides its code bytes and
metadata sizes, where every *absolute address* inside it points in terms of
(image path, image-relative offset):

* the trace entry itself,
* static exit targets (branch-taken, fall-through, direct jumps/calls,
  syscall resume points),
* absolute immediates inside the body (``jmp``/``call`` literals — the
  ``PUSH literal / JMP literal`` problem of paper §3.2.3).

Reviving does the reverse.  In the default (non-relocatable) mode the
persisted absolute addresses are used as-is and the manager only revives
traces whose images validate at *identical* bases.  In the
position-independent mode (the paper's proposed extension) the revive step
re-materializes every absolute address from the (path, offset) pairs
against the current run's bases, so translations survive relocation.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.isa.encoding import decode_all, encode_all
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import ABSOLUTE_TARGET
from repro.loader.linker import LoadedProcess
from repro.persist.cachefile import PersistedReloc, TraceRow
from repro.vm.client import Tool
from repro.vm.trace import Trace, TraceExit
from repro.vm.translator import (
    STUB_INSTS_PER_EXIT,
    TranslatedTrace,
    build_resident,
    translated_code,
)


def locator(process: LoadedProcess) -> Callable[[int], Tuple[str, int]]:
    """``locate(addr)``: (path, offset) of an absolute address, or ("", 0)
    if unbacked.

    The mapping the last address fell in is tried first, by
    subtraction.  A write-back's targets mostly lie in one image, so few
    are looked up: a cold gvim exit locates 835 targets with 45
    lookups.  The process's mappings must not change while ``locate``
    is in use.
    """
    path, base, end = "", 0, 0

    def locate(addr: int) -> Tuple[str, int]:
        nonlocal path, base, end
        if base <= addr < end:
            return path, addr - base
        mapping = process.image_at(addr)
        if mapping is None:
            return "", 0
        path, base = mapping.image.path, mapping.base
        end = base + mapping.size
        return path, addr - base

    return locate


def persist_trace(
    translated: TranslatedTrace,
    process: LoadedProcess,
    locate: Optional[Callable[[int], Tuple[str, int]]] = None,
) -> Optional[TraceRow]:
    """The stored row of a live trace; None if it is not persistable.

    Traces not backed by an image on disk (dynamically generated code)
    cannot be keyed and are never persisted (paper §3.2.1).  The row
    shares the resident's body, micro-ops, exits and liveness, which
    nothing writes after trace selection; its ``paths`` hold one target
    path per exit.  A write-back passes one :func:`locator` of
    ``process`` for all its traces.
    """
    trace = translated.trace
    if not trace.image_path:
        return None
    if locate is None:
        locate = locator(process)
    uops = trace.uops
    relocs: List[PersistedReloc] = []
    for index, uop in enumerate(uops):
        if uop[0] in ABSOLUTE_TARGET:
            target_path, target_offset = locate(uop[4])
            if not target_path:
                return None  # absolute literal into unbacked memory
            relocs.append(PersistedReloc(index, target_path, target_offset))
    # An exit into unbacked memory keeps the trace persistable; only
    # that exit cannot be made position independent.
    paths: List[str] = []
    places: List[Tuple[int, int]] = []
    for at, trace_exit in enumerate(trace.exits):
        target_path, target_offset = "", 0
        if trace_exit.target is not None:
            target_path, target_offset = locate(trace_exit.target)
        paths.append(target_path)
        places.append((at, target_offset))
    return TraceRow(
        trace.image_path, trace.entry, trace.entry - trace.image_base,
        translated.code_bytes, trace.body, uops, trace.exits, places, relocs,
        translated.data_size, translated.liveness, paths,
    )


def revive_trace(
    row: TraceRow,
    tool: Optional[Tool],
    base_of: Callable[[str], Optional[int]],
    rebase: bool = False,
) -> Optional[TranslatedTrace]:
    """Reconstruct a code-cache resident from a stored trace.

    Args:
        row: The stored trace: a parsed file's row, or one
            :func:`persist_trace` built.
        tool: Current instrumentation client; its points are re-bound (the
            tool key guarantees identical semantics).
        base_of: Current load base of an image path, or None if unloaded.
        rebase: Apply position-independent re-materialization.  When False
            the stored absolute addresses are trusted verbatim (callers
            must have validated identical bases), and the resident keeps
            the row's micro-ops and exits as they were read.

    Returns:
        The revived trace, or None when required images are not loaded at
        usable addresses (the caller counts an invalidation).
    """
    image_base = base_of(row.image_path)
    if image_base is None:
        return None
    body, uops, exits = row.body, row.uops, row.exits
    if rebase:
        entry = image_base + row.image_offset
        instructions = decode_all(body)
        relocated = False
        for reloc in row.relocs:
            target_base = base_of(reloc.target_path)
            if target_base is None:
                return None
            inst = instructions[reloc.index]
            imm = target_base + reloc.target_offset
            relocated = relocated or imm != inst.imm
            instructions[reloc.index] = Instruction(
                inst.opcode, rd=inst.rd, rs1=inst.rs1, rs2=inst.rs2, imm=imm,
            )
        if relocated:
            body = encode_all(instructions)
        uops = [inst.as_tuple() for inst in instructions]
        exits = []
        for trace_exit, (path, offset) in zip(row.exits, row.exit_places):
            target = trace_exit.target
            if target is not None:
                target_path = row.paths[path]
                if not target_path:
                    return None  # static exit into unbacked memory
                target_base = base_of(target_path)
                if target_base is None:
                    return None
                target = target_base + offset
            exits.append(TraceExit(trace_exit.kind, trace_exit.index, target))
    else:
        entry = row.entry
        if image_base + row.image_offset != entry:
            return None  # base moved; verbatim reuse would misexecute
        # Absolute literals baked into the body must still point where
        # they pointed at creation time: a trace that calls into a since-
        # relocated library embeds a stale literal (the paper's PUSH/JMP
        # example) and must be invalidated, even though its own image
        # validated.
        for index, target_path, target_offset in row.relocs:
            target_base = base_of(target_path)
            if (target_base is None
                    or target_base + target_offset != uops[index][4]):
                return None

    trace = Trace(entry, body, uops, exits, row.image_path, image_base)
    code = row.code
    if rebase:
        # The code bytes must encode what executes, exit stubs included:
        # they key the compiled tier's factory memo and body stores
        # (repro.vm.compile), so a stale literal would hand this trace
        # the closure of a same-entry trace that jumps elsewhere, and a
        # stale stub would miss the body a fresh translation stored.
        stubs_end = (len(body)
                     + len(exits) * STUB_INSTS_PER_EXIT * INSTRUCTION_SIZE)
        code = translated_code(trace, 0) + code[stubs_end:]
    # A revived trace never carries a compiled-tier closure: closures
    # capture run-scoped objects (machine, stats, analysis context) and
    # are host-level artifacts, so they are not persisted.  The compiled
    # dispatcher binds or specializes the trace lazily, on its bind or
    # threshold entry (repro.vm.compile's tier-up), which charges nothing
    # simulated, so persistence and trace compilation compose with no
    # extra cost.
    points = list(tool.instrument_trace(trace)) if tool else []
    return build_resident(trace, code, row.data_size, points, row.liveness,
                          True)
