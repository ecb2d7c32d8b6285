"""Conversion between in-memory translated traces and persisted records.

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

from typing import Callable, Dict, List, Optional

from repro.isa.encoding import decode_all, decode_uops, encode_all
from repro.isa.instructions import INSTRUCTION_SIZE, Instruction
from repro.isa.opcodes import ABSOLUTE_TARGET
from repro.loader.linker import LoadedProcess
from repro.persist.cachefile import (
    PersistedExit,
    PersistedReloc,
    PersistedTrace,
)
from repro.vm.client import PointKind, Tool
from repro.vm.trace import ExitKind, Trace, TraceExit
from repro.vm.translator import (
    LinkSlot,
    TranslatedTrace,
    index_links,
)


class ConversionError(Exception):
    """Raised when a trace cannot be persisted or revived."""


#: Persisted exit-kind integer -> :class:`ExitKind`.
_EXIT_KINDS = {int(kind): kind for kind in ExitKind}


def _locate(process: LoadedProcess, addr: int):
    """(path, offset) of an absolute address, or (None, 0) if unbacked."""
    mapping = process.image_at(addr)
    if mapping is None:
        return None, 0
    return mapping.image.path, addr - mapping.base


def persist_trace(
    translated: TranslatedTrace, process: LoadedProcess
) -> Optional[PersistedTrace]:
    """Convert a live trace for storage; None if it is not persistable.

    Traces not backed by an image on disk (dynamically generated code)
    cannot be keyed and are never persisted (paper §3.2.1).
    """
    trace = translated.trace
    if not trace.image_path:
        return None
    exits: List[PersistedExit] = []
    for trace_exit in trace.exits:
        target_path, target_offset = "", 0
        if trace_exit.target is not None:
            target_path, target_offset = _locate(process, trace_exit.target)
            if target_path is None:
                # Exit into unbacked memory: the trace itself is fine but
                # this exit cannot be made position independent.
                target_path, target_offset = "", 0
        exits.append(
            PersistedExit(
                kind=int(trace_exit.kind),
                index=trace_exit.index,
                target=trace_exit.target,
                target_path=target_path,
                target_offset=target_offset,
            )
        )
    relocs: List[PersistedReloc] = []
    uops = trace.uops
    for index, uop in enumerate(uops):
        if uop[0] in ABSOLUTE_TARGET:
            target_path, target_offset = _locate(process, uop[4])
            if target_path is None:
                return None  # absolute literal into unbacked memory
            relocs.append(
                PersistedReloc(
                    index=index,
                    target_path=target_path,
                    target_offset=target_offset,
                )
            )
    return PersistedTrace(
        entry=trace.entry,
        image_path=trace.image_path,
        image_offset=trace.entry - trace.image_base,
        n_insts=len(uops),
        code=translated.code_bytes,
        exits=exits,
        relocs=relocs,
        data_size=translated.data_size,
        liveness=list(translated.liveness),
    )


def revive_trace(
    persisted: PersistedTrace,
    tool: Optional[Tool],
    base_of: Callable[[str], Optional[int]],
    rebase: bool = False,
) -> Optional[TranslatedTrace]:
    """Reconstruct a code-cache resident from a persisted record.

    Args:
        persisted: The stored trace.
        tool: Current instrumentation client; its points are re-bound (the
            tool key guarantees identical semantics).
        base_of: Current load base of an image path, or None if unloaded.
        rebase: Apply position-independent re-materialization.  When False
            the persisted absolute addresses are trusted verbatim (callers
            must have validated identical bases).

    Returns:
        The revived trace, or None when required images are not loaded at
        usable addresses (the caller counts an invalidation).
    """
    image_base = base_of(persisted.image_path)
    if image_base is None:
        return None

    code = persisted.code
    body = code[: persisted.n_insts * INSTRUCTION_SIZE]
    if rebase:
        entry = image_base + persisted.image_offset
        instructions = decode_all(body)
        relocated = False
        for reloc in persisted.relocs:
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
            # The code bytes must encode what executes: they key the
            # compiled tier's factory memo and body stores
            # (repro.vm.compile), so stale literals would hand this trace
            # the closure of a same-entry trace that jumps elsewhere.
            code = encode_all(instructions) + code[len(body):]
    else:
        entry = persisted.entry
        if image_base + persisted.image_offset != entry:
            return None  # base moved; verbatim reuse would misexecute
        # The body executes as stored, so its micro-ops come straight
        # from the bytes; Instruction objects are built only if a tool
        # or the translator reads them (Trace.from_body).
        uops = persisted.uops or decode_uops(body)
        # Absolute literals baked into the body must still point where
        # they pointed at creation time: a trace that calls into a since-
        # relocated library embeds a stale literal (the paper's PUSH/JMP
        # example) and must be invalidated, even though its own image
        # validated.
        for reloc in persisted.relocs:
            target_base = base_of(reloc.target_path)
            if (target_base is None
                    or target_base + reloc.target_offset
                    != uops[reloc.index][4]):
                return None

    exits: List[TraceExit] = []
    for stored in persisted.exits:
        target = stored.target
        if rebase and target is not None:
            if stored.target_path:
                target_base = base_of(stored.target_path)
                if target_base is None:
                    return None
                target = target_base + stored.target_offset
            else:
                return None  # static exit into unbacked memory
        exits.append(
            TraceExit(kind=_EXIT_KINDS[stored.kind], index=stored.index,
                      target=target)
        )

    if rebase:
        trace = Trace(entry, instructions, exits, persisted.image_path,
                      image_base)
    else:
        trace = Trace.from_body(entry, body, uops, exits,
                                persisted.image_path, image_base)
    points = list(tool.instrument_trace(trace)) if tool else []
    points_by_index: Dict[int, list] = {}
    for point in points:
        index = 0 if point.kind == PointKind.TRACE_ENTRY else point.index
        points_by_index.setdefault(index, []).append(point)

    # A revived trace never carries a compiled-tier closure: closures
    # capture run-scoped objects (machine, stats, analysis context) and
    # are host-level artifacts, so they are not persisted.  The compiled
    # dispatcher specializes the trace lazily once it reaches its compile
    # entry (repro.vm.compile's tier-up), which charges nothing simulated,
    # so persistence and trace compilation compose with no extra cost.
    translated = TranslatedTrace(
        trace=trace,
        code_bytes=code,
        code_size=len(code),
        data_size=persisted.data_size,
        points=points,
        points_by_index=points_by_index,
        liveness=list(persisted.liveness),
        links=[LinkSlot(exit=e) for e in exits],
        from_persistent=True,
        compiled_body=None,
    )
    index_links(translated)
    return translated
