"""The compilation unit: turns selected traces into code-cache residents.

Translation does *not* transform application instructions (Pin "does not
attempt original program optimization"); it:

* copies the trace's code bytes into the code cache,
* materializes an *exit stub* per trace exit (the translated branch that
  either links directly to another trace or trampolines into the VM),
* injects the tool's instrumentation points as analysis-call stubs,
* computes per-instruction register liveness (Pin uses liveness to place
  instrumentation without spilling; here the liveness vectors are also the
  dominant "data structures" payload of Figure 9),
* sizes the per-trace metadata that the persistent cache must store.

The code expansion factors are explicit constants so the static
pre-translation ablation (paper §5: ~10x expansion offline vs. executed-only
persistent caching) measures real bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.isa.encoding import encode_all, pack_word
from repro.isa.instructions import Instruction
from repro.isa import instructions as ins
from repro.isa import registers as regs
from repro.isa.opcodes import Opcode
from repro.machine.costs import CostModel
from repro.machine.cpu import CODE_PAGE_SHIFT
from repro.vm.client import InstrumentationPoint, PointKind, Tool
from repro.vm.trace import ExitKind, Trace, TraceExit

#: Encoded instructions emitted per exit stub (compare/branch + trampoline).
STUB_INSTS_PER_EXIT = 2
#: Encoded instructions emitted per instrumentation point (spill, call,
#: restore — the bridge into analysis code).
STUB_INSTS_PER_POINT = 3

# -- per-trace metadata footprint (bytes), the Figure 9 "data structures" --
#: C++ trace object: vtable, entry, image back-pointer, flags, chain hooks.
TRACE_OBJECT_BYTES = 112
#: Register-bindings record for the trace (paper: "register bindings").
REGISTER_BINDINGS_BYTES = 64
#: Liveness vector per instruction.
LIVENESS_BYTES_PER_INST = 8
#: Translation-map/address-table entry per instruction.
ADDR_TABLE_BYTES_PER_INST = 8
#: Incoming/outgoing link record per exit.
LINK_RECORD_BYTES = 56


def modeled_data_size(n_insts: int, n_exits: int) -> int:
    """Bytes of a trace's data structures: the data a translated trace
    occupies, and the records a cache file's data pool holds for it
    (repro.persist.cachefile)."""
    return (
        TRACE_OBJECT_BYTES
        + REGISTER_BINDINGS_BYTES
        + n_insts * (LIVENESS_BYTES_PER_INST + ADDR_TABLE_BYTES_PER_INST)
        + n_exits * LINK_RECORD_BYTES
    )


#: Exit kinds that leave for the VM even with a static target.
UNLINKABLE_KINDS = (ExitKind.SYSCALL, ExitKind.HALT)


@dataclass(slots=True)
class LinkSlot:
    """The mutable link state of one trace exit.

    ``linked_resident`` is the resident trace this exit has been patched
    to jump to directly, or None while the exit still trampolines into
    the VM; following a patched link is a single attribute load on the
    dispatch hot path — no translation-map lookup.  The code cache sets
    it (:meth:`~repro.vm.codecache.CodeCache.insert`), the engine's lazy
    linking sets it, and :meth:`unlink` clears it.  Invariant: when the
    owning trace is resident, ``linked_resident`` is either None or a
    trace that is itself still resident, at the exit's target (eviction
    unlinks every incoming link and the evicted trace's own).
    """

    exit: TraceExit
    linked_resident: Optional["TranslatedTrace"] = field(
        default=None, repr=False, compare=False
    )
    #: Chain-hotness profile: chained exits taken through this slot,
    #: patched or predicted by its inline cache (repro.vm.engine).
    #: Host-side only — feeds the superblock-fusion thresholds, never
    #: simulated accounting.  Reset on unlink (a re-formed link must
    #: re-prove stability); abandoned fusion attempts keep the count, so
    #: the next threshold multiple retries for free.
    hop_count: int = field(default=0, compare=False)
    #: An indirect exit's inline cache, ``[generation, {target:
    #: resident}]`` (repro.vm.compile): made when a compiled body first
    #: captures the slot, then shared by every body that holds it, and
    #: read by the engine's fusion walk as the exit's prediction.
    ic: Optional[list] = field(default=None, repr=False, compare=False)

    def unlink(self) -> None:
        """Drop the patch and the predictions: the exit trampolines into
        the VM again."""
        self.linked_resident = None
        self.hop_count = 0
        self.ic = None

    @property
    def is_linked(self) -> bool:
        return self.linked_resident is not None

    @property
    def is_linkable(self) -> bool:
        """Static-target exits can be patched; indirect ones never are."""
        return (self.exit.target is not None
                and self.exit.kind not in UNLINKABLE_KINDS)


@dataclass(slots=True)
class TranslatedTrace:
    """A trace resident in the code cache."""

    trace: Trace
    cache_offset: int = 0  # offset within the code pool
    code_bytes: bytes = b""
    code_size: int = 0
    data_size: int = 0
    points: List[InstrumentationPoint] = field(default_factory=list)
    #: Points grouped by instruction index for the dispatcher's hot loop.
    points_by_index: Dict[int, List[InstrumentationPoint]] = field(
        default_factory=dict
    )
    liveness: List[int] = field(default_factory=list)
    links: List[LinkSlot] = field(default_factory=list)
    #: True when the trace came from a persistent cache, not translation.
    from_persistent: bool = False
    #: False until the trace's code and data structures are in memory.
    #: A fresh translation is; a persisted trace is demand-paged, and its
    #: first execution pays the load (see :func:`build_resident`).
    demand_loaded: bool = True
    executions: int = 0
    #: BRANCH_TAKEN link slots keyed by instruction index (dispatcher use).
    branch_slots: Dict[int, LinkSlot] = field(default_factory=dict)
    #: The terminator/fall-through link slot (always the last exit).
    final_slot: Optional[LinkSlot] = None
    #: The compiled-dispatch tier's specialized closure for this trace
    #: (repro.vm.compile), or None while not (or no longer) compiled.
    #: Holds the _UNCOMPILABLE sentinel when specialization failed and
    #: the interpreted tier must execute this trace.  Invalidated with
    #: the trace on eviction/flush; never persisted.
    compiled_body: Optional[object] = field(
        default=None, repr=False, compare=False
    )

    def invalidate_compiled(self) -> None:
        """Drop the compiled-tier closure (trace eviction/invalidation)."""
        self.compiled_body = None

    def touches_pages(self, pages) -> bool:
        """True when a code page this trace's code covers is in
        ``pages`` (e.g. ``Machine.modified_code_pages``)."""
        trace = self.trace
        return any(
            page in pages
            for page in range(
                trace.entry >> CODE_PAGE_SHIFT,
                ((trace.end - 1) >> CODE_PAGE_SHIFT) + 1,
            )
        )

    @property
    def entry(self) -> int:
        return self.trace.entry


_BRANCH_TAKEN = ExitKind.BRANCH_TAKEN


def build_resident(
    trace: Trace,
    code_bytes: bytes,
    data_size: int,
    points: List[InstrumentationPoint],
    liveness: List[int],
    from_persistent: bool,
) -> TranslatedTrace:
    """The code-cache resident of ``trace``: one link slot per exit, and
    the dispatcher's ``branch_slots`` and ``final_slot``, built in one
    loop.  A fresh translation is in memory at once; a persisted one is
    demand-paged, so its first execution pays the load."""
    points_by_index: Dict[int, List[InstrumentationPoint]] = {}
    for point in points:
        index = 0 if point.kind == PointKind.TRACE_ENTRY else point.index
        points_by_index.setdefault(index, []).append(point)
    links = []
    branch_slots = {}
    slot = None
    for trace_exit in trace.exits:
        slot = LinkSlot(trace_exit)
        links.append(slot)
        if trace_exit.kind == _BRANCH_TAKEN:
            branch_slots[trace_exit.index] = slot
    return TranslatedTrace(
        trace, 0, code_bytes, len(code_bytes), data_size, points,
        points_by_index, liveness, links, from_persistent,
        not from_persistent, 0, branch_slots, slot, None,
    )


@dataclass
class TranslationResult:
    """A translated trace plus what it cost to produce."""

    translated: TranslatedTrace
    compile_cycles: float


#: (opcode, rd, rs1, rs2) -> (written_mask, read_mask).  The register
#: sets never depend on the immediate, so the key space is tiny and the
#: memo turns the dominant per-instruction liveness cost (two frozenset
#: constructions) into one dict probe.
_REG_MASKS: Dict[tuple, tuple] = {}
_REG_MASKS_CAP = 1 << 15


def _register_masks(inst: Instruction) -> tuple:
    key = (inst.opcode, inst.rd, inst.rs1, inst.rs2)
    masks = _REG_MASKS.get(key)
    if masks is None:
        written = 0
        for reg in inst.registers_written():
            written |= 1 << reg
        read = 0
        for reg in inst.registers_read():
            read |= 1 << reg
        if len(_REG_MASKS) >= _REG_MASKS_CAP:
            _REG_MASKS.clear()
        masks = _REG_MASKS[key] = (written, read)
    return masks


def compute_liveness(trace: Trace) -> List[int]:
    """Backward liveness over the trace; one register bitmask per inst.

    Live-out of the trace is conservatively all registers (control can
    leave to anywhere).  Within the trace:
    ``live_in = (live_out - written) | read``; additionally every
    side-exit keeps everything alive at its instruction, matching the
    conservative treatment a real translator applies at stub boundaries.
    """
    all_live = (1 << regs.NUM_REGISTERS) - 1
    exit_indices = {e.index for e in trace.exits}
    live = all_live
    result = [0] * len(trace.instructions)
    for index in range(len(trace.instructions) - 1, -1, -1):
        inst = trace.instructions[index]
        if index in exit_indices:
            live = all_live
        written, read = _register_masks(inst)
        live = (live & ~written) | read
        result[index] = live
    return result


# Stub building blocks (immutable, shared across all traces).
_NOP = ins.nop()
_JMP_DISPATCH = ins.jmp(0)

#: Pre-encoded stub fragments.  Stub shape is fixed per exit (movi of the
#: masked target + the dispatcher jump) and per point (NOP triple), so
#: stub emission packs one word per exit and concatenates fixed bytes:
#: no Instruction objects are built on the translate path.  The bytes are
#: identical to encoding the equivalent instruction list (``encode_all``
#: is itself a concatenation of fixed-width packs).
_JMP_DISPATCH_BYTES = encode_all([_JMP_DISPATCH])
_POINT_STUB_BYTES = encode_all([_NOP] * STUB_INSTS_PER_POINT)


def _exit_stub_bytes(target: int) -> bytes:
    """One exit's stub: ``movi at, target`` packed from its fields, then
    the dispatcher jump."""
    return pack_word(Opcode.MOVI, regs.AT, 0, 0, target) + _JMP_DISPATCH_BYTES


def translated_code(trace: Trace, n_points: int) -> bytes:
    """The translated code of ``trace``: its body, then one stub per exit
    and one per instrumentation point.

    The stubs are structural (the dispatcher interprets trace objects, not
    these bytes) but they are *real* encoded instructions whose size is
    what the code pool and the persistent cache store, so code-expansion
    numbers are honest.  An exit stub encodes the exit's target, so the
    bytes, which key the compiled tier's bodies, follow the trace's
    exits wherever it is laid out.
    """
    parts = [trace.body]
    parts += [
        _exit_stub_bytes((trace_exit.target or 0) & 0x7FFFFFFF)
        for trace_exit in trace.exits
    ]
    if n_points:
        parts.append(_POINT_STUB_BYTES * n_points)
    return b"".join(parts)


class Translator:
    """Compiles traces, charging the cost model for the work."""

    def __init__(self, cost_model: CostModel, tool: Optional[Tool] = None):
        self.cost_model = cost_model
        self.tool = tool

    def translate(self, trace: Trace) -> TranslationResult:
        """Compile ``trace`` (with instrumentation, if a tool is present)."""
        points = list(self.tool.instrument_trace(trace)) if self.tool else []
        n_insts = len(trace.uops)

        code_bytes = translated_code(trace, len(points))

        # Liveness exists to place instrumentation without spilling; a
        # trace with no analysis points never consults it, so the
        # backward pass is skipped outright.  The *accounted* data size
        # below still charges the full per-instruction liveness vectors
        # (the persisted data blob zero-fills them), so pool occupancy
        # and Figure 9 are unchanged.
        liveness = compute_liveness(trace) if points else []
        translated = build_resident(
            trace, code_bytes, modeled_data_size(n_insts, len(trace.exits)),
            points, liveness, False,
        )

        cost = self.cost_model
        instrumentation_weight = sum(point.compile_weight for point in points)
        compile_cycles = (
            cost.trace_compile_fixed
            + n_insts * cost.trace_compile_per_inst
            + instrumentation_weight * cost.instrument_compile_per_inst
        )
        return TranslationResult(translated=translated, compile_cycles=compile_cycles)
