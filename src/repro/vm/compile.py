"""The compiled tier: a hot trace, or a fused chain of them, becomes one
Python closure.

The interpreted dispatcher (``dispatch_mode="interpreted"``) pays, per
micro-op, a ``step_uop`` call, a tuple unpack and an opcode-compare
chain.  As the paper's engine emits specialized code once and runs it
many times, this module emits each
:class:`~repro.vm.translator.TranslatedTrace` as **one straight-line
closure** whose body inlines the trace's semantics.

Specializations applied per trace:

* opcode semantics inlined from :data:`repro.machine.cpu.SEMANTICS`,
  which both interpreters are generated from, with register indexes and
  immediates baked in as literals;
* register writes as the trace-body pass (:mod:`repro.vm.bodypass`)
  plans them: every register holds an int64, so a write carries the
  wrap check only where its value's interval (the table's ``bounds``
  column, over facts that flow through the body) can leave int64, and a
  write that a later ALU write overwrites before anything can observe
  it is left out;
* memory ops are the machine's one guest word access
  (:func:`repro.machine.cpu.word_access`).  In a solo body every
  ``LD``/``ST`` is one call of the machine's ``load``/``store``, which
  hold the window hit, the lookup, the fault and the SMC probe out of
  line, so the hundreds of bodies a warm-up compiles stay small.  A
  fused region carries the hot loops, so each of its sites is the window
  hit inline (:data:`repro.machine.cpu.WINDOW_ACCESS`, the cold tier's
  template too) over locals bound once per entry, and calls the pair
  only on a miss or a store into a mapping that holds executed code;
* analysis-point checks are hoisted out entirely for traces with no
  instrumentation; instrumented sites inline the callback invocation
  against the run's single mutable :class:`AnalysisContext`;
* instruction/cycle accounting is batched per exit: one counter add and
  one pre-multiplied charge per exit;
* branch exits resolve through link-slot locals captured at
  specialization time.

A closure is **bit-identical** to the interpreted tier: same register
and memory effects, exceptions, ``VMStats`` counters, and cycle floats
charged in the same order (cost products are folded at compile time,
which gives the identical IEEE result).  The interpreted tier stays the
oracle; ``tests/test_dispatch_equivalence.py`` enforces the equivalence.
Bodies live on their resident trace
(:attr:`TranslatedTrace.compiled_body`) and die with it on eviction or
flush.

**Tier-up.**  A trace, fresh or revived, runs on the engine's cold tier
(one :meth:`repro.machine.cpu.ExecutionContext.run_uops` call per
entry, or the oracle's per-uop loop when it has analysis points) until
a body is attached, and each source of a body has its own entry, set by
what it costs: the dispatch loop counts an entry before it checks it.
On entry ``min(compile_threshold, BIND_THRESHOLD)`` (32 by default)
:meth:`TraceCompiler.compile` binds a body that the run's factory memo
or the attached body store holds, and compiles nothing.  On entry
``compile_threshold`` (:data:`DEFAULT_COMPILE_THRESHOLD`, 128) it
host-compiles a body neither held, without probing the store again.
At a threshold of 32 or below both happen on one entry (1 binds or
compiles at the first).  A body is persisted only once its trace
reached the host entry in some run.

**Factories.**  The closure factory is keyed by everything its source
bakes in (uops, entry, links, points, cost constants) and memoized per
run on the :class:`TraceCompiler`: a trace translated again after an
eviction or a flush re-binds it to new captures.  With a
:class:`repro.persist.sidecar.CompiledBodyStore` attached (at process
start, before anything compiles), every host-compiled factory's code
object is recorded as ``marshal`` bytes under a digest of its key and
revived by the next process.  The store is keyed on ``VM_VERSION`` and
the host bytecode tag, so a codegen change misses wholesale.

**Indirect exits.**  A JR/RET/CALLR exit probes its slot's inline cache,
``[generation, {target: resident}]``, shared by the trace's solo body
and any region, and validated against the code-cache generation; a hit
hands the resident straight to the dispatcher.  Everything else is one
call of the run's ``ic_resolve`` (:func:`inline_cache_helper`).  The
charges and ``indirect_resolutions`` are the same on every path; the
cache's counters are host-side (``HostStats.ic``).

**Links and regions.**  A direct exit returns its slot's patched
successor (``linked_resident``), which the engine's dispatch loop
(:meth:`repro.vm.engine.Engine.run`) runs next.  Eviction, SMC and
flush unlink every incoming slot and the evicted trace's own, so a
probe never yields an evicted trace.  A stable hot chain, each trace
handing over to the next through its final exit (a patched direct link,
or an indirect exit whose inline cache names one successor), fuses
into one region closure (:meth:`TraceCompiler.compile_region`).  Each
junction re-emits the member's exact exit accounting, then falls
through into the next member's body only while the successor is that
member and the instruction budget holds; otherwise it leaves as the
solo body does.  A chain that closes on its head is a **loop region**:
a ``while True:`` whose back edge is a junction ending in ``continue``.
Region factories use the same memo and store, keyed by their members
and back edge.
"""

from __future__ import annotations

import hashlib
import marshal
import struct
import sys
from types import CodeType, SimpleNamespace
from typing import Dict, List, Optional

from repro.isa.instructions import INSTRUCTION_SIZE
from repro.isa import registers as regs
from repro.loader.mapper import to_signed_word
from repro.machine.costs import CostModel
from repro.machine.cpu import (
    INT64,
    SEMANTICS,
    WINDOW_ACCESS,
    MachineFault,
    halt_step_event,
    pack_into,
    syscall_uop_step,
    unpack_from,
)
from repro.vm.bodypass import DEAD, WRAP, plan
from repro.vm.client import AnalysisContext, PointKind, ToolAccounting
from repro.vm.stats import HostStats, ICStats, VMStats
from repro.vm.trace import ExitKind
from repro.vm.translator import TranslatedTrace

#: Sentinel stored in ``TranslatedTrace.compiled_body`` when a trace
#: cannot be specialized; the engine then runs it on the cold tier.
UNCOMPILABLE = object()

#: Chained exits through one final exit before the engine walks the
#: chain downstream of it for a region: every multiple of this count
#: tries again, and a link the walk follows must have been taken this
#: many times less one.  A straight chain fuses on its first try.
REGION_FUSE_THRESHOLD = 16
#: Times a loop's back edge must have been taken before the loop fuses
#: into one closure; until then a chain that closes a cycle is not
#: fused at all.  A GUI start-up's short loops stay below it, and a
#: loop that reached it tends to run on (docs/performance.md).
LOOP_FUSE_THRESHOLD = 64
#: Maximum member traces in one fused region (keeps generated bodies,
#: and the blast radius of one member's invalidation, bounded).
REGION_MAX_MEMBERS = 8
#: The entry on which a trace, fresh or revived, binds a body that the
#: run's factory memo or the attached store holds, when the compile
#: threshold is not lower.  A bind costs about as much as 9 cold-tier
#: entries of an 11-uop trace, so a trace that ran 32 times is likely to
#: repay it, and a warm hot loop leaves the cold tier early.
BIND_THRESHOLD = 32
#: The entry on which a trace host-compiles a body that neither the memo
#: nor the store held; it runs on the cold tier before.  Generating and
#: host-compiling one body costs about as much as 165 cold-tier entries
#: of an 11-uop trace, which a GUI start-up's traces, run a few dozen
#: times each, never repay; a trace that ran 128 times is a loop that
#: tends to run on.
DEFAULT_COMPILE_THRESHOLD = 128


class CompileError(Exception):
    """Raised when a trace cannot be specialized into a closure."""


#: The opcodes of the ``branch`` kind, as plain ints: every compile tests
#: each uop of its trace against them (:func:`_capture_lists`).
_BRANCH_OPS = frozenset(
    int(op) for op, row in SEMANTICS.items() if row.kind == "branch"
)

#: Factories one run's memo (:attr:`TraceCompiler._factories`) holds
#: before it is flushed wholesale.
_FACTORIES_CAP = 8192


#: A trace key's fixed fields in its digest: the entry, the three cost
#: constants, and the lengths of the code bytes, link pairs and points
#: that follow.
_KEY_HEAD = struct.Struct("<qdddIII")
#: One link pair: exit kind and instruction index.
_LINK = struct.Struct("<ii")
#: One point's fixed fields: index, work cycles, effective-address flag
#: and the length of the UTF-8 label that follows.
_POINT_HEAD = struct.Struct("<qd?I")


def _key_bytes(key: tuple) -> bytes:
    """One :func:`_trace_key`, length-delimited: the code bytes as they
    are, every other field packed, and each variable-length field led
    by its length, so two different keys never give the same bytes."""
    entry, code, links, points, translated_inst, analysis_call, indirect = key
    parts = [
        _KEY_HEAD.pack(entry, translated_inst, analysis_call, indirect,
                       len(code), len(links), len(points)),
        code,
    ]
    parts += [_LINK.pack(kind, index) for kind, index in links]
    for index, label, work, wants_address in points:
        label_bytes = label.encode()
        parts.append(_POINT_HEAD.pack(index, work, wants_address,
                                      len(label_bytes)))
        parts.append(label_bytes)
    return b"".join(parts)


def _body_digest(key: tuple) -> str:
    """Sidecar name of one factory: a digest of the full memo key.

    The key already encodes everything the generated source depends on,
    so equal digests imply byte-identical factory code; the VM version
    and host bytecode tag are keyed at the store level
    (:mod:`repro.persist.sidecar`), not per entry.  A region's digest
    covers its members' keys in order, and a loop's also its back edge.
    """
    if key[0] == "region":
        back = key[1]
        head = b"region" if back is None else b"loop" + struct.pack("<i", back)
        return hashlib.sha256(
            head + b"".join([_key_bytes(member) for member in key[2:]])
        ).hexdigest()
    return hashlib.sha256(b"trace" + _key_bytes(key)).hexdigest()


class _NullCodeCache:
    """Stand-in when no code cache is attached (direct compiler use):
    indirect inline caches never validate and never fill."""

    generation = -1

    @staticmethod
    def lookup(original_addr: int):
        return None


def _trace_key(translated: TranslatedTrace, cost: CostModel) -> tuple:
    """Everything the generated source depends on, as a hashable key.

    Two traces with equal keys generate byte-identical source: the uops
    (all operands are baked as literals), the entry address (PCs are
    baked), the exit/link structure, the instrumentation shape (labels,
    charges, effective-address requests — callbacks themselves flow
    through the capture namespace), and the cost-model constants folded
    into charge literals.
    """
    trace = translated.trace
    points_sig = tuple(
        (0 if point.kind == PointKind.TRACE_ENTRY else point.index,
         point.label, float(point.work_cycles),
         bool(point.wants_effective_address))
        for point in translated.points
    )
    links_sig = tuple(
        (int(slot.exit.kind), slot.exit.index) for slot in translated.links
    )
    # The instruction operands are keyed via their *encoded* form:
    # ``code_bytes`` starts with the body encoding, and hashing one bytes
    # object is far cheaper than rebuilding the uop tuple-of-tuples.
    return (
        trace.entry,
        translated.code_bytes,
        links_sig,
        points_sig,
        cost.translated_inst,
        cost.analysis_call,
        cost.indirect_resolution,
    )


def _strip_line_tables(code: CodeType) -> CodeType:
    """``code`` with the line table of it and of every nested code
    object reduced to one line for all instructions.

    A body has no source file and a ``MachineFault`` names the guest pc,
    never a host line, so the tables only cost persisted bytes.  The
    reduced table (CPython 3.11+ location format: one "no column, line
    delta 0" entry per 8 code units) is about a fifth the size of a
    real one; an empty table would be smaller still, but the
    ``traceback`` module and pytest cannot format a frame without
    positions.  Older hosts keep their tables.
    """
    if sys.version_info < (3, 11):
        return code
    consts = tuple(
        _strip_line_tables(const) if isinstance(const, CodeType) else const
        for const in code.co_consts
    )
    full, rest = divmod(len(code.co_code) // 2, 8)
    table = b"\xef\x00" * full
    if rest:
        table += bytes((0xE8 | (rest - 1), 0))
    return code.replace(co_linetable=table, co_consts=consts)


def _flt(value: float) -> str:
    """A float literal that round-trips exactly (repr is lossless)."""
    return repr(float(value))


class _Emitter:
    """Tiny indented-source builder.  ``indent`` levels are added to
    every line's depth (a loop region's body sits in its loop)."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self.indent = 0

    def emit(self, line: str, depth: int = 2) -> None:
        self.lines.append("    " * (depth + self.indent) + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _store(out: _Emitter, uses: set, rd: int, expr: str, flag: int) -> None:
    """Emit a register write as the trace-body pass planned it
    (:func:`repro.vm.bodypass.plan`): plain, wrapped or left out."""
    if flag == DEAD:
        return
    if flag != WRAP:
        out.emit("r[%d] = %s" % (rd, expr))
        return
    uses.add("to_signed")
    out.emit("v = %s" % expr)
    out.emit("r[%d] = v if %d <= v <= %d else to_signed(v)"
             % ((rd,) + INT64))


def _address(rs1: int, imm: int) -> str:
    """The effective-address expression of a memory op."""
    return "r[%d] + %d" % (rs1, imm) if imm else "r[%d]" % rs1


def inline_cache_helper(cache, ics: ICStats):
    """Build the run's ``ic_resolve(ic, target)``: every inline-cache
    path but the hit.

    A body's indirect exit probes its cell ``ic`` (``[generation,
    {target: resident}]``, see :meth:`TraceCompiler._emit_indirect_exit`)
    inline and returns the resident on a hit under the current
    generation; everything else is one call to this helper, which
    returns the resident trace for ``target`` or None.  A stale cell is
    emptied (``ics.resets`` counts non-empty ones) and takes the current
    generation.  The target is then a miss: resolved through
    ``cache.lookup``, and a resident result fills the dict.
    """
    lookup = cache.lookup

    def ic_resolve(ic, target):
        generation = cache.generation
        if ic[0] != generation:
            if ic[1]:
                ic[1].clear()
                ics.resets += 1
            ic[0] = generation
        ics.misses += 1
        resident = lookup(target)
        if resident is not None:
            ic[1][target] = resident
            ics.fills += 1
        return resident

    return ic_resolve


def _capture_lists(translated: TranslatedTrace):
    """The run-varying objects a trace's closure captures, in the
    canonical order both :meth:`TraceCompiler._generate` (naming) and
    :meth:`TraceCompiler.compile` (binding, memo hits included) use:
    the final slot first, then per instruction its analysis callbacks
    followed by its branch slot.  An indirect final slot gets its inline
    cache here, the first time a body captures it."""
    slots: List[object] = []
    callbacks: List[object] = []
    final = translated.final_slot
    if final is not None:
        slots.append(final)
        if final.ic is None and final.exit.kind == ExitKind.INDIRECT:
            final.ic = [-1, {}]
    points_by_index = translated.points_by_index
    for index, uop in enumerate(translated.trace.uops):
        for point in points_by_index.get(index, ()):
            callbacks.append(point.callback)
        if uop[0] in _BRANCH_OPS and uop[4] != 0:
            slot = translated.branch_slots.get(index)
            if slot is None:
                raise CompileError(
                    "conditional branch at %d has no link slot" % index
                )
            slots.append(slot)
    return slots, callbacks


class TraceCompiler:
    """Per-run compiler: specializes traces against this run's context.

    The compiler captures the run-scoped objects (machine, stats, tool
    accounting, the shared mutable analysis context) so generated
    closures reference them directly; a compiler — like the code cache it
    feeds — never outlives its engine run.
    """

    def __init__(
        self,
        machine,
        stats: VMStats,
        accounting: ToolAccounting,
        cost_model: CostModel,
        analysis_context: AnalysisContext,
        code_cache=None,
        host: Optional[HostStats] = None,
        max_instructions: Optional[int] = None,
    ):
        self.machine = machine
        self.stats = stats
        self.accounting = accounting
        self.cost = cost_model
        self.acx = analysis_context
        cache = code_cache if code_cache is not None else _NullCodeCache()
        #: The run's host counters: compile counts here, inline-cache and
        #: link counters in the closures this compiler builds.
        self.host = host if host is not None else HostStats()
        #: The attached compiled-body store, or None (attached by the
        #: persistence session via :meth:`attach_body_store`).
        self.body_store = None
        #: This run's closure factories, keyed by everything the generated
        #: source bakes in (:func:`_trace_key`): a trace translated again
        #: (after an eviction or a flush) re-binds its factory to new
        #: captures with no source generation and no host compile.
        #: Flushed wholesale at :data:`_FACTORIES_CAP`, as the code cache
        #: is at its pool size.
        self._factories: Dict[tuple, object] = {}
        #: The run-scoped capture namespace, shared by every closure this
        #: compiler builds (per-trace state travels separately).
        self._context = SimpleNamespace(
            machine=machine,
            stats=stats,
            to_signed=to_signed_word,
            MachineFault=MachineFault,
            load=machine.load,
            store=machine.store,
            window=machine.process.space.window,
            unpack_from=unpack_from,
            pack_into=pack_into,
            syscall_step=syscall_uop_step,
            halt_event=halt_step_event,
            acx=analysis_context,
            record_call=accounting.record_call,
            cache=cache,
            ics=self.host.ic,
            ic_resolve=inline_cache_helper(cache, self.host.ic),
            links=self.host.links,
            # Region junctions re-check the instruction budget inline so a
            # fused chain faults exactly where the dispatcher would have.
            # Run-scoped capture (not baked into source) so region
            # factories stay budget-independent for memo/sidecar reuse.
            budget=(
                max_instructions if max_instructions is not None else 1 << 62
            ),
        )

    def attach_body_store(self, store) -> None:
        """Attach a :class:`~repro.persist.sidecar.CompiledBodyStore`, or
        None for no store.

        Subsequent factory-memo misses first try the store (reviving the
        marshaled code object skips source generation and host
        ``compile()``), and every factory this compiler host-compiles is
        recorded into it so the write-back persists a complete set.
        """
        self.body_store = store

    # -- public API -----------------------------------------------------------

    def compile(self, translated: TranslatedTrace, stored: bool = True,
                host: bool = True):
        """Specialize ``translated``; attach and return the closure.

        The factory comes from the run's memo, else (``stored``) from
        the attached store, else (``host``) from a host ``compile()``.
        The bind entry passes ``host=False`` and gets None, with nothing
        attached, when neither held it; the host entry after it passes
        ``stored=False``, since that entry probed the store already.
        On failure the :data:`UNCOMPILABLE` sentinel is attached and
        returned, and the engine executes the trace interpreted — the
        tiers are observably identical, so falling back is always safe.
        """
        try:
            slots, callbacks = _capture_lists(translated)
            make = self._factory(
                _trace_key(translated, self.cost),
                lambda: self._generate(translated, slots, callbacks),
                "<trace@0x%x>" % translated.entry,
                stored, host,
            )
        except CompileError:
            translated.compiled_body = UNCOMPILABLE
            return UNCOMPILABLE
        if make is None:
            return None
        body = make(self._context, slots, callbacks)
        translated.compiled_body = body
        self.host.compiles += 1
        return body

    def compile_region(self, members: List[TranslatedTrace], back_edge=None):
        """Fuse a stable hot chain into one superblock closure.

        ``members`` is the chain in execution order (head first): each
        member hands over to the next through its final exit, a patched
        direct link or an indirect exit whose inline cache names the next
        member.  ``back_edge``, when given, is the slot of the last member
        (a branch-taken or final exit) that hands back to the head: the
        region is then a loop, and the slot's exit is a guarded
        ``continue``.  The engine's fusion driver
        (:meth:`repro.vm.engine.Engine._maybe_fuse`) checks that every
        member is resident and every hand-over is current.  Returns the
        region closure (the caller installs it as the *head* trace's
        ``compiled_body``; the other members keep their solo closures for
        entry from outside), or None when a member cannot be specialized.

        Region factories ride the same memo and sidecar as trace
        factories under a composite key that names the back edge: link
        slots, inline caches, member trace objects and analysis callbacks
        are runtime captures re-bound per run, so no link state ever
        enters the marshaled code object.
        """
        try:
            back = None
            if back_edge is not None:
                back = next((index for index, slot
                             in enumerate(members[-1].links)
                             if slot is back_edge), None)
                if back is None:
                    raise CompileError("the back edge is not the tail's")
            key = ("region", back) + tuple(
                _trace_key(member, self.cost) for member in members
            )
            slots: List[object] = []
            callbacks: List[object] = []
            for member in members:
                member_slots, member_callbacks = _capture_lists(member)
                slots.extend(member_slots)
                callbacks.extend(member_callbacks)
            make = self._factory(
                key,
                lambda: self._generate_region(
                    members, slots, callbacks, back_edge),
                "<region@0x%x>" % members[0].entry,
            )
            body = make(self._context, slots, callbacks, members)
        except CompileError:
            return None
        self.host.regions_compiled += 1
        return body

    def _factory(self, key: tuple, source_fn, filename: str,
                 stored: bool = True, host: bool = True):
        """The ``_make`` factory for ``key``: this run's memo, else
        (``stored``) the attached store's body, else (``host``) a host
        ``compile()`` of ``source_fn()`` recorded into the store for the
        next process; None when every source allowed missed.

        A stored body ``exec``\\ s the revived code object, skipping
        source generation and host ``compile()``.  The store is attached
        before the run compiles anything, so every body the memo holds
        is in the store already.
        """
        make = self._factories.get(key)
        if make is not None:
            self.host.memo_hits += 1
            return make
        store = self.body_store
        if store is not None:
            digest = _body_digest(key)
            code = store.lookup_code(digest) if stored else None
            if code is not None:
                namespace: Dict[str, object] = {}
                try:
                    exec(code, namespace)  # noqa: S102 - keyed on VM version
                    make = namespace["_make"]
                except Exception:
                    # A miss: the body compiled below replaces it.
                    store.reject(digest)
                else:
                    self.host.body_hits += 1
        if make is None:
            if not host:
                return None
            # Exec what is marshaled: a fresh compile and a revive then
            # run the same code object.
            code = _strip_line_tables(compile(source_fn(), filename, "exec"))
            self.host.host_compiles += 1
            namespace = {}
            exec(code, namespace)  # noqa: S102 - self-generated source
            make = namespace["_make"]
            if store is not None:
                store.record_bytes(digest, marshal.dumps(code))
        if len(self._factories) >= _FACTORIES_CAP:
            self._factories.clear()
        self._factories[key] = make
        return make

    # -- code generation -------------------------------------------------------

    #: Capture-namespace names the factory preamble may bind (in this
    #: order); only the ones the generated body actually uses are bound.
    _CAPTURE_NAMES = (
        "to_signed", "MachineFault", "load", "store", "window",
        "unpack_from", "pack_into", "syscall_step", "halt_event", "acx",
        "record_call", "cache", "ics", "ic_resolve", "links", "budget",
    )

    def _generate(self, translated: TranslatedTrace, slots, callbacks) -> str:
        """Produce the factory source for one trace.

        The source defines ``_make(C, slots, callbacks)``, a factory that
        binds the run-scoped capture namespace ``C`` plus this trace's
        link slots and analysis callbacks (in the canonical
        :func:`_capture_lists` order, so a memoized factory re-binds
        correctly) into fast locals and returns the trace closure.
        Everything trace-constant is baked into the source as literals.
        """
        slot_names = {id(slot): "slot%d" % i for i, slot in enumerate(slots)}
        # The body is generated first so the factory preamble can bind
        # only the captures this trace actually references: per-run
        # re-binding of memoized factories is on the warm path, and most
        # traces touch a small subset of the capture namespace.
        uses: set = set()
        emit = _Emitter()
        (writes,) = plan([translated])
        self._emit_trace_body(emit, uses, translated, writes, slot_names, 0)
        return self._factory_source(
            emit, uses, len(slots), len(callbacks), region_members=0
        )

    def _generate_region(
        self, members: List[TranslatedTrace], slots, callbacks, back_edge
    ) -> str:
        """Produce the factory source for one superblock region.

        The source defines ``_make(C, slots, callbacks, members)``:
        ``slots``/``callbacks`` concatenate the members' capture lists in
        chain order, ``members`` are the member trace objects the
        junction guards compare by identity.  The body is the members'
        solo bodies concatenated; the exit each member hands over through
        is a junction (:meth:`_emit_junction`) into the next member's
        body.  With a ``back_edge`` the body is a ``while True:`` loop,
        and the last member's junction through it goes back to the head.
        """
        slot_names = {id(slot): "slot%d" % i for i, slot in enumerate(slots)}
        uses: set = {"links"}
        emit = _Emitter()
        emit.emit("links.region_entries += 1")
        if back_edge is not None:
            emit.emit("while True:")
            emit.indent = 1
        cb_base = 0
        last = len(members) - 1
        for position, (member, writes) in enumerate(
                zip(members, plan(members))):
            if position < last:
                hand_over = (member.final_slot, position + 1,
                             members[position + 1].entry)
            elif back_edge is not None:
                hand_over = (back_edge, 0, members[0].entry)
            else:
                hand_over = None
            cb_base = self._emit_trace_body(
                emit, uses, member, writes, slot_names, cb_base, hand_over,
                inline_memory=True,
            )
        return self._factory_source(
            emit, uses, len(slots), len(callbacks),
            region_members=len(members),
        )

    @staticmethod
    def _emit_junction(emit, uses, successor: str, leave: str,
                       position: int, depth: int) -> None:
        """One region junction, where the exit ``leave`` would return
        ``successor``: it falls through into member ``position``'s body
        only while ``successor`` is that member and the instruction
        budget holds, and otherwise leaves exactly as the solo body does.

        The guard is self-healing by construction: eviction/SMC/flush
        eagerly unlink every incoming slot and bump the code-cache
        generation an inline cache is read under, so a dead or replaced
        member fails the identity test the moment control reaches the
        junction, even in a region already on the call stack.  The
        budget test makes a region fault at exactly the boundary the
        dispatcher would have.  Member 0 is the head, so a junction into
        it is a loop's back edge and ends in ``continue``.  A member's
        ``executions`` is not counted here: only the tier-up reads it,
        and every member is compiled.
        """
        member = "m%d" % position
        uses.update(("links", "budget", member))
        emit.emit(
            "if %s is not %s or stats.instructions_executed >= budget:"
            % (successor, member), depth
        )
        emit.emit(leave, depth + 1)
        emit.emit("links.region_hops += 1", depth)
        if position == 0:
            emit.emit("continue", depth)

    def _emit_direct_exit(self, emit, uses, slot, target_pc: int,
                          slot_names, hand_over, depth: int = 2) -> bool:
        """Leave through direct-exit ``slot`` to ``target_pc``: return
        the slot's patched successor to the engine, or, when ``slot`` is
        the one the region member hands over through, a junction.
        Returns whether it was."""
        name = slot_names[id(slot)]
        leave = ("return (%d, %s, None, %s.linked_resident)"
                 % (target_pc, name, name))
        if hand_over is None or hand_over[0] is not slot:
            emit.emit(leave, depth)
            return False
        _slot, position, entry = hand_over
        if not slot.is_linkable or target_pc != entry:
            raise CompileError(
                "junction at 0x%x does not reach member 0x%x"
                % (target_pc, entry)
            )
        self._emit_junction(emit, uses, "%s.linked_resident" % name,
                            leave, position, depth)
        return True

    def _emit_trace_body(
        self, emit, uses, translated, writes, slot_names, cb_base,
        hand_over=None, inline_memory=False,
    ) -> int:
        """Emit one trace's inlined instruction semantics at depth 2.

        Shared by solo-trace and region generation: ``writes`` is the
        trace's plan from the trace-body pass, ``slot_names`` maps
        link-slot identity to bound local names, analysis callbacks are
        named ``cb<k>`` counting from ``cb_base``.  ``hand_over`` (region
        members) is ``(slot, position, entry)``: the exit through
        ``slot`` continues into the region's member ``position``, at
        ``entry``, through a junction instead of returning.
        ``inline_memory`` (region members) emits each memory op as an
        inline window hit (:meth:`_emit_memory_op`) instead of one call
        of the machine's word access.  Returns the callback index after
        this trace.
        """
        trace = translated.trace
        uops = trace.uops
        n = len(uops)
        if n == 0:
            raise CompileError("empty trace")
        entry = trace.entry
        cost = self.cost
        ti = cost.translated_inst
        points_by_index = translated.points_by_index
        handed_over = False

        def exit_accounting(steps: int, depth: int = 2) -> None:
            # Inlined stats.charge_exec — same fields, same order, same
            # pre-folded float literal, so the accumulation is
            # bit-identical to the interpreted tier's method call.
            lit = _flt(steps * ti)
            emit.emit("stats.instructions_executed += %d" % steps, depth)
            emit.emit("stats.translated_exec_cycles += %s" % lit, depth)
            emit.emit("stats._total += %s" % lit, depth)

        final = translated.final_slot

        def final_exit(target_pc: int, steps: int) -> bool:
            # The final direct exit (terminator or fall-through): probe
            # the link seam so a patched exit hands the successor trace
            # straight to the engine's dispatch loop.
            exit_accounting(steps)
            if final is None:
                emit.emit("return (%d, None, None, None)" % target_pc)
                return False
            return self._emit_direct_exit(
                emit, uses, final, target_pc, slot_names, hand_over)

        cb_index = cb_base
        for index in range(n):
            uop = uops[index]
            op, rd, rs1, rs2, imm = uop
            pc = entry + index * INSTRUCTION_SIZE
            row = SEMANTICS.get(op)
            if row is None:
                raise CompileError("unknown opcode 0x%02x" % op)
            kind = row.kind
            memory = kind in ("load", "store")

            for point in points_by_index.get(index, ()):
                cb = "cb%d" % cb_index
                cb_index += 1
                uses.add("acx")
                uses.add("record_call")
                emit.emit("acx.address = %d" % pc)
                emit.emit("acx.trace_entry = %d" % entry)
                emit.emit("acx.index = %d" % index)
                if point.wants_effective_address and memory:
                    emit.emit(
                        "acx.effective_address = %s" % _address(rs1, imm)
                    )
                else:
                    emit.emit("acx.effective_address = None")
                emit.emit("%s(acx)" % cb)
                charge = _flt(cost.analysis_call + point.work_cycles)
                emit.emit("stats.analysis_cycles += %s" % charge)
                emit.emit("stats._total += %s" % charge)
                emit.emit("stats.analysis_calls += 1")
                emit.emit(
                    "record_call(%r, %s)" % (point.label or "point", charge)
                )
                if inline_memory:
                    # A callback may move the window or flip its flag.
                    uses.add("window")
                    emit.emit("wb, wl, wd, wc = window")

            operand = row.operand and row.operand.format(
                rs1=rs1, rs2=rs2, imm=imm, sh=imm & 63, lr=regs.LR
            )
            if kind == "alu":
                _store(emit, uses, rd, operand, writes[index])
            elif memory:
                if inline_memory:
                    self._emit_memory_op(emit, uses, uop, pc, kind,
                                         writes[index] == DEAD)
                elif kind == "load":
                    # Solo sites are one call each of the machine's word
                    # access, which holds the fault and the SMC probe.
                    uses.add("load")
                    call = "load(%s, %d)" % (_address(rs1, imm), pc)
                    if writes[index] != DEAD:
                        call = "r[%d] = %s" % (rd, call)
                    emit.emit(call)
                else:
                    uses.add("store")
                    emit.emit(
                        "store(%s, r[%d], %d)"
                        % (_address(rs1, imm), rs2, pc)
                    )
            elif kind == "div":
                uses.add("MachineFault")
                emit.emit("d = r[%d]" % rs2)
                emit.emit("if d == 0:")
                emit.emit('raise MachineFault("division by zero", %d)' % pc, 3)
                _store(emit, uses, rd, operand, writes[index])
            elif kind == "branch":
                if imm != 0:
                    emit.emit("if %s:" % operand)
                    exit_accounting(index + 1, 3)
                    handed_over |= self._emit_direct_exit(
                        emit, uses, translated.branch_slots[index],
                        pc + INSTRUCTION_SIZE + imm, slot_names, hand_over, 3,
                    )
                # A zero-offset taken branch lands on the fall-through
                # address: indistinguishable from not-taken, stays inline.
            elif kind in ("jump", "call"):
                # An immediate target is a direct exit; a register target
                # leaves through the indirect-target resolver.
                direct = row.operand == "{imm}"
                if not direct:
                    emit.emit("target = %s" % operand)
                if kind == "call":
                    emit.emit("r[%d] = %d" % (regs.LR, pc + INSTRUCTION_SIZE))
                if direct:
                    handed_over |= final_exit(imm, index + 1)
                else:
                    exit_accounting(index + 1)
                    handed_over |= self._emit_indirect_exit(
                        emit, uses, final, slot_names, hand_over
                    )
            elif kind == "syscall":
                uses.add("syscall_step")
                emit.emit(
                    "target, event = syscall_step(machine, %d)"
                    % (pc + INSTRUCTION_SIZE)
                )
                exit_accounting(index + 1)
                emit.emit("return (target, None, event, None)")
            elif kind == "halt":
                uses.add("halt_event")
                emit.emit("event = halt_event()")
                exit_accounting(index + 1)
                emit.emit("return (None, None, event, None)")

        if kind not in ("jump", "call", "syscall", "halt"):
            # The last uop does not leave: instruction-limit fall-through.
            handed_over |= final_exit(entry + n * INSTRUCTION_SIZE, n)
        if hand_over is not None and not handed_over:
            raise CompileError(
                "region member 0x%x cannot hand over through its exit"
                % entry
            )
        return cb_index

    @staticmethod
    def _emit_memory_op(emit, uses, uop, pc: int, kind: str,
                        dead: bool) -> None:
        """One region-body LD/ST, rendered from
        :data:`repro.machine.cpu.WINDOW_ACCESS` over ``wb, wl, wd, wc``,
        the window's slots bound at region entry.  A ``dead`` load keeps
        only the miss, which may fault."""
        _op, rd, rs1, rs2, imm = uop
        uses.update(("window", kind))
        address = _address(rs1, imm)
        if dead:
            emit.emit("o = %s - wb" % address)
            emit.emit("if not 0 <= o <= wl:")
            emit.emit("load(o + wb, %d)" % pc, 3)
            emit.emit("wb, wl, wd, wc = window", 3)
            return
        uses.add("unpack_from" if kind == "load" else "pack_into")
        site = WINDOW_ACCESS[kind].format(
            address=address, pc=pc, dest="r[%d]" % rd, source="r[%d]" % rs2
        )
        for line in site.splitlines():
            emit.emit(line)

    def _factory_source(
        self, emit, uses, n_slots: int, n_callbacks: int, region_members: int
    ) -> str:
        """Wrap emitted body lines in the factory preamble."""
        out = _Emitter()
        if region_members:
            out.lines.append("def _make(C, slots, callbacks, members):")
        else:
            out.lines.append("def _make(C, slots, callbacks):")
        out.emit("machine = C.machine", 1)
        out.emit("stats = C.stats", 1)
        for name in self._CAPTURE_NAMES:
            if name in uses:
                out.emit("%s = C.%s" % (name, name), 1)
        for i in range(n_slots):
            out.emit("slot%d = slots[%d]" % (i, i), 1)
            if "ic%d" % i in uses:
                # The slot's inline cache, shared with every body that
                # captures the slot (see _emit_indirect_exit).
                out.emit("ic%d = slot%d.ic" % (i, i), 1)
        for i in range(n_callbacks):
            out.emit("cb%d = callbacks[%d]" % (i, i), 1)
        # Junction guards compare members by identity; the head
        # (members[0]) is referenced only by a loop's back edge.
        for i in range(region_members):
            if "m%d" % i in uses:
                out.emit("m%d = members[%d]" % (i, i), 1)
        out.emit("def run():", 1)
        out.emit("r = machine.registers")
        if "window" in uses:
            out.emit("wb, wl, wd, wc = window")
        out.lines.extend(emit.lines)
        out.emit("return run", 1)
        return out.source()

    def _emit_indirect_exit(
        self, emit: _Emitter, uses: set, final, slot_names, hand_over
    ) -> bool:
        """Terminator through the indirect-target resolver; returns
        whether it is the junction ``hand_over`` names.

        Mirrors the interpreted dispatcher: an INDIRECT final exit pays
        the hash-lookup charge and returns to the dispatcher with its
        slot; any other final-exit kind (not reachable for JR/RET/CALLR
        traces built by the selector, but persisted caches are data)
        leaves via the final slot's link.

        The INDIRECT path carries an inline cache (Pin's indirect-branch
        chaining): the slot's ``ic`` cell, ``[generation, {target:
        resident}]``, validated wholesale against the code-cache
        generation.  The cell belongs to the slot, so the trace's solo
        body and every region holding it share one cell, and the
        engine's fusion walk reads its prediction there.  The body
        probes it inline: a current cell that holds the target returns
        its resident, or, at a region junction, falls through into the
        next member when the resident is that member.  Every other path
        is one call to the run's ``ic_resolve``
        (:func:`inline_cache_helper`): a generation advance empties the
        dict — an evicted trace can never be dispatched — and a miss
        resolves through the translation map and fills the dict.  One
        helper instead of a copy per body keeps every body with an
        indirect exit small.  A dict answers every target the site has
        resolved in one probe, so a site with two, three or eight live
        targets hits as often as a monomorphic one.

        Cycle charges and ``indirect_resolutions`` are emitted before
        the cache code and are identical on every path — all model the
        same resolver work — so the interpreted oracle stays
        bit-identical; only the host-side
        ``HostStats.ic`` counters see the difference.
        """
        if final is None:
            emit.emit("return (target, None, None, None)")
            return False
        name = slot_names[id(final)]
        junction = hand_over is not None and hand_over[0] is final
        if final.exit.kind != ExitKind.INDIRECT:
            if junction:
                raise CompileError("a static exit of an indirect jump")
            emit.emit(
                "return (target, %s, None, %s.linked_resident)" % (name, name)
            )
            return False
        ic = "ic" + name[len("slot"):]
        uses.update(("ics", "cache", "ic_resolve", ic))
        lit = _flt(self.cost.indirect_resolution)
        emit.emit("stats.translated_exec_cycles += %s" % lit)
        emit.emit("stats._total += %s" % lit)
        emit.emit("stats.indirect_resolutions += 1")
        emit.emit("if %s[0] != cache.generation or (e := %s[1].get(target))"
                  " is None:" % (ic, ic))
        emit.emit("return (target, %s, None, ic_resolve(%s, target))"
                  % (name, ic), 3)
        emit.emit("ics.hits += 1")
        leave = "return (target, %s, None, e)" % name
        if junction:
            self._emit_junction(emit, uses, "e", leave, hand_over[1], 2)
        else:
            emit.emit(leave)
        return junction
