"""The trace-compilation tier: specialize traces into Python closures.

The interpreted dispatcher (:meth:`repro.vm.engine.Engine` with
``dispatch_mode="interpreted"``) re-pays Python-level interpretation cost
on every micro-op: a ``step_uop`` call, a tuple unpack, and a long
opcode-compare chain per instruction, plus per-callback context handling
and per-step accounting.  That is exactly the overhead the source paper's
engine avoids by *emitting* specialized code once and executing it many
times — so this module does the same one level up: it compiles each
:class:`~repro.vm.translator.TranslatedTrace` into **one straight-line
Python closure** whose body inlines the trace's opcode semantics.

Specializations applied per trace:

* opcode semantics inlined from the shared per-op expression table
  (:data:`repro.machine.cpu.UOP_VALUE_EXPRESSIONS`) — no ``step_uop``
  call, no tuple dispatch, register indexes and immediates baked in as
  literals;
* the signed-64-bit wrap check is dropped for ops that provably cannot
  overflow (:data:`repro.machine.cpu.OVERFLOW_SAFE_OPS`);
* memory ops split on region fusion, the observable hotness signal.
  In a solo trace body every ``LD``/``ST`` is one call to the run's
  ``load``/``store`` helpers (:func:`memory_helpers`), which hold the
  hot-mapping fast path, the fault rewrapping and the SMC check out of
  line, so the hundreds of bodies a warm-up compiles stay small.  A
  fused region body carries the hot loops, so each of its sites is an
  inline window hit over locals bound once per entry, and calls the
  helper only on a miss, a store into a mapping that holds executed
  code, or a store value outside int64;
* analysis-point checks are hoisted out entirely for traces with no
  instrumentation; instrumented sites inline the callback invocation
  against the run's single mutable :class:`AnalysisContext`;
* instruction/cycle accounting is batched per exit: the step count to
  every exit is a compile-time constant, so each exit performs one
  counter add and one pre-multiplied ``charge_exec`` call;
* branch exits resolve through link-slot locals captured at
  specialization time.

The closure's observable behavior is **bit-identical** to the interpreted
tier: same registers/memory effects, same exception types and messages,
same ``VMStats`` counters and the same cycle floats charged in the same
order (cost-model products are folded at compile time, which produces the
identical IEEE result to the runtime multiply).  The interpreted tier
stays the reference oracle; ``tests/test_dispatch_equivalence.py``
enforces the equivalence over the workloads corpus.

Compiled bodies are plain Python objects attached to the resident trace
(:attr:`TranslatedTrace.compiled_body`).  They are invalidated with the
trace on code-cache eviction (self-modifying code, module unload) and
flush; the closures themselves are never persisted (simulated cycles are
identical across tiers by construction — host-level compilation time is
the price the simulator pays once to run many times faster).

**Tier-up.**  Most traces a program selects run only a handful of times,
so compiling every trace at its first entry spends most of a cold run in
host ``compile()``.  Instead a trace runs on the engine's cold tier —
one :meth:`repro.machine.cpu.ExecutionContext.run_uops` call per entry,
or the oracle's per-uop loop when it has analysis points, bit-identical
per execution — until its *compile entry*, decided once at its first
entry by :meth:`TraceCompiler.compile_entry`:

* **1** when the body needs no host ``compile()``: a factory-memo hit,
  or a digest the attached body store already holds in memory;
* **2** for a trace revived from the persistent cache: its one host
  compile is stored and reused by every later process, yet a revived
  trace entered only once never pays it;
* otherwise ``compile_threshold`` (:data:`DEFAULT_COMPILE_THRESHOLD`;
  1 compiles every trace at its first entry).

Generated **closure factories** are memoized in a module-level table
keyed by everything the source bakes in (uops, entry, links, points,
cost constants), so retranslating the same code — a warm persistent run,
a second application sharing a library at the same base, a module reload
— skips source generation and host compilation entirely and just
re-binds the factory to the new run's captures.  The memo is this
reproduction's own little persistent code cache, one meta-level up.

Two PR-3 extensions complete that story:

* **Persisted bodies** — when a persistence session attaches a
  :class:`repro.persist.sidecar.CompiledBodyStore`, every factory's
  compiled code object is recorded (as ``marshal`` bytes keyed by a
  digest of the factory-memo key) and revived on the next process's
  first run, skipping source generation *and* host ``compile()``
  entirely.  The sidecar is keyed on ``VM_VERSION`` + the host bytecode
  tag, so any codegen or interpreter change invalidates it wholesale.
* **Indirect-branch inline caches** — a JR/RET/CALLR exit carries a
  per-closure **polymorphic chain** of up to :data:`IC_CHAIN_DEPTH`
  ``(target, resident)`` predictions (Pin's indirect-branch chaining),
  guarded wholesale by the code-cache generation.  A hit anywhere in
  the chain hands the resident trace straight back to the dispatcher
  (deeper hits move their entry to the front, so repeating targets stay
  cheap); a miss resolves through the translation map and refills the
  front of the chain; a generation advance (eviction/flush) discards
  the whole chain before it can dispatch a stale resident.  The cycle
  charge and ``indirect_resolutions`` count are identical on every
  path — the IC is host-side memoization of the resolver, not a
  simulated-cost change — and the chain's hit/miss/depth accounting
  lands in the run's :class:`repro.vm.stats.HostStats` (its ``ic``
  group), outside ``VMStats``.
  A **megamorphic overflow tier** backs the chain: every resident the
  site ever resolved is also remembered in a per-site hash table, so a
  target that cycled out of the bounded chain still dispatches without
  a translation-map lookup (``ic.overflow_hits``).  A body holds
  only the front-entry hit under the current generation inline; every
  other path is one call to the run's ``ic_resolve`` helper
  (:func:`inline_cache_helper`), so no body carries its own copy.

Two PR-7 extensions close the paper's trace-linking story:

* **Direct-exit linking** — every direct exit now returns the successor
  *closure's trace* alongside its link slot, probed straight off the
  slot's ``linked_resident`` seam.  The engine's chain trampoline
  (:meth:`repro.vm.engine.Engine._execute_trace`) calls the successor's
  closure immediately — a patched hot exit never re-enters the
  dispatcher.  Safety is inherited, not re-invented: eviction/SMC/flush
  eagerly unlink every incoming slot (the interpreter's invariant), so
  a probe can never produce an evicted trace.
* **Superblock regions** — a stable hot chain of direct-linked traces
  (final-exit links only, so regions are straight-line) is fused by
  :meth:`TraceCompiler.compile_region` into one closure concatenating
  the member bodies.  Each junction re-emits the member's exact exit
  accounting (same float literals, same order — batching never sums
  across members, which would break IEEE bit-identity), then guards on
  link identity (``slot.linked_resident is next_member``) and the
  instruction budget before falling through into the next member's
  inlined body; a failed guard side-exits through the member's own
  slot, exactly like the solo closure.  Region factories flow through
  the same memo and sidecar as trace factories (link state and member
  objects are runtime captures, never marshaled).
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
from repro.loader.mapper import WORD_SIZE, WORD_STRUCT, to_signed_word
from repro.machine.costs import CostModel
from repro.machine.cpu import (
    CODE_PAGE_SHIFT,
    MachineFault,
    OVERFLOW_SAFE_OPS,
    UOP_VALUE_EXPRESSIONS,
    halt_step_event,
    syscall_uop_step,
)
from repro.vm.client import AnalysisContext, PointKind, ToolAccounting
from repro.vm.stats import IC_CHAIN_DEPTH, HostStats, ICStats, VMStats
from repro.vm.trace import ExitKind
from repro.vm.translator import TranslatedTrace

#: Sentinel stored in ``TranslatedTrace.compiled_body`` when a trace
#: cannot be specialized; the engine then runs it on the cold tier.
UNCOMPILABLE = object()

#: Trampoline hops through one final-exit link before the engine tries
#: to fuse the chain downstream into a superblock region.  Low enough
#: that steady-state loops fuse almost immediately, high enough that a
#: cold path never pays region compilation.
REGION_FUSE_THRESHOLD = 16
#: Maximum member traces in one fused region (keeps generated bodies,
#: and the blast radius of one member's invalidation, bounded).
REGION_MAX_MEMBERS = 8
#: Entries a fresh trace runs on the cold tier before it compiles.  At
#: startup, 98% of the traces the GUI apps select run 32 times or fewer.
DEFAULT_COMPILE_THRESHOLD = 32


class CompileError(Exception):
    """Raised when a trace cannot be specialized into a closure."""


# Opcode integer constants (mirroring repro.machine.cpu's fast path).
_NOP = 0x00
_DIV = 0x04
_SHRI = 0x15
_LD, _ST = 0x20, 0x21
_BEQ, _BNE, _BLT, _BGE = 0x30, 0x31, 0x32, 0x33
_JMP, _CALL, _JR, _CALLR, _RET = 0x38, 0x39, 0x3A, 0x3B, 0x3C
_SYSCALL, _HALT = 0x40, 0x41

_BRANCH_CONDITIONS = {
    _BEQ: "==",
    _BNE: "!=",
    _BLT: "<",
    _BGE: ">=",
}

_INT64_MIN = -9223372036854775808
_INT64_MAX = 9223372036854775807

#: Memoized closure factories, keyed by everything the generated source
#: bakes in (see :func:`_trace_key`).  Each value is a ``(make, digest,
#: body_bytes)`` tuple: the compiled ``_make`` function, the sidecar
#: digest of its key, and the ``marshal`` serialization of its code
#: object (so a memo hit can still populate a fresh sidecar without
#: recompiling).  A hit skips source generation, host compilation *and*
#: the module ``exec`` — the factory is simply re-bound to the new run's
#: captures.  Bounded: the table is flushed wholesale when it outgrows
#: the cap (the same reclamation policy the code cache uses).
_FACTORIES: Dict[tuple, tuple] = {}
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
    covers its members' keys in order.
    """
    if key[0] == "region":
        return hashlib.sha256(
            b"region" + b"".join([_key_bytes(member) for member in key[1:]])
        ).hexdigest()
    return hashlib.sha256(b"trace" + _key_bytes(key)).hexdigest()


class _NullCodeCache:
    """Stand-in when no code cache is attached (direct compiler use):
    indirect inline caches never validate and never fill."""

    generation = -1

    @staticmethod
    def lookup(original_addr: int):
        return None


def code_object_cache_size() -> int:
    """Number of memoized closure factories (introspection/tests)."""
    return len(_FACTORIES)


def clear_code_object_cache() -> None:
    """Drop every memoized factory (tests/benchmark hygiene)."""
    _FACTORIES.clear()


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
    """Tiny indented-source builder."""

    def __init__(self) -> None:
        self.lines: List[str] = []

    def emit(self, line: str, depth: int = 2) -> None:
        self.lines.append("    " * depth + line)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _store(
    out: _Emitter, uses: set, rd: int, expr: str, *, may_overflow: bool
) -> None:
    """Emit a register write with the wrap check only when needed."""
    if rd == regs.ZERO:
        return  # writes to the zero register are discarded
    if not may_overflow:
        out.emit("r[%d] = %s" % (rd, expr))
        return
    uses.add("to_signed")
    out.emit("v = %s" % expr)
    out.emit(
        "r[%d] = v if %d <= v <= %d else to_signed(v)"
        % (rd, _INT64_MIN, _INT64_MAX)
    )


def _address(rs1: int, imm: int) -> str:
    """The effective-address expression of a memory op."""
    return "r[%d] + %d" % (rs1, imm) if imm else "r[%d]" % rs1


def memory_helpers(machine):
    """Build the run's ``load(addr, pc)`` and ``store(addr, value, pc)``.

    Every LD/ST site of a solo trace body is one call to these, which
    keeps the bodies a warm-up compiles by the hundred small.  A region
    body inlines the window hit and calls them only on its fallbacks
    (see :meth:`TraceCompiler._emit_memory_op`).  An access inside the
    address space's window
    (:attr:`repro.loader.mapper.AddressSpace.window`) unpacks or packs
    the word in place; ``store`` takes that path only for a value within
    int64.  Every other access goes through ``read_word`` /
    ``write_word``, and their exception becomes ``MachineFault(str(exc),
    pc)``, as in ``step_uop``.  After the write ``store`` runs
    ``step_uop``'s SMC check, unless it was a window hit into a code-free
    mapping: the written word's first code page, the next page only when
    the word straddles into it, then ``machine.on_code_write``.
    """
    space = machine.process.space
    window = space.window
    read_word = space.read_word
    write_word = space.write_word
    unpack_from = WORD_STRUCT.unpack_from
    pack_into = WORD_STRUCT.pack_into
    pages = machine.executed_code_pages
    code_write = machine.on_code_write
    shift = CODE_PAGE_SHIFT
    page_mask = (1 << CODE_PAGE_SHIFT) - 1
    # A word starting past this page offset ends on the next page.
    last_unstraddled = (1 << CODE_PAGE_SHIFT) - WORD_SIZE

    def load(addr, pc):
        base, last, data, _code_free = window
        offset = addr - base
        if 0 <= offset <= last:
            return unpack_from(data, offset)[0]
        try:
            return read_word(addr)
        except Exception as exc:
            raise MachineFault(str(exc), pc) from exc

    def store(addr, value, pc):
        base, last, data, code_free = window
        offset = addr - base
        if (0 <= offset <= last
                and -9223372036854775808 <= value <= 9223372036854775807):
            pack_into(data, offset, value)
            if code_free:
                return
        else:
            try:
                write_word(addr, value)
            except Exception as exc:
                raise MachineFault(str(exc), pc) from exc
        page = addr >> shift
        if page in pages or (
            addr & page_mask > last_unstraddled and page + 1 in pages
        ):
            code_write(addr)

    return load, store


def inline_cache_helper(cache, ics: ICStats):
    """Build the run's ``ic_resolve(ic, target)``: every inline-cache
    path but the front-entry hit.

    A body's indirect exit checks inline only that its cell ``ic``
    (``[generation, MRU-first chain, overflow table]``, see
    :meth:`TraceCompiler._emit_indirect_exit`) is current and that the
    chain's front entry predicts ``target``; everything else is one call
    to this helper, which returns the resident trace for ``target`` or
    None.  Under the current generation it tries the deeper chain
    entries (a hit moves to the front) and then the overflow table.  A
    stale cell is emptied (``ics.resets`` counts non-empty ones) and
    takes the current generation.  Otherwise the target is a miss:
    resolved through ``cache.lookup``, and a resident result refills
    the chain's front, truncated to :data:`IC_CHAIN_DEPTH`, and the
    overflow table.
    """
    lookup = cache.lookup

    def ic_resolve(ic, target):
        generation = cache.generation
        chain = ic[1]
        if ic[0] == generation:
            for depth in range(1, len(chain)):
                pair = chain[depth]
                if pair[0] == target:
                    del chain[depth]
                    chain.insert(0, pair)
                    ics.hits += 1
                    ics.promotions += 1
                    ics.depth_hits[depth] += 1
                    return pair[1]
            resident = ic[2].get(target)
            if resident is not None:
                ics.overflow_hits += 1
                return resident
        else:
            if chain or ic[2]:
                del chain[:]
                ic[2].clear()
                ics.resets += 1
            ic[0] = generation
        ics.misses += 1
        resident = lookup(target)
        if resident is not None:
            chain.insert(0, (target, resident))
            if len(chain) > IC_CHAIN_DEPTH:
                del chain[IC_CHAIN_DEPTH:]
            ic[2][target] = resident
            ics.fills += 1
        return resident

    return ic_resolve


def _capture_lists(translated: TranslatedTrace):
    """The run-varying objects a trace's closure captures, in the
    canonical order both :meth:`TraceCompiler._generate` (naming) and
    :meth:`TraceCompiler._captures` (binding on factory-memo hits) use:
    the final slot first, then per instruction its analysis callbacks
    followed by its branch slot."""
    slots: List[object] = []
    callbacks: List[object] = []
    final = translated.final_slot
    if final is not None:
        slots.append(final)
    points_by_index = translated.points_by_index
    for index, uop in enumerate(translated.trace.uops):
        for point in points_by_index.get(index, ()):
            callbacks.append(point.callback)
        if uop[0] in _BRANCH_CONDITIONS and uop[4] != 0:
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
        compile_threshold: int = DEFAULT_COMPILE_THRESHOLD,
    ):
        self.machine = machine
        #: Compile entry of a fresh trace (see :meth:`compile_entry`).
        self.compile_threshold = compile_threshold
        self.stats = stats
        self.accounting = accounting
        self.cost = cost_model
        self.acx = analysis_context
        cache = code_cache if code_cache is not None else _NullCodeCache()
        #: The run's host counters: compile counts here, inline-cache and
        #: link counters in the closures this compiler builds.
        self.host = host if host is not None else HostStats()
        #: The attached compiled-body sidecar store, or None (attached by
        #: the persistence session via :meth:`attach_body_store`).
        self.body_store = None
        load, store = memory_helpers(machine)
        #: The run-scoped capture namespace, shared by every closure this
        #: compiler builds (per-trace state travels separately).
        self._context = SimpleNamespace(
            machine=machine,
            stats=stats,
            to_signed=to_signed_word,
            MachineFault=MachineFault,
            load=load,
            store=store,
            window=machine.process.space.window,
            unpack_from=WORD_STRUCT.unpack_from,
            pack_into=WORD_STRUCT.pack_into,
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
        """Attach a :class:`~repro.persist.sidecar.CompiledBodyStore`.

        Subsequent factory-memo misses first try the store (reviving the
        marshaled code object skips source generation and host
        ``compile()``), and every factory this compiler touches is
        recorded into it so the write-back persists a complete set.
        """
        self.body_store = store

    # -- public API -----------------------------------------------------------

    def compile_entry(self, translated: TranslatedTrace) -> int:
        """Decide, at its first entry, the entry ``translated`` compiles on.

        1 when the body needs no host ``compile()`` (a factory-memo hit,
        or the attached store's in-memory ``entries`` holds its digest),
        2 when the trace was revived from the persistent cache, otherwise
        :attr:`compile_threshold`.  The memo key, and the digest when the
        store was consulted, are kept on the trace for :meth:`compile`.
        """
        key = _trace_key(translated, self.cost)
        digest = None
        entry = self.compile_threshold
        if key in _FACTORIES:
            entry = 1
        else:
            store = self.body_store
            if store is not None and store.entries:
                digest = _body_digest(key)
                if digest in store.entries:
                    entry = 1
            if translated.from_persistent:
                entry = min(entry, 2)
        translated.compile_key = (key, digest)
        translated.compile_at = entry
        return entry

    def compile(self, translated: TranslatedTrace):
        """Specialize ``translated``; attach and return the closure.

        On failure the :data:`UNCOMPILABLE` sentinel is attached and
        returned, and the engine executes the trace interpreted — the
        tiers are observably identical, so falling back is always safe.
        """
        try:
            key, digest = translated.compile_key or (
                _trace_key(translated, self.cost), None
            )
            slots, callbacks = _capture_lists(translated)
            make = self._factory(
                key, digest,
                lambda: self._generate(translated, slots, callbacks),
                "<trace@0x%x>" % translated.entry,
            )
        except CompileError:
            translated.compiled_body = UNCOMPILABLE
            return UNCOMPILABLE
        body = make(self._context, slots, callbacks)
        translated.compiled_body = body
        self.host.compiles += 1
        return body

    def compile_region(self, members: List[TranslatedTrace]):
        """Fuse a stable hot chain into one superblock closure.

        ``members`` is the chain in execution order (head first); every
        member must be resident and every junction link patched — the
        engine's fusion driver (:meth:`repro.vm.engine.Engine._maybe_fuse`)
        validates both.  Returns the region closure (the caller installs
        it as the *head* trace's ``compiled_body``; middle members keep
        their solo closures for middle entry), or None when any member
        cannot be specialized.

        Region factories ride the same memo and sidecar as trace
        factories under a composite key: link slots, member trace
        objects and analysis callbacks are runtime captures re-bound per
        run, so no link state ever enters the marshaled code object.
        """
        try:
            key = ("region",) + tuple(
                _trace_key(member, self.cost) for member in members
            )
            slots: List[object] = []
            callbacks: List[object] = []
            for member in members:
                member_slots, member_callbacks = _capture_lists(member)
                slots.extend(member_slots)
                callbacks.extend(member_callbacks)
            make = self._factory(
                key, None,
                lambda: self._generate_region(members, slots, callbacks),
                "<region@0x%x>" % members[0].entry,
            )
            body = make(self._context, slots, callbacks, members)
        except CompileError:
            return None
        self.host.regions_compiled += 1
        return body

    def _factory(self, key: tuple, digest: Optional[str], source_fn,
                 filename: str):
        """The ``_make`` factory for ``key``: a memo hit, else a sidecar
        revive or a host compile (:meth:`_build_factory`), memoized."""
        cached = _FACTORIES.get(key)
        if cached is not None:
            make, digest, body_bytes = cached
            self.host.memo_hits += 1
            store = self.body_store
            if store is not None and digest not in store.entries:
                # A fresh (or pruned) sidecar still learns bodies the
                # in-process memo already knows, at zero compile cost.
                store.record_bytes(digest, body_bytes)
            return make
        if digest is None:
            digest = _body_digest(key)
        make, body_bytes = self._build_factory(source_fn, filename, digest)
        if len(_FACTORIES) >= _FACTORIES_CAP:
            _FACTORIES.clear()
        _FACTORIES[key] = (make, digest, body_bytes)
        return make

    def _build_factory(self, source_fn, filename: str, digest: str):
        """Produce ``(make, marshal_bytes)`` for a memo miss.

        Tries the attached sidecar first — a hit ``exec``\\ s the revived
        code object, skipping source generation and host ``compile()``;
        a miss (or no store) compiles from ``source_fn()`` and records
        the result into the store for the next process.
        """
        store = self.body_store
        if store is not None:
            code = store.lookup_code(digest)
            if code is not None:
                namespace: Dict[str, object] = {}
                try:
                    exec(code, namespace)  # noqa: S102 - keyed on VM version
                    make = namespace["_make"]
                except Exception:
                    # A structurally valid blob that does not define the
                    # factory (foreign or hand-damaged content the CRCs
                    # cannot judge): treat as a miss and recompile.
                    pass
                else:
                    self.host.body_hits += 1
                    return make, store.entries[digest]
        code = compile(source_fn(), filename, "exec")
        self.host.host_compiles += 1
        # Exec what is marshaled: a fresh compile and a revive then run
        # the same code object.
        code = _strip_line_tables(code)
        namespace = {}
        exec(code, namespace)  # noqa: S102 - self-generated source
        make = namespace["_make"]
        body_bytes = marshal.dumps(code)
        if store is not None:
            store.record_bytes(digest, body_bytes)
        return make, body_bytes

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
        self._emit_trace_body(emit, uses, translated, slot_names, 0)
        return self._factory_source(
            emit, uses, len(slots), len(callbacks), region_members=0
        )

    def _generate_region(
        self, members: List[TranslatedTrace], slots, callbacks
    ) -> str:
        """Produce the factory source for one superblock region.

        The source defines ``_make(C, slots, callbacks, members)``:
        ``slots``/``callbacks`` concatenate the members' capture lists in
        chain order, ``members`` are the member trace objects the
        junction guards compare by identity.  The body is the members'
        solo bodies concatenated; every junction emits the departing
        member's exact exit accounting, then a link-identity + budget
        guard that either falls through into the next member's body or
        side-exits through the member's own final slot.
        """
        slot_names = {id(slot): "slot%d" % i for i, slot in enumerate(slots)}
        uses: set = {"links"}
        emit = _Emitter()
        emit.emit("links.region_entries += 1")
        cb_base = 0
        for position, member in enumerate(members):
            junction = None
            if position + 1 < len(members):
                junction = self._make_junction(
                    emit, uses, member, members[position + 1],
                    position + 1, slot_names,
                )
            cb_base = self._emit_trace_body(
                emit, uses, member, slot_names, cb_base, junction=junction,
                inline_memory=True,
            )
        return self._factory_source(
            emit, uses, len(slots), len(callbacks),
            region_members=len(members),
        )

    def _make_junction(self, emit, uses, member, nxt, nxt_pos, slot_names):
        """Build the emit-callback for one intra-region junction.

        The guard is self-healing by construction: eviction/SMC/flush
        eagerly unlink every incoming slot, so ``linked_resident is not
        <next member>`` catches a dead or replaced successor the moment
        control reaches the junction — even for regions already on the
        call stack — and the side exit re-enters the normal (slot,
        resident) protocol.  The budget re-check makes a fused chain
        fault at exactly the boundary the dispatcher would have.
        """
        final = member.final_slot
        if final is None or not final.is_linkable:
            raise CompileError(
                "region member 0x%x has no linkable final exit"
                % member.entry
            )
        final_name = slot_names[id(final)]
        next_name = "m%d" % nxt_pos
        next_entry = nxt.entry

        def junction(target_pc: int, emit_accounting) -> None:
            if target_pc != next_entry:
                raise CompileError(
                    "junction target 0x%x does not reach member 0x%x"
                    % (target_pc, next_entry)
                )
            emit_accounting()
            uses.update(("links", "budget"))
            emit.emit(
                "if %s.linked_resident is not %s"
                " or stats.instructions_executed >= budget:"
                % (final_name, next_name)
            )
            emit.emit(
                "return (%d, %s, None, %s.linked_resident)"
                % (target_pc, final_name, final_name), 3
            )
            emit.emit("%s.executions += 1" % next_name)
            emit.emit("links.region_hops += 1")

        return junction

    def _emit_trace_body(
        self, emit, uses, translated, slot_names, cb_base, junction=None,
        inline_memory=False,
    ) -> int:
        """Emit one trace's inlined instruction semantics at depth 2.

        Shared by solo-trace and region generation: ``slot_names`` maps
        link-slot identity to bound local names, analysis callbacks are
        named ``cb<k>`` counting from ``cb_base``.  ``junction`` (region
        non-last members only) replaces the final linkable exit's return
        with an inline guard + fall-through into the next member's body.
        ``inline_memory`` (region members) emits each memory op as an
        inline window hit (:meth:`_emit_memory_op`) instead of one helper
        call.  Returns the callback index after this trace.
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

        def exit_accounting(steps: int, depth: int = 2) -> None:
            # Inlined stats.charge_exec — same fields, same order, same
            # pre-folded float literal, so the accumulation is
            # bit-identical to the interpreted tier's method call.
            lit = _flt(steps * ti)
            emit.emit("stats.instructions_executed += %d" % steps, depth)
            emit.emit("stats.translated_exec_cycles += %s" % lit, depth)
            emit.emit("stats._total += %s" % lit, depth)

        final = translated.final_slot
        final_name = slot_names[id(final)] if final is not None else None

        def final_exit(target_pc: int, steps: int, index: int) -> None:
            # The final direct exit (terminator or fall-through): probe
            # the link seam so a patched exit hands the successor trace
            # straight to the engine's chain trampoline.
            if junction is not None:
                if index != n - 1:
                    raise CompileError(
                        "junction exit is not the trace terminator"
                    )
                junction(target_pc, lambda: exit_accounting(steps))
            elif final_name is None:
                exit_accounting(steps)
                emit.emit("return (%d, None, None, None)" % target_pc)
            else:
                exit_accounting(steps)
                emit.emit(
                    "return (%d, %s, None, %s.linked_resident)"
                    % (target_pc, final_name, final_name)
                )

        cb_index = cb_base
        for index in range(n):
            uop = uops[index]
            op, rd, rs1, rs2, imm = uop
            pc = entry + index * INSTRUCTION_SIZE

            for point in points_by_index.get(index, ()):
                cb = "cb%d" % cb_index
                cb_index += 1
                uses.add("acx")
                uses.add("record_call")
                emit.emit("acx.address = %d" % pc)
                emit.emit("acx.trace_entry = %d" % entry)
                emit.emit("acx.index = %d" % index)
                if point.wants_effective_address and op in (_LD, _ST):
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

            if op in UOP_VALUE_EXPRESSIONS:
                sh = imm & 63
                expr = UOP_VALUE_EXPRESSIONS[op].format(
                    rs1=rs1, rs2=rs2, imm=imm, sh=sh
                )
                may_overflow = op not in OVERFLOW_SAFE_OPS
                if op == _SHRI and sh != 0:
                    # A non-zero unsigned right shift cannot overflow.
                    may_overflow = False
                _store(emit, uses, rd, expr, may_overflow=may_overflow)
            elif op in (_LD, _ST):
                if inline_memory:
                    self._emit_memory_op(emit, uses, uop, pc)
                elif op == _LD:
                    # Solo sites are one helper call each (memory_helpers
                    # holds the fault handling and the SMC check).
                    uses.add("load")
                    call = "load(%s, %d)" % (_address(rs1, imm), pc)
                    # load yields an in-range signed word: no wrap check.
                    if rd != regs.ZERO:
                        call = "r[%d] = %s" % (rd, call)
                    emit.emit(call)
                else:
                    uses.add("store")
                    emit.emit(
                        "store(%s, r[%d], %d)"
                        % (_address(rs1, imm), rs2, pc)
                    )
            elif op == _DIV:
                uses.add("MachineFault")
                emit.emit("d = r[%d]" % rs2)
                emit.emit("if d == 0:")
                emit.emit('raise MachineFault("division by zero", %d)' % pc, 3)
                # int(a / b) truncates toward zero via float division —
                # deliberately identical to step_uop, including its
                # precision behavior for large operands.
                _store(emit, uses, rd, "int(r[%d] / d)" % rs1, may_overflow=True)
            elif op in _BRANCH_CONDITIONS:
                if imm != 0:
                    taken = pc + INSTRUCTION_SIZE + imm
                    slot_name = slot_names[id(translated.branch_slots[index])]
                    emit.emit(
                        "if r[%d] %s r[%d]:"
                        % (rs1, _BRANCH_CONDITIONS[op], rs2)
                    )
                    exit_accounting(index + 1, 3)
                    emit.emit(
                        "return (%d, %s, None, %s.linked_resident)"
                        % (taken, slot_name, slot_name), 3
                    )
                # A zero-offset taken branch lands on the fall-through
                # address: indistinguishable from not-taken, stays inline.
            elif op == _JMP:
                final_exit(imm, index + 1, index)
            elif op == _CALL:
                emit.emit("r[%d] = %d" % (regs.LR, pc + INSTRUCTION_SIZE))
                final_exit(imm, index + 1, index)
            elif op in (_JR, _RET, _CALLR):
                source_reg = regs.LR if op == _RET else rs1
                emit.emit("target = r[%d]" % source_reg)
                if op == _CALLR:
                    emit.emit("r[%d] = %d" % (regs.LR, pc + INSTRUCTION_SIZE))
                exit_accounting(index + 1)
                self._emit_indirect_exit(emit, uses, translated, final_name)
            elif op == _SYSCALL:
                uses.add("syscall_step")
                emit.emit(
                    "target, event = syscall_step(machine, %d)"
                    % (pc + INSTRUCTION_SIZE)
                )
                exit_accounting(index + 1)
                emit.emit("return (target, None, event, None)")
            elif op == _HALT:
                uses.add("halt_event")
                emit.emit("event = halt_event()")
                exit_accounting(index + 1)
                emit.emit("return (None, None, event, None)")
            elif op == _NOP:
                pass
            else:
                raise CompileError("unknown opcode 0x%02x" % op)

        last_op = uops[-1][0]
        if last_op < _JMP:
            # Instruction-limit fall-through exit.
            final_exit(entry + n * INSTRUCTION_SIZE, n, n - 1)
        return cb_index

    @staticmethod
    def _emit_memory_op(emit, uses, uop, pc: int) -> None:
        """One region-body LD/ST as an inline window hit.

        ``wb, wl, wd, wc`` are the window's slots, bound to locals at
        region entry.  A load hits when the word lies inside the
        window's mapping; a store also needs a code-free mapping and a
        value within int64 (``write_word`` wraps, ``pack_into`` would
        raise).  Anything else calls the run's helper, which handles
        the lookup, the fault and the SMC check exactly as for a solo
        site, then re-reads the window the helper may have moved.
        """
        op, rd, rs1, rs2, imm = uop
        uses.update(("window", "load" if op == _LD else "store"))
        emit.emit("o = %s - wb" % _address(rs1, imm))
        if op == _LD:
            if rd == regs.ZERO:
                # Discarded value: only a miss (which may fault) matters.
                emit.emit("if not 0 <= o <= wl:")
                emit.emit("load(o + wb, %d)" % pc, 3)
            else:
                uses.add("unpack_from")
                emit.emit("if 0 <= o <= wl:")
                emit.emit("r[%d] = unpack_from(wd, o)[0]" % rd, 3)
                emit.emit("else:")
                emit.emit("r[%d] = load(o + wb, %d)" % (rd, pc), 3)
        else:
            uses.add("pack_into")
            emit.emit("v = r[%d]" % rs2)
            emit.emit(
                "if wc and 0 <= o <= wl and %d <= v <= %d:"
                % (_INT64_MIN, _INT64_MAX)
            )
            emit.emit("pack_into(wd, o, v)", 3)
            emit.emit("else:")
            emit.emit("store(o + wb, v, %d)" % pc, 3)
        emit.emit("wb, wl, wd, wc = window", 3)

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
        if "ic" in uses:
            # The polymorphic indirect inline cache: [generation seen at
            # last use, MRU-first chain of (target, resident) pairs,
            # overflow table of every (target -> resident) the site has
            # resolved].  One cell per closure (a trace has at most one
            # indirect exit, and only a region's last member can own
            # one), fresh per factory binding so a run never inherits
            # another run's residents.
            out.emit("ic = [-1, [], {}]", 1)
        for i in range(n_slots):
            out.emit("slot%d = slots[%d]" % (i, i), 1)
        for i in range(n_callbacks):
            out.emit("cb%d = callbacks[%d]" % (i, i), 1)
        # Junction guards compare successors by identity; the head
        # (members[0]) is entered by the caller and never referenced.
        for i in range(1, region_members):
            out.emit("m%d = members[%d]" % (i, i), 1)
        out.emit("def run():", 1)
        out.emit("r = machine.registers")
        if "window" in uses:
            out.emit("wb, wl, wd, wc = window")
        out.lines.extend(emit.lines)
        out.emit("return run", 1)
        return out.source()

    def _emit_indirect_exit(
        self, emit: _Emitter, uses: set, translated, final_name
    ) -> None:
        """Terminator through the indirect-target resolver.

        Mirrors the interpreted dispatcher: an INDIRECT final exit pays
        the hash-lookup charge and returns to the dispatcher slot-less;
        any other final-exit kind (not reachable for JR/RET/CALLR traces
        built by the selector, but persisted caches are data) leaves via
        the final slot.

        The INDIRECT path carries a polymorphic inline cache (Pin's
        indirect-branch chaining): an MRU-first chain of up to
        :data:`~repro.vm.stats.IC_CHAIN_DEPTH` ``(target, resident)``
        predictions, validated wholesale against the code-cache
        generation.  Only the common case is inline: a current cell
        whose front entry predicts the target returns its resident.
        Every other path is one call to the run's ``ic_resolve``
        (:func:`inline_cache_helper`): a deeper hit is promoted to the
        front (move-to-front keeps an alternating pair at depth 1 and a
        rotating triple at depth 2); a generation advance discards the
        whole chain — an evicted trace can never be dispatched; a miss
        resolves through the translation map and refills the front,
        truncating the chain to its depth bound.  One helper instead of
        a copy per body keeps every body with an indirect exit small.

        Behind the chain sits the **megamorphic overflow tier**: a
        per-site hash table remembering every ``(target -> resident)``
        the site has resolved, filled at each miss and validated by the
        same generation word as the chain.  A target that cycled out of
        the bounded chain (e.g. an 8-way dispatch-table rotation over a
        depth-4 chain) dispatches from the table without a
        translation-map lookup and *without reordering the chain* — the
        MRU entries stay reserved for the truly-hot targets.

        Cycle charges and ``indirect_resolutions`` are emitted before
        the cache code and are identical on every path — all model the
        same resolver work — so the interpreted oracle stays
        bit-identical; only the host-side
        ``HostStats.ic`` counters see the difference.
        """
        final = translated.final_slot
        if final is not None and final.exit.kind == ExitKind.INDIRECT:
            uses.update(("ic", "ics", "cache", "ic_resolve"))
            lit = _flt(self.cost.indirect_resolution)
            emit.emit("stats.translated_exec_cycles += %s" % lit)
            emit.emit("stats._total += %s" % lit)
            emit.emit("stats.indirect_resolutions += 1")
            emit.emit("if ic[0] == cache.generation:")
            emit.emit("e = ic[1]", 3)
            emit.emit("if e and e[0][0] == target:", 3)
            emit.emit("ics.hits += 1", 4)
            emit.emit("ics.depth_hits[0] += 1", 4)
            emit.emit("return (target, None, None, e[0][1])", 4)
            emit.emit("return (target, None, None, ic_resolve(ic, target))")
        elif final_name is None:
            emit.emit("return (target, None, None, None)")
        else:
            emit.emit(
                "return (target, %s, None, %s.linked_resident)"
                % (final_name, final_name)
            )
