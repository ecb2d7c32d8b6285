"""The DBI engine: compilation unit + dispatcher + emulation glue.

:class:`Engine` runs a loaded process entirely under VM control, the way
Pin does: *every* instruction executes from the software code cache, never
from the original image.  The run loop is the dispatcher:

1. look the current original PC up in the translation map;
2. on a miss, enter the VM (cost), select and translate a trace (cost),
   insert and link it;
3. execute the trace out of the code cache (translated-inst costs,
   analysis-callback costs);
4. leave the trace through one of its exits — directly to a linked trace
   (free), through the indirect-target resolver (hash-lookup cost), via
   syscall emulation, or back to the VM for a missing target.

A persistence session (see :mod:`repro.persist.manager`) can be attached;
the engine calls its hooks at process start (cache lookup + preload), at
code-cache flush, and at exit (cache generation / accumulation), exactly
the integration points the paper describes in §3.2.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.isa.instructions import INSTRUCTION_SIZE
from repro.loader.linker import LoadedProcess
from repro.machine.costs import CostModel, DEFAULT_COST_MODEL
from repro.machine.cpu import (
    ExecutionContext,
    Machine,
    MachineFault,
    apply_module_event,
    apply_thread_event,
)
from repro.vm.client import AnalysisContext, NullTool, Tool, ToolAccounting
from repro.vm.codecache import (
    CacheFull,
    CodeCache,
    DEFAULT_CODE_POOL_BYTES,
    DEFAULT_DATA_POOL_BYTES,
)
from repro.vm.compile import (
    DEFAULT_COMPILE_THRESHOLD,
    REGION_FUSE_THRESHOLD,
    REGION_MAX_MEMBERS,
    TraceCompiler,
    UNCOMPILABLE,
)
from repro.vm.stats import HostStats, ICStats, LinkStats, VMStats
from repro.vm.trace import ExitKind, TraceSelector
from repro.vm.translator import TranslatedTrace, Translator
from repro.isa.opcodes import Opcode

#: Opcode-range bounds used by the dispatcher's hot loop.
_COND_LO = int(Opcode.BEQ)
_COND_HI = int(Opcode.BGE)
_UNCOND_LO = int(Opcode.JMP)
_HALT_OP = int(Opcode.HALT)
_MEMORY_OPS = (int(Opcode.LD), int(Opcode.ST))

#: Version stamp of the run-time system.  Part of every persistent-cache
#: key: "code and the data structures are specific to a version of the
#: system and cannot be utilized across versions".  Bump on any change
#: to translation *or* to the compiled tier's closure codegen — the
#: compiled-body sidecar (repro.persist.sidecar) revives host code
#: objects keyed on this stamp, so stale codegen must miss wholesale.
VM_VERSION = "repro-dbi-1.8.0"


class EngineError(Exception):
    """Raised for unrecoverable engine conditions (e.g. trace > pool)."""


def _persistence_failure_types() -> tuple:
    """Exception types that must degrade persistence, not kill the run."""
    from repro.persist.cachefile import CacheFileError

    return (CacheFileError, OSError)


@dataclass
class VMConfig:
    """Engine tunables."""

    max_trace_insts: int = 24
    code_pool_bytes: int = DEFAULT_CODE_POOL_BYTES
    data_pool_bytes: int = DEFAULT_DATA_POOL_BYTES
    vm_version: str = VM_VERSION
    max_instructions: int = 200_000_000
    #: Retain translations of unloaded modules and re-register them when
    #: the module reloads at the same base (module-aware translation,
    #: after Li et al.'s IA32EL work the paper discusses in §5).
    module_retention: bool = True
    #: How translated traces execute: ``"compiled"`` specializes each
    #: trace into a Python closure (repro.vm.compile) once it reaches its
    #: compile entry (see ``compile_threshold``) and runs it on the cold
    #: tier before that, one ``ExecutionContext.run_uops`` call per
    #: trace entry; ``"interpreted"`` walks uops through step_uop, one
    #: call per uop.  The tiers are observably identical — same output,
    #: exit status, and VMStats to the bit (see docs/performance.md);
    #: interpreted is the reference oracle, compiled the fast default.
    dispatch_mode: str = "compiled"
    #: Chain compiled closures directly: a patched or IC-predicted exit
    #: hands the successor's closure to the engine's trampoline instead
    #: of re-entering the dispatcher, and stable hot chains fuse into
    #: superblock region closures (repro.vm.compile).  Host-side only —
    #: simulated ``VMStats`` are bit-identical either way; disabling
    #: reverts to the one-closure-call-per-dispatch behavior (the bench
    #: baseline for the trace_linking family).
    trace_linking: bool = True
    #: Compiled-tier tier-up: a fresh trace runs on the cold tier for its
    #: first ``compile_threshold - 1`` entries and compiles on the next.
    #: Traces whose body needs no host ``compile()`` compile at entry 1,
    #: revived persistent traces at entry 2 (repro.vm.compile
    #: ``TraceCompiler.compile_entry``); 1 compiles every trace at its
    #: first entry.  Host-side only — the tiers are observably identical
    #: per execution, so ``VMStats`` is bit-identical at any threshold.
    compile_threshold: int = DEFAULT_COMPILE_THRESHOLD


@dataclass
class VMRunResult:
    """Everything observable from one run under the engine."""

    exit_status: int
    output: bytes
    instructions: int
    stats: VMStats
    tool_accounting: ToolAccounting
    cache_traces: int
    cache_code_bytes: int
    cache_data_bytes: int
    #: Every host-side counter and state of the run (inline caches,
    #: linking, code cache, compiled tier, persistence session).  Kept
    #: outside :class:`VMStats` so the tiers' stats stay bit-identical.
    host: HostStats = field(default_factory=HostStats)

    @property
    def total_cycles(self) -> float:
        return self.stats.total_cycles

    # Read-only views of ``host`` under their former names, which
    # bench/run.py reads.

    @property
    def ic_stats(self) -> ICStats:
        return self.host.ic

    @property
    def link_stats(self) -> LinkStats:
        return self.host.links

    @property
    def persistence_report(self) -> Dict[str, object]:
        """``host.to_dict()``, plus the session report's names for the
        body-revive and host-compile counts."""
        report = self.host.to_dict()
        report["sidecar_hits"] = self.host.body_hits
        report["sidecar_host_compiles"] = self.host.host_compiles
        return report


class Engine:
    """A Pin-like run-time compilation system for the synthetic machine."""

    def __init__(
        self,
        tool: Optional[Tool] = None,
        cost_model: CostModel = DEFAULT_COST_MODEL,
        config: Optional[VMConfig] = None,
        persistence=None,
    ):
        self.tool = tool or NullTool()
        self.cost_model = cost_model
        self.config = config or VMConfig()
        self.persistence = persistence
        #: Set by the degradation backstop when a storage failure escapes
        #: the session: the rest of the run executes JIT-only.
        self._persistence_disabled = False
        #: Per-run state (rebuilt by every run()); persistence hooks
        #: write their counters into ``host``.
        self.host = HostStats()
        self._compiler: Optional[TraceCompiler] = None
        self._analysis_context: Optional[AnalysisContext] = None

    # -- public API -------------------------------------------------------------

    def _persist_hook(self, hook: str, stats: VMStats, *args) -> None:
        """Invoke one persistence-session hook with a degradation backstop.

        The session already downgrades itself on storage failures; this
        wrapper is the engine's last line of defense — any storage error
        that still escapes detaches persistence for the rest of the run
        (JIT-only) instead of raising through the dispatcher, and the
        run's :class:`HostStats` records the degradation.
        """
        session = self.persistence
        if session is None or self._persistence_disabled:
            return
        try:
            getattr(session, hook)(self, *args)
        except _persistence_failure_types() as exc:
            self._persistence_disabled = True
            stats.persistence_storage_errors += 1
            stats.persistence_degraded = 1
            self.host.fallback_jit_only = True
            if not self.host.degraded_reason:
                self.host.degraded_reason = "%s: %s" % (hook, exc)

    def run(
        self,
        process: LoadedProcess,
        args: Tuple[int, ...] = (),
        machine: Optional[Machine] = None,
    ) -> VMRunResult:
        """Execute ``process`` to completion under the VM."""
        dispatch_mode = self.config.dispatch_mode
        if dispatch_mode not in ("interpreted", "compiled"):
            raise EngineError(
                "unknown dispatch_mode %r (expected 'interpreted' or"
                " 'compiled')" % (dispatch_mode,)
            )
        if self.config.compile_threshold < 1:
            raise EngineError(
                "compile_threshold must be >= 1 (got %r)"
                % (self.config.compile_threshold,)
            )
        machine = machine or Machine(process)
        machine.set_args(*args)
        stats = VMStats()
        host = self.host = HostStats()
        machine.os_state.clock = lambda: stats.total_cycles
        cache = CodeCache(
            self.config.code_pool_bytes, self.config.data_pool_bytes,
            track_pages=machine.track_code_pages, stats=host.cache,
        )
        selector = TraceSelector(machine.fetch, self.config.max_trace_insts)
        translator = Translator(self.cost_model, self.tool)
        context = ExecutionContext(machine)
        accounting = ToolAccounting()
        # One mutable analysis context per run, updated in place before
        # every callback (no per-call allocation on the hot path).
        self._analysis_context = AnalysisContext(
            address=0, trace_entry=0, index=0, machine=machine
        )
        self._compiler = (
            TraceCompiler(
                machine, stats, accounting, self.cost_model,
                self._analysis_context, code_cache=cache, host=host,
                max_instructions=self.config.max_instructions,
                compile_threshold=self.config.compile_threshold,
            )
            if dispatch_mode == "compiled"
            else None
        )

        self._persistence_disabled = False
        self._persist_hook("on_process_start", stats, machine, cache, stats)

        def on_code_write(addr: int, _cache=cache, _stats=stats) -> None:
            # Self-modifying code: drop every trace overlapping the
            # modified 512-byte page (paper §3.2.1's invalidation).
            from repro.machine.cpu import CODE_PAGE_SHIFT

            start = (addr >> CODE_PAGE_SHIFT) << CODE_PAGE_SHIFT
            evicted = _cache.evict_range(start, start + (1 << CODE_PAGE_SHIFT))
            if evicted:
                _stats.smc_invalidations += len(evicted)
                _stats.charge_dispatch(self.cost_model.smc_invalidation)

        machine.code_write_listeners.append(on_code_write)

        # Module-aware translation: unloading a module invalidates its
        # traces (stash them); reloading at the same base re-registers
        # them without retranslation.
        module_stash: Dict[Tuple[str, int], list] = {}

        def on_module_event(kind: str, mapping,
                            _cache=cache, _stats=stats) -> None:
            key = (mapping.image.path, mapping.base)
            if kind == "unload":
                _stats.module_unloads += 1
                evicted = _cache.evict_range(mapping.base, mapping.end)
                # Traces of self-modified pages must not survive into the
                # module's next (pristine) incarnation.
                from repro.machine.cpu import CODE_PAGE_SHIFT

                modified = machine.modified_code_pages
                clean = [
                    resident for resident in evicted
                    if not any(
                        page in modified
                        for page in range(
                            resident.trace.entry >> CODE_PAGE_SHIFT,
                            ((resident.trace.end - 1) >> CODE_PAGE_SHIFT) + 1,
                        )
                    )
                ] if modified else evicted
                if self.config.module_retention:
                    module_stash[key] = clean
                self._persist_hook(
                    "on_module_unload", _stats, machine, _stats, mapping, clean
                )
                return
            _stats.module_loads += 1
            self._persist_hook(
                "on_module_load", _stats, machine, _cache, _stats, mapping
            )
            for stashed in module_stash.pop(key, ()):
                if stashed.entry in _cache:
                    continue
                for slot in stashed.links:
                    slot.unlink()  # re-link against current residents
                try:
                    _cache.insert(stashed)
                except CacheFull:
                    break
                _stats.module_traces_retained += 1
                _stats.charge_dispatch(self.cost_model.module_reattach)

        machine.module_listeners.append(on_module_event)

        self.tool.on_start(machine)

        cost = self.cost_model
        exit_status = 0
        pc: Optional[int] = process.entry_address
        # Program start: control begins inside the VM.
        stats.charge_dispatch(cost.vm_entry)
        stats.vm_entries += 1
        arrived_resident: Optional[TranslatedTrace] = None

        budget = self.config.max_instructions
        while pc is not None:
            if stats.instructions_executed >= budget:
                raise MachineFault("instruction budget exhausted", pc)
            if arrived_resident is not None:
                translated = arrived_resident
                arrived_resident = None
            else:
                translated = cache.lookup(pc)
                if translated is None:
                    translated = self._translate_at(
                        pc, machine, selector, translator, cache, stats
                    )
            pc, exit_status, arrived_resident = self._execute_trace(
                translated, context, machine, cache, stats, accounting,
                exit_status
            )
            if (
                pc is not None
                and arrived_resident is None
                and pc in cache
            ):
                # The exit found its target resident (indirect hit or
                # post-emulation resume): no VM round-trip needed.
                arrived_resident = cache.lookup(pc)
            elif pc is not None and arrived_resident is None:
                stats.charge_dispatch(cost.vm_entry)
                stats.vm_entries += 1

        self.tool.on_exit(machine, exit_status)
        self._persist_hook("on_exit", stats, machine, cache, stats)

        result = VMRunResult(
            exit_status=exit_status,
            output=bytes(machine.os_state.output),
            instructions=stats.instructions_executed,
            stats=stats,
            tool_accounting=accounting,
            cache_traces=len(cache),
            cache_code_bytes=cache.code_used,
            cache_data_bytes=cache.data_used,
            host=host,
        )
        # Post-run tap for the record/replay tier: the recording session
        # snapshots the finished result into its log; replay verifies
        # the log ran dry.  Runs after the VMRunResult is built (the
        # baseline needs it).
        self._persist_hook("on_result", stats, result)
        return result

    # -- compilation -------------------------------------------------------------

    def _translate_at(
        self,
        pc: int,
        machine: Machine,
        selector: TraceSelector,
        translator: Translator,
        cache: CodeCache,
        stats: VMStats,
    ) -> TranslatedTrace:
        """Select, translate, insert and link the trace starting at ``pc``."""
        mapping = machine.process.image_at(pc)
        image_path = mapping.image.path if mapping is not None else ""
        image_base = mapping.base if mapping is not None else 0
        trace = selector.select(pc, image_path=image_path, image_base=image_base)
        result = translator.translate(trace)
        stats.charge_translation(result.compile_cycles)
        stats.traces_translated += 1
        stats.record_translation_event(pc)
        stats.translated_bytes_by_image[image_path] = (
            stats.translated_bytes_by_image.get(image_path, 0) + trace.size
        )
        stats.trace_identities.add((image_path, pc - image_base, trace.size))
        translated = result.translated
        try:
            patches = cache.insert(translated)
        except CacheFull:
            self._persist_hook("on_cache_flush", stats, machine, cache, stats)
            stats.charge_dispatch(self.cost_model.cache_flush)
            stats.cache_flushes += 1
            cache.flush()
            try:
                patches = cache.insert(translated)
            except CacheFull as exc:
                raise EngineError(
                    "trace at 0x%x larger than the code cache pools" % pc
                ) from exc
        stats.link_patches += patches
        stats.charge_dispatch(patches * self.cost_model.link_patch)
        return translated

    # -- dispatch / trace execution -----------------------------------------------

    def _execute_trace(
        self,
        translated: TranslatedTrace,
        context: ExecutionContext,
        machine: Machine,
        cache: CodeCache,
        stats: VMStats,
        accounting: ToolAccounting,
        exit_status: int,
    ) -> Tuple[Optional[int], int, Optional[TranslatedTrace]]:
        """Run one trace out of the code cache.

        Returns ``(next_pc, exit_status, next_resident)`` where
        ``next_resident`` is the already-linked next trace when the exit
        was a patched direct link (control never left the cache).

        Three executors run the trace body (identically — see
        docs/performance.md).  Compiled dispatch runs the trace's
        specialized closure.  Tier-up: a trace without a closure runs on
        the cold tier until its compile entry (decided at its first
        entry, see
        :meth:`~repro.vm.compile.TraceCompiler.compile_entry`) and
        compiles on that entry; an uncompilable trace stays there.  The
        cold tier runs a trace without analysis points as one
        :meth:`~repro.machine.cpu.ExecutionContext.run_uops` call.
        Everything else, and every trace under interpreted dispatch,
        runs on the per-uop loop at the end, the reference oracle.  The
        executors are bit-identical per execution, so mixing them
        changes no simulated cost.
        """
        cost = self.cost_model
        if translated.from_persistent and not translated.demand_loaded:
            # Demand-page the persisted trace + its data structures.
            stats.charge_persistence(
                cost.pcache_trace_load + cost.pcache_meta_load
            )
            translated.demand_loaded = True
        translated.executions += 1

        compiler = self._compiler
        if compiler is not None:
            body = translated.compiled_body
            if body is None and translated.executions >= (
                translated.compile_at or compiler.compile_entry(translated)
            ):
                body = compiler.compile(translated)
            if body is not None and body is not UNCOMPILABLE:
                if not self.config.trace_linking:
                    # PR-5 behavior: one closure call per dispatch.
                    next_pc, slot, event, resident = body()
                    if event is not None:
                        return self._handle_syscall_exit(
                            event, next_pc, machine, stats, exit_status
                        )
                    if slot is not None:
                        return self._leave_via_slot(
                            slot, next_pc, cache, stats, exit_status
                        )
                    return next_pc, exit_status, resident
                # The chain trampoline: while the exit hands back an
                # already-resident successor (patched direct link or IC
                # prediction), call its closure immediately — control
                # never re-enters the dispatch loop.  Simulated charges
                # are untouched: a linked exit was already free, and the
                # demand-load/execution bookkeeping below mirrors this
                # method's own preamble exactly.
                links = self.host.links
                budget = self.config.max_instructions
                cur = translated
                while True:
                    next_pc, slot, event, resident = body()
                    if event is not None:
                        return self._handle_syscall_exit(
                            event, next_pc, machine, stats, exit_status
                        )
                    if resident is None:
                        break
                    if stats.instructions_executed >= budget:
                        # Hand the resident back: the dispatch loop's
                        # budget check raises at exactly the pc the
                        # interpreted tier would have faulted at.
                        return next_pc, exit_status, resident
                    # A successor handed back to the dispatch loop gets
                    # its demand-load/executions bookkeeping from the
                    # preamble and runs interpreted there (no vm_entry
                    # charge on the arrived_resident path — the same
                    # simulated cost as continuing the chain).
                    next_body = resident.compiled_body
                    if next_body is None:
                        if resident.executions + 1 < (
                            resident.compile_at
                            or compiler.compile_entry(resident)
                        ):
                            # Not yet at its compile entry: a cold
                            # successor, not a bounce.
                            return next_pc, exit_status, resident
                        next_body = compiler.compile(resident)
                    if next_body is UNCOMPILABLE:
                        links.link_bounces += 1
                        return next_pc, exit_status, resident
                    if resident.from_persistent and not resident.demand_loaded:
                        stats.charge_persistence(
                            cost.pcache_trace_load + cost.pcache_meta_load
                        )
                        resident.demand_loaded = True
                    resident.executions += 1
                    if slot is not None:
                        links.link_direct_hops += 1
                        hops = slot.hop_count + 1
                        slot.hop_count = hops
                        if (
                            hops % REGION_FUSE_THRESHOLD == 0
                            # Only a final-exit hop can head or extend a
                            # chain; branch-taken side exits would walk
                            # nothing, so skip the call outright unless
                            # ``cur`` heads a region (the extension
                            # seam) — the driver re-checks precisely.
                            and (
                                slot is cur.final_slot
                                or cache.region_of(cur.entry) == cur.entry
                            )
                        ):
                            self._maybe_fuse(cur, slot, cache, compiler)
                    else:
                        links.link_ic_hops += 1
                    cur = resident
                    body = next_body
                # Unlinked/unresolved exit: back to the dispatch protocol.
                if slot is not None:
                    return self._leave_via_slot(
                        slot, next_pc, cache, stats, exit_status
                    )
                return next_pc, exit_status, None
            # Uncompilable trace, or one below its compile entry: the
            # cold tier.  Without analysis points the whole trace is one
            # run_uops call, and it leaves through the oracle's exits.
            # With points it runs on the oracle's loop below.
            if not translated.points_by_index:
                trace = translated.trace
                uops = trace.uops
                index, next_pc, event = context.run_uops(uops, trace.entry)
                steps = index + 1
                stats.instructions_executed += steps
                stats.charge_exec(steps * cost.translated_inst)
                if event is not None:
                    return self._handle_syscall_exit(
                        event, next_pc, machine, stats, exit_status
                    )
                op = uops[index][0]
                if _COND_LO <= op <= _COND_HI:
                    if next_pc != trace.entry + steps * INSTRUCTION_SIZE:
                        return self._leave_via_slot(
                            translated.branch_slots[index], next_pc, cache,
                            stats, exit_status
                        )
                elif op >= _UNCOND_LO:
                    final = translated.final_slot
                    if (final is not None
                            and final.exit.kind == ExitKind.INDIRECT):
                        stats.charge_exec(cost.indirect_resolution)
                        stats.indirect_resolutions += 1
                        return next_pc, exit_status, None
                    return self._leave_via_slot(
                        final, next_pc, cache, stats, exit_status
                    )
                # Instruction-limit fall-through exit.
                return self._leave_via_slot(
                    translated.final_slot, next_pc, cache, stats, exit_status
                )

        # The interpreted oracle: one step_uop call per uop.
        trace = translated.trace
        uops = trace.uops
        entry = trace.entry
        n = len(uops)
        registers = machine.registers
        points_by_index = translated.points_by_index
        step_uop = context.step_uop
        acx = self._analysis_context
        index = 0
        steps = 0  # per-inst charges are batched at every exit point

        def flush_exec() -> None:
            stats.instructions_executed += steps
            stats.charge_exec(steps * cost.translated_inst)

        while True:
            if points_by_index:
                points = points_by_index.get(index)
                if points:
                    address = entry + index * INSTRUCTION_SIZE
                    for point in points:
                        effective = None
                        if point.wants_effective_address:
                            uop_ = uops[index]
                            if uop_[0] in _MEMORY_OPS:
                                effective = registers[uop_[2]] + uop_[4]
                        # The run's single mutable context, updated in
                        # place (callbacks must not retain it).
                        acx.address = address
                        acx.trace_entry = entry
                        acx.index = index
                        acx.effective_address = effective
                        point.callback(acx)
                        charge = cost.analysis_call + point.work_cycles
                        stats.charge_analysis(charge)
                        stats.analysis_calls += 1
                        accounting.record_call(point.label or "point", charge)

            uop = uops[index]
            pc_orig = entry + index * INSTRUCTION_SIZE
            next_pc, event = step_uop(uop, pc_orig)
            steps += 1
            op = uop[0]

            if event is not None and event.syscall is not None:
                flush_exec()
                return self._handle_syscall_exit(
                    event, next_pc, machine, stats, exit_status
                )

            # Opcode ranges: 0x30-0x33 conditional, >= 0x38 unconditional
            # (see repro.isa.opcodes); integer compares keep this loop hot.
            if _COND_LO <= op <= _COND_HI:
                if next_pc != pc_orig + INSTRUCTION_SIZE:
                    flush_exec()
                    slot = translated.branch_slots[index]
                    return self._leave_via_slot(
                        slot, next_pc, cache, stats, exit_status
                    )
                # Fall through, stays inside the trace.
            elif op >= _UNCOND_LO:
                flush_exec()
                if op == _HALT_OP:
                    return None, 0, None
                final = translated.final_slot
                if final is not None and final.exit.kind == ExitKind.INDIRECT:
                    stats.charge_exec(cost.indirect_resolution)
                    stats.indirect_resolutions += 1
                    return next_pc, exit_status, None
                return self._leave_via_slot(
                    final, next_pc, cache, stats, exit_status
                )

            index += 1
            if index >= n:
                # Instruction-limit fall-through exit.
                flush_exec()
                final = translated.final_slot
                return self._leave_via_slot(
                    final, next_pc, cache, stats, exit_status
                )

    def _maybe_fuse(self, cur, slot, cache, compiler) -> None:
        """Try to fuse the stable hot chain through ``slot`` into a
        superblock region.

        Called by the trampoline whenever a link's hop count crosses a
        multiple of :data:`~repro.vm.compile.REGION_FUSE_THRESHOLD`.
        ``cur`` is the trace whose closure just exited; the chain head is
        ``cur`` itself — either the hop went through ``cur``'s own final
        exit, or ``cur`` heads a region whose last member's final exit
        took the hop (the extension case: the region re-fuses with the
        proven-hot tail appended).  The walk follows final-exit links
        that are patched, consistent (``linked_entry`` == static target
        == successor entry) and hot, stopping at cycles, other regions'
        members, not-yet-demand-loaded persistent traces and
        uncompilable successors.  Failure is cheap and retried: counters
        keep climbing, so the next threshold crossing tries again.
        """
        links = self.host.links
        if slot is not cur.final_slot:
            members = cache.region_members(cur.entry)
            if not members:
                return  # a branch-taken side exit never heads a chain
            last = cache.lookup(members[-1])
            if last is None or slot is not last.final_slot:
                return
        start = cur
        own_head = cache.region_of(start.entry)
        if own_head is not None and own_head != start.entry:
            # ``cur`` is a middle member of another region; fusing from
            # here would nest regions.
            return
        chain = [start]
        seen = {start.entry}
        node = start
        while len(chain) < REGION_MAX_MEMBERS:
            link = node.final_slot
            if link is None or not link.is_linkable:
                break
            nxt = link.linked_resident
            if (
                nxt is None
                or link.linked_entry != link.exit.target
                or nxt.entry != link.exit.target
                or nxt.entry in seen
            ):
                break
            if link.hop_count < REGION_FUSE_THRESHOLD - 1:
                break  # not yet proven hot (region-internal links froze
                # at threshold, so extension walks pass through them)
            next_head = cache.region_of(nxt.entry)
            if next_head is not None and next_head != start.entry:
                break  # belongs to a different region
            if nxt.from_persistent and not nxt.demand_loaded:
                break  # keep demand-load charges out of fused bodies
            next_body = nxt.compiled_body
            if next_body is None:
                next_body = compiler.compile(nxt)
            if next_body is UNCOMPILABLE:
                break
            chain.append(nxt)
            seen.add(nxt.entry)
            node = nxt
        if len(chain) < 2:
            links.fusion_aborts += 1
            return
        entries = [member.entry for member in chain]
        if tuple(entries) == cache.region_members(start.entry):
            return  # already fused to exactly this chain
        region_body = compiler.compile_region(chain)
        if region_body is None:
            links.fusion_aborts += 1
            return
        # Supersede any existing region at this head, then install: the
        # fused closure is the head's body, so every patched link and
        # translation-map hit into the head enters the region; middle
        # members keep their solo closures for middle entry.
        cache.invalidate_region_containing(start.entry)
        start.compiled_body = region_body
        cache.register_region(entries)
        links.regions_fused += 1

    def _handle_syscall_exit(
        self,
        event,
        next_pc: Optional[int],
        machine: Machine,
        stats: VMStats,
        exit_status: int,
    ) -> Tuple[Optional[int], int, Optional[TranslatedTrace]]:
        """Leave a trace through its SYSCALL/HALT exit (both tiers).

        The caller has already flushed the trace's exec charges; this
        applies the emulation charges and the syscall's machine-level
        effects (module load/unload, thread scheduling, signal delivery).
        """
        cost = self.cost_model
        stats.charge_emulation(cost.syscall_emulation)
        stats.syscalls_emulated += 1
        result = event.syscall
        if result.dlopen is not None or result.dlclose is not None:
            apply_module_event(machine, result)
            return next_pc, exit_status, None
        if result.exited or result.spawn is not None or result.yielded:
            # Thread-affecting syscalls: possibly switch threads
            # (deterministic cooperative scheduling) or end the
            # process when the last thread exits — which is also
            # the persistent-cache write-back point (§3.2.2).
            next_pc, status = apply_thread_event(machine, result, next_pc)
            if next_pc is None:
                return None, status, None
            return next_pc, exit_status, None
        if event.is_signal_delivery:
            stats.charge_emulation(cost.signal_emulation)
            stats.signals_emulated += 1
        # Trace ends at the syscall; resume through the map.
        return next_pc, exit_status, None

    def _leave_via_slot(
        self,
        slot,
        next_pc: int,
        cache: CodeCache,
        stats: VMStats,
        exit_status: int,
    ) -> Tuple[Optional[int], int, Optional[TranslatedTrace]]:
        """Exit a trace through a (possibly linked) direct slot.

        A patched link chains straight to the next trace: one attribute
        load (``linked_resident``, maintained by the code cache), no
        translation-map lookup.  Unlinked exits whose target is already
        resident take one VM round-trip to patch the link (lazy linking),
        after which they chain for free.
        """
        if slot is None:
            return next_pc, exit_status, None
        target = slot.linked_resident
        if target is not None:
            # Invariant: a linked_resident of a resident trace is itself
            # resident (eviction unlinks every incoming slot).
            return next_pc, exit_status, target
        if slot.is_linked:
            # Link patched by insert() before residents were cached, or
            # state revived from persistence: resolve and cache it.
            target = cache.lookup(slot.linked_entry)
            if target is not None:
                slot.linked_resident = target
                return next_pc, exit_status, target
            # Stale link (target evicted); fall back to the VM.
            slot.unlink()
        if slot.is_linkable:
            target = cache.lookup(slot.exit.target)
            if target is not None:
                cost = self.cost_model
                stats.charge_dispatch(cost.vm_entry + cost.link_patch)
                stats.vm_entries += 1
                stats.link_patches += 1
                slot.linked_entry = target.entry
                slot.linked_resident = target
                return next_pc, exit_status, target
        return next_pc, exit_status, None
