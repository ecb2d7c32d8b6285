"""The DBI engine: compilation unit + dispatcher + emulation glue.

:class:`Engine` runs a loaded process entirely under VM control, the way
Pin does: *every* instruction executes from the software code cache, never
from the original image.  The run loop is the one dispatcher for every
execution tier:

1. on a translation-map miss, enter the VM (cost), select and translate
   a trace (cost), insert and link it;
2. execute the trace out of the code cache (translated-inst costs,
   analysis-callback costs) on its tier: the interpreted oracle, the
   cold tier, or its compiled closure;
3. leave the trace through one of its exits — directly to a linked trace
   (free), through the indirect-target resolver (hash-lookup cost), via
   syscall emulation, or back to the VM through one translation-map
   probe, whose miss is step 1.

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
    BIND_THRESHOLD,
    DEFAULT_COMPILE_THRESHOLD,
    LOOP_FUSE_THRESHOLD,
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
_MEMORY_OPS = (int(Opcode.LD), int(Opcode.ST))

#: Version stamp of the run-time system.  Part of every persistent-cache
#: key: "code and the data structures are specific to a version of the
#: system and cannot be utilized across versions".  Bump on any change
#: to translation *or* to the compiled tier's closure codegen — the
#: compiled-body sidecar (repro.persist.sidecar) revives host code
#: objects keyed on this stamp, so stale codegen must miss wholesale.
VM_VERSION = "repro-dbi-1.11.0"


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
    #: trace into a Python closure (repro.vm.compile) once it reaches
    #: its tier-up entry (``compile_threshold``) and runs it on the cold
    #: tier before that, one ``ExecutionContext.run_uops`` call per
    #: trace entry; ``"interpreted"`` walks uops through step_uop, one
    #: call per uop.  The tiers are observably identical — same output,
    #: exit status, and VMStats to the bit (see docs/performance.md);
    #: interpreted is the reference oracle, compiled the fast default.
    dispatch_mode: str = "compiled"
    #: Compiled-tier tier-up: the entry on which a trace, fresh or
    #: revived, host-compiles its body; it runs on the cold tier before.
    #: A body that the run's factory memo or the attached store holds is
    #: bound earlier, on entry ``min(compile_threshold, BIND_THRESHOLD)``.
    #: The two entries follow the two costs: a host compile costs about
    #: as much as 165 cold-tier entries of an 11-uop trace and a bind
    #: about 9, so a GUI start-up's traces, which run a few dozen
    #: times, bind what a store holds and compile nothing.  1 compiles
    #: every trace at its first entry.  Host-side only — the tiers are
    #: observably identical per execution, so ``VMStats`` is
    #: bit-identical at any threshold.
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
        selector = TraceSelector(
            machine.process.space.mapping_at, self.config.max_trace_insts
        )
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
                modified = machine.modified_code_pages
                clean = [
                    resident for resident in evicted
                    if not resident.touches_pages(modified)
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
                # Eviction unlinked its slots: insert links them against
                # the current residents.
                try:
                    _cache.insert(stashed)
                except CacheFull:
                    break
                _stats.module_traces_retained += 1
                _stats.charge_dispatch(self.cost_model.module_reattach)

        machine.module_listeners.append(on_module_event)

        self.tool.on_start(machine)

        cost = self.cost_model
        # An enum member lookup costs more than the compare it feeds.
        indirect = ExitKind.INDIRECT
        compiler = self._compiler
        links = host.links
        run_uops = context.run_uops
        budget = self.config.max_instructions
        threshold = self.config.compile_threshold
        bind_at = min(threshold, BIND_THRESHOLD)
        # Past a bind entry of its own, the threshold entry does not probe
        # the store again.
        host_probes = bind_at == threshold
        exit_status = 0
        pc: Optional[int] = process.entry_address
        # Program start: control begins inside the VM.
        stats.charge_dispatch(cost.vm_entry)
        stats.vm_entries += 1
        resident = cache.lookup(pc)
        # The trace whose closure handed ``resident`` over, and the slot
        # it left through (an indirect one for an inline-cache
        # prediction).
        chained_from = chained_via = None
        while pc is not None:
            if stats.instructions_executed >= budget:
                raise MachineFault("instruction budget exhausted", pc)
            translated = resident
            if translated is None:
                translated = self._translate_at(
                    pc, machine, selector, translator, cache, stats
                )
            elif not translated.demand_loaded:
                # Demand-page the persisted trace + its data structures.
                stats.charge_persistence(
                    cost.pcache_trace_load + cost.pcache_meta_load
                )
                translated.demand_loaded = True
            translated.executions += 1

            body = None
            if compiler is not None:
                body = translated.compiled_body
                if body is None:
                    # Bind a body the memo or the store holds on the bind
                    # entry; host-compile on the threshold entry.
                    executions = translated.executions
                    if executions >= threshold:
                        body = compiler.compile(translated, host_probes)
                    elif executions == bind_at:
                        body = compiler.compile(translated, host=False)
                if chained_from is not None:
                    # A closure handed this trace over.  The exit chained
                    # if the trace runs compiled; an uncompilable trace
                    # bounced, and one without a body yet counts
                    # nothing.
                    if body is UNCOMPILABLE:
                        links.link_bounces += 1
                    elif body is not None:
                        if chained_via.exit.kind == indirect:
                            links.link_ic_hops += 1
                        else:
                            links.link_direct_hops += 1
                        hops = chained_via.hop_count + 1
                        chained_via.hop_count = hops
                        # Every REGION_FUSE_THRESHOLD-th hop through a
                        # trace's own final exit heads a walk from that
                        # trace, which finds any loop the trace is in:
                        # a loop of two or more members has a final-exit
                        # edge.  A region member's final exit walks
                        # nothing new, and fusing from a member of a
                        # live region would nest regions.
                        if (hops % REGION_FUSE_THRESHOLD == 0
                                and chained_via is chained_from.final_slot
                                and cache.region_of(
                                    chained_from.entry) is None):
                            self._maybe_fuse(chained_from, cache, compiler)
                    chained_from = None

            if body is not None and body is not UNCOMPILABLE:
                pc, slot, event, resident = body()
                if resident is not None:
                    chained_from = translated
                    chained_via = slot
                    continue
            else:
                # The cold tier runs a trace without analysis points as
                # one run_uops call; everything else, and every trace
                # under interpreted dispatch, runs on the oracle's
                # per-uop loop.  Both return run_uops' (index, next_pc,
                # event), and both leave through the same exits.
                trace = translated.trace
                uops = trace.uops
                if compiler is None or translated.points_by_index:
                    index, pc, event = self._step_uops(
                        translated, context, stats, accounting
                    )
                else:
                    index, pc, event = run_uops(uops, trace.entry)
                steps = index + 1
                stats.instructions_executed += steps
                stats.charge_exec(steps * cost.translated_inst)
                slot = None
                if event is None:
                    # Opcode ranges: 0x30-0x33 conditional, >= 0x38
                    # unconditional (see repro.isa.opcodes).
                    op = uops[index][0]
                    if (_COND_LO <= op <= _COND_HI
                            and pc != trace.entry + steps * INSTRUCTION_SIZE):
                        slot = translated.branch_slots[index]
                    else:
                        # The terminator, or the instruction-limit
                        # fall-through.
                        slot = translated.final_slot
                        if (op >= _UNCOND_LO and slot is not None
                                and slot.exit.kind == indirect):
                            stats.charge_exec(cost.indirect_resolution)
                            stats.indirect_resolutions += 1
                            slot = None

            # Leave the trace: through syscall emulation, a patched link,
            # or one translation-map probe.
            link = None
            if event is not None:
                pc, exit_status = self._handle_syscall_exit(
                    event, pc, machine, stats, exit_status
                )
                if pc is None:
                    break
            elif slot is not None:
                resident = slot.linked_resident
                if resident is not None:
                    # Invariant: a linked_resident is resident (eviction
                    # unlinks every incoming slot, and the evicted
                    # trace's own, which its exit may still take).
                    continue
                if slot.exit.target == pc and slot.is_linkable:
                    link = slot
            resident = cache.lookup(pc)
            if resident is None:
                # Back to the VM: the next iteration translates.
                stats.charge_dispatch(cost.vm_entry)
                stats.vm_entries += 1
            elif link is not None:
                # Lazy linking: one VM round trip patches the exit, which
                # chains for free from then on.
                stats.charge_dispatch(cost.vm_entry + cost.link_patch)
                stats.vm_entries += 1
                stats.link_patches += 1
                link.linked_resident = resident

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

    def _step_uops(
        self,
        translated: TranslatedTrace,
        context: ExecutionContext,
        stats: VMStats,
        accounting: ToolAccounting,
    ) -> Tuple[int, Optional[int], Optional[object]]:
        """The interpreted oracle: run ``translated`` one ``step_uop``
        call per uop, with its analysis callbacks.

        Leaves where :meth:`~repro.machine.cpu.ExecutionContext.run_uops`
        leaves and returns what it returns, ``(index, next_pc, event)``;
        the caller charges the executed uops.
        """
        cost = self.cost_model
        trace = translated.trace
        uops = trace.uops
        entry = trace.entry
        last = len(uops) - 1
        registers = context.machine.registers
        points_by_index = translated.points_by_index
        step_uop = context.step_uop
        acx = self._analysis_context
        index = 0
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
            op = uop[0]
            if (
                event is not None
                or op >= _UNCOND_LO
                or index == last
                or _COND_LO <= op <= _COND_HI
                and next_pc != pc_orig + INSTRUCTION_SIZE
            ):
                return index, next_pc, event
            index += 1

    def _maybe_fuse(self, cur, cache, compiler) -> None:
        """Try to fuse the hot chain headed by ``cur``, or the hot loop it
        runs into, into a superblock region.

        Called by the dispatch loop whenever a chained exit through
        ``cur``'s final exit brings its hop count to a multiple of
        :data:`~repro.vm.compile.REGION_FUSE_THRESHOLD`, unless ``cur``
        is a member of a live region.

        The walk goes from each trace to its hot successor
        (:func:`_hot_successor`) and stops at
        :data:`~repro.vm.compile.REGION_MAX_MEMBERS` traces, at a member
        of a region, at a persisted trace not yet demand-loaded and at
        an uncompilable one.  When it comes back to a trace it passed
        other than the last, the chain closes a cycle: a loop, whose
        head is the target of its one branch-taken edge, or the trace
        the walk came back to when every edge is a final exit.  The edge
        into the head is the back edge.  A loop fuses into one closure
        (:meth:`~repro.vm.compile.TraceCompiler.compile_region` with the
        back edge) once its back edge has been taken
        :data:`~repro.vm.compile.LOOP_FUSE_THRESHOLD` times, and not at
        all before: a straight piece of it would still leave through the
        dispatcher on every iteration.  A chain with no cycle, one whose
        last trace loops on itself, or one whose cycle has two
        branch-taken edges, fuses straight up to its first branch-taken
        edge.  Failure is cheap and retried: counters keep climbing, so
        the next threshold crossing tries again.
        """
        links = self.host.links
        chain = [cur]
        # via[i] is the slot chain[i] hands over to chain[i + 1] through,
        # and the last one, when the walk came back, the closing edge.
        via = []
        position = {cur.entry: 0}
        closes = None
        node = cur
        while True:
            slot, nxt = _hot_successor(node, cache)
            if nxt is None:
                break
            if nxt.entry in position:
                closes = position[nxt.entry]
                via.append(slot)
                break
            if (len(chain) == REGION_MAX_MEMBERS
                    or cache.region_of(nxt.entry) is not None
                    or not nxt.demand_loaded
                    or nxt.compiled_body is UNCOMPILABLE):
                break
            position[nxt.entry] = len(chain)
            chain.append(nxt)
            via.append(slot)
            node = nxt
        back_edge = None
        if closes is not None and closes < len(chain) - 1:
            loop, edges = chain[closes:], via[closes:]
            branches = [index for index, slot in enumerate(edges)
                        if slot.exit.kind == _BRANCH_TAKEN]
            if len(branches) < 2:
                if branches:
                    turn = branches[0] + 1
                    loop = loop[turn:] + loop[:turn]
                    edges = edges[turn:] + edges[:turn]
                if edges[-1].hop_count < LOOP_FUSE_THRESHOLD:
                    links.fusion_aborts += 1
                    return
                chain, back_edge = loop, edges[-1]
        if back_edge is None:
            for index, slot in enumerate(via[:len(chain) - 1]):
                if slot.exit.kind == _BRANCH_TAKEN:
                    chain = chain[:index + 1]
                    break
        for member in chain:
            if member.compiled_body is None:
                compiler.compile(member)
        region_body = None
        if len(chain) > 1 and all(
                member.compiled_body is not UNCOMPILABLE for member in chain):
            region_body = compiler.compile_region(chain, back_edge)
        if region_body is None:
            links.fusion_aborts += 1
            return
        # Install: the fused closure is the head's body, so every patched
        # link and translation-map hit into the head enters the region;
        # the other members keep their solo closures for entry from
        # outside.
        chain[0].compiled_body = region_body
        cache.register_region([member.entry for member in chain])
        links.regions_fused += 1

    def _handle_syscall_exit(
        self,
        event,
        next_pc: Optional[int],
        machine: Machine,
        stats: VMStats,
        exit_status: int,
    ) -> Tuple[Optional[int], int]:
        """Leave a trace through its SYSCALL/HALT exit (every tier).

        The caller has already charged the trace's execution; this
        applies the emulation charges and the syscall's machine-level
        effects (module load/unload, thread scheduling, signal delivery).
        Returns ``(next_pc, exit_status)``; ``next_pc`` is None once the
        last thread exited.
        """
        cost = self.cost_model
        stats.charge_emulation(cost.syscall_emulation)
        stats.syscalls_emulated += 1
        result = event.syscall
        if result.dlopen is not None or result.dlclose is not None:
            apply_module_event(machine, result)
            return next_pc, exit_status
        if result.exited or result.spawn is not None or result.yielded:
            # Thread-affecting syscalls: possibly switch threads
            # (deterministic cooperative scheduling) or end the
            # process when the last thread exits — which is also
            # the persistent-cache write-back point (§3.2.2).
            next_pc, status = apply_thread_event(machine, result, next_pc)
            if next_pc is None:
                return None, status
            return next_pc, exit_status
        if event.is_signal_delivery:
            stats.charge_emulation(cost.signal_emulation)
            stats.signals_emulated += 1
        # Trace ends at the syscall; resume through the map.
        return next_pc, exit_status


_BRANCH_TAKEN = ExitKind.BRANCH_TAKEN


def _hot_successor(node, cache):
    """``(slot, resident)``: the trace a fusion walk goes on to from
    ``node`` and the slot ``node`` hands over through, or ``(None,
    None)``.

    The final exit comes first, once it has been taken
    ``REGION_FUSE_THRESHOLD - 1`` times: its patched link to the resident
    at its target, or, for an indirect exit, the one resident its inline
    cache predicts under the current code-cache generation.  Failing
    that, the hottest patched branch-taken exit taken as often, which may
    close a loop.
    """
    hot = REGION_FUSE_THRESHOLD - 1
    final = node.final_slot
    if final is not None and final.hop_count >= hot:
        nxt = final.linked_resident
        if nxt is not None:
            if nxt.entry == final.exit.target:
                return final, nxt
        elif final.ic is not None:
            generation, targets = final.ic
            if generation == cache.generation and len(targets) == 1:
                (nxt,) = targets.values()
                return final, nxt
    best = None
    for slot in node.branch_slots.values():
        nxt = slot.linked_resident
        if (slot.hop_count >= hot and nxt is not None
                and nxt.entry == slot.exit.target
                and (best is None or slot.hop_count > best.hop_count)):
            best = slot
    if best is None:
        return None, None
    return best, best.linked_resident
