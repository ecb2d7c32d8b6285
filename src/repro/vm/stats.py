"""Run accounting for the DBI engine.

The paper's measurements hinge on one decomposition (§2.2, Figure 5(b)):

* **VM overhead** — "the cost of dynamically generating application code":
  trace translation, dispatcher round-trips, link patching, code-cache
  flushes, and (with persistence) cache load/validation/write work.
* **Translated code performance** — time spent executing application code
  inside the code cache, including indirect-branch resolution, syscall and
  signal *emulation* (charged to translated-code time: the paper attributes
  File-Roller's emulation cost to "poor translated code performance"), and
  instrumentation analysis routines.

:class:`VMStats` keeps every component separately and maintains a running
total so translation events can be timestamped for the Figure 2(a)
timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

#: Maximum entries in one polymorphic indirect-branch inline-cache chain
#: (repro.vm.compile bakes this into generated closures).  Four mirrors
#: Pin's short indirect-chain predictions: the rotating-3 corpus still
#: hits (steady state occupies three entries), while a megamorphic table
#: cycle stays bounded instead of growing a useless long chain.
IC_CHAIN_DEPTH = 4


@dataclass
class ICStats:
    """Host-side counters for the compiled tier's polymorphic
    indirect-branch inline caches (:mod:`repro.vm.compile`).

    Deliberately **not** part of :class:`VMStats`: the interpreted
    oracle has no inline caches, so any counter here would differ
    between the tiers and break the bit-identical ``VMStats`` contract
    (docs/performance.md).  Like the factory memo and the compiled-body
    sidecar, the ICs are host-level memoization of the indirect
    resolver — they may never influence anything simulated, so their
    accounting travels beside the run result
    (:attr:`repro.vm.engine.VMRunResult.ic_stats`), not inside it.
    """

    #: Chain hits: the dynamic target was found in the site's chain.
    hits: int = 0
    #: Chain misses: resolved through the code cache's ``lookup``
    #: instead.
    misses: int = 0
    #: Misses whose resolution was resident and refilled the chain.
    fills: int = 0
    #: Hits at depth > 0, moved to the front of their chain.
    promotions: int = 0
    #: Non-empty chains discarded because ``cache.generation`` advanced
    #: (SMC eviction, module unload, cache flush).
    resets: int = 0
    #: Hits served by the megamorphic hash-table tier behind the chain
    #: (targets the bounded MRU chain cycled out; see
    #: :meth:`repro.vm.compile.TraceCompiler._emit_indirect_exit`).
    overflow_hits: int = 0
    #: Hits by chain position (index 0 = the predicted/MRU entry).
    depth_hits: List[int] = field(
        default_factory=lambda: [0] * IC_CHAIN_DEPTH
    )

    @property
    def lookups(self) -> int:
        """Indirect exits taken through compiled closures."""
        return self.hits + self.overflow_hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of indirect exits served from a chain or the
        overflow table (no translation-map resolution needed)."""
        total = self.lookups
        return (self.hits + self.overflow_hits) / total if total else 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (bench tables, session reports)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "fills": self.fills,
            "promotions": self.promotions,
            "resets": self.resets,
            "overflow_hits": self.overflow_hits,
            "depth_hits": list(self.depth_hits),
            "hit_rate": self.hit_rate,
        }


@dataclass
class LinkStats:
    """Host-side counters for the compiled tier's cross-trace linking
    (the chain trampoline and superblock regions in
    :mod:`repro.vm.engine` / :mod:`repro.vm.compile`).

    Like :class:`ICStats`, deliberately **not** part of
    :class:`VMStats`: linked exits were already free in simulated
    cycles under both tiers (the ``linked_resident`` seam), so the
    trampoline and regions are pure host wall-clock machinery.  Any
    counter here would differ between the tiers and break the
    bit-identical ``VMStats`` contract; the accounting travels beside
    the run result (:attr:`repro.vm.engine.VMRunResult.link_stats`).
    """

    #: Trampoline hops through a patched direct-exit slot: control went
    #: closure -> closure without returning to the dispatch loop.
    link_direct_hops: int = 0
    #: Trampoline hops through an indirect-exit inline-cache prediction.
    link_ic_hops: int = 0
    #: Linked exits (slot patched or IC-resolved resident) that still
    #: fell back to the dispatch loop because the successor is
    #: uncompilable.  A successor below its compile entry also returns
    #: to the loop, to run interpreted, but is not counted.  Zero on the
    #: stable-chain corpus.
    link_bounces: int = 0
    #: Superblock regions fused from stable hot chains this run.
    regions_fused: int = 0
    #: Entries into a region closure (one per execution of the head).
    region_entries: int = 0
    #: Intra-region junction transitions (exits that never produced a
    #: host-level trace-to-trace transfer at all).
    region_hops: int = 0
    #: Regions dropped because a member left the code cache
    #: (SMC eviction, module unload, cache flush).
    region_invalidations: int = 0
    #: Fusion attempts abandoned (chain too short, member uncompilable,
    #: overlap with an existing region, unstable links).
    fusion_aborts: int = 0

    @property
    def chained_exits(self) -> int:
        """Trace exits that stayed in the code cache host-side."""
        return self.link_direct_hops + self.link_ic_hops + self.region_hops

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (bench tables, session reports)."""
        return {
            "link_direct_hops": self.link_direct_hops,
            "link_ic_hops": self.link_ic_hops,
            "link_bounces": self.link_bounces,
            "regions_fused": self.regions_fused,
            "region_entries": self.region_entries,
            "region_hops": self.region_hops,
            "region_invalidations": self.region_invalidations,
            "fusion_aborts": self.fusion_aborts,
            "chained_exits": self.chained_exits,
        }


@dataclass
class VMStats:
    """Cycle and event accounting for one run under the VM."""

    # -- VM overhead components ------------------------------------------------
    translation_cycles: float = 0.0
    dispatch_cycles: float = 0.0
    persistence_cycles: float = 0.0
    # -- translated-code components ---------------------------------------------
    translated_exec_cycles: float = 0.0
    emulation_cycles: float = 0.0
    analysis_cycles: float = 0.0

    # -- event counters -----------------------------------------------------------
    instructions_executed: int = 0
    traces_translated: int = 0
    traces_from_persistent: int = 0
    persistent_traces_invalidated: int = 0
    vm_entries: int = 0
    link_patches: int = 0
    indirect_resolutions: int = 0
    syscalls_emulated: int = 0
    signals_emulated: int = 0
    cache_flushes: int = 0
    analysis_calls: int = 0
    smc_invalidations: int = 0
    module_loads: int = 0
    module_unloads: int = 0
    module_traces_retained: int = 0
    #: Storage-level persistence failures absorbed without crashing the
    #: run (corrupt cache files, ENOSPC/EIO at write-back, ...).
    persistence_storage_errors: int = 0
    #: 1 when a storage failure downgraded the run to JIT-only execution;
    #: measurement drivers assert this stayed 0 so no silent fallback can
    #: masquerade as a persistence result.
    persistence_degraded: int = 0

    #: (cycle timestamp, original entry address) per translation request —
    #: the vertical lines of Figure 2(a).
    translation_events: List[Tuple[float, int]] = field(default_factory=list)

    #: Static code translated, by image path (for coverage accounting).
    translated_bytes_by_image: Dict[str, int] = field(default_factory=dict)

    #: ``(image_path, image_offset, size)`` of every trace translated this
    #: run — the static code footprint used for code-coverage matrices.
    trace_identities: set = field(default_factory=set)

    _total: float = 0.0

    # -- charging helpers ---------------------------------------------------------

    def charge_translation(self, cycles: float) -> None:
        """Charge trace-compilation work (VM overhead)."""
        self.translation_cycles += cycles
        self._total += cycles

    def charge_dispatch(self, cycles: float) -> None:
        """Charge VM round-trips, linking, flushes (VM overhead)."""
        self.dispatch_cycles += cycles
        self._total += cycles

    def charge_persistence(self, cycles: float) -> None:
        """Charge cache load/validate/write work (VM overhead)."""
        self.persistence_cycles += cycles
        self._total += cycles

    def charge_exec(self, cycles: float) -> None:
        """Charge code-cache execution of application code."""
        self.translated_exec_cycles += cycles
        self._total += cycles

    def charge_emulation(self, cycles: float) -> None:
        """Charge syscall/signal emulation (translated-code time)."""
        self.emulation_cycles += cycles
        self._total += cycles

    def charge_analysis(self, cycles: float) -> None:
        """Charge instrumentation analysis (translated-code time)."""
        self.analysis_cycles += cycles
        self._total += cycles

    def record_translation_event(self, entry: int) -> None:
        """Timestamp a translation request (Figure 2(a) data point)."""
        self.translation_events.append((self._total, entry))

    # -- aggregates -----------------------------------------------------------------

    @property
    def vm_overhead_cycles(self) -> float:
        """Cost of dynamically generating application code (paper §2.2)."""
        return (
            self.translation_cycles
            + self.dispatch_cycles
            + self.persistence_cycles
        )

    @property
    def translated_code_cycles(self) -> float:
        """Time executing the dynamically compiled application code."""
        return (
            self.translated_exec_cycles
            + self.emulation_cycles
            + self.analysis_cycles
        )

    @property
    def total_cycles(self) -> float:
        """All cycles charged so far (the run's simulated time)."""
        return self._total

    def overhead_fraction(self) -> float:
        """VM overhead as a fraction of the total run time."""
        total = self.total_cycles
        return self.vm_overhead_cycles / total if total else 0.0

    def breakdown(self) -> Dict[str, float]:
        """All components, for reports."""
        return {
            "translation": self.translation_cycles,
            "dispatch": self.dispatch_cycles,
            "persistence": self.persistence_cycles,
            "translated_exec": self.translated_exec_cycles,
            "emulation": self.emulation_cycles,
            "analysis": self.analysis_cycles,
            "vm_overhead": self.vm_overhead_cycles,
            "translated_code": self.translated_code_cycles,
            "total": self.total_cycles,
        }
