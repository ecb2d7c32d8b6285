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
timeline.  Host-side counters, which may differ between tiers, live
beside it in one :class:`HostStats` per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, is_dataclass
from typing import Dict, List, Tuple


@dataclass
class ICStats:
    """:class:`HostStats`' ``ic`` group: the compiled tier's indirect-branch
    inline caches (:mod:`repro.vm.compile`), written in place by
    generated closures as ``ics.*``.

    The interpreted oracle has no inline caches, so these counters differ
    between the tiers; they may never influence anything simulated.
    """

    #: Hits: the site's ``{target: resident}`` dict held the target.
    hits: int = 0
    #: Misses: resolved through the code cache's ``lookup`` instead.
    misses: int = 0
    #: Misses whose resolution was resident and filled the site's dict.
    fills: int = 0
    #: Non-empty dicts discarded because ``cache.generation`` advanced
    #: (SMC eviction, module unload, cache flush).
    resets: int = 0

    #: Properties :meth:`HostStats.to_dict` reports beside the fields.
    DERIVED = ("hit_rate",)

    @property
    def lookups(self) -> int:
        """Indirect exits taken through compiled closures."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of indirect exits served from the site's dict (no
        translation-map resolution needed)."""
        total = self.lookups
        return self.hits / total if total else 0.0


@dataclass
class LinkStats:
    """:class:`HostStats`' ``links`` group: the compiled tier's
    cross-trace linking (chained exits in :mod:`repro.vm.engine`'s
    dispatch loop and the superblock regions of :mod:`repro.vm.compile`,
    whose bodies write it in place as ``links.*``).

    Linked exits are free in simulated cycles under every tier (the
    ``linked_resident`` seam), so chaining and regions are pure host
    wall-clock machinery.
    """

    #: Chained exits through a patched direct-exit slot: a closure
    #: handed its successor over, and the successor ran compiled, with
    #: no translation-map probe.
    link_direct_hops: int = 0
    #: Chained exits through an indirect-exit inline-cache prediction.
    link_ic_hops: int = 0
    #: Linked exits (slot patched or IC-resolved resident) a closure
    #: handed over whose successor is uncompilable, so it ran on the
    #: cold tier.  A successor that has no body yet also runs there, but
    #: is not counted.  Zero on the stable-chain corpus.
    link_bounces: int = 0
    #: Superblock regions fused from stable hot chains this run.
    regions_fused: int = 0
    #: Entries into a region closure (one per execution of the head).
    region_entries: int = 0
    #: Intra-region junction transitions (exits that never produced a
    #: host-level trace-to-trace transfer at all).
    region_hops: int = 0
    #: Fusion attempts abandoned (chain too short, member uncompilable,
    #: overlap with an existing region, unstable links).
    fusion_aborts: int = 0

    DERIVED = ("chained_exits",)

    @property
    def chained_exits(self) -> int:
        """Trace exits that stayed in the code cache host-side."""
        return self.link_direct_hops + self.link_ic_hops + self.region_hops


@dataclass
class CodeCacheStats:
    """:class:`HostStats`' ``cache`` group: occupancy and activity of the
    code cache (:class:`repro.vm.codecache.CodeCache`)."""

    traces_inserted: int = 0
    flushes: int = 0
    link_patches: int = 0
    lookups: int = 0
    hits: int = 0
    regions_registered: int = 0
    #: Regions dropped because a member left the code cache (SMC
    #: eviction, module unload, cache flush).
    region_invalidations: int = 0


@dataclass
class HostStats:
    """Every host-side counter and state of one run, in one place.

    :class:`VMStats` holds what every dispatch tier reproduces bit for
    bit.  Everything here is host machinery -- inline caches, trace
    linking, the code cache, closure compilation, the compiled-body
    stores and the persistence session -- and legitimately differs
    between tiers, builds and compile thresholds, so it stays out of
    ``VMStats`` and out of replay baselines.
    :meth:`repro.vm.engine.Engine.run` creates one per run
    (:attr:`repro.vm.engine.VMRunResult.host`) and each layer writes its
    own fields in place.  It holds only numbers, strings and lists, so a
    kept result keeps no run state alive.
    """

    ic: ICStats = field(default_factory=ICStats)
    links: LinkStats = field(default_factory=LinkStats)
    cache: CodeCacheStats = field(default_factory=CodeCacheStats)

    # -- compiled tier (repro.vm.compile) -------------------------------------
    #: Traces specialized into closures, and superblock regions fused.
    compiles: int = 0
    regions_compiled: int = 0
    #: Closure factories served by the run's factory memo (a trace the
    #: run translated again after an eviction or a flush).
    memo_hits: int = 0
    #: Host ``compile()`` calls paid (memo misses no store could serve).
    host_compiles: int = 0
    #: Factory code objects revived from the attached body store, shared
    #: or private.
    body_hits: int = 0
    #: Body-store lookups the shared pool answered, and those it could
    #: not (answered by the private sidecar or a host ``compile()``).
    shared_hits: int = 0
    shared_misses: int = 0

    # -- persistence session (repro.persist.manager) --------------------------
    cache_found: bool = False
    source_app: str = ""
    preloaded: int = 0
    invalidated: int = 0
    rebased: int = 0
    retained_unloaded: int = 0
    version_conflict: bool = False
    new_traces_persisted: int = 0
    written: bool = False
    total_traces_after_write: int = 0
    key_checks: int = 0
    #: Traces skipped at write-back: unbacked or self-modified code.
    unbacked_skipped: int = 0
    #: Damaged cache files moved aside (never deleted) this run.
    cache_quarantined: int = 0
    #: True when a storage failure downgraded the run to plain JIT
    #: execution (no reuse and/or no write-back), and the first reason.
    fallback_jit_only: bool = False
    degraded_reason: str = ""
    #: Storage-level failures the session absorbed.
    storage_errors: int = 0
    #: Compiled-body sidecar (repro.persist.sidecar): how the open went
    #: ("disabled", "fresh", "loaded", "stale-vm", "quarantined",
    #: "io-error: ...", "write-error: ..."), the revivable bodies it
    #: held, whether the write-back persisted it, and the bodies this
    #: run added to it.
    sidecar_state: str = "disabled"
    sidecar_entries: int = 0
    sidecar_written: bool = False
    sidecar_new_entries: int = 0
    #: Shared compiled-body store (repro.persist.sharedstore):
    #: "disabled", "attached", "stale-vm" (keyed for another VM version)
    #: or "write-error: ...".
    shared_store_state: str = "disabled"
    #: Bodies this run added to the shared store, and pooled bodies
    #: whose LRU stamp this run refreshed (all a read-only run writes):
    #: every present body it touched or sent again, whether or not the
    #: whole-second stamp moved.
    shared_publishes: int = 0
    shared_touch_refreshes: int = 0
    #: Recording (repro.replay): "" (off), "recording", "written",
    #: "unsaved" (no database) or "write-error: ...", the events
    #: captured, and the stored log's name in the database's replay/ dir.
    record_state: str = ""
    record_events: int = 0
    record_log: str = ""
    #: Replay: "" (off), "replaying" or "replayed" (log fully consumed;
    #: a divergence raises instead), and the events consumed.
    replay_state: str = ""
    replay_events: int = 0
    #: This run's storage events, ``(kind, file, reason)``, from the
    #: database's and the shared store's ``events``: quarantines, read IO
    #: errors, missing indexed files, a failed shared-store registration.
    events: List[Tuple[str, str, str]] = field(default_factory=list)

    def to_dict(self) -> Dict[str, object]:
        """Every field as ``name: value``, a group's fields and derived
        properties as ``group.name: value``; lists are copies."""
        flat: Dict[str, object] = {}
        for item in fields(self):
            value = getattr(self, item.name)
            if not is_dataclass(value):
                flat[item.name] = value
                continue
            names = [sub.name for sub in fields(value)]
            names += getattr(value, "DERIVED", ())
            for name in names:
                flat[item.name + "." + name] = getattr(value, name)
        return {
            key: list(value) if isinstance(value, list) else value
            for key, value in flat.items()
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
