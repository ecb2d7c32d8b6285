"""The persistent cache manager.

"The manager performs the fundamental tasks of generating persistent
caches, verifying possible reuse, and storing them in the database."
(paper §3.2)

A :class:`PersistentCacheSession` is attached to one engine run and
implements the engine's persistence hooks:

``on_process_start``
    Cache lookup (exact or inter-application), key validation against
    every intercepted library load, invalidation of conflicting or
    relocated translations, and preloading of the valid ones into the
    intra-execution code cache (as demand-paged residents).

``on_module_load`` / ``on_module_unload``
    Run-time load interception for dlopen'd modules: key check + revive on
    load; conversion of the dying module's translations on unload so they
    persist even when the module is gone at process exit.

``on_cache_flush``
    Write-back before the intra-execution cache is discarded ("information
    is written to a persistent code cache whenever the intra-execution
    code cache becomes full...").

``on_exit``
    Write-back at program exit ("...or the last thread of execution
    performs the exit system call"), including accumulation of newly
    discovered translations into the loaded cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.persist.cachefile import CacheFileError, PersistentCache, PersistedTrace
from repro.persist.convert import persist_trace, revive_trace
from repro.persist.database import CacheDatabase
from repro.persist.keys import MappingKey, mapping_key

#: Failures the session downgrades on instead of raising through the
#: engine: malformed cache files and any storage-level IO error
#: (including the fault-injection shim's, which subclass OSError).
STORAGE_FAILURES = (CacheFileError, OSError)


@dataclass
class PersistenceConfig:
    """How a session looks up, reuses and writes persistent caches."""

    database: Optional[CacheDatabase] = None
    #: Ignore the application key at lookup; reuse any identically
    #: instrumented cache (paper §3.2.3 / §4.5).
    inter_application: bool = False
    #: Position-independent translations (the paper's proposed extension):
    #: revive traces across library relocation by re-materializing
    #: absolute addresses.
    relocatable: bool = False
    #: Add this run's new translations to the cache at write-back (§4.4).
    accumulate: bool = True
    #: Never write back (measurement runs that must not mutate the DB).
    readonly: bool = False
    #: Prime directly with this cache instead of a database lookup
    #: (cross-input and inter-application experiments pick their donor).
    prime_with: Optional[PersistentCache] = None
    #: For inter-application database lookups: skip the running app's own
    #: caches so reuse is genuinely cross-application.
    exclude_own_app: bool = True
    #: Use the compiled-body sidecar (repro.persist.sidecar): revive host
    #: code objects for the compiled dispatch tier and record new ones at
    #: write-back.  Purely host-side — disabling it changes nothing
    #: observable (cold-compile benchmarking, diagnosis).  Disabling it
    #: also disables the shared store below (the sidecar machinery is
    #: the chain both ride on).
    sidecar: bool = True
    #: Per-host shared compiled-body store
    #: (repro.persist.sharedstore.SharedBodyStore) to revive bodies from
    #: before the private sidecar and publish new ones to at write-back.
    #: Defaults to the database's attached store
    #: (CacheDatabase(shared_store=...)) when None.  Host-side only,
    #: like the sidecar.
    shared_store: Optional[object] = None
    #: Record this run's nondeterminism into a ``PCRL1`` session log
    #: (repro.replay), stored in the database's ``replay/`` directory at
    #: exit (kept on the session as ``recorded_log`` when there is no
    #: database).  Recording sessions run a *persistence-neutral*
    #: profile: no cache lookup, preload or trace write-back — the
    #: recorded ``VMStats`` baseline must be a pure function of the
    #: program and its logged nondeterminism, so replay can reproduce
    #: it bit-identically regardless of how warm any database is.
    record: bool = False
    #: Replay this :class:`repro.replay.log.ReplayLog` instead of
    #: running live: logged syscall values and scheduling decisions are
    #: substituted at every nondeterminism point, and any structural
    #: divergence raises :class:`repro.replay.session.ReplayDivergence`.
    #: Same persistence-neutral profile as recording.
    replay_log: Optional[object] = None
    #: Extra identity keys merged into a recording's log meta (workload
    #: name, input, suite, layout seed, ...) so a differential harness
    #: can rebuild the session later.
    record_meta: Dict[str, object] = field(default_factory=dict)


@dataclass
class PersistenceReport:
    """What the session did, for results and experiments."""

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
    #: Damaged cache files moved aside (never deleted) this session.
    cache_quarantined: int = 0
    #: True when a storage failure downgraded this session to plain JIT
    #: execution (no reuse and/or no write-back).
    fallback_jit_only: bool = False
    #: Human-readable reason for the downgrade ("" when none happened).
    degraded_reason: str = ""
    #: Count of storage-level failures absorbed by the session.
    storage_errors: int = 0
    #: Compiled-body sidecar lifecycle this session (host-side only; see
    #: repro.persist.sidecar): how the open went ("disabled", "fresh",
    #: "loaded", "stale-vm", "quarantined", "io-error", "write-error").
    sidecar_state: str = "disabled"
    #: Entries available after the open (revivable compiled bodies).
    sidecar_entries: int = 0
    #: Factory code objects revived from the sidecar (host compile()s
    #: skipped) and host compile()s actually paid, from the compiler.
    sidecar_hits: int = 0
    sidecar_host_compiles: int = 0
    #: Whether the write-back persisted the sidecar, and how many bodies
    #: this process contributed that were not on disk before.
    sidecar_written: bool = False
    sidecar_new_entries: int = 0
    #: Per-host shared compiled-body store lifecycle (host-side only;
    #: see repro.persist.sharedstore): "disabled", "attached",
    #: "stale-vm" (store keyed for another VM version), or
    #: "write-error: ..." when a publish failed.
    shared_store_state: str = "disabled"
    #: Bodies revived from the shared store and chained lookups the
    #: store could not serve (answered by the private sidecar or a host
    #: compile()).
    shared_hits: int = 0
    shared_misses: int = 0
    #: Bodies this session added to the shared store at write-back.
    shared_publishes: int = 0
    #: Bodies the store's LRU/size cap evicted during this session's
    #: publishes.
    shared_gc_evictions: int = 0
    #: Already-pooled bodies whose LRU stamp this session refreshed.
    #: Read-only sessions record *only* these at write-back time (no
    #: body publish, no trace write) so a consumer that never writes
    #: still keeps its hot working set off the gc cap's eviction list.
    shared_touch_refreshes: int = 0
    #: Polymorphic indirect-branch inline-cache counters from the
    #: compiled tier (repro.vm.stats.ICStats; host-side only, zeros
    #: under interpreted dispatch).
    ic_hits: int = 0
    ic_misses: int = 0
    ic_resets: int = 0
    ic_depth_hits: List[int] = field(default_factory=list)
    #: Hits served by the megamorphic hash-table tier behind the MRU
    #: chain (zero until a call site overflows the chain depth).
    ic_overflow_hits: int = 0
    #: Cross-trace linking + superblock fusion counters from the
    #: compiled tier (repro.vm.stats.LinkStats; host-side only, zeros
    #: under interpreted dispatch or with trace_linking disabled).
    link_direct_hops: int = 0
    link_ic_hops: int = 0
    link_bounces: int = 0
    regions_fused: int = 0
    region_entries: int = 0
    region_hops: int = 0
    region_invalidations: int = 0
    fusion_aborts: int = 0
    #: Record-and-replay lifecycle (repro.replay; the session is
    #: persistence-neutral in either mode, so these are report-only):
    #: recording: "" (off), "recording", "written", "unsaved" (no
    #: database to store into), or "write-error: ...".
    record_state: str = ""
    #: Nondeterminism events captured by a recording session.
    record_events: int = 0
    #: Filename of the stored log inside the database's replay/ dir.
    record_log: str = ""
    #: Replay: "" (off), "replaying", or "replayed" (log fully
    #: consumed; a divergence raises instead of reporting).
    replay_state: str = ""
    #: Recorded events consumed by a completed replay.
    replay_events: int = 0

    def to_dict(self) -> Dict[str, object]:
        return dict(self.__dict__)


class PersistentCacheSession:
    """Engine persistence hooks for a single run."""

    def __init__(self, config: PersistenceConfig):
        self.config = config
        self.report_data = PersistenceReport()
        if config.record and config.replay_log is not None:
            raise ValueError(
                "a session cannot record and replay at the same time"
            )
        #: Record/replay sessions run the persistence-neutral profile:
        #: every trace-cache hook below is a no-op for them.
        self._rr = config.record or config.replay_log is not None
        self._record_hook = None
        self._replay_hook = None
        self._record_meta: Dict[str, object] = {}
        self._recorded_log = None
        self._pending_log = None
        self._cache: Optional[PersistentCache] = None
        self._current_keys: Dict[str, MappingKey] = {}
        self._app_key: Optional[MappingKey] = None
        self._app_path: str = ""
        self._vm_version: str = ""
        self._tool_identity: str = ""
        #: Persisted traces whose images were not loaded this run: kept
        #: verbatim through write-back so accumulation never loses code.
        self._retained: List[PersistedTrace] = []
        self._retained_keys: Dict[str, MappingKey] = {}
        #: Identities of traces invalidated this run (stale content or
        #: unusable base): they must not survive an accumulation write-back
        #: under the refreshed image keys.
        self._invalid_identities: set = set()
        #: Records converted at module-unload time (the mapping is gone by
        #: write-back, so conversion must happen in the unload hook).
        self._module_records: Dict[tuple, PersistedTrace] = {}
        self._started = False
        #: Set after a storage failure: the session runs JIT-only from
        #: then on (no reuse, no further write-back attempts).
        self._degraded = False
        #: The compiled-body store attached to this run's compiler —
        #: a private CompiledBodyStore, a ChainedBodyStore (shared store
        #: in front), or None (interpreted mode, sidecar disabled, or no
        #: database).  Host-side only; see repro.persist.sidecar.
        self._body_store = None
        #: The shared per-host store behind the chain, when attached.
        self._shared_store = None

    # -- engine hooks ------------------------------------------------------------

    def on_process_start(self, engine, machine, cache, stats) -> None:
        if self._rr:
            # Persistence-neutral profile: no lookup/preload (and no
            # sidecar — nothing will be written back), just the
            # nondeterminism hook on the machine seam.
            self._attach_replay(engine, machine)
            return
        self._start(engine, machine, cache, stats)
        # The sidecar attaches last, after the quarantine-event sync, so
        # a damaged sidecar is never mistaken for a damaged trace cache:
        # it cannot degrade the session or touch VMStats.
        self._attach_sidecar(engine)

    def _start(self, engine, machine, cache, stats) -> None:
        process = machine.process
        self._started = True
        self._vm_version = engine.config.vm_version
        self._tool_identity = engine.tool.identity()
        self._current_keys = {
            event.image.path: mapping_key(event.image, event.base, event.size)
            for event in process.load_events
        }
        self._app_path = process.executable.path
        self._app_key = self._current_keys[self._app_path]

        database = self.config.database
        quarantined_before = (
            database.quarantined_count if database is not None else 0
        )
        try:
            loaded = self._lookup()
        except STORAGE_FAILURES as exc:
            # Paper §3.2: verification failure must degrade to plain JIT
            # execution, never take the VM down.
            self._sync_quarantine_events(quarantined_before)
            self._degrade(stats, "cache lookup failed: %s" % exc)
            return
        self._sync_quarantine_events(quarantined_before)
        if loaded is None:
            if self.report_data.cache_quarantined:
                # The indexed cache existed but was damaged: it has been
                # moved aside and this run proceeds without persistence.
                self._degrade(stats, "cache file quarantined at lookup")
            return
        cost = engine.cost_model
        stats.charge_persistence(cost.pcache_open)

        if (
            loaded.vm_version != self._vm_version
            or loaded.tool_identity != self._tool_identity
        ):
            # Stale system or different instrumentation semantics: the
            # whole cache is unusable (paper §3.2.1).
            self.report_data.version_conflict = True
            return
        self._cache = loaded
        self.report_data.cache_found = True
        self.report_data.source_app = loaded.app_path

        # Key validation per intercepted load event.
        validation: Dict[str, str] = {}
        for event in process.load_events:
            stats.charge_persistence(cost.pcache_key_check)
            self.report_data.key_checks += 1
            path = event.image.path
            persisted_key = loaded.image_keys.get(path)
            if persisted_key is None:
                continue  # nothing persisted for this image
            current = self._current_keys[path]
            if persisted_key.matches(current):
                validation[path] = "exact"
            elif self.config.relocatable and persisted_key.matches_content(current):
                validation[path] = "rebase"
            else:
                validation[path] = "invalid"

        preload: List = []
        for persisted in loaded.traces:
            mode = validation.get(persisted.image_path)
            if mode is None:
                # Image not loaded in this run: unusable now, retained for
                # write-back so accumulated caches keep their code.
                self._retained.append(persisted)
                key = loaded.image_keys.get(persisted.image_path)
                if key is not None:
                    self._retained_keys[persisted.image_path] = key
                self.report_data.retained_unloaded += 1
                continue
            if mode == "invalid":
                self._invalidate_one(stats, cost, persisted)
                continue
            # Position-independent mode re-materializes every absolute
            # address (a trace whose *own* image stayed put may still embed
            # literals into a relocated library); otherwise reuse is
            # verbatim and revive_trace validates every embedded literal.
            revived = revive_trace(
                persisted,
                engine.tool,
                self._base_of(process),
                rebase=self.config.relocatable,
            )
            if revived is None:
                self._invalidate_one(stats, cost, persisted)
                continue
            if mode == "rebase":
                self.report_data.rebased += 1
            preload.append(revived)

        # Install the valid translations.  cache.insert links them among
        # themselves, recreating the persisted link web; the open cost
        # already covers this (the file stores the links).  Preloaded
        # residents are demand-paged: the first execution charges the
        # trace+metadata load; compiled dispatch specializes the trace
        # into its closure once it reaches its compile entry.
        from repro.vm.codecache import CacheFull

        for revived in preload:
            if revived.entry in cache:
                continue
            try:
                cache.insert(revived)
            except CacheFull:
                break  # pools smaller than the cache; stop preloading
            self.report_data.preloaded += 1
            stats.traces_from_persistent += 1

    def on_module_load(self, engine, machine, cache, stats, mapping) -> None:
        """Load interception for a dynamically loaded (dlopen'd) module.

        The same §3.2.3 treatment as startup libraries, applied at run
        time: compute and check the module's key, invalidate its retained
        translations on mismatch, and preload them on a match.
        """
        if self._rr:
            return
        image = mapping.image
        key = mapping_key(image, mapping.base, mapping.size)
        self._current_keys[image.path] = key
        if self._cache is None:
            return
        cost = engine.cost_model
        stats.charge_persistence(cost.pcache_key_check)
        self.report_data.key_checks += 1
        persisted_key = self._cache.image_keys.get(image.path)
        if persisted_key is None:
            return
        if persisted_key.matches(key):
            rebase = self.config.relocatable
        elif self.config.relocatable and persisted_key.matches_content(key):
            rebase = True
        else:
            for persisted in [
                trace for trace in self._retained
                if trace.image_path == image.path
            ]:
                self._retained.remove(persisted)
                self._invalidate_one(stats, cost, persisted)
            return

        from repro.vm.codecache import CacheFull

        keep: List[PersistedTrace] = []
        for persisted in self._retained:
            if persisted.image_path != image.path:
                keep.append(persisted)
                continue
            revived = revive_trace(
                persisted, engine.tool, self._base_of(machine.process),
                rebase=rebase,
            )
            if revived is None:
                self._invalidate_one(stats, cost, persisted)
                continue
            if revived.entry in cache:
                continue
            try:
                cache.insert(revived)
            except CacheFull:
                keep.append(persisted)
                continue
            self.report_data.preloaded += 1
            stats.traces_from_persistent += 1
        self._retained = keep

    def on_module_unload(self, engine, machine, stats, mapping, evicted) -> None:
        """A module is being unloaded: convert its (about-to-be-unmapped)
        translations now so the write-back can persist them.

        This composes module-aware retention with persistence: a plugin
        that is never loaded at exit time still contributes its
        translations to the cache.
        """
        if self._rr:
            return
        for resident in evicted:
            if resident.from_persistent:
                continue  # already in the loaded cache file
            record = persist_trace(resident, machine.process)
            if record is None:
                self.report_data.unbacked_skipped += 1
                continue
            self._module_records[record.identity] = record

    def on_cache_flush(self, engine, machine, cache, stats) -> None:
        """Write-back triggered by intra-execution cache exhaustion."""
        if self._rr:
            return
        self._write_back(engine, machine, cache, stats)

    def on_exit(self, engine, machine, cache, stats) -> None:
        if self._rr:
            return
        self._collect_sidecar_counters(engine)
        self._write_back(engine, machine, cache, stats)

    def on_result(self, engine, result) -> None:
        """Post-run hook: the ``VMRunResult`` exists (record needs it for
        the baseline snapshot; replay verifies the log ran dry).

        A recording's log-write failure is contained *here* (report-only
        ``record_state``), never via the engine's degradation backstop —
        the live run is already complete and must stay untouched.  A
        replay divergence, by contrast, raises: ``ReplayDivergence`` is
        a plain ``Exception`` the backstop does not catch.
        """
        if self._record_hook is not None:
            from repro.replay.log import ReplayLog, result_snapshot

            events = list(self._record_hook.events)
            self.report_data.record_events = len(events)
            database = self.config.database
            if database is None:
                # Nowhere to store it: defer the baseline snapshot (the
                # only non-trivial recording cost) to the first
                # ``recorded_log`` access, so an unsaved recording pays
                # per-event cost only inside the run.
                self._pending_log = (self._record_meta, events, result)
                self.report_data.record_state = "unsaved"
                return
            log = ReplayLog(
                meta=self._record_meta,
                events=events,
                baseline=result_snapshot(result),
            )
            self._recorded_log = log
            try:
                name = database.store_replay_log(log)
            except STORAGE_FAILURES as exc:
                self.report_data.record_state = "write-error: %s" % exc
                return
            self.report_data.record_state = "written"
            self.report_data.record_log = name
        elif self._replay_hook is not None:
            self._replay_hook.verify_exhausted()
            self.report_data.replay_state = "replayed"
            self.report_data.replay_events = self._replay_hook.cursor

    def report(self) -> Dict[str, object]:
        return self.report_data.to_dict()

    @property
    def recorded_log(self):
        """The finished ReplayLog of a recording session.

        Stored logs are built eagerly (serialization needs the baseline
        anyway); an unsaved recording builds its log here on first
        access instead of inside the timed run.
        """
        if self._recorded_log is None and self._pending_log is not None:
            from repro.replay.log import ReplayLog, result_snapshot

            meta, events, result = self._pending_log
            self._pending_log = None
            self._recorded_log = ReplayLog(
                meta=meta, events=events, baseline=result_snapshot(result)
            )
        return self._recorded_log

    # -- record / replay ---------------------------------------------------------

    def _attach_replay(self, engine, machine) -> None:
        """Wire the recording or replaying hook onto the machine seam."""
        from repro.replay.session import RecordingHook, ReplayHook

        self._started = True
        os_state = machine.os_state
        log = self.config.replay_log
        if log is not None:
            # Re-seed the initial OSState from the recording.  Replay
            # substitutes every NONDET value anyway; this keeps direct
            # state (pid in diagnostics, rng evolution) faithful too.
            os_state.pid = int(log.meta.get("pid", os_state.pid))
            os_state.rng_state = int(
                log.meta.get("rng_state", os_state.rng_state)
            )
            hook = ReplayHook(log.events, os_state=os_state)
            self._replay_hook = hook
            self.report_data.replay_state = "replaying"
        else:
            meta = {
                "pid": os_state.pid,
                "rng_state": os_state.rng_state,
                "vm_version": engine.config.vm_version,
                "dispatch_mode": engine.config.dispatch_mode,
                "tool": engine.tool.identity(),
            }
            meta.update(self.config.record_meta)
            self._record_meta = meta
            hook = RecordingHook()
            self._record_hook = hook
            self.report_data.record_state = "recording"
        os_state.nondet_hook = hook

    # -- compiled-body sidecar ----------------------------------------------------

    def _attach_sidecar(self, engine) -> None:
        """Open the compiled-body chain and hand it to this run's compiler.

        Skipped (state stays ``"disabled"``) under interpreted dispatch
        (nothing compiles), without a database, when configured off, or
        after this session already degraded.  Every other outcome is
        report-only: neither the sidecar nor the shared store may ever
        influence the simulated run.

        When a shared per-host store is configured (on the session or on
        the database), the compiler sees a
        :class:`~repro.persist.sidecar.ChainedBodyStore` implementing
        the fallback order **shared store → private sidecar → host
        compile()**; a failed private open then still leaves the shared
        layer serving (and vice versa).
        """
        if (
            not self.config.sidecar
            or self.config.database is None
            or self._degraded
        ):
            return
        compiler = getattr(engine, "_compiler", None)
        if compiler is None:
            return
        shared = self.config.shared_store
        if shared is None:
            shared = getattr(self.config.database, "shared_store", None)
        if shared is not None and shared.vm_version != self._vm_version:
            # A store built for another VM version addresses a different
            # pool; attaching it would only record useless misses.
            self.report_data.shared_store_state = "stale-vm"
            shared = None
        try:
            store, state = self.config.database.open_sidecar(
                self._vm_version
            )
        except STORAGE_FAILURES as exc:
            state = "io-error: %s" % exc
            store = None
        self.report_data.sidecar_state = state
        if store is not None:
            self.report_data.sidecar_entries = len(store)
        if shared is None:
            if store is None:
                return
            self._body_store = store
            compiler.attach_body_store(store)
            return
        from repro.persist.sidecar import ChainedBodyStore

        chained = ChainedBodyStore(shared=shared, private=store)
        self._body_store = chained
        self._shared_store = shared
        self.report_data.shared_store_state = "attached"
        compiler.attach_body_store(chained)

    def _collect_sidecar_counters(self, engine) -> None:
        compiler = getattr(engine, "_compiler", None)
        if compiler is None:
            return
        self.report_data.sidecar_hits = compiler.sidecar_hits
        self.report_data.sidecar_host_compiles = compiler.host_compiles
        ics = getattr(compiler, "ic_stats", None)
        if ics is not None:
            self.report_data.ic_hits = ics.hits
            self.report_data.ic_misses = ics.misses
            self.report_data.ic_resets = ics.resets
            self.report_data.ic_depth_hits = list(ics.depth_hits)
            self.report_data.ic_overflow_hits = ics.overflow_hits
        links = getattr(compiler, "link_stats", None)
        if links is not None:
            self.report_data.link_direct_hops = links.link_direct_hops
            self.report_data.link_ic_hops = links.link_ic_hops
            self.report_data.link_bounces = links.link_bounces
            self.report_data.regions_fused = links.regions_fused
            self.report_data.region_entries = links.region_entries
            self.report_data.region_hops = links.region_hops
            self.report_data.region_invalidations = links.region_invalidations
            self.report_data.fusion_aborts = links.fusion_aborts
        store = self._body_store
        if store is not None and hasattr(store, "shared_hits"):
            self.report_data.shared_hits = store.shared_hits
            self.report_data.shared_misses = store.shared_misses

    def _save_sidecar(self) -> None:
        """Persist newly recorded compiled bodies (report-only failure).

        A sidecar or shared-store write error must not degrade the
        session — the trace cache's write-back is independent and may
        still succeed — and must not touch ``VMStats`` (the compiled-body
        chain exists only under compiled dispatch; charging anything
        would split the tiers).  The shared publish and the private
        store are independent too: either may succeed when the other's
        storage fails.
        """
        store = self._body_store
        if store is None or not store.dirty:
            return
        private = store
        if hasattr(store, "pending_publish"):
            self._publish_shared(store)
            private = store.private
        if private is None or not private.dirty:
            return
        new_entries = private.new_entries
        try:
            self.config.database.store_sidecar(private)
        except STORAGE_FAILURES as exc:
            self.report_data.sidecar_state = "write-error: %s" % exc
            return
        self.report_data.sidecar_written = True
        self.report_data.sidecar_new_entries += new_entries
        private.dirty = False
        private.new_entries = 0

    def _publish_shared(self, chained) -> None:
        """Publish this session's bodies to the per-host pool.

        Failure is report-only (``shared_store_state`` becomes
        ``"write-error: ..."``): the private sidecar write-back still
        runs, and the simulated run is untouched either way.
        """
        pending = chained.pending_publish()
        touched = chained.touched()
        if not pending and not touched:
            return
        try:
            result = self._shared_store.publish(
                pending, touch=touched, costs=chained.pending_costs()
            )
        except STORAGE_FAILURES as exc:
            self.report_data.shared_store_state = "write-error: %s" % exc
            return
        self.report_data.shared_publishes += result.published
        self.report_data.shared_gc_evictions += result.evicted
        self.report_data.shared_touch_refreshes += result.refreshed
        chained.clear_pending()

    def _touch_shared(self) -> None:
        """Refresh shared-store LRU stamps for a read-only session.

        A read-only session never writes traces, sidecar or bodies —
        but the bodies it revived from the per-host pool are its hot
        working set, and without a stamp refresh they age as if unused
        and become ``repro cache gc --max-bytes``'s *first* LRU
        victims.  This is the touch-only write-back: publish no blobs,
        refresh only the stamps of digests this session revived.
        Failure is report-only, like every shared-store operation.
        """
        store = self._body_store
        if self._shared_store is None or store is None or self._degraded:
            return
        touched = store.touched() if hasattr(store, "touched") else set()
        if not touched:
            return
        try:
            result = self._shared_store.publish({}, touch=touched)
        except STORAGE_FAILURES as exc:
            self.report_data.shared_store_state = "write-error: %s" % exc
            return
        self.report_data.shared_touch_refreshes += result.refreshed
        store.clear_touched()

    # -- internals -----------------------------------------------------------------

    def _lookup(self) -> Optional[PersistentCache]:
        if self.config.prime_with is not None:
            return self.config.prime_with
        database = self.config.database
        if database is None:
            return None
        if self.config.inter_application:
            return database.lookup_inter_application(
                self._vm_version,
                self._tool_identity,
                exclude_app_path=(
                    self._app_path if self.config.exclude_own_app else None
                ),
            )
        return database.lookup(self._app_key, self._vm_version, self._tool_identity)

    def _sync_quarantine_events(self, quarantined_before: int) -> None:
        """Fold the database's new quarantine events into the report."""
        database = self.config.database
        if database is None:
            return
        newly = database.quarantined_count - quarantined_before
        if newly > 0:
            self.report_data.cache_quarantined += newly

    def _degrade(self, stats, reason: str) -> None:
        """Downgrade the session to JIT-only execution, keeping the run
        alive: "a damaged database must degrade to plain JIT execution,
        not crash the VM"."""
        self._degraded = True
        self._cache = None
        self.report_data.fallback_jit_only = True
        self.report_data.storage_errors += 1
        if not self.report_data.degraded_reason:
            self.report_data.degraded_reason = reason
        if stats is not None:
            stats.persistence_storage_errors += 1
            stats.persistence_degraded = 1

    def _invalidate_one(self, stats, cost, persisted: PersistedTrace) -> None:
        self.report_data.invalidated += 1
        stats.persistent_traces_invalidated += 1
        stats.charge_persistence(cost.pcache_invalidate_trace)
        self._invalid_identities.add(persisted.identity)

    @staticmethod
    def _touches_modified_page(resident, modified_pages) -> bool:
        from repro.machine.cpu import CODE_PAGE_SHIFT

        first = resident.trace.entry >> CODE_PAGE_SHIFT
        last = (resident.trace.end - 1) >> CODE_PAGE_SHIFT
        return any(page in modified_pages for page in range(first, last + 1))

    @staticmethod
    def _base_of(process):
        def base_of(path: str) -> Optional[int]:
            mapping = process.space.mapping_for_image(path)
            return mapping.base if mapping is not None else None

        return base_of

    def _write_back(self, engine, machine, cache, stats) -> None:
        if self.config.readonly:
            # No trace write-back, no sidecar save, no body publish —
            # but the shared pool still gets its LRU signal for the
            # bodies this session revived (see _touch_shared).
            self._touch_shared()
            return
        if self.config.database is None:
            return
        if self._degraded:
            # A storage failure already downgraded this session; writing
            # back through the same failing storage would be unsafe noise.
            return
        # The sidecar saves first and independently: its write never
        # degrades the session, and the trace write-back below may take
        # the "nothing changed" early return while the sidecar still has
        # fresh bodies to persist (e.g. a warm run after a memo flush).
        self._save_sidecar()
        cost = engine.cost_model
        process = machine.process

        modified_pages = machine.modified_code_pages
        accumulating = self._cache is not None and self.config.accumulate
        new_records: List[PersistedTrace] = []
        reused_records: List[PersistedTrace] = []
        for resident in cache.traces():
            if modified_pages and self._touches_modified_page(
                resident, modified_pages
            ):
                # Self-modified code no longer matches the file on disk:
                # "persistent caches only contain traces backed by a file
                # on disk" (§3.2.1).
                self.report_data.unbacked_skipped += 1
                continue
            if accumulating and resident.from_persistent:
                # The loaded cache already holds this trace's record;
                # re-converting it would only be thrown away below.
                continue
            record = persist_trace(resident, process)
            if record is None:
                self.report_data.unbacked_skipped += 1
                continue  # unbacked code: never persisted
            if resident.from_persistent:
                reused_records.append(record)
            else:
                new_records.append(record)

        module_records = [
            record for identity, record in self._module_records.items()
            if identity not in self._invalid_identities
        ]
        if self._cache is not None and self.config.accumulate:
            target = self._cache
            # Invalid translations must not survive under refreshed keys.
            dropped = 0
            if self._invalid_identities:
                dropped = target.drop_traces(self._invalid_identities)
            if not new_records and not module_records and not dropped:
                # Nothing changed: skip the disk write entirely.
                self.report_data.total_traces_after_write = len(target.traces)
                return
            # Refresh/retain: the loaded cache already contains the reused
            # records and the retained-unloaded ones; accumulate the new.
            target.accumulate(new_records + module_records, self._current_keys)
        else:
            target = PersistentCache(
                vm_version=self._vm_version,
                tool_identity=self._tool_identity,
                app_path=self._app_path,
            )
            target.image_keys = dict(self._current_keys)
            target.image_keys.update(self._retained_keys)
            target.accumulate(
                reused_records + new_records + module_records + self._retained,
                {},
            )
        stats.charge_persistence(
            cost.pcache_write_fixed + cost.pcache_write_per_trace * len(target.traces)
        )
        try:
            self.config.database.store(target, self._app_key)
        except STORAGE_FAILURES as exc:
            # ENOSPC/EIO mid-write, a vanished directory, ...: the
            # atomic write-replace left the database consistent; record
            # the downgrade and keep the program's run intact.
            self._degrade(stats, "write-back failed: %s" % exc)
            return
        self.report_data.new_traces_persisted = len(new_records)
        self.report_data.written = True
        self.report_data.total_traces_after_write = len(target.traces)
        # Subsequent flush/exit write-backs accumulate onto this cache.
        self._cache = target
