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

Under compiled dispatch the session also opens the run's compiled-body
store at process start (:func:`repro.persist.sidecar.open_body_store`:
the database's sidecar, with the database's shared pool in front) and
writes it back ahead of the trace cache.  Both are report-only: the
bodies never degrade the session or touch ``VMStats``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.persist.cachefile import CacheFileError, PersistentCache, TraceRow
from repro.persist.convert import locator, persist_trace, revive_trace
from repro.persist.database import INDEX_NAME, CacheDatabase
from repro.persist.keys import MappingKey, mapping_key
from repro.persist.sidecar import open_body_store
from repro.vm.codecache import CacheFull
from repro.vm.stats import HostStats
from repro.vm.translator import TranslatedTrace

#: Failures the session downgrades on instead of raising through the
#: engine: malformed cache files and any storage-level IO error
#: (including the fault-injection shim's, which subclass OSError).
STORAGE_FAILURES = (CacheFileError, OSError)


@dataclass
class PersistenceConfig:
    """How a session looks up, reuses and writes persistent caches."""

    database: Optional[CacheDatabase] = None
    #: Ignore the application key at lookup; reuse any identically
    #: instrumented cache (paper §3.2.3 / §4.5) other than the running
    #: app's own, so reuse is genuinely cross-application.
    inter_application: bool = False
    #: Position-independent translations (the paper's proposed extension):
    #: revive traces across library relocation by re-materializing
    #: absolute addresses.
    relocatable: bool = False
    #: Never write back (measurement runs that must not mutate the DB).
    readonly: bool = False
    #: Prime directly with this cache instead of a database lookup
    #: (cross-input and inter-application experiments pick their donor).
    #: Needs ``readonly``: a write-back accumulates onto the loaded
    #: cache, which here is the caller's object.
    prime_with: Optional[PersistentCache] = None
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


class PersistentCacheSession:
    """Engine persistence hooks for a single run.

    What the session does is recorded in the engine's
    :class:`~repro.vm.stats.HostStats` for the run (``engine.host``,
    bound at process start).
    """

    def __init__(self, config: PersistenceConfig):
        self.config = config
        self.host: Optional[HostStats] = None
        if config.record and config.replay_log is not None:
            raise ValueError(
                "a session cannot record and replay at the same time"
            )
        if config.prime_with is not None and not config.readonly:
            raise ValueError(
                "a session primed with a cache must be readonly: its"
                " write-back would add to the caller's cache"
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
        self._retained: List[TraceRow] = []
        #: Identities of traces invalidated this run (stale content or
        #: unusable base): they must not survive an accumulation write-back
        #: under the refreshed image keys.
        self._invalid_identities: set = set()
        #: Rows converted at module-unload time (the mapping is gone by
        #: write-back, so conversion must happen in the unload hook).
        self._module_rows: Dict[tuple, TraceRow] = {}
        self._started = False
        #: Set after a storage failure: the session runs JIT-only from
        #: then on (no reuse, no further write-back attempts).
        self._degraded = False
        #: The compiled-body store attached to this run's compiler, or
        #: None (interpreted mode, no database, a degraded session, or
        #: neither layer readable).  Host-side only; see
        #: repro.persist.sidecar.
        self._body_store = None

    # -- engine hooks ------------------------------------------------------------

    def on_process_start(self, engine, machine, cache, stats) -> None:
        self.host = engine.host
        if self._rr:
            # Persistence-neutral profile: no lookup/preload (and no
            # sidecar — nothing will be written back), just the
            # nondeterminism hook on the machine seam.
            self._attach_replay(engine, machine)
            return
        self._start(engine, machine, cache, stats)
        # The body store opens last, after the quarantine-event sync, so
        # a damaged sidecar is never mistaken for a damaged trace cache:
        # it cannot degrade the session or touch VMStats.
        self._open_body_store(engine)

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
            if self.host.cache_quarantined:
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
            self.host.version_conflict = True
            return
        self._cache = loaded
        self.host.cache_found = True
        self.host.source_app = loaded.app_path

        # Key validation per intercepted load event.
        validation: Dict[str, str] = {}
        for event in process.load_events:
            stats.charge_persistence(cost.pcache_key_check)
            self.host.key_checks += 1
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

        rebase = self.config.relocatable
        base_of = self._base_of(process)
        preload: Dict[int, TranslatedTrace] = {}
        for row in loaded.traces:
            mode = validation.get(row.image_path)
            if mode is None:
                # Image not loaded in this run: unusable now, retained for
                # write-back so accumulated caches keep their code.
                self._retained.append(row)
                self.host.retained_unloaded += 1
                continue
            # Position-independent mode re-materializes every absolute
            # address (a trace whose *own* image stayed put may still embed
            # literals into a relocated library); otherwise reuse is
            # verbatim and revive_trace validates every embedded literal.
            revived = None
            if mode != "invalid":
                revived = revive_trace(row, engine.tool, base_of, rebase)
            if revived is None:
                self._invalidate_one(stats, cost, row)
                continue
            if mode == "rebase":
                self.host.rebased += 1
            preload.setdefault(revived.trace.entry, revived)

        # Install the valid translations into the run's empty code cache.
        # One cache.insert links them among themselves, recreating the
        # persisted link web; the open cost already covers this (the
        # file stores the links).  Preloaded residents are demand-paged:
        # the first execution charges the trace+metadata load; compiled
        # dispatch binds the trace's stored body on its bind entry, or
        # specializes it once it reaches the compile threshold.
        try:
            cache.insert(*preload.values())
        except CacheFull:
            pass  # pools smaller than the cache: the traces that fit stay
        self.host.preloaded += len(cache)
        stats.traces_from_persistent += len(cache)

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
        self.host.key_checks += 1
        persisted_key = self._cache.image_keys.get(image.path)
        if persisted_key is None:
            return
        if persisted_key.matches(key):
            rebase = self.config.relocatable
        elif self.config.relocatable and persisted_key.matches_content(key):
            rebase = True
        else:
            for row in [
                row for row in self._retained if row.image_path == image.path
            ]:
                self._retained.remove(row)
                self._invalidate_one(stats, cost, row)
            return

        keep: List[TraceRow] = []
        base_of = self._base_of(machine.process)
        for row in self._retained:
            if row.image_path != image.path:
                keep.append(row)
                continue
            revived = revive_trace(row, engine.tool, base_of, rebase)
            if revived is None:
                self._invalidate_one(stats, cost, row)
                continue
            if revived.entry in cache:
                continue
            try:
                cache.insert(revived)
            except CacheFull:
                keep.append(row)
                continue
            self.host.preloaded += 1
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
        process = machine.process
        locate = locator(process)
        for resident in evicted:
            if resident.from_persistent:
                continue  # already in the loaded cache file
            row = persist_trace(resident, process, locate)
            if row is None:
                self.host.unbacked_skipped += 1
                continue
            self._module_rows[row.identity] = row

    def on_cache_flush(self, engine, machine, cache, stats) -> None:
        """Write-back triggered by intra-execution cache exhaustion."""
        if self._rr:
            return
        self._write_back(engine, machine, cache, stats)

    def on_exit(self, engine, machine, cache, stats) -> None:
        try:
            if not self._rr:
                self._write_back(engine, machine, cache, stats)
        finally:
            self._collect_events()

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
            self.host.record_events = len(events)
            database = self.config.database
            if database is None:
                # Nowhere to store it: defer the baseline snapshot (the
                # only non-trivial recording cost) to the first
                # ``recorded_log`` access, so an unsaved recording pays
                # per-event cost only inside the run.
                self._pending_log = (self._record_meta, events, result)
                self.host.record_state = "unsaved"
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
                self.host.record_state = "write-error: %s" % exc
                return
            self.host.record_state = "written"
            self.host.record_log = name
        elif self._replay_hook is not None:
            self._replay_hook.verify_exhausted()
            self.host.replay_state = "replayed"
            self.host.replay_events = self._replay_hook.cursor

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
            self.host.replay_state = "replaying"
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
            self.host.record_state = "recording"
        os_state.nondet_hook = hook

    # -- compiled-body store -----------------------------------------------------

    def _open_body_store(self, engine) -> None:
        """Open the compiled-body store and hand it to this run's compiler.

        Skipped (states stay ``"disabled"``) under interpreted dispatch
        (nothing compiles), without a database, or after this session
        already degraded.  Every other outcome is
        report-only (:func:`~repro.persist.sidecar.open_body_store`).
        """
        compiler = getattr(engine, "_compiler", None)
        if self.config.database is None or self._degraded or compiler is None:
            return
        self._body_store = open_body_store(
            self.config.database, self._vm_version, self.host
        )
        compiler.attach_body_store(self._body_store)

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
                exclude_app_path=self._app_path,
            )
        return database.lookup(self._app_key, self._vm_version, self._tool_identity)

    def _collect_events(self) -> None:
        """Move the database's and the attached pool's storage events not
        yet reported by an earlier run into this run's registry.

        An index that read as damaged and that no write of this run
        replaced (a read-only run, say) is one more event: the run saw an
        empty database, and nothing moved the file.
        """
        database = self.config.database
        store = self._body_store
        for owner in (database, store.pool if store is not None else None):
            if owner is not None:
                self.host.events += owner.events[owner.events_reported:]
                owner.events_reported = len(owner.events)
        if database is not None and database.index_damage is not None:
            self.host.events.append(
                ("damaged", INDEX_NAME, database.index_damage)
            )

    def _sync_quarantine_events(self, quarantined_before: int) -> None:
        """Count the database's new quarantines in the run's registry."""
        database = self.config.database
        if database is None:
            return
        newly = database.quarantined_count - quarantined_before
        if newly > 0:
            self.host.cache_quarantined += newly

    def _degrade(self, stats, reason: str) -> None:
        """Downgrade the session to JIT-only execution, keeping the run
        alive: "a damaged database must degrade to plain JIT execution,
        not crash the VM"."""
        self._degraded = True
        self._cache = None
        self.host.fallback_jit_only = True
        self.host.storage_errors += 1
        if not self.host.degraded_reason:
            self.host.degraded_reason = reason
        if stats is not None:
            stats.persistence_storage_errors += 1
            stats.persistence_degraded = 1

    def _invalidate_one(self, stats, cost, row: TraceRow) -> None:
        self.host.invalidated += 1
        stats.persistent_traces_invalidated += 1
        stats.charge_persistence(cost.pcache_invalidate_trace)
        self._invalid_identities.add((row.image_path, row.image_offset))

    @staticmethod
    def _base_of(process) -> Callable[[str], Optional[int]]:
        """``revive_trace``'s ``base_of`` for the process's mappings as
        they are now: each image path's load base, resolved once."""
        bases: Dict[str, int] = {}
        for mapping in process.space.mappings:
            if mapping.image is not None:
                # The first mapping of a path, as mapping_for_image.
                bases.setdefault(mapping.image.path, mapping.base)
        return bases.get

    def _write_back(self, engine, machine, cache, stats) -> None:
        if self.config.database is None or self._degraded:
            # A storage failure already downgraded this session; writing
            # back through the same failing storage would be unsafe noise.
            return
        # The body store writes first and independently: its write never
        # degrades the session, and the trace write-back below may take
        # the "nothing changed" early return while the store still has
        # fresh bodies to persist (e.g. a warm run after a memo flush).
        # A read-only run only refreshes its pooled bodies' LRU stamps.
        if self._body_store is not None:
            self._body_store.write_back(self.config.readonly)
        if self.config.readonly:
            return
        cost = engine.cost_model
        process = machine.process

        modified_pages = machine.modified_code_pages
        locate = locator(process)
        new_rows: List[TraceRow] = []
        for resident in cache.traces():
            if modified_pages and resident.touches_pages(modified_pages):
                # Self-modified code no longer matches the file on disk:
                # "persistent caches only contain traces backed by a file
                # on disk" (§3.2.1).
                self.host.unbacked_skipped += 1
                continue
            if resident.from_persistent:
                # Revived from the loaded cache, which already holds its
                # row.
                continue
            row = persist_trace(resident, process, locate)
            if row is None:
                self.host.unbacked_skipped += 1
                continue  # unbacked code: never persisted
            new_rows.append(row)
        persisted = len(new_rows)
        new_rows += [
            row for identity, row in self._module_rows.items()
            if identity not in self._invalid_identities
        ]

        target = self._cache
        if target is None:
            # Nothing was revived or retained: the new rows are the whole
            # cache.
            target = PersistentCache(
                vm_version=self._vm_version,
                tool_identity=self._tool_identity,
                app_path=self._app_path,
            )
        else:
            # Invalid translations must not survive under refreshed keys.
            dropped = (target.drop_traces(self._invalid_identities)
                       if self._invalid_identities else 0)
            if not new_rows and not dropped:
                # Nothing changed: skip the disk write entirely.
                self.host.total_traces_after_write = len(target.traces)
                return
        # A write-back accumulates onto the loaded cache (§4.4), which
        # already holds the reused and the retained-unloaded rows.
        target.accumulate(new_rows, self._current_keys)
        stats.charge_persistence(
            cost.pcache_write_fixed
            + cost.pcache_write_per_trace * len(target.traces)
        )
        try:
            self.config.database.store(target, self._app_key)
        except STORAGE_FAILURES as exc:
            # ENOSPC/EIO mid-write, a vanished directory, ...: the
            # atomic write-replace left the database consistent; record
            # the downgrade and keep the program's run intact.
            self._degrade(stats, "write-back failed: %s" % exc)
            return
        self.host.new_traces_persisted = persisted
        self.host.written = True
        self.host.total_traces_after_write = len(target.traces)
        # Subsequent flush/exit write-backs accumulate onto this cache.
        self._cache = target
