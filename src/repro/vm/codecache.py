"""The intra-execution software code cache.

Holds translated traces and their data structures in two separately
managed pools (paper §3.2.2: "persistent memory pools for data structures
and traces are maintained separately ... intermixing code and data
structures results in poor performance"), maintains the translation map
(original address -> code-cache resident), and patches direct links
between traces so that "subsequent executions of the same code require no
re-translation and control remains in the code cache".

When either pool is exhausted the cache is *flushed*: all translated code
and data structures are discarded (the reclamation policy the paper's Pin
uses for its reserved 512MB region).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.machine.cpu import CODE_PAGE_SHIFT
from repro.vm.stats import CodeCacheStats
from repro.vm.translator import LinkSlot, TranslatedTrace

#: Pool sizes used when none are specified: "512MB of an application's
#: address space (a tunable parameter) is reserved for Pin's use.  The
#: pre-allocated memory is equally divided between the code cache and its
#: supporting data structures."  The reproduction's workloads are scaled
#: down ~3 orders of magnitude from the paper's, so the default pools are
#: scaled down by 2**8 while preserving the equal split; like the paper's
#: runs, no evaluated workload triggers a flush at this size.  Experiments
#: exercising the flush path pass explicit smaller sizes.
DEFAULT_CODE_POOL_BYTES = 256 * 1024 * 1024 // 256
DEFAULT_DATA_POOL_BYTES = 256 * 1024 * 1024 // 256


class CacheFull(Exception):
    """Raised when inserting a trace would overflow a pool."""


class CodeCache:
    """Software-managed cache of translated traces."""

    def __init__(
        self,
        code_capacity: int = DEFAULT_CODE_POOL_BYTES,
        data_capacity: int = DEFAULT_DATA_POOL_BYTES,
        track_pages: Optional[Callable[[int, int], None]] = None,
        stats: Optional[CodeCacheStats] = None,
    ):
        if code_capacity <= 0 or data_capacity <= 0:
            raise ValueError("pool capacities must be positive")
        self.code_capacity = code_capacity
        self.data_capacity = data_capacity
        #: The machine's ``track_code_pages(first, last)``.  The SMC
        #: detector only watches tracked pages, so *every* page a
        #: resident trace covers must be tracked — including traces that
        #: arrive without a fresh translation (module-retention revival,
        #: persistent-cache preload), whose pages ``Machine.fetch``
        #: never saw (or saw before a dlclose discarded the tracking).
        self.track_pages = track_pages
        self.code_used = 0
        self.data_used = 0
        #: The run's ``HostStats.cache`` group (a private one when the
        #: cache stands alone).
        self.stats = stats if stats is not None else CodeCacheStats()
        #: Monotonic invalidation epoch, bumped whenever any trace leaves
        #: the cache (evict or flush).  The compiled tier's indirect
        #: inline caches validate against it: a cached (target ->
        #: resident) pair is only trusted while the generation matches,
        #: so an IC can never chain to an evicted trace.  Insertions do
        #: not bump it — adding a resident cannot stale a cached one.
        self.generation = 0
        #: The translation map: original entry address -> resident trace.
        self._by_entry: Dict[int, TranslatedTrace] = {}
        #: Unresolved direct exits, keyed by their original target address.
        self._pending_links: Dict[int, List[LinkSlot]] = {}
        #: Superblock regions: head entry -> member entries, in chain
        #: order (head first).  The head trace's ``compiled_body`` is the
        #: fused region closure; a region dies as a unit the moment any
        #: member leaves the cache.
        self._regions: Dict[int, Tuple[int, ...]] = {}
        #: Reverse index: member entry -> owning region's head entry
        #: (heads map to themselves).  A trace belongs to at most one
        #: region.
        self._region_of: Dict[int, int] = {}

    # -- lookup -------------------------------------------------------------

    def lookup(self, original_addr: int) -> Optional[TranslatedTrace]:
        """Translation-map query: trace whose entry is ``original_addr``."""
        self.stats.lookups += 1
        found = self._by_entry.get(original_addr)
        if found is not None:
            self.stats.hits += 1
        return found

    def __contains__(self, original_addr: int) -> bool:
        return original_addr in self._by_entry

    def __len__(self) -> int:
        return len(self._by_entry)

    def traces(self) -> List[TranslatedTrace]:
        """All resident traces, in insertion order."""
        return list(self._by_entry.values())

    # -- insertion & linking --------------------------------------------------

    def insert(self, translated: TranslatedTrace) -> int:
        """Add a trace; link it both ways; return the number of patches.

        Raises:
            CacheFull: if either pool would overflow.  The caller decides
                whether to flush and retry.
        """
        entry = translated.entry
        if entry in self._by_entry:
            raise ValueError("trace at 0x%x is already resident" % entry)
        if self.code_used + translated.code_size > self.code_capacity:
            raise CacheFull("code pool exhausted")
        if self.data_used + translated.data_size > self.data_capacity:
            raise CacheFull("data pool exhausted")

        translated.cache_offset = self.code_used
        self.code_used += translated.code_size
        self.data_used += translated.data_size
        self._by_entry[entry] = translated
        self.stats.traces_inserted += 1
        if self.track_pages is not None:
            trace = translated.trace
            self.track_pages(
                trace.entry >> CODE_PAGE_SHIFT,
                (trace.end - 1) >> CODE_PAGE_SHIFT,
            )

        patches = 0
        # Incoming: every pending exit that targets this entry.  The
        # resident itself is cached on the slot so following the patched
        # link is a single attribute load, not a translation-map lookup.
        for slot in self._pending_links.pop(entry, ()):  # noqa: B020
            slot.linked_entry = entry
            slot.linked_resident = translated
            patches += 1
        # Outgoing: link exits whose target is already resident, otherwise
        # queue them for when the target arrives.
        for slot in translated.links:
            if not slot.is_linkable:
                continue
            target = slot.exit.target
            resident = self._by_entry.get(target)
            if resident is not None:
                slot.linked_entry = target
                slot.linked_resident = resident
                patches += 1
            else:
                self._pending_links.setdefault(target, []).append(slot)
        self.stats.link_patches += patches
        return patches

    def evict(self, entry: int) -> TranslatedTrace:
        """Remove one trace (persistent-cache invalidation path).

        Incoming links to it are unlinked (they fall back to the VM
        trampoline); its own pending outgoing links are discarded.
        """
        translated = self._by_entry.pop(entry, None)
        if translated is None:
            raise KeyError("no trace at 0x%x" % entry)
        self.generation += 1
        self.code_used -= translated.code_size
        self.data_used -= translated.data_size
        # The compiled-tier closure dies with its cache residency (SMC or
        # module unload invalidated the code it specializes).
        translated.invalidate_compiled()
        # A superblock region dies as a unit with any of its members: the
        # fused closure bakes in every member's instruction stream.
        self.invalidate_region_containing(entry)
        for other in self._by_entry.values():
            for slot in other.links:
                if slot.linked_entry == entry:
                    # Unlink (both the entry and the cached resident) and
                    # re-queue as pending: a future translation at this
                    # entry must re-link the exit eagerly.
                    slot.unlink()
                    self._pending_links.setdefault(entry, []).append(slot)
        # LinkSlot is a value-equal dataclass, so membership tests must
        # compare by identity here: two traces' slots with the same exit
        # shape are equal, and removing "equal" slots would silently drop
        # *another* resident's pending link.
        own_slots = {id(slot) for slot in translated.links}
        for slots in self._pending_links.values():
            slots[:] = [slot for slot in slots if id(slot) not in own_slots]
        return translated

    def evict_range(self, start: int, end: int) -> List[TranslatedTrace]:
        """Evict every trace overlapping ``[start, end)`` — the
        invalidation path for self-modifying code and module unloads
        ("all other traces are invalidated by removing their information
        from the translation map", paper §3.2.1).  Returns the evicted
        traces (module-aware retention re-registers them on reload)."""
        victims = [
            entry
            for entry, translated in self._by_entry.items()
            if translated.trace.entry < end and start < translated.trace.end
        ]
        return [self.evict(entry) for entry in victims]

    def flush(self) -> int:
        """Discard all translated code and data structures."""
        discarded = len(self._by_entry)
        self.generation += 1
        for translated in self._by_entry.values():
            translated.invalidate_compiled()
            for slot in translated.links:
                slot.unlink()
        self._by_entry.clear()
        self._pending_links.clear()
        self.stats.region_invalidations += len(self._regions)
        self._regions.clear()
        self._region_of.clear()
        self.code_used = 0
        self.data_used = 0
        self.stats.flushes += 1
        return discarded

    # -- superblock regions ----------------------------------------------------

    def register_region(self, member_entries: List[int]) -> None:
        """Record a fused superblock over ``member_entries`` (chain
        order, head first).  Callers must have installed the fused
        closure as the head trace's ``compiled_body``.

        Raises:
            ValueError: if the chain is degenerate, a member is not
                resident, or a member already belongs to a region — the
                fusion driver is expected to pre-check all three.
        """
        if len(member_entries) < 2:
            raise ValueError("a region needs at least two members")
        for entry in member_entries:
            if entry not in self._by_entry:
                raise ValueError("region member 0x%x is not resident" % entry)
            if entry in self._region_of:
                raise ValueError(
                    "trace 0x%x already belongs to a region" % entry
                )
        head = member_entries[0]
        self._regions[head] = tuple(member_entries)
        for entry in member_entries:
            self._region_of[entry] = head
        self.stats.regions_registered += 1

    def region_of(self, entry: int) -> Optional[int]:
        """Head entry of the region containing ``entry``, or None."""
        return self._region_of.get(entry)

    def region_members(self, head_entry: int) -> Tuple[int, ...]:
        """Member entries of the region headed at ``head_entry``."""
        return self._regions.get(head_entry, ())

    def regions(self) -> Dict[int, Tuple[int, ...]]:
        """All live regions, head entry -> member entries."""
        return dict(self._regions)

    def invalidate_region_containing(self, entry: int) -> bool:
        """Drop the region that ``entry`` belongs to, if any.

        The head trace's fused closure is invalidated (if the head is
        still resident it falls back to its solo closure on the next
        compile); middle members always kept their solo closures, so no
        other state needs repair.  Returns True when a region died.
        """
        head = self._region_of.get(entry)
        if head is None:
            return False
        members = self._regions.pop(head)
        for member in members:
            self._region_of.pop(member, None)
        resident_head = self._by_entry.get(head)
        if resident_head is not None:
            resident_head.invalidate_compiled()
        self.stats.region_invalidations += 1
        return True

    # -- reporting -------------------------------------------------------------

    def occupancy(self) -> Tuple[int, int]:
        """(code_used, data_used) in bytes."""
        return self.code_used, self.data_used
