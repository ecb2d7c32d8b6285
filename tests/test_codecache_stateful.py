"""Stateful property testing of the code cache (hypothesis RuleBasedStateMachine).

Random interleavings of insert / evict / evict_range / flush must preserve
the cache's structural invariants:

* occupancy equals the sum of resident trace sizes, never exceeds capacity;
* every linked exit points at a *resident* trace entry;
* the translation map answers exactly the resident entries;
* eviction unlinks every incoming pointer to the victim;
* superblock regions die as a unit with any member (evict, evict_range
  or flush), the reverse member index never outlives them, and a dead
  region's head loses its fused closure;
* an unlinked slot has no residual hop profile (stale hotness from a
  dead link must never feed the fusion threshold).
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.vm.codecache import CacheFull, CodeCache

from tests.test_vm_codecache import translated_at

_ENTRIES = [0x1000 + i * 0x100 for i in range(24)]


class CodeCacheMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.cache = CodeCache(code_capacity=4096, data_capacity=16384)
        self.resident = {}
        #: Mirror of the cache's region table: head -> member tuple.
        self.regions = {}

    def _drop_regions_for(self, entry):
        for head, members in list(self.regions.items()):
            if entry in members:
                del self.regions[head]

    @rule(
        entry=st.sampled_from(_ENTRIES),
        link_target=st.one_of(st.none(), st.sampled_from(_ENTRIES)),
        n=st.integers(2, 8),
    )
    def insert(self, entry, link_target, n):
        if entry in self.resident:
            return
        translated = translated_at(entry, target=link_target, n=n)
        try:
            self.cache.insert(translated)
        except CacheFull:
            return
        self.resident[entry] = translated

    @precondition(lambda self: self.resident)
    @rule(data=st.data())
    def evict(self, data):
        entry = data.draw(st.sampled_from(sorted(self.resident)))
        self.cache.evict(entry)
        del self.resident[entry]
        self._drop_regions_for(entry)

    @rule(
        start=st.sampled_from(_ENTRIES),
        span=st.integers(0x80, 0x600),
    )
    def evict_range(self, start, span):
        evicted = self.cache.evict_range(start, start + span)
        for translated in evicted:
            del self.resident[translated.entry]
            self._drop_regions_for(translated.entry)

    @rule()
    def flush(self):
        self.cache.flush()
        self.resident.clear()
        self.regions.clear()

    @precondition(lambda self: len(self.resident) >= 2)
    @rule(data=st.data(), size=st.integers(2, 4))
    def fuse_region(self, data, size):
        """Register a region over region-free residents, installing a
        marker fused body on the head (as the fusion driver does)."""
        free = sorted(
            entry for entry in self.resident
            if self.cache.region_of(entry) is None
        )
        if len(free) < 2:
            return
        members = tuple(data.draw(st.permutations(free))[: min(size, len(free))])
        head = members[0]
        self.resident[head].compiled_body = ("region", members)
        self.cache.register_region(list(members))
        self.regions[head] = members

    @precondition(lambda self: self.resident)
    @rule(data=st.data(), hops=st.integers(1, 40))
    def take_hops(self, data, hops):
        """Profile a patched slot, as the dispatch loop's chained exits
        would."""
        entry = data.draw(st.sampled_from(sorted(self.resident)))
        for slot in self.resident[entry].links:
            if slot.is_linked:
                slot.hop_count += hops

    # -- invariants -----------------------------------------------------------

    @invariant()
    def occupancy_matches_contents(self):
        code = sum(t.code_size for t in self.resident.values())
        data = sum(t.data_size for t in self.resident.values())
        assert self.cache.occupancy() == (code, data)
        assert code <= self.cache.code_capacity
        assert data <= self.cache.data_capacity

    @invariant()
    def map_answers_exactly_residents(self):
        assert len(self.cache) == len(self.resident)
        for entry, translated in self.resident.items():
            assert self.cache.lookup(entry) is translated
        for entry in _ENTRIES:
            if entry not in self.resident:
                assert self.cache.lookup(entry) is None

    @invariant()
    def links_point_at_residents(self):
        for translated in self.resident.values():
            for slot in translated.links:
                if slot.is_linked:
                    assert slot.linked_resident is self.resident.get(
                        slot.exit.target
                    )

    @invariant()
    def resident_exits_to_resident_targets_are_linked(self):
        """Eager linking: a linkable exit whose target is resident must be
        linked (insert patches both directions)."""
        for translated in self.resident.values():
            for slot in translated.links:
                if slot.is_linkable and slot.exit.target in self.resident:
                    assert slot.is_linked

    @invariant()
    def unlinked_slots_carry_no_hop_profile(self):
        """Unlink resets the hotness profile: a re-formed link must
        re-prove chain stability before it can fuse."""
        for translated in self.resident.values():
            for slot in translated.links:
                if not slot.is_linked:
                    assert slot.hop_count == 0

    @invariant()
    def regions_die_with_any_member(self):
        """The cache's region table matches the mirror (which drops a
        region the moment any member is evicted or flushed), members of
        live regions are resident, and the reverse index is exact."""
        assert self.cache.regions() == self.regions
        for head, members in self.regions.items():
            assert head == members[0]
            for member in members:
                assert member in self.resident
                assert self.cache.region_of(member) == head
        for entry in self.resident:
            head = self.cache.region_of(entry)
            if head is not None:
                assert entry in self.regions[head]

    @invariant()
    def dead_region_heads_lose_their_fused_body(self):
        """A region's fused closure never outlives the region: once any
        member leaves the cache, a still-resident head must have had
        ``invalidate_compiled`` called on it."""
        for entry, translated in self.resident.items():
            body = translated.compiled_body
            if isinstance(body, tuple) and body and body[0] == "region":
                assert entry in self.regions, entry
                assert body[1] == self.regions[entry]


TestCodeCacheStateful = CodeCacheMachine.TestCase
