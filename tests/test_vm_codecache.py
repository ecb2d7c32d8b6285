"""Tests for the intra-execution code cache."""

import pytest

from repro.isa import instructions as ins
from repro.machine.costs import DEFAULT_COST_MODEL
from repro.vm.codecache import CacheFull, CodeCache
from repro.vm.trace import ExitKind, TraceExit
from repro.vm.translator import Translator

from tests.conftest import trace_of


def translated_at(entry, target=None, n=3):
    """A minimal translated trace at ``entry`` optionally jumping to ``target``."""
    if target is not None:
        body = [ins.nop()] * (n - 1) + [ins.jmp(target)]
        exits = [TraceExit(ExitKind.DIRECT, n - 1, target=target)]
    else:
        body = [ins.nop()] * (n - 1) + [ins.ret()]
        exits = [TraceExit(ExitKind.INDIRECT, n - 1)]
    trace = trace_of(entry, body, exits)
    return Translator(DEFAULT_COST_MODEL).translate(trace).translated


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = CodeCache()
        assert cache.lookup(0x1000) is None
        translated = translated_at(0x1000)
        cache.insert(translated)
        assert cache.lookup(0x1000) is translated
        assert 0x1000 in cache
        assert len(cache) == 1

    def test_duplicate_rejected(self):
        cache = CodeCache()
        cache.insert(translated_at(0x1000))
        with pytest.raises(ValueError):
            cache.insert(translated_at(0x1000))

    def test_occupancy_tracks_sizes(self):
        cache = CodeCache()
        translated = translated_at(0x1000)
        cache.insert(translated)
        code, data = cache.occupancy()
        assert code == translated.code_size
        assert data == translated.data_size

    def test_stats(self):
        cache = CodeCache()
        cache.lookup(0x1)
        cache.insert(translated_at(0x1000))
        cache.lookup(0x1000)
        assert cache.stats.lookups == 2
        assert cache.stats.hits == 1
        assert cache.stats.traces_inserted == 1


class TestLinking:
    def test_forward_link_on_target_arrival(self):
        cache = CodeCache()
        jumper = translated_at(0x1000, target=0x2000)
        cache.insert(jumper)
        assert not jumper.final_slot.is_linked
        cache.insert(translated_at(0x2000))
        assert jumper.final_slot.is_linked
        assert jumper.final_slot.linked_resident.entry == 0x2000

    def test_backward_link_at_insert(self):
        cache = CodeCache()
        cache.insert(translated_at(0x2000))
        jumper = translated_at(0x1000, target=0x2000)
        patches = cache.insert(jumper)
        assert jumper.final_slot.is_linked
        assert patches == 1

    def test_patch_count(self):
        cache = CodeCache()
        for index in range(3):
            cache.insert(translated_at(0x1000 + index * 0x100, target=0x9000))
        patches = cache.insert(translated_at(0x9000))
        assert patches == 3
        assert cache.stats.link_patches == 3


class TestEviction:
    def test_evict_unlinks_incoming(self):
        cache = CodeCache()
        jumper = translated_at(0x1000, target=0x2000)
        cache.insert(jumper)
        cache.insert(translated_at(0x2000))
        assert jumper.final_slot.is_linked
        cache.evict(0x2000)
        assert not jumper.final_slot.is_linked
        assert cache.lookup(0x2000) is None

    def test_evict_returns_space(self):
        cache = CodeCache()
        translated = translated_at(0x1000)
        cache.insert(translated)
        cache.evict(0x1000)
        assert cache.occupancy() == (0, 0)

    def test_evict_missing(self):
        with pytest.raises(KeyError):
            CodeCache().evict(0x1234)


class TestCapacityAndFlush:
    def test_code_pool_exhaustion(self):
        translated = translated_at(0x1000)
        cache = CodeCache(code_capacity=translated.code_size,
                          data_capacity=10**6)
        cache.insert(translated)
        with pytest.raises(CacheFull):
            cache.insert(translated_at(0x2000))

    def test_data_pool_exhaustion(self):
        translated = translated_at(0x1000)
        cache = CodeCache(code_capacity=10**6,
                          data_capacity=translated.data_size)
        cache.insert(translated)
        with pytest.raises(CacheFull):
            cache.insert(translated_at(0x2000))

    def test_flush_discards_everything(self):
        cache = CodeCache()
        cache.insert(translated_at(0x1000, target=0x9000))
        cache.insert(translated_at(0x2000))
        discarded = cache.flush()
        assert discarded == 2
        assert len(cache) == 0
        assert cache.occupancy() == (0, 0)
        assert cache.stats.flushes == 1
        # Pending links must be gone: inserting the old target now patches
        # nothing.
        assert cache.insert(translated_at(0x9000)) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            CodeCache(code_capacity=0)

    def test_traces_listing(self):
        cache = CodeCache()
        first = translated_at(0x1000)
        second = translated_at(0x2000)
        cache.insert(first)
        cache.insert(second)
        assert cache.traces() == [first, second]
