"""Cache hierarchy: FGD propagation (Fig. 8), traffic generation, DBI hook."""

import pytest

from repro.cache.dbi import DirtyBlockIndex
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache


def small_l2(sets=4, ways=2):
    return SetAssociativeCache(capacity_bytes=sets * ways * 64, ways=ways, name="L2")


class TestLLCOnlyMode:
    def test_load_miss_fills(self):
        h = CacheHierarchy(small_l2())
        traffic = h.access(0, 100)
        assert traffic.fills == [100]
        assert not traffic.demand_hit

    def test_load_hit_no_traffic(self):
        h = CacheHierarchy(small_l2())
        h.access(0, 100)
        traffic = h.access(0, 100)
        assert traffic.fills == []
        assert traffic.writebacks == []
        assert traffic.demand_hit

    def test_store_miss_fill_on_write_allocate(self):
        h = CacheHierarchy(small_l2())
        traffic = h.access(0, 100, write_mask=0b1)
        assert traffic.fills == [100]

    def test_streaming_store_skips_fill(self):
        h = CacheHierarchy(small_l2())
        traffic = h.access(0, 100, write_mask=0xFF, fill_on_miss=False)
        assert traffic.fills == []

    def test_dirty_eviction_carries_fgd_mask(self):
        h = CacheHierarchy(small_l2(sets=1, ways=1))
        h.access(0, 0, write_mask=0b101)
        traffic = h.access(0, 1)
        assert traffic.writebacks == [(0, 0b101)]

    def test_clean_eviction_no_writeback(self):
        h = CacheHierarchy(small_l2(sets=1, ways=1))
        h.access(0, 0)
        traffic = h.access(0, 1)
        assert traffic.writebacks == []


class TestTwoLevelMode:
    def _hierarchy(self):
        l1 = SetAssociativeCache(capacity_bytes=2 * 64, ways=2, name="L1-0")
        return CacheHierarchy(small_l2(), l1s=[l1])

    def test_l1_eviction_merges_dirty_bits_into_l2(self):
        # Fig. 8: L1 victim's dirty bits are OR-ed into the L2 line.
        h = self._hierarchy()
        h.access(0, 0, write_mask=0b1)     # L1+L2 fill; dirty in L1 only
        assert h.l1s[0].resident() == {0: 0b1}
        assert h.l2.resident() == {0: 0}
        h.access(0, 1)
        h.access(0, 2)                      # evicts line 0 from L1
        assert 0 not in h.l1s[0].resident()
        assert h.l2.resident()[0] == 0b1

    def test_l1_hit_produces_no_l2_access(self):
        h = self._hierarchy()
        h.access(0, 0)
        l2_accesses = h.l2.stats.accesses
        h.access(0, 0)
        assert h.l2.stats.accesses == l2_accesses

    def test_merged_bits_travel_to_dram(self):
        h = self._hierarchy()
        # Dirty word 0 in one pass, word 7 in another: the DRAM write
        # must carry the OR of both (the future PRA mask).
        h.access(0, 0, write_mask=0b1)
        h.access(0, 1)
        h.access(0, 2)                      # L1 evicts 0 -> L2 mask 0b1
        h.access(0, 0, write_mask=0b10000000)
        h.access(0, 3)
        h.access(0, 4)                      # L1 evicts 0 again
        assert h.l2.resident()[0] == 0b10000001


class TestFlushAndStats:
    def test_dirty_word_fractions(self):
        h = CacheHierarchy(small_l2(sets=1, ways=1))
        h.access(0, 0, write_mask=0b1)
        h.access(0, 1)  # evicts 0 (1 dirty word)
        fracs = h.dirty_word_fractions()
        assert fracs[1] == pytest.approx(1.0)


class TestDBIIntegration:
    def test_proactive_writeback_of_row_companions(self):
        # Lines 0..3 share a "row"; evicting dirty line 0 drains 1 too.
        l2 = SetAssociativeCache(capacity_bytes=8 * 64, ways=8, name="L2")  # 1 set
        dbi = DirtyBlockIndex(row_of=lambda line: line // 4)
        h = CacheHierarchy(l2, dbi=dbi)
        h.access(0, 0, write_mask=0b1)
        h.access(0, 1, write_mask=0b10)
        h.access(0, 8)  # same row group? 8//4=2, different row
        for addr in (16, 24, 32, 40, 48):
            h.access(0, addr)
        # Cache is full (8 ways); next access evicts LRU = line 0.
        traffic = h.access(0, 56)
        wb = dict(traffic.writebacks)
        assert wb[0] == 0b1
        assert wb[1] == 0b10  # proactively drained companion
        assert l2.resident()[1] == 0  # cleaned but resident
        assert dbi.proactive_writebacks == 1

    def test_dbi_index_cleared_on_clean_eviction(self):
        l2 = SetAssociativeCache(capacity_bytes=1 * 64, ways=1, name="L2")
        dbi = DirtyBlockIndex(row_of=lambda line: line // 4)
        h = CacheHierarchy(l2, dbi=dbi)
        h.access(0, 0, write_mask=0b1)
        h.access(0, 1)  # evicts dirty 0 (trigger, no companions)
        h.access(0, 2)  # evicts clean 1
        assert len(dbi) == 0
