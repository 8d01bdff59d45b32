"""Cache substrate: FGD lines, set-associative LRU cache, eviction stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.line import CacheLine, word_mask_for_store
from repro.cache.set_assoc import SetAssociativeCache


class TestCacheLine:
    def test_starts_clean(self):
        line = CacheLine(line_addr=1)
        assert not line.dirty
        assert line.dirty_words == 0

    def test_store_sets_word_bits(self):
        line = CacheLine(line_addr=1)
        line.mark_written(0b00000101)
        assert line.dirty
        assert line.dirty_words == 2

    def test_absorb_or_merges(self):
        # L1 eviction ORs its dirty bits into L2 (Figure 8).
        line = CacheLine(line_addr=1, dirty_mask=0b1)
        line.absorb(0b10000000)
        assert line.dirty_mask == 0b10000001

    def test_clean_returns_old_mask(self):
        line = CacheLine(line_addr=1, dirty_mask=0b1010)
        assert line.clean() == 0b1010
        assert not line.dirty

    def test_invalid_masks_rejected(self):
        line = CacheLine(line_addr=1)
        with pytest.raises(ValueError):
            line.mark_written(0)
        with pytest.raises(ValueError):
            line.mark_written(0x100)
        with pytest.raises(ValueError):
            CacheLine(line_addr=1, dirty_mask=-1)


class TestWordMaskForStore:
    def test_aligned_8byte_store(self):
        assert word_mask_for_store(0, 8) == 0b1
        assert word_mask_for_store(56, 8) == 0b10000000

    def test_small_store_one_word(self):
        assert word_mask_for_store(4, 4) == 0b1
        assert word_mask_for_store(9, 1) == 0b10

    def test_straddling_store(self):
        assert word_mask_for_store(4, 8) == 0b11

    def test_full_line(self):
        assert word_mask_for_store(0, 64) == 0xFF

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            word_mask_for_store(60, 8)
        with pytest.raises(ValueError):
            word_mask_for_store(0, 0)


class TestSetAssociativeCache:
    def test_hit_after_install(self):
        cache = SetAssociativeCache(capacity_bytes=8 * 64, ways=2)
        hit, _ = cache.access(100)
        assert not hit
        hit, _ = cache.access(100)
        assert hit

    def test_lru_eviction_order(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, ways=2)  # 1 set
        cache.access(0)
        cache.access(1)
        cache.access(0)  # refresh 0
        _, victim = cache.access(2)  # evicts 1 (LRU)
        assert victim is not None
        assert victim.line_addr == 1

    def test_dirty_eviction_carries_mask(self):
        cache = SetAssociativeCache(capacity_bytes=2 * 64, ways=2)
        cache.access(0, write_mask=0b11)
        cache.access(1)
        _, victim = cache.access(2)
        assert victim.line_addr == 0
        assert victim.dirty
        assert victim.dirty_mask == 0b11

    def test_dirty_word_histogram(self):
        # This histogram is Figure 3's data source.
        cache = SetAssociativeCache(capacity_bytes=2 * 64, ways=2)
        cache.access(0, write_mask=0b1)
        cache.access(1, write_mask=0b1111)
        cache.access(2)
        cache.access(3)
        hist = cache.stats.dirty_word_hist
        assert hist[1] == 1
        assert hist[4] == 1

    def test_repeated_stores_accumulate(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.access(7, write_mask=0b1)
        cache.access(7, write_mask=0b10)
        line = cache.lookup(7)
        assert line.dirty_mask == 0b11

    def test_install_with_dirty_mask(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.install(5, dirty_mask=0b101)
        assert cache.lookup(5).dirty_mask == 0b101

    def test_install_merges_existing(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.access(5, write_mask=0b1)
        cache.install(5, dirty_mask=0b10)
        assert cache.lookup(5).dirty_mask == 0b11

    def test_clean_line(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.access(5, write_mask=0b111)
        assert cache.clean_line(5) == 0b111
        assert not cache.lookup(5).dirty
        assert cache.clean_line(404) == 0

    def test_invalidate(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.access(5, write_mask=0b1)
        evicted = cache.invalidate(5)
        assert evicted.dirty_mask == 0b1
        assert cache.lookup(5) is None
        assert cache.invalidate(5) is None

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            SetAssociativeCache(capacity_bytes=100, ways=3)

    def test_stats_hit_rate(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.access(1)
        cache.access(1)
        cache.access(2)
        assert cache.stats.accesses == 3
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=300))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addrs):
        cache = SetAssociativeCache(capacity_bytes=8 * 64, ways=2)
        for addr in addrs:
            cache.access(addr)
        assert cache.resident_lines() <= 8
        # Conservation: every miss either filled a free way or evicted.
        assert cache.stats.misses == cache.stats.evictions + cache.resident_lines()

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_dirty_evictions_only_for_dirty_lines(self, ops):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=2)
        for addr, mask in ops:
            _, victim = cache.access(addr, write_mask=mask)
            if victim is not None:
                assert victim.dirty == (victim.dirty_mask != 0)
        assert cache.stats.dirty_evictions <= cache.stats.evictions

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(("access", "install", "invalidate", "restore")),
                st.integers(min_value=0, max_value=40),
                st.integers(min_value=0, max_value=255),
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_victim_is_least_recently_stamped(self, ops):
        """Every victim is the resident line of its set with the smallest
        ``lru_stamp``, through hits, installs, invalidations (which leave
        holes in a set) and copy-on-write restores."""
        cache = SetAssociativeCache(capacity_bytes=16 * 64, ways=4)  # 4 sets
        for op, addr, mask in ops:
            if op == "invalidate":
                cache.invalidate(addr)
                continue
            if op == "restore":
                cache.restore_state(cache.export_state())
                continue
            resident = cache._sets[addr % cache.num_sets]
            expected = None
            if addr // cache.num_sets not in resident and len(resident) == cache.ways:
                expected = min(resident.values(), key=lambda v: v.lru_stamp).line_addr
            if op == "access":
                _, victim = cache.access(addr, write_mask=mask)
            else:
                victim = cache.install(addr, dirty_mask=mask)
            assert (None if victim is None else victim.line_addr) == expected
