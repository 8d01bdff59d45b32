"""Cache substrate: FGD store masks, set-associative LRU cache, eviction stats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.set_assoc import SetAssociativeCache, word_mask_for_store


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
        assert cache.resident() == {7: 0b11}

    def test_install_with_dirty_mask(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.install(5, dirty_mask=0b101)
        assert cache.resident() == {5: 0b101}

    def test_install_merges_existing(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.access(5, write_mask=0b1)
        cache.install(5, dirty_mask=0b10)
        assert cache.resident() == {5: 0b11}

    def test_clean_line(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=4)
        cache.access(5, write_mask=0b111)
        assert cache.clean_line(5) == 0b111
        assert cache.resident() == {5: 0}  # clean but still resident
        assert cache.clean_line(404) == 0
        assert cache.resident() == {5: 0}

    def test_resident_orders_sets_then_residency(self):
        cache = SetAssociativeCache(capacity_bytes=4 * 64, ways=2)  # 2 sets
        for addr, mask in ((3, 0b1), (1, 0), (2, 0b10), (0, 0)):
            cache.access(addr, write_mask=mask)
        cache.access(3)  # a hit refreshes LRU, not residency order
        stats = (cache.stats.hits, cache.stats.misses)
        assert list(cache.resident().items()) == [
            (2, 0b10), (0, 0), (3, 0b1), (1, 0)
        ]
        assert (cache.stats.hits, cache.stats.misses) == stats

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
        resident = len(cache.resident())
        assert resident <= 8
        # Conservation: every miss either filled a free way or evicted.
        assert cache.stats.misses == cache.stats.evictions + resident

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
                st.sampled_from(("access", "install", "restore")),
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
        LRU stamp, through hits, installs and copy-on-write restores, and
        set ``s`` always holds exactly slots ``s*ways .. s*ways+len-1``."""
        cache = SetAssociativeCache(capacity_bytes=16 * 64, ways=4)  # 4 sets
        for op, addr, mask in ops:
            if op == "restore":
                cache.restore_state(cache.export_state())
                continue
            tags = cache._tags[addr % cache.num_sets]
            expected = None
            if addr // cache.num_sets not in tags and len(tags) == cache.ways:
                slot = min(tags.values(), key=cache._stamps.__getitem__)
                expected = cache._addr[slot]
            if op == "access":
                _, victim = cache.access(addr, write_mask=mask)
            else:
                victim = cache.install(addr, dirty_mask=mask)
            assert (None if victim is None else victim.line_addr) == expected
            for set_idx, set_tags in enumerate(cache._tags):
                base = set_idx * cache.ways
                assert sorted(set_tags.values()) == list(
                    range(base, base + len(set_tags))
                )
