"""Differential tests against brute-force reference models.

Each test pits a production data structure against a deliberately
naive re-implementation under random operation sequences:

* :class:`SetAssociativeCache` vs a list-based LRU model,
* :class:`RequestQueue` vs a plain list,
* the FGD cache hierarchy vs a *dirty-bit conservation* ledger — the
  invariant PRA's correctness rests on: every word a store dirtied is
  either still dirty in some cache or was carried by a writeback mask
  (a lost dirty bit would mean silent data loss under partial-row
  writes).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.controller.queues import RequestQueue, pack_row_key, row_key
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.geometry import FULL_MASK


# ----------------------------------------------------------------------
# Cache vs naive LRU reference
# ----------------------------------------------------------------------
class NaiveLRUCache:
    """Per-set python-list LRU; obviously correct, hopelessly slow."""

    def __init__(self, sets: int, ways: int) -> None:
        self.sets = [[] for _ in range(sets)]  # list of (addr, mask), MRU last
        self.ways = ways
        self.num_sets = sets

    def _touch(self, addr: int, mask: int):
        """OR ``mask`` into ``addr`` and make it MRU, allocating on a miss."""
        entries = self.sets[addr % self.num_sets]
        for idx, (a, m) in enumerate(entries):
            if a == addr:
                entries.pop(idx)
                entries.append((addr, m | mask))
                return True, None
        victim = entries.pop(0) if len(entries) >= self.ways else None
        entries.append((addr, mask))
        return False, victim

    def access(self, addr: int, mask: int):
        return self._touch(addr, mask)

    def install(self, addr: int, mask: int):
        """An L1 victim OR-merged into this level (Fig. 8)."""
        return self._touch(addr, mask)[1]

    def state(self):
        return {a: m for entries in self.sets for a, m in entries}


#: 16 line addresses over 4 sets of 2 ways: hits, installs into a
#: resident line and evictions are all common, so a slip in LRU order
#: shows within a few ops.
cache_programs = st.lists(
    st.tuples(
        st.sampled_from(("access", "install", "restore")),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=255),
    ),
    min_size=1,
    max_size=300,
)


@given(cache_programs)
@settings(max_examples=80, deadline=None)
def test_cache_matches_naive_lru(program):
    """Hits, victims and every resident line's dirty mask agree with the
    list model after each access, L1-victim install and snapshot
    round trip (``restore_state(export_state())``)."""
    sets, ways = 4, 2
    real = SetAssociativeCache(capacity_bytes=sets * ways * 64, ways=ways)
    ref = NaiveLRUCache(sets, ways)
    for op, addr, mask in program:
        if op == "restore":
            real.restore_state(real.export_state())
        else:
            if op == "access":
                hit, victim = real.access(addr, write_mask=mask)
                ref_hit, ref_victim = ref.access(addr, mask)
                assert hit == ref_hit, f"hit mismatch at {addr}"
            else:
                victim = real.install(addr, dirty_mask=mask)
                ref_victim = ref.install(addr, mask)
            if ref_victim is None:
                assert victim is None
            else:
                assert victim is not None
                assert (victim.line_addr, victim.dirty_mask) == ref_victim
        assert real.resident() == ref.state()


# ----------------------------------------------------------------------
# RequestQueue vs plain list
# ----------------------------------------------------------------------
queue_programs = st.lists(
    st.tuples(
        st.sampled_from(["append", "remove_oldest", "remove_row_oldest"]),
        st.integers(min_value=0, max_value=3),  # row
        st.integers(min_value=0, max_value=1),  # rank
        st.integers(min_value=0, max_value=1),  # bank
        st.integers(min_value=1, max_value=FULL_MASK),  # dirty mask
    ),
    min_size=1,
    max_size=120,
)

ROW_KEYS = [
    (rank, bank, row) for rank in (0, 1) for bank in (0, 1) for row in range(4)
]


@given(queue_programs)
@settings(max_examples=80, deadline=None)
def test_queue_matches_list_model(program):
    real = RequestQueue(256)
    ref = []  # list of Request, arrival order
    for op, row, rank, bank, mask in program:
        if op == "append":
            req = Request(
                kind=ReqKind.WRITE,
                addr=Address(channel=0, rank=rank, bank=bank, row=row, column=0),
                arrive_cycle=0,
                dirty_mask=mask,
            )
            # What the admitting controller sets under a mask scheme.
            req._needed = req.dirty_mask
            real.append(req)
            ref.append(req)
        elif op == "remove_oldest" and ref:
            victim = ref.pop(0)
            real.remove(victim)
        elif op == "remove_row_oldest":
            key = (rank, bank, row)
            candidates = [r for r in ref if row_key(r) == key]
            assert real.oldest_for_row(key) is (
                candidates[0] if candidates else None
            )
            if candidates:
                ref.remove(candidates[0])
                real.remove(candidates[0])
        # Invariants after every op.
        assert len(real) == len(ref)
        assert real.oldest() is (ref[0] if ref else None)
        for k in (1, 5):
            assert list(real.iter_oldest(k)) == ref[:k]
        for rk in (0, 1):
            expected = sum(1 for r in ref if r.addr.rank == rk)
            assert real.pending_for_rank(rk) == expected
        # Section 5.2.1: an ACT's PRA mask is the OR of the queued
        # same-row writes' masks.
        for key in ROW_KEYS:
            merged = 0
            for r in ref:
                if row_key(r) == key:
                    merged |= r._needed
            assert real.merged_needed(pack_row_key(key)) == merged
    for key in ROW_KEYS:
        expected = [r for r in ref if row_key(r) == key]
        assert real.requests_for_row(key) == expected


# ----------------------------------------------------------------------
# FGD dirty-bit conservation through the hierarchy
# ----------------------------------------------------------------------
fgd_programs = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=40),   # line address
        st.integers(min_value=0, max_value=255),  # store mask (0 = load)
        st.booleans(),                            # use core 0 / core 1
    ),
    min_size=1,
    max_size=250,
)


@given(fgd_programs, st.booleans())
@settings(max_examples=80, deadline=None)
def test_fgd_dirty_bits_are_conserved(program, use_l1):
    """No store's dirty words may ever be dropped on the floor."""
    l2 = SetAssociativeCache(capacity_bytes=8 * 64, ways=2, name="L2")
    l1s = None
    if use_l1:
        l1s = [
            SetAssociativeCache(capacity_bytes=2 * 64, ways=2, name=f"L1-{i}")
            for i in range(2)
        ]
    hierarchy = CacheHierarchy(l2, l1s=l1s)

    expected = {}     # line -> OR of all store masks
    written_back = {}  # line -> OR of all writeback masks seen

    for line, mask, second_core in program:
        core = 1 if (second_core and use_l1) else 0
        traffic = hierarchy.access(core, line, write_mask=mask)
        if mask:
            expected[line] = expected.get(line, 0) | mask
        for wb_line, wb_mask in traffic.writebacks:
            written_back[wb_line] = written_back.get(wb_line, 0) | wb_mask

    # Drain everything still resident (L1 victims funnel through L2;
    # an install can itself evict a dirty L2 line, which must be
    # captured like any other writeback).
    for l1 in l1s or ():
        for line, mask in l1.resident().items():
            if mask:
                victim = l2.install(line, l1.clean_line(line))
                if victim is not None and victim.dirty:
                    written_back[victim.line_addr] = (
                        written_back.get(victim.line_addr, 0)
                        | victim.dirty_mask
                    )
    for wb_line, wb_mask in l2.resident().items():
        written_back[wb_line] = written_back.get(wb_line, 0) | wb_mask

    for line, mask in expected.items():
        assert written_back.get(line, 0) & mask == mask, (
            f"line {line}: stored mask {mask:08b} but only "
            f"{written_back.get(line, 0):08b} ever written back"
        )
