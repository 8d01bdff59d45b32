"""Set-associative write-back, write-allocate cache with LRU replacement.

Addresses are cache-line indices (byte address // 64); data is not
stored, only tag state and FGD dirty masks (Section 4.1.4: eight 8 B
words per 64 B line, one dirty bit each), which is all the memory
system needs.

The cache has one model: each set keeps a ``tag -> slot`` dict into
three flat integer arrays (line address, dirty mask, LRU stamp) shared
by all sets.  Set ``s`` owns slots ``s*ways .. s*ways+ways-1`` and,
since a line only leaves a set when a miss replaces it, fills them in
order: a miss into a non-full set takes slot ``s*ways + len(tags)``.
A hit is a dict probe plus two array writes — no object allocation
anywhere on the hot path — and the whole cache state is a handful of
picklable arrays plus the per-set dicts, which is what makes a
warm-state snapshot (:mod:`repro.sim.snapshot`) cheap to restore: the
flat arrays are copied and the per-set dicts shared copy-on-write
(:meth:`SetAssociativeCache.restore_state`).  The flat arrays are
``array('q')`` rather than lists: a restore copies them with one
``memcpy`` instead of a pointer-copy-plus-incref per element, and the
buffers are invisible to the cyclic GC — both of which matter when a
sweep restores one snapshot for every point of a grid column.
:meth:`SetAssociativeCache.resident` is the one read-only query.
Cold warmup plays whole trace blocks through
:meth:`SetAssociativeCache.replay`, one loop that binds the arrays once
and leaves the state that :meth:`~SetAssociativeCache.access` per event
would.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.dram.geometry import LINE_BYTES, WORDS_PER_LINE

# Oracle-parity declaration enforced by reprolint: the slot arrays,
# their copy-on-write restore and the warmup ``replay`` loop are the
# fast path; a cold warmup (whose end state WARM_STATE_DIGESTS pins) is
# the oracle a restore must match, per-event ``access`` is the oracle
# of ``replay`` (tests/test_cache_replay.py), and NaiveLRUCache in
# tests/test_reference_models.py is the independent list-based LRU
# reference.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.sim.system.System._warm_caches"
ORACLE_TESTS = (
    "tests/test_reference_models.py",
    "tests/test_cache_replay.py",
    "tests/test_engine_identity.py",
    "tests/test_engine_equivalence.py",
)
# Copy-on-write invariant: after restore_state the per-set tag dicts
# alias the snapshot, so every path that mutates a set's dict in place
# (the miss paths of access, install and replay) privatizes it with
# _own_set first.  tests/test_engine_identity.py checks that a restored
# System, with and without L1s, leaves its snapshot unchanged.


@dataclass(slots=True)
class CacheStats:
    """Hit/miss/eviction counters plus the dirty-word histogram."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    #: Histogram of dirty-word counts of dirty evicted lines (Fig. 3).
    dirty_word_hist: Dict[int, int] = field(
        default_factory=lambda: {n: 0 for n in range(1, 9)}
    )

    @property
    def accesses(self) -> int:
        """Total references (hits plus misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of references that hit (0.0 when untouched)."""
        return self.hits / self.accesses if self.accesses else 0.0

    def dirty_word_fractions(self) -> Dict[int, float]:
        """Normalized dirty-word histogram of evicted lines (Fig. 3)."""
        total = sum(self.dirty_word_hist.values())
        if not total:
            return {n: 0.0 for n in range(1, 9)}
        return {n: c / total for n, c in self.dirty_word_hist.items()}


@dataclass(slots=True)
class Eviction:
    """A victim pushed out of (or cleaned in) a cache level."""

    line_addr: int
    dirty_mask: int

    @property
    def dirty(self) -> bool:
        """Whether the victim carried any dirty words."""
        return self.dirty_mask != 0


def num_sets(capacity_bytes: int, ways: int, line_bytes: int = LINE_BYTES) -> int:
    """Set count of a ``ways``-way cache of ``capacity_bytes``.

    The one cache-geometry rule: the capacity must be a whole, positive
    number of ``ways * line_bytes`` sets, else ``ValueError``.
    :class:`~repro.sim.config.CacheConfig` applies it when a config is
    made, so a geometry no cache can be built with fails there.
    """
    if ways < 1 or capacity_bytes % (ways * line_bytes):
        raise ValueError("capacity must be a multiple of ways * line size")
    sets = capacity_bytes // (ways * line_bytes)
    if sets < 1:
        raise ValueError("cache must have at least one set")
    return sets


def word_mask_for_store(offset_bytes: int, size_bytes: int) -> int:
    """Dirty-word mask for a store of ``size_bytes`` at ``offset_bytes``.

    Convenience for trace generators: computes which of the eight 8 B
    word segments a store touches.
    """
    if size_bytes <= 0:
        raise ValueError("store size must be positive")
    if offset_bytes < 0 or offset_bytes + size_bytes > WORDS_PER_LINE * 8:
        raise ValueError("store does not fit in a 64 B line")
    first = offset_bytes // 8
    last = (offset_bytes + size_bytes - 1) // 8
    mask = 0
    for word in range(first, last + 1):
        mask |= 1 << word
    return mask


class SetAssociativeCache:
    """LRU set-associative cache over line addresses (array-backed)."""

    def __init__(
        self,
        capacity_bytes: int,
        ways: int,
        line_bytes: int = LINE_BYTES,
        name: str = "cache",
        lazy_sets: bool = False,
    ) -> None:
        """Size the tag arrays for ``capacity_bytes`` / ``ways``.

        ``lazy_sets=True`` skips allocating the per-set tag dicts and
        slot arrays — the dominant construction cost on large caches.
        The caller then guarantees :meth:`restore_state` runs before
        any access (it replaces them wholesale, so eager allocation
        would be pure garbage); the System constructor uses this when a
        warm snapshot is already in hand.
        """
        self.name = name
        self.ways = ways
        self.num_sets = num_sets(capacity_bytes, ways, line_bytes)
        slots = self.num_sets * ways
        #: Per-set ``tag -> slot`` directory.
        self._tags: List[Dict[int, int]] = (
            [] if lazy_sets else [dict() for _ in range(self.num_sets)]
        )
        #: Flat per-slot state arrays (parallel; indexed by slot).
        zeros = b"" if lazy_sets else bytes(8 * slots)
        self._addr = array("q", zeros)
        self._mask = array("q", zeros)
        self._stamps = array("q", zeros)
        #: Monotonic LRU clock (plain int: picklable, snapshot-friendly).
        self._stamp_counter = 0
        #: Copy-on-write restore bookkeeping: ``None`` while every set's
        #: tag dict is privately owned (a cache built cold), else, after
        #: :meth:`restore_state`, the indices privatized so far — every
        #: other set still aliases the snapshot.
        self._cow_owned: Optional[set] = None
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def resident(self) -> Dict[int, int]:
        """Each resident line's dirty mask, keyed by line address.

        Sets in index order, lines in residency (dict-insertion) order.
        A fresh dict: reading it never touches LRU state or stats.
        """
        addr, mask = self._addr, self._mask
        return {
            addr[slot]: mask[slot]
            for tags in self._tags
            for slot in tags.values()
        }

    def _own_set(self, set_idx: int) -> Dict[int, int]:
        """Privatize one set's tag dict before mutating it.

        After :meth:`restore_state` the per-set tag dicts still alias
        the snapshot; the first structural mutation of a set copies
        just that set.  Reads never need ownership, and the hit path
        only touches the (always private) flat arrays, so the check
        sits on the miss/evict path only.
        """
        owned = self._cow_owned
        if owned is not None and set_idx not in owned:
            self._tags[set_idx] = dict(self._tags[set_idx])
            owned.add(set_idx)
        return self._tags[set_idx]

    # ------------------------------------------------------------------
    def access(
        self, line_addr: int, write_mask: int = 0
    ) -> Tuple[bool, Optional[Eviction]]:
        """Reference a line; allocate on miss; return (hit, eviction).

        ``write_mask`` non-zero marks the access as a store touching
        those words.  The eviction (if any) carries the victim's FGD
        mask; clean victims are returned too so callers can maintain
        inclusive/exclusive metadata (e.g. the DBI).
        """
        # Fully inlined: this is the hottest cache call.
        set_idx = line_addr % self.num_sets
        tags = self._tags[set_idx]
        slot = tags.get(line_addr // self.num_sets)
        stats = self.stats
        self._stamp_counter = stamp = self._stamp_counter + 1
        if slot is not None:
            stats.hits += 1
            self._stamps[slot] = stamp
            if write_mask:
                self._mask[slot] |= write_mask
            return (True, None)
        stats.misses += 1
        victim: Optional[Eviction] = None
        if self._cow_owned is not None:
            tags = self._own_set(set_idx)
        if len(tags) >= self.ways:
            victim, slot = self._evict_slot(set_idx, tags)
        else:
            slot = set_idx * self.ways + len(tags)
        tags[line_addr // self.num_sets] = slot
        self._addr[slot] = line_addr
        self._mask[slot] = write_mask
        self._stamps[slot] = stamp
        return (False, victim)

    def _evict_slot(
        self, set_idx: int, tags: Dict[int, int]
    ) -> Tuple[Eviction, int]:
        """Drop the LRU line of a full set; return (victim, freed slot).

        A full set occupies exactly its own slot range, and every
        resident slot carries a distinct stamp (each access or install
        takes the next clock value), so the argmin of that range of
        ``_stamps`` is the LRU line, with no tie to break.
        """
        base = set_idx * self.ways
        stamps = self._stamps[base:base + self.ways]
        slot = base + stamps.index(min(stamps))
        line_addr = self._addr[slot]
        del tags[line_addr // self.num_sets]
        stats = self.stats
        stats.evictions += 1
        mask = self._mask[slot]
        if mask:
            stats.dirty_evictions += 1
            stats.dirty_word_hist[mask.bit_count()] += 1
        return Eviction(line_addr=line_addr, dirty_mask=mask), slot

    def install(self, line_addr: int, dirty_mask: int = 0) -> Optional[Eviction]:
        """Insert a line (e.g. absorbed from an upper level).

        A resident line OR-merges ``dirty_mask`` into its FGD bits
        (Fig. 8); either way the line becomes most recently used.
        """
        set_idx = line_addr % self.num_sets
        tags = self._tags[set_idx]
        tag = line_addr // self.num_sets
        slot = tags.get(tag)
        self._stamp_counter = stamp = self._stamp_counter + 1
        if slot is not None:
            self._mask[slot] |= dirty_mask
            self._stamps[slot] = stamp
            return None
        victim: Optional[Eviction] = None
        if self._cow_owned is not None:
            tags = self._own_set(set_idx)
        if len(tags) >= self.ways:
            victim, slot = self._evict_slot(set_idx, tags)
        else:
            slot = set_idx * self.ways + len(tags)
        tags[tag] = slot
        self._addr[slot] = line_addr
        self._mask[slot] = dirty_mask
        self._stamps[slot] = stamp
        return victim

    def replay(
        self,
        addrs: Sequence[int],
        masks: Sequence[int],
        start: int,
        end: int,
        mark: Optional[Callable[[int], None]] = None,
        drain: Optional[Callable[[int], List[int]]] = None,
    ) -> None:
        """Play ``addrs[start:end]`` through the cache without timing.

        Leaves the cache and its stats exactly as :meth:`access` per
        event would, with the arrays bound once, the copy-on-write
        state read once and no :class:`Eviction` built.  ``mark`` is
        called with each stored line after its access, then ``drain``
        with each dirty victim's address; the lines ``drain`` returns
        are cleaned in place —
        :class:`~repro.cache.hierarchy.CacheHierarchy`'s LLC-only order
        for the DBI's ``mark_dirty`` and ``on_writeback``.
        """
        num_sets, ways = self.num_sets, self.ways
        tags_of = self._tags
        addr_of, mask_of, stamps = self._addr, self._mask, self._stamps
        stats = self.stats
        hist = stats.dirty_word_hist
        stamp = self._stamp_counter
        cow = self._cow_owned is not None
        hits = evictions = dirty_evictions = 0
        for line, store in zip(addrs[start:end], masks[start:end]):
            set_idx = line % num_sets
            tag = line // num_sets
            tags = tags_of[set_idx]
            slot = tags.get(tag)
            stamp += 1
            if slot is not None:
                hits += 1
                stamps[slot] = stamp
                if store:
                    mask_of[slot] |= store
                    if mark is not None:
                        mark(line)
                continue
            if cow:
                tags = self._own_set(set_idx)
            victim_mask = 0
            if len(tags) >= ways:
                # _evict_slot inlined: the argmin of the set's stamps.
                base = set_idx * ways
                window = stamps[base:base + ways]
                slot = base + window.index(min(window))
                victim = addr_of[slot]
                del tags[victim // num_sets]
                evictions += 1
                victim_mask = mask_of[slot]
                if victim_mask:
                    dirty_evictions += 1
                    hist[victim_mask.bit_count()] += 1
            else:
                slot = set_idx * ways + len(tags)
            tags[tag] = slot
            addr_of[slot] = line
            mask_of[slot] = store
            stamps[slot] = stamp
            if store and mark is not None:
                mark(line)
            if victim_mask and drain is not None:
                for companion in drain(victim):
                    slot = tags_of[companion % num_sets].get(companion // num_sets)
                    if slot is not None:
                        mask_of[slot] = 0
        self._stamp_counter = stamp
        stats.hits += hits
        stats.misses += len(range(start, end)) - hits
        stats.evictions += evictions
        stats.dirty_evictions += dirty_evictions

    def clean_line(self, line_addr: int) -> int:
        """Clear a resident line's dirty bits; returns the old mask."""
        slot = self._tags[line_addr % self.num_sets].get(line_addr // self.num_sets)
        if slot is None:
            return 0
        mask = self._mask[slot]
        self._mask[slot] = 0
        return mask

    # ------------------------------------------------------------------
    def export_state(self) -> tuple:
        """Snapshot the full tag/dirty/LRU state as picklable copies.

        The returned tuple is independent of the live cache (plain
        dict/array copies), so it can sit in the warm-state snapshot
        cache while Systems restored from it keep mutating.
        """
        return (
            [dict(tags) for tags in self._tags],
            self._addr[:],
            self._mask[:],
            self._stamps[:],
            self._stamp_counter,
        )

    def restore_state(self, state: tuple) -> None:
        """Restore, copy-on-write, a state captured by :meth:`export_state`.

        The flat arrays are copied (one ``memcpy`` each), but the
        per-set tag dicts *alias* the snapshot and are privatized one
        set at a time on first mutation (:meth:`_own_set`), so a
        restore copies only the sets the run goes on to write.  The
        snapshot is only ever read while shared, and dict-insertion
        order travels with the dicts, so a restored cache evolves
        bit-identically to the one that was snapshotted; a cold warmup
        is the oracle.
        """
        tags, addr, mask, stamps, counter = state
        if len(tags) != self.num_sets or len(addr) != self.num_sets * self.ways:
            raise ValueError("snapshot geometry does not match this cache")
        self._tags = list(tags)
        self._cow_owned = set()
        self._addr = addr[:]
        self._mask = mask[:]
        self._stamps = stamps[:]
        self._stamp_counter = counter
