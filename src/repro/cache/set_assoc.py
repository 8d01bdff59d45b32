"""Set-associative write-back, write-allocate cache with LRU replacement.

Addresses are cache-line indices (byte address // 64); data is not
stored, only tag state and FGD dirty masks, which is all the memory
system needs.

The backing store is array-based: instead of one ``CacheLine`` object
per resident line plus a global ``itertools.count`` LRU clock, each
set keeps a ``tag -> slot`` dict into three flat integer arrays
(line address, dirty mask, LRU stamp) shared by all sets.  A hit is a
dict probe plus two array writes — no object allocation anywhere on the
hot path — and the whole cache state is a handful of picklable arrays
plus the per-set dicts, which is what makes a warm-state snapshot
(:mod:`repro.sim.snapshot`) cheap to restore: the flat arrays are
copied and the per-set containers shared copy-on-write
(:meth:`SetAssociativeCache.restore_state`).  The flat arrays are
``array('q')`` rather than lists: a restore copies them with one
``memcpy`` instead of a pointer-copy-plus-incref per element, and the
buffers are invisible to the cyclic GC — both of which matter when a
sweep restores one snapshot for every point of a grid column.
``lookup`` and the ``_sets`` compatibility property materialize
:class:`~repro.cache.line.LineView` write-through views on demand for
tests and introspection.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional, Tuple

from repro.cache.line import LineView
from repro.dram.geometry import LINE_BYTES

# Oracle-parity declaration enforced by reprolint: the flat tag/mask/
# stamp arrays are the fast path; the LineView write-through views (and
# the ``_sets`` compatibility property) are the object oracle.
REPRO_FAST_PATH = True
ORACLE_TWIN = ("repro.cache.line",)
ORACLE_TESTS = (
    "tests/test_engine_identity.py",
    "tests/test_engine_equivalence.py",
)
# COW contract for the aliasing pass (repro.analysis.cowcheck): after
# restore_state, per-set tag dicts and free lists are shared with the
# snapshot until _own_set privatizes them; every in-place mutation of a
# set's containers must be dominated by an _own_set guard.
REPRO_COW_PROTOCOL = {
    "shared_roots": ("_tags", "_free"),
    "privatizers": ("_own_set",),
}


class CacheStats:
    """Hit/miss/eviction counters plus the dirty-word histogram.

    A plain ``__slots__`` class with dataclass-style construction,
    repr and equality.
    """

    __slots__ = (
        "hits", "misses", "evictions", "dirty_evictions", "dirty_word_hist"
    )

    def __init__(
        self,
        hits: int = 0,
        misses: int = 0,
        evictions: int = 0,
        dirty_evictions: int = 0,
        dirty_word_hist: Optional[Dict[int, int]] = None,
    ) -> None:
        self.hits = hits
        self.misses = misses
        self.evictions = evictions
        self.dirty_evictions = dirty_evictions
        #: Histogram of dirty-word counts of dirty evicted lines (Fig. 3).
        self.dirty_word_hist: Dict[int, int] = (
            {n: 0 for n in range(1, 9)}
            if dirty_word_hist is None
            else dirty_word_hist
        )

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, "
            f"dirty_evictions={self.dirty_evictions}, "
            f"dirty_word_hist={self.dirty_word_hist})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CacheStats):
            return NotImplemented
        return (
            self.hits == other.hits
            and self.misses == other.misses
            and self.evictions == other.evictions
            and self.dirty_evictions == other.dirty_evictions
            and self.dirty_word_hist == other.dirty_word_hist
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


class Eviction:
    """A victim pushed out of (or cleaned in) a cache level.

    Plain ``__slots__`` class: allocated on every eviction, so it
    stays lean.
    """

    __slots__ = ("line_addr", "dirty_mask")

    def __init__(self, line_addr: int, dirty_mask: int) -> None:
        self.line_addr = line_addr
        self.dirty_mask = dirty_mask

    def __repr__(self) -> str:
        return (
            f"Eviction(line_addr={self.line_addr}, "
            f"dirty_mask={self.dirty_mask})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Eviction):
            return NotImplemented
        return (
            self.line_addr == other.line_addr
            and self.dirty_mask == other.dirty_mask
        )

    @property
    def dirty(self) -> bool:
        """Whether the victim carried any dirty words."""
        return self.dirty_mask != 0


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
        free stacks — the dominant construction cost on large caches.
        The caller then guarantees :meth:`restore_state` runs before
        any access (it replaces both structures wholesale, so eager
        allocation would be pure garbage); the System constructor uses
        this when a warm snapshot is already in hand.
        """
        if capacity_bytes % (ways * line_bytes):
            raise ValueError("capacity must be a multiple of ways * line size")
        self.name = name
        self.ways = ways
        self.num_sets = capacity_bytes // (ways * line_bytes)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
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
        #: Per-set stack of unoccupied slots.
        self._free: List[List[int]] = (
            []
            if lazy_sets
            else [
                list(range((s + 1) * ways - 1, s * ways - 1, -1))
                for s in range(self.num_sets)
            ]
        )
        #: Monotonic LRU clock (plain int: picklable, snapshot-friendly).
        self._stamp_counter = 0
        #: Copy-on-write restore bookkeeping: ``None`` while every set's
        #: tag dict / free stack is privately owned (a cache built cold),
        #: else, after :meth:`restore_state`, the indices privatized so
        #: far — every other set still aliases the snapshot.
        self._cow_owned: Optional[set] = None
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    @property
    def _sets(self) -> List[Dict[int, LineView]]:
        """Compatibility view: per-set ``tag -> LineView`` dicts.

        Materialized on demand for tests and reference models; the
        views write through to the state arrays, so mutating a view
        mutates the cache.
        """
        return [
            {tag: LineView(self, slot) for tag, slot in tags.items()}
            for tags in self._tags
        ]

    def lookup(self, line_addr: int) -> Optional[LineView]:
        """Probe without updating LRU or stats."""
        slot = self._tags[line_addr % self.num_sets].get(line_addr // self.num_sets)
        return None if slot is None else LineView(self, slot)

    def _own_set(self, set_idx: int) -> Dict[int, int]:
        """Privatize one set before mutating its dict/free stack.

        After :meth:`restore_state` the per-set tag dicts and free
        stacks still alias the snapshot; the first structural mutation
        of a set copies just that set.  Reads never need ownership, and
        the hit path only touches the (always private) flat arrays, so
        the check sits on the miss/evict/invalidate paths only.
        """
        owned = self._cow_owned
        if owned is not None and set_idx not in owned:
            self._tags[set_idx] = dict(self._tags[set_idx])
            self._free[set_idx] = list(self._free[set_idx])
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
            slot = self._free[set_idx].pop()
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
            stats.dirty_word_hist[bin(mask).count("1")] += 1
        return Eviction(line_addr=line_addr, dirty_mask=mask), slot

    def install(self, line_addr: int, dirty_mask: int = 0) -> Optional[Eviction]:
        """Insert a line (e.g. absorbed from an upper level)."""
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
            slot = self._free[set_idx].pop()
        tags[tag] = slot
        self._addr[slot] = line_addr
        self._mask[slot] = dirty_mask
        self._stamps[slot] = stamp
        return victim

    def clean_line(self, line_addr: int) -> int:
        """Clear a resident line's dirty bits; returns the old mask."""
        slot = self._tags[line_addr % self.num_sets].get(line_addr // self.num_sets)
        if slot is None:
            return 0
        mask = self._mask[slot]
        self._mask[slot] = 0
        return mask

    def invalidate(self, line_addr: int) -> Optional[Eviction]:
        """Drop a line; returns it (with dirty state) if present."""
        set_idx = line_addr % self.num_sets
        if self._cow_owned is not None:
            self._own_set(set_idx)
        slot = self._tags[set_idx].pop(line_addr // self.num_sets, None)
        if slot is None:
            return None
        self._free[set_idx].append(slot)
        return Eviction(line_addr=self._addr[slot], dirty_mask=self._mask[slot])

    def resident_lines(self) -> int:
        """Number of lines currently resident across all sets."""
        return sum(len(tags) for tags in self._tags)

    # ------------------------------------------------------------------
    def drain_dirty(self) -> List[Tuple[int, int]]:
        """Clean every dirty line; returns ``(line_addr, old_mask)``.

        Iterates sets in index order and lines in residency
        (dict-insertion) order — the same order the object-backed
        implementation produced — so end-of-run writeback traffic is
        reproducible.
        """
        drained: List[Tuple[int, int]] = []
        addr, mask = self._addr, self._mask
        for tags in self._tags:
            for slot in tags.values():
                if mask[slot]:
                    drained.append((addr[slot], mask[slot]))
                    mask[slot] = 0
        return drained

    # ------------------------------------------------------------------
    def export_state(self) -> tuple:
        """Snapshot the full tag/dirty/LRU state as picklable copies.

        The returned tuple is independent of the live cache (plain
        dict/array/list copies), so it can sit in the warm-state
        snapshot cache while Systems restored from it keep mutating.
        """
        return (
            [dict(tags) for tags in self._tags],
            self._addr[:],
            self._mask[:],
            self._stamps[:],
            [list(free) for free in self._free],
            self._stamp_counter,
        )

    def restore_state(self, state: tuple) -> None:
        """Restore, copy-on-write, a state captured by :meth:`export_state`.

        The flat arrays are copied (one ``memcpy`` each), but the
        per-set tag dicts and free stacks *alias* the snapshot and are
        privatized one set at a time on first mutation
        (:meth:`_own_set`), so a restore copies only the sets the run
        goes on to write.  The snapshot is only ever read while shared,
        and dict-insertion order travels with the dicts, so a restored
        cache evolves bit-identically to the one that was snapshotted
        (end-of-run drains iterate the tag dicts); a cold warmup is the
        oracle.
        """
        tags, addr, mask, stamps, free, counter = state
        if len(tags) != self.num_sets or len(addr) != self.num_sets * self.ways:
            raise ValueError("snapshot geometry does not match this cache")
        self._tags = list(tags)
        self._free = list(free)
        self._cow_owned = set()
        self._addr = addr[:]
        self._mask = mask[:]
        self._stamps = stamps[:]
        self._stamp_counter = counter
