"""Two-level cache hierarchy with FGD propagation (Figure 8).

Store instructions set word-granularity dirty bits in the L1 data
cache; when a dirty L1 line is evicted its dirty bits are OR-ed into
the corresponding L2 line; when a dirty L2 line is evicted the merged
dirty bits travel with the writeback to the memory controller, where
they become the PRA mask.

Two operating modes:

* **full** — per-core L1 data caches in front of a shared L2, the
  configuration of Table 3;
* **LLC-only** — traces are interpreted as post-L1 accesses and go
  straight to the shared L2.  The big experiments use this mode (the
  workload profiles are calibrated at LLC level); the full mode is
  exercised by unit/integration tests and examples.

The hierarchy is non-inclusive non-exclusive (NINE): L2 victims are not
back-invalidated from L1s, which is sufficient for memory-traffic
modelling.  Lines are never dropped except by a miss replacing them,
and a run ends with its dirty lines still resident (no end-of-run
flush is modelled); each level's
:meth:`~repro.cache.set_assoc.SetAssociativeCache.resident` reads them.

With a DBI, every line that turns or stays dirty in the LLC is marked,
and every dirty LLC victim drains its row's dirty companions, which
stay resident but clean.  The registry therefore holds exactly the
LLC's dirty lines, and a clean victim needs no DBI call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.cache.dbi import DirtyBlockIndex
from repro.cache.set_assoc import Eviction, SetAssociativeCache


@dataclass(slots=True)
class MemoryTraffic:
    """DRAM-side traffic produced by one CPU access."""

    #: Line addresses that must be read (fills), in issue order.
    fills: List[int] = field(default_factory=list)
    #: (line address, FGD dirty mask) writebacks.
    writebacks: List[Tuple[int, int]] = field(default_factory=list)
    #: Whether the demand access hit in the LLC (or L1).
    demand_hit: bool = True


class CacheHierarchy:
    """L1 data caches (optional) in front of a shared L2 LLC."""

    def __init__(
        self,
        l2: SetAssociativeCache,
        l1s: Optional[List[SetAssociativeCache]] = None,
        dbi: Optional[DirtyBlockIndex] = None,
    ) -> None:
        self.l2 = l2
        self.l1s = l1s
        self.dbi = dbi

    # ------------------------------------------------------------------
    def access(
        self,
        core_id: int,
        line_addr: int,
        write_mask: int = 0,
        fill_on_miss: bool = True,
    ) -> MemoryTraffic:
        """Perform a load (``write_mask == 0``) or store.

        ``fill_on_miss=False`` models non-temporal streaming stores
        that allocate the line without fetching it from DRAM.

        LLC-only mode is served here in full, as one call per access:
        it is the timed loop's per-event cache call.
        """
        if self.l1s is not None:
            return self._access_l1(core_id, line_addr, write_mask, fill_on_miss)
        traffic = MemoryTraffic()
        hit, victim = self.l2.access(line_addr, write_mask)
        if write_mask and self.dbi is not None:
            self.dbi.mark_dirty(line_addr)
        if victim is not None and victim.dirty_mask:
            self._write_back(victim, traffic)
        if not hit:
            if fill_on_miss:
                traffic.fills.append(line_addr)
            traffic.demand_hit = False
        return traffic

    # ------------------------------------------------------------------
    def _access_l1(
        self, core_id: int, line_addr: int, write_mask: int, fill_on_miss: bool
    ) -> MemoryTraffic:
        traffic = MemoryTraffic()
        l1 = self.l1s[core_id]
        hit, victim = l1.access(line_addr, write_mask)
        if victim is not None and victim.dirty_mask:
            # L1 victim: OR dirty bits into the L2 copy (Fig. 8).
            l2_victim = self.l2.install(victim.line_addr, victim.dirty_mask)
            if self.dbi is not None:
                self.dbi.mark_dirty(victim.line_addr)
            if l2_victim is not None and l2_victim.dirty_mask:
                self._write_back(l2_victim, traffic)
        if not hit:
            l2_hit, l2_victim = self.l2.access(line_addr)
            if l2_victim is not None and l2_victim.dirty_mask:
                self._write_back(l2_victim, traffic)
            if not l2_hit and fill_on_miss:
                traffic.fills.append(line_addr)
            traffic.demand_hit = False
        return traffic

    # ------------------------------------------------------------------
    def _write_back(self, victim: Eviction, traffic: MemoryTraffic) -> None:
        """Send a dirty LLC victim to DRAM.

        The DBI holds dirty LLC lines only, so a clean victim needs no
        call here.
        """
        traffic.writebacks.append((victim.line_addr, victim.dirty_mask))
        if self.dbi is None:
            return
        # DRAM-aware writeback: drain dirty companions of the same row.
        for companion in self.dbi.on_writeback(victim.line_addr):
            mask = self.l2.clean_line(companion)
            if mask:
                traffic.writebacks.append((companion, mask))

    # ------------------------------------------------------------------
    def warm_block(
        self,
        core_id: int,
        addrs: Sequence[int],
        masks: Sequence[int],
        start: int,
        end: int,
    ) -> None:
        """Play ``addrs[start:end]`` through the hierarchy without timing.

        The block-array twin of calling :meth:`access` per event and
        discarding the traffic: cache and DBI state evolve identically
        (``fill_on_miss``/``no_fill`` only shape the returned traffic,
        never the state, so the flags are not needed here).  In
        LLC-only mode the whole block is one
        :meth:`~repro.cache.set_assoc.SetAssociativeCache.replay` loop,
        handed the DBI's ``mark_dirty`` and ``on_writeback`` to call in
        :meth:`access`'s order: warmup replays ~4x the LLC line
        count per cold fingerprint, the bulk of a cold set-up.
        """
        if self.l1s is not None:
            access = self.access
            for i in range(start, end):
                access(core_id, addrs[i], write_mask=masks[i])
            return
        dbi = self.dbi
        if dbi is None:
            self.l2.replay(addrs, masks, start, end)
        else:
            self.l2.replay(
                addrs, masks, start, end, dbi.mark_dirty, dbi.on_writeback
            )

    # ------------------------------------------------------------------
    def dirty_word_fractions(self) -> dict:
        """Figure 3: distribution of dirty words in evicted LLC lines."""
        return self.l2.stats.dirty_word_fractions()
