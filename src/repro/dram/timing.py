"""DDR3 timing parameters and derived quantities.

All parameters are expressed in DRAM *clock cycles* of the command clock
(800 MHz for DDR3-1600, i.e. tCK = 1.25 ns).  The defaults reproduce the
values of Table 3 in the paper; parameters the paper does not list
(tWTR, tRTP, refresh, power-down exit) use standard DDR3-1600 datasheet
values and are documented inline.

The paper's PRA scheme adds one extra cycle to tRCD for *write* (partial)
activations, because the PRA mask is transferred over the address bus in
the cycle following the ACT command (Figure 7a).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple


@dataclass(frozen=True, slots=True)
class TimingParams:
    """DRAM timing parameters in command-clock cycles."""

    #: Clock period in nanoseconds (1.25 ns for DDR3-1600).
    tck_ns: float = 1.25

    #: ACT to internal read/write delay.
    trcd: int = 11
    #: Precharge period.
    trp: int = 11
    #: CAS (read) latency.
    tcas: int = 11
    #: CAS write latency (DDR3-1600 CWL).
    tcwl: int = 8
    #: ACT to PRE minimum.
    tras: int = 28
    #: Write recovery: end of write burst to PRE.
    twr: int = 12
    #: Column command to column command.
    tccd: int = 4
    #: ACT to ACT, different banks, same rank.
    trrd: int = 5
    #: Four-activation window.
    tfaw: int = 24
    #: ACT to ACT, same bank (= tRAS + tRP).
    trc: int = 39
    #: Data burst duration (BL8 on a DDR bus = 4 clock cycles).
    tburst: int = 4
    #: Write-to-read turnaround (end of write burst to read command).
    twtr: int = 6
    #: Read to precharge.
    trtp: int = 6
    #: Rank-to-rank bus switching penalty.
    trtrs: int = 2
    #: Refresh cycle time (160 ns for a 2Gb part).
    trfc: int = 128
    #: Average refresh interval (7.8 us).
    trefi: int = 6240
    #: Precharge power-down exit latency.
    txp: int = 5
    #: Extra ACT-to-column delay for a PRA (masked) activation: the PRA
    #: mask occupies the address bus in the cycle after ACT (Fig. 7a).
    pra_extra: int = 1

    def cycles_to_ns(self, cycles: float) -> float:
        """Convert a duration in clock cycles to nanoseconds."""
        return cycles * self.tck_ns

    def ns_to_cycles(self, ns: float) -> float:
        return ns / self.tck_ns

    @property
    def read_latency(self) -> int:
        """ACT-to-first-data latency for a read on a closed bank."""
        return self.trcd + self.tcas

    @property
    def row_cycle_ns(self) -> float:
        """tRC expressed in nanoseconds (used by the power model)."""
        return self.cycles_to_ns(self.trc)

    def with_overrides(self, **kwargs: int) -> "TimingParams":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


class DerivedTiming(NamedTuple):
    """Precomputed timing sums used on the simulator's hottest paths.

    Deriving these once per :class:`TimingParams` instance (they are
    frozen, so per-scheme/per-config lookups hit the cache) keeps the
    sums out of the controller's per-command bookkeeping.
    """

    #: ACT-to-column delay of a masked (PRA) activation.
    trcd_masked: int
    #: Minimum spacing of back-to-back same-rank column commands whose
    #: bursts must not overlap: max(tCCD, tBURST).  Burst-streak
    #: scheduling multiplies the tBURST term by the scheme's data-bus
    #: multiplier (2 under FGA), so streak command *i* issues exactly at
    #: ``t0 + i * max(col_spacing, tburst * multiplier)``.
    col_spacing: int


@lru_cache(maxsize=None)
def derived_timing(timing: TimingParams) -> DerivedTiming:
    """Cached derived quantities for one (frozen, hashable) timing set."""
    return DerivedTiming(
        trcd_masked=timing.trcd + timing.pra_extra,
        col_spacing=max(timing.tccd, timing.tburst),
    )


#: Timing of the baseline 2Gb x8 DDR3-1600 part (Table 3).
DDR3_1600 = TimingParams()

#: DDR4-2400 preset (JEDEC-typical 17-17-17): an extension beyond the
#: paper's DDR3 baseline for studying PRA on a faster interface.  The
#: command clock is 1200 MHz, so absolute nanosecond latencies are
#: comparable while bandwidth is 1.5x.  tFAW/tRRD follow the 2KB-page
#: x8 speed bin; tREFI/tRFC are for a 4Gb part.
DDR4_2400 = TimingParams(
    tck_ns=1 / 1.2,
    trcd=17,
    trp=17,
    tcas=17,
    tcwl=12,
    tras=39,
    twr=18,
    tccd=6,
    trrd=6,
    tfaw=26,
    trc=56,
    tburst=4,
    twtr=9,
    trtp=9,
    trtrs=3,
    trfc=312,
    trefi=9360,
    txp=8,
)
