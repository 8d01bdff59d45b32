"""Channel model: the ranks and the buses they share.

A channel owns one :class:`~repro.dram.soa.TimingCore` for all of its
ranks and banks, the :class:`~repro.dram.rank.Rank` objects over it,
and the state of the two shared buses, which the controller
(:mod:`repro.controller.memctrl`) reads and advances as it issues:

* the command/address bus carries one command per cycle (a PRA
  activation holds it one extra cycle to carry the mask, Fig. 7a),
* the data bus is exclusive, with a rank-to-rank switching penalty
  (tRTRS) when consecutive bursts come from different ranks,
* FGA halves the effective bus width: under fine-grained activation a
  64 B line needs 16 half-width bursts (8 bus cycles) instead of 8
  full-width bursts (4 bus cycles), which is the root of FGA's
  performance loss (Section 2.1.2 / Figure 12 discussion).
"""

from __future__ import annotations

from typing import List

from repro.dram.rank import Rank
from repro.dram.soa import TimingCore
from repro.dram.timing import TimingParams


class Channel:
    """One memory channel and its ranks."""

    def __init__(
        self,
        timing: TimingParams,
        num_ranks: int = 2,
        num_banks: int = 8,
        burst_cycles_multiplier: int = 1,
    ) -> None:
        self.timing = timing
        #: Flat per-(rank, bank) timing-state arrays shared by every
        #: rank/bank of this channel; the controller's scheduling loops
        #: index them directly.
        self.core = TimingCore(num_ranks, num_banks)
        self.ranks: List[Rank] = [
            Rank(timing, self.core, rank_index=r) for r in range(num_ranks)
        ]
        #: Data-bus multiplier: 1 for full-width schemes, 2 for FGA
        #: (half-width transfer doubles burst occupancy).
        self.burst_cycles_multiplier = burst_cycles_multiplier
        #: Cycle at which the data bus becomes free.
        self.data_bus_free: int = 0
        #: Rank that performed the most recent data burst.
        self.last_burst_rank: int = -1
        #: Cycle at which the command bus becomes free.
        self.cmd_bus_free: int = 0
        # Statistics.
        self.data_bus_busy_cycles: int = 0
