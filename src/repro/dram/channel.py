"""Channel model: shared command/address and data buses across ranks.

The channel enforces:

* one command per cycle on the command bus (a PRA activation occupies
  the address bus for one extra cycle to carry the mask, Fig. 7a),
* exclusive use of the data bus, with a rank-to-rank switching penalty
  (tRTRS) when consecutive bursts come from different ranks,
* FGA's halved effective bus width: under fine-grained activation a
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
        relax_act_constraints: bool = False,
        burst_cycles_multiplier: int = 1,
    ) -> None:
        self.timing = timing
        #: Flat per-(rank, bank) timing-state arrays shared by every
        #: rank/bank of this channel; the controller's scheduling loops
        #: index them directly (the objects below are views).
        self.core = TimingCore(num_ranks, num_banks)
        self.ranks: List[Rank] = [
            Rank(timing, num_banks, relax_act_constraints, core=self.core, rank_index=r)
            for r in range(num_ranks)
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

    @property
    def burst_cycles(self) -> int:
        """Data-bus occupancy of one cache-line transfer, in cycles."""
        return self.timing.tburst * self.burst_cycles_multiplier

    def cmd_bus_ready(self, cycle: int) -> bool:
        return cycle >= self.cmd_bus_free

    def occupy_cmd_bus(self, cycle: int, cycles: int = 1) -> None:
        self.cmd_bus_free = cycle + cycles

    def earliest_burst_start(self, cycle: int, rank: int) -> int:
        """Earliest cycle a data burst from ``rank`` may start."""
        start = max(cycle, self.data_bus_free)
        if self.last_burst_rank not in (-1, rank):
            start = max(start, self.data_bus_free + self.timing.trtrs)
        return start

    def burst_fits(self, start_cycle: int, rank: int) -> bool:
        return start_cycle >= self.earliest_burst_start(start_cycle, rank)

    def occupy_data_bus(self, start_cycle: int, rank: int) -> int:
        """Reserve the data bus for one line transfer; returns end cycle."""
        end = start_cycle + self.burst_cycles
        self.data_bus_free = end
        self.last_burst_rank = rank
        self.data_bus_busy_cycles += self.burst_cycles
        return end

    def accrue_background(self, cycle: int) -> None:
        for rank in self.ranks:
            rank.accrue_background(cycle)
