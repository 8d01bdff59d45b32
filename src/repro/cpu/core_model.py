"""Trace-driven core model with bounded memory-level parallelism.

Stands in for the paper's gem5 out-of-order x86 cores (3.2 GHz, 8-wide,
ROB 192, LDQ/STQ 32).  The model keeps the two properties the
evaluation depends on:

* **read criticality** — a core can run ahead of an outstanding DRAM
  load only within its ROB window and MSHR budget, so read latency
  determines IPC;
* **write insensitivity** — stores retire through the write buffer and
  never stall the core directly (they stall only indirectly, through
  DRAM write-queue backpressure).

Time is kept in CPU cycles internally and exposed in memory-controller
clock cycles (ratio 4:1 for a 3.2 GHz core over DDR3-1600).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import Iterator, Optional

from repro.cpu.trace import TraceEvent

#: Sentinel "never" cycle for scheduling hints.
NEVER = 1 << 62


class Core:
    """One trace-driven core."""

    def __init__(
        self,
        core_id: int,
        trace: Iterator[TraceEvent],
        cpu_per_mem_clock: float = 4.0,
        nonmem_cpi: float = 0.5,
        max_outstanding_misses: int = 8,
        rob_instructions: int = 192,
    ) -> None:
        if cpu_per_mem_clock <= 0 or nonmem_cpi <= 0:
            raise ValueError("clock ratio and CPI must be positive")
        self.core_id = core_id
        self._trace = trace
        self.ratio = cpu_per_mem_clock
        self.cpi = nonmem_cpi
        self.mlp = max_outstanding_misses
        self.rob = rob_instructions
        #: req_id -> instructions retired when the miss issued.
        self._outstanding: "OrderedDict[int, int]" = OrderedDict()
        self.retired: int = 0
        self._ready_cpu: float = 0.0
        self._current: Optional[TraceEvent] = self._next_event()
        self.finish_cycle: Optional[int] = None
        self.loads_issued = 0
        self.stores_issued = 0
        self.misses_issued = 0

    # ------------------------------------------------------------------
    def _next_event(self) -> Optional[TraceEvent]:
        event = next(self._trace, None)
        if event is not None:
            self._ready_cpu += event.gap * self.cpi
        return event

    @property
    def done(self) -> bool:
        return self._current is None and not self._outstanding

    # ------------------------------------------------------------------
    def next_action_cycle(self, cycle: int) -> int:
        """Earliest memory cycle the core may issue its next access."""
        # The blocking test (MLP slots full, or the oldest outstanding
        # miss a full ROB behind) is written out here and in try_advance:
        # the two are the event loop's hottest per-core calls.
        if self._current is None:
            return NEVER
        outstanding = self._outstanding
        if outstanding:
            if len(outstanding) >= self.mlp:
                return NEVER
            if self.retired - next(iter(outstanding.values())) >= self.rob:
                return NEVER
        ready_mem = math.ceil(self._ready_cpu / self.ratio)
        return ready_mem if ready_mem > cycle else cycle

    def try_advance(self, cycle: int) -> Optional[TraceEvent]:
        """Pop the next access if the core is ready at ``cycle``."""
        event = self._current
        if event is None:
            return None
        outstanding = self._outstanding
        if outstanding:
            if len(outstanding) >= self.mlp:
                return None
            if self.retired - next(iter(outstanding.values())) >= self.rob:
                return None
        now_cpu = cycle * self.ratio
        if self._ready_cpu > now_cpu:
            return None
        self.retired += event.instructions
        self._ready_cpu = now_cpu
        if event.is_store:
            self.stores_issued += 1
        else:
            self.loads_issued += 1
        self._current = self._next_event()
        if self._current is None and not outstanding:
            self.finish_cycle = cycle
        return event

    # ------------------------------------------------------------------
    def note_demand_miss(self, req_id: int) -> None:
        """A demand load left for DRAM: occupy an MSHR/ROB slot."""
        if len(self._outstanding) >= self.mlp:
            raise RuntimeError("MLP budget exceeded (scheduler bug)")
        self._outstanding[req_id] = self.retired

    def on_fill_complete(self, req_id: int, cycle: int) -> None:
        """DRAM returned data for an outstanding demand load."""
        if req_id not in self._outstanding:
            raise KeyError(f"unknown outstanding miss {req_id}")
        del self._outstanding[req_id]
        # If the core was stalled on this load, it resumes now.
        self._ready_cpu = max(self._ready_cpu, cycle * self.ratio)
        if self._current is None and not self._outstanding:
            self.finish_cycle = cycle

    # ------------------------------------------------------------------
    def ipc(self, end_cycle: Optional[int] = None) -> float:
        """Instructions per CPU cycle up to ``end_cycle`` (mem clock)."""
        end = self.finish_cycle if end_cycle is None else end_cycle
        if end is None or end <= 0:
            return 0.0
        return self.retired / (end * self.ratio)
