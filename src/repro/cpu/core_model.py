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
from typing import Optional, Sequence, Tuple

#: Sentinel "never" cycle for scheduling hints.
NEVER = 1 << 62


class Core:
    """One trace-driven core.

    The core reads a window ``[start, end)`` of a trace in its array
    form (:func:`repro.cpu.trace.pack_events`, or the arrays a
    :class:`~repro.workloads.synthetic.TraceBlocks` compiles): parallel
    ``gaps``, ``addrs``, ``masks`` and ``flags`` sequences.  An access
    is an index into them, so issuing one builds no event object.
    """

    def __init__(
        self,
        core_id: int,
        trace: Tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[int]],
        start: int = 0,
        end: Optional[int] = None,
        cpu_per_mem_clock: float = 4.0,
        nonmem_cpi: float = 0.5,
        max_outstanding_misses: int = 8,
        rob_instructions: int = 192,
    ) -> None:
        if cpu_per_mem_clock <= 0 or nonmem_cpi <= 0:
            raise ValueError("clock ratio and CPI must be positive")
        if max_outstanding_misses < 1:
            raise ValueError("a core needs at least one outstanding-miss slot")
        if rob_instructions < 0:
            raise ValueError("ROB size must be non-negative")
        gaps, addrs, masks, flags = trace
        if end is None:
            end = len(gaps)
        if not 0 <= start <= end <= len(gaps):
            raise ValueError(f"trace window [{start}, {end}) out of range")
        self.core_id = core_id
        #: The trace arrays: per event its non-memory instruction gap,
        #: line address, store word mask (0: a load) and no-fill flag.
        self.gaps = gaps
        self.addrs = addrs
        self.masks = masks
        self.flags = flags
        #: Index of the next access to issue; the trace is done at ``_end``.
        self._next = start
        self._end = end
        self.ratio = cpu_per_mem_clock
        self.cpi = nonmem_cpi
        self.mlp = max_outstanding_misses
        self.rob = rob_instructions
        #: req_id -> instructions retired when the miss issued.
        self._outstanding: "OrderedDict[int, int]" = OrderedDict()
        self.retired: int = 0
        #: CPU cycle at which the next access is ready: its gap has run.
        self._ready_cpu: float = 0.0
        if start < end:
            self._ready_cpu += gaps[start] * nonmem_cpi
        self.finish_cycle: Optional[int] = None
        #: Trace issued and no miss outstanding: the core has finished.
        #: Kept current by the three calls that change either half, so
        #: the event loop reads it as a plain attribute every pass.
        self.done = start >= end

    # ------------------------------------------------------------------
    def next_action_cycle(self, cycle: int) -> int:
        """Earliest memory cycle the core may issue its next access."""
        # The blocking test (MLP slots full, or the oldest outstanding
        # miss a full ROB behind) is written out here and in try_advance:
        # the two are the event loop's hottest per-core calls.
        if self._next >= self._end:
            return NEVER
        outstanding = self._outstanding
        if outstanding:
            if len(outstanding) >= self.mlp:
                return NEVER
            if self.retired - next(iter(outstanding.values())) >= self.rob:
                return NEVER
        ready_mem = math.ceil(self._ready_cpu / self.ratio)
        return ready_mem if ready_mem > cycle else cycle

    def try_advance(self, cycle: int) -> int:
        """Issue the next access if the core is ready at ``cycle``.

        Returns the access's index into the trace arrays, or -1 when the
        core cannot issue (trace done, MLP or ROB full, gap not run).
        """
        i = self._next
        if i >= self._end:
            return -1
        outstanding = self._outstanding
        if outstanding:
            if len(outstanding) >= self.mlp:
                return -1
            if self.retired - next(iter(outstanding.values())) >= self.rob:
                return -1
        now_cpu = cycle * self.ratio
        if self._ready_cpu > now_cpu:
            return -1
        gaps = self.gaps
        self.retired += gaps[i] + 1
        self._next = nxt = i + 1
        if nxt < self._end:
            self._ready_cpu = now_cpu + gaps[nxt] * self.cpi
        else:
            self._ready_cpu = now_cpu
            if not outstanding:
                self.finish_cycle = cycle
                self.done = True
        return i

    # ------------------------------------------------------------------
    def note_demand_miss(self, req_id: int) -> None:
        """A demand load left for DRAM: occupy an MSHR/ROB slot."""
        if len(self._outstanding) >= self.mlp:
            raise RuntimeError("MLP budget exceeded (scheduler bug)")
        self._outstanding[req_id] = self.retired
        self.done = False

    def on_fill_complete(self, req_id: int, cycle: int) -> None:
        """DRAM returned data for an outstanding demand load."""
        if req_id not in self._outstanding:
            raise KeyError(f"unknown outstanding miss {req_id}")
        del self._outstanding[req_id]
        # If the core was stalled on this load, it resumes now.
        self._ready_cpu = max(self._ready_cpu, cycle * self.ratio)
        if self._next >= self._end and not self._outstanding:
            self.finish_cycle = cycle
            self.done = True

    # ------------------------------------------------------------------
    def ipc(self, end_cycle: Optional[int] = None) -> float:
        """Instructions per CPU cycle up to ``end_cycle`` (mem clock)."""
        end = self.finish_cycle if end_cycle is None else end_cycle
        if end is None or end <= 0:
            return 0.0
        return self.retired / (end * self.ratio)
