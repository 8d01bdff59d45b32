"""Memory-access traces consumed by the core model.

A trace is an iterable of :class:`TraceEvent`.  Each event is one
memory instruction plus the ``gap`` of non-memory instructions executed
before it.  Addresses are cache-line indices; stores carry the FGD
word mask they dirty.  ``no_fill`` marks non-temporal streaming stores
that allocate without fetching the line from DRAM.

Traces stand in for the paper's gem5 + SimPoint execution of
SPEC CPU2006 / Olden / GUPS / LinkedList regions; the generators in
:mod:`repro.workloads` synthesize them from calibrated profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.dram.geometry import FULL_MASK


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One memory instruction in a core's instruction stream."""

    #: Non-memory instructions executed before this access.
    gap: int
    #: Cache-line index accessed.
    line_addr: int
    #: 0 for a load; otherwise the FGD word mask the store dirties.
    write_mask: int = 0
    #: True for streaming stores that skip the write-allocate fill.
    no_fill: bool = False

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.line_addr < 0:
            raise ValueError("line address must be non-negative")
        if not 0 <= self.write_mask <= FULL_MASK:
            raise ValueError(f"write mask out of range: {self.write_mask:#x}")

    @property
    def is_store(self) -> bool:
        return self.write_mask != 0

    @property
    def instructions(self) -> int:
        """Instructions this event retires (gap + the access itself)."""
        return self.gap + 1


def materialize(events: Iterable[TraceEvent], limit: int) -> List[TraceEvent]:
    """Take up to ``limit`` events from a (possibly infinite) trace."""
    out: List[TraceEvent] = []
    for event in events:
        out.append(event)
        if len(out) >= limit:
            break
    return out


def total_instructions(events: Iterable[TraceEvent]) -> int:
    """Total instructions (gaps + accesses) a trace retires."""
    return sum(e.instructions for e in events)
