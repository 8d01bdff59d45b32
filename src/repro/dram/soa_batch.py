"""Column ops over a set of lanes' channel timing state.

Each op takes one :class:`~repro.dram.soa.TimingCore` per lane (the
same channel index of several grid points) and evaluates one column
quantity for all of them: an OR-fold, a min, an all-of, or an in-place
clamp of the per-rank readiness timers.

Nothing in the simulator calls these ops.  The layered benchmark
(``perfbench/layers.py``) still names them in its span table, so they
stay until that table drops them; :mod:`repro.sim.batch` imports this
module so the benchmark's tracer finds it loaded.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.dram.soa import TimingCore


# Not called by the simulator; kept for the benchmark span table.
def open_row_hits(cores: Sequence[TimingCore]) -> List[int]:
    """Per-lane OR-fold of the ranks' ``open_bits``, one per core.

    ``0`` means the lane has no open row anywhere on the channel.
    """
    result = []
    for core in cores:
        bits = 0
        for b in core.open_bits:
            bits |= b
        result.append(bits)
    return result


# Not called by the simulator; kept for the benchmark span table.
def refresh_due(cores: Sequence[TimingCore]) -> List[int]:
    """Earliest refresh deadline per core (min over ranks)."""
    return [min(core.next_refresh) for core in cores]


# Not called by the simulator; kept for the benchmark span table.
def power_down_resident(cores: Sequence[TimingCore]) -> List[bool]:
    """Whether *every* rank of each core sits in power-down."""
    return [all(core.pd) for core in cores]


# Not called by the simulator; kept for the benchmark span table.
def decay_timers(cores: Sequence[TimingCore], cycle: int) -> None:
    """Clamp stale per-rank readiness timers up to ``cycle``, in place.

    Elementwise ``max(timer, cycle)`` over each core's per-rank timer
    vectors (tRRD/tCCD/turnaround/hold/gate).  Behavior-preserving for
    lanes at ``cycle``: the controller only ever consults these values
    via ``cycle >= t`` comparisons or max-folds against cycles ``>=
    cycle``, so a timer that already expired (``< cycle``) is
    indistinguishable from one clamped to ``cycle``.
    """
    for core in cores:
        for timers in (
            core.next_act_ok,
            core.next_col_ok,
            core.next_read_ok,
            core.next_write_ok,
            core.gate,
        ):
            for i, v in enumerate(timers):
                if v < cycle:
                    timers[i] = cycle


# Not called by the simulator; kept for the benchmark span table.
def next_wake_min(candidates: Sequence[Sequence[int]]) -> List[int]:
    """Row-wise min over per-lane wake-candidate rows (non-empty)."""
    return [min(row) for row in candidates]
