"""CMP performance metric: weighted speedup (Equation 3).

Weighted speedup (Equation 3 of the paper):

    WS = sum_i IPC_i^shared / IPC_i^alone

where ``IPC_i^alone`` is measured with application *i* running alone on
the CMP and ``IPC_i^shared`` with the full mix.  Normalized performance
in the figures is WS of a scheme divided by WS of the baseline
(:meth:`repro.sim.metrics.Grid.performance`).
"""

from __future__ import annotations

from typing import Sequence


def weighted_speedup(shared_ipcs: Sequence[float], alone_ipcs: Sequence[float]) -> float:
    """Equation 3: sum of per-application shared/alone IPC ratios."""
    if len(shared_ipcs) != len(alone_ipcs):
        raise ValueError("shared and alone IPC lists must align")
    if not shared_ipcs:
        raise ValueError("need at least one application")
    total = 0.0
    for shared, alone in zip(shared_ipcs, alone_ipcs):
        if alone <= 0:
            raise ValueError("alone IPC must be positive")
        total += shared / alone
    return total
