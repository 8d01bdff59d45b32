"""The paper's metrics, computed from sweep rows.

The evaluation is one grid of :func:`repro.sim.sweep.result_row` rows:
scheme x workload x row policy, plus each benchmark alone on one core
(``<app>-alone``, Baseline) for Eq. 3.  :class:`Grid` indexes rows by
(workload, scheme, policy) and gives

* :meth:`Grid.ratio` — a column over the Baseline row of the same
  (workload, policy): normalized power, energy and EDP (Figs. 12-15);
* :meth:`Grid.performance` — Eq. 3 weighted speedup
  (:func:`repro.cpu.metrics.weighted_speedup`) over the alone rows'
  IPC, normalized to Baseline's (Figs. 13-15).

:func:`mean` is the arithmetic mean the paper's bars use.  The shares
Table 1 and Figs. 2, 3 and 11 print are row columns already, each the
result's own value.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.core.schemes import BASELINE
from repro.cpu.metrics import weighted_speedup
from repro.workloads.mixes import workload as lookup_workload


class Grid:
    """Sweep rows indexed by (workload, scheme, policy)."""

    def __init__(self, *blocks: Iterable[Dict]) -> None:
        """Index every row of ``blocks``; each row needs all three axes."""
        self._rows: Dict[Tuple[str, str, str], Dict] = {
            (row["workload"], row["scheme"], row["policy"]): row
            for rows in blocks
            for row in rows
        }

    def row(self, workload: str, scheme: str, policy: str = "relaxed") -> Dict:
        """The row of one grid point."""
        return self._rows[(workload, scheme, policy)]

    def alone(self, app: str, policy: str = "relaxed") -> Dict:
        """The Baseline row of benchmark ``app`` alone on one core."""
        return self.row(f"{app}-alone", BASELINE.name, policy)

    def ratio(
        self, column: str, workload: str, scheme: str, policy: str = "relaxed"
    ) -> float:
        """``column`` of a point over the Baseline row's ``column``."""
        base = self.row(workload, BASELINE.name, policy)[column]
        return self.row(workload, scheme, policy)[column] / base

    def weighted_speedup(
        self, workload: str, scheme: str, policy: str = "relaxed"
    ) -> float:
        """Eq. 3: each core's IPC over its app's IPC alone, summed."""
        alone = [
            self.alone(app, policy)["ipcs"][0]
            for app in lookup_workload(workload).app_names
        ]
        return weighted_speedup(self.row(workload, scheme, policy)["ipcs"], alone)

    def performance(
        self, workload: str, scheme: str, policy: str = "relaxed"
    ) -> float:
        """Weighted speedup over Baseline's (Fig. 13a)."""
        return self.weighted_speedup(workload, scheme, policy) / self.weighted_speedup(
            workload, BASELINE.name, policy
        )


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean (the averaging the paper uses for its bars)."""
    if not values:
        raise ValueError("need at least one value")
    return sum(values) / len(values)

