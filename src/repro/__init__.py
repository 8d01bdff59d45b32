"""repro: reproduction of "Partial Row Activation for Low-Power DRAM
System" (Lee, Kim, Hong, Kim - HPCA 2017).

Public API tour
---------------

* :mod:`repro.core` — PRA masks and the activation schemes compared in
  the paper (Baseline, FGA, Half-DRAM, PRA, combinations with DBI).
* :mod:`repro.dram` — cycle-level DDR3-1600 device model with the PRA
  command extensions.
* :mod:`repro.controller` — FR-FCFS memory controller, row policies,
  write-drain watermarks, false-row-buffer-hit handling.
* :mod:`repro.cache` — FGD cache hierarchy and the Dirty-Block Index.
* :mod:`repro.cpu` — trace-driven bounded-MLP cores and CMP metrics.
* :mod:`repro.workloads` — calibrated synthetic benchmarks + MIX1-6.
* :mod:`repro.power` — Micron-style power model and CACTI-style
  activation-energy/area model.
* :mod:`repro.sim` — system assembly, the simulator, parameter
  sweeps, and the paper's metrics computed from sweep rows.

Quickstart::

    from repro import PRA, SystemConfig, simulate, workload

    result = simulate(SystemConfig(scheme=PRA), workload("GUPS"), 5000)
    print(result.summary())

A grid of runs is a :class:`repro.sim.Sweep`; :class:`repro.sim.Grid`
normalizes its rows to Baseline and computes Eq. 3 weighted speedup.
"""

from repro.core import (
    BASELINE,
    DBI,
    DBI_PRA,
    FGA,
    HALF_DRAM,
    HALF_DRAM_PRA,
    PRA,
    PRAMask,
    Scheme,
)
from repro.controller import RowPolicy
from repro.sim import SimResult, System, SystemConfig, simulate
from repro.workloads import ALL_WORKLOADS, BENCHMARKS, Workload, workload

__version__ = "1.0.0"

__all__ = [
    "ALL_WORKLOADS",
    "BASELINE",
    "BENCHMARKS",
    "DBI",
    "DBI_PRA",
    "FGA",
    "HALF_DRAM",
    "HALF_DRAM_PRA",
    "PRA",
    "PRAMask",
    "RowPolicy",
    "Scheme",
    "simulate",
    "SimResult",
    "System",
    "SystemConfig",
    "workload",
    "Workload",
    "__version__",
]
