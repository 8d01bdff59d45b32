"""Experiment runner: cached simulations and paper-style derived metrics.

The evaluation figures need many (workload, scheme, policy) runs plus
single-application "alone" runs for weighted speedup.  The runner
caches results so that e.g. the Figure 12 and Figure 13 benches share
the same simulations.

Run length is controlled by ``events_per_core`` (memory instructions
per core).  The ``REPRO_EVENTS`` environment variable overrides the
default, so benchmark fidelity can be scaled up without code changes.

Every run executes in-process.  A grid that should fan out over
worker processes is a :class:`repro.sim.sweep.Sweep` run on a
:class:`repro.sim.pool.SimPool`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional, Sequence, Tuple

from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, Scheme
from repro.cpu.metrics import weighted_speedup
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.system import simulate
from repro.workloads.mixes import Workload, workload as lookup_workload

#: Default memory instructions per core per run.
DEFAULT_EVENTS_PER_CORE = 20_000


def default_events_per_core() -> int:
    """Run length, overridable via the ``REPRO_EVENTS`` env variable."""
    value = os.environ.get("REPRO_EVENTS")
    if value is None:
        return DEFAULT_EVENTS_PER_CORE
    events = int(value)
    if events <= 0:
        raise ValueError("REPRO_EVENTS must be positive")
    return events


class ExperimentRunner:
    """Runs and caches full-system simulations, in-process."""

    def __init__(
        self,
        events_per_core: Optional[int] = None,
        base_config: Optional[SystemConfig] = None,
        seed: int = 1,
        warmup_events_per_core: Optional[int] = None,
    ) -> None:
        """Configure shared run parameters for all cached simulations."""
        self.events_per_core = (
            default_events_per_core() if events_per_core is None else events_per_core
        )
        self.base_config = base_config if base_config is not None else SystemConfig()
        self.seed = seed
        self.warmup_events_per_core = warmup_events_per_core
        self._results: Dict[Tuple, SimResult] = {}

    # ------------------------------------------------------------------
    def run(
        self,
        workload: "Workload | str",
        scheme: Scheme = BASELINE,
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
        events_per_core: Optional[int] = None,
    ) -> SimResult:
        """Run (or fetch from cache) one simulation."""
        events = self.events_per_core if events_per_core is None else events_per_core
        wl = lookup_workload(workload) if isinstance(workload, str) else workload
        key = (wl.name, tuple(wl.app_names), scheme.name, policy.value, events)
        result = self._results.get(key)
        if result is None:
            config = self.base_config.with_scheme(scheme).with_policy(policy)
            result = simulate(
                config,
                wl,
                events,
                seed=self.seed,
                warmup_events_per_core=self.warmup_events_per_core,
            )
            self._results[key] = result
        return result

    # ------------------------------------------------------------------
    def alone_ipcs(
        self,
        workload: "Workload | str",
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
    ) -> List[float]:
        """Baseline-alone IPC of each app in the workload (Eq. 3 denominators)."""
        wl = lookup_workload(workload) if isinstance(workload, str) else workload
        ipcs = []
        for app in wl.apps:
            solo = Workload(name=f"{app.name}-alone", apps=(app,))
            result = self.run(solo, BASELINE, policy)
            ipcs.append(result.cores[0].ipc)
        return ipcs

    def weighted_speedup(
        self,
        workload: "Workload | str",
        scheme: Scheme,
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
    ) -> float:
        """Equation 3 over baseline-alone IPCs."""
        wl = lookup_workload(workload) if isinstance(workload, str) else workload
        shared = self.run(wl, scheme, policy).ipcs
        alone = self.alone_ipcs(wl, policy)
        return weighted_speedup(shared, alone)

    def normalized_performance(
        self,
        workload: "Workload | str",
        scheme: Scheme,
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
    ) -> float:
        """Weighted speedup of ``scheme`` over the baseline (Fig. 13a)."""
        ws = self.weighted_speedup(workload, scheme, policy)
        ws_base = self.weighted_speedup(workload, BASELINE, policy)
        return ws / ws_base

    # ------------------------------------------------------------------
    def normalized_power(
        self,
        workload: "Workload | str",
        scheme: Scheme,
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
        category: Optional[str] = None,
    ) -> float:
        """Scheme/baseline DRAM power ratio (Fig. 12), optionally per category."""
        result = self.run(workload, scheme, policy)
        base = self.run(workload, BASELINE, policy)
        if category is None:
            return result.avg_power_mw / base.avg_power_mw
        base_mw = base.power.power_mw(category)
        if base_mw == 0:
            return 0.0
        return result.power.power_mw(category) / base_mw

    def normalized_energy(
        self,
        workload: "Workload | str",
        scheme: Scheme,
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
    ) -> float:
        """Scheme/baseline DRAM-energy ratio (Fig. 13b)."""
        result = self.run(workload, scheme, policy)
        base = self.run(workload, BASELINE, policy)
        return result.total_energy_mj / base.total_energy_mj

    def normalized_edp(
        self,
        workload: "Workload | str",
        scheme: Scheme,
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
    ) -> float:
        """Scheme/baseline energy-delay-product ratio (Fig. 13c)."""
        result = self.run(workload, scheme, policy)
        base = self.run(workload, BASELINE, policy)
        return result.edp / base.edp


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("need at least one value")
    product = 1.0
    for v in values:
        if v <= 0:
            raise ValueError("geometric mean needs positive values")
        product *= v
    return product ** (1.0 / len(values))


def arithmetic_mean(values: Sequence[float]) -> float:
    """Arithmetic mean (the averaging the paper uses for its bars)."""
    if not values:
        raise ValueError("need at least one value")
    return sum(values) / len(values)
