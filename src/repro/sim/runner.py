"""Experiment runner: cached simulations and paper-style derived metrics.

The evaluation figures need many (workload, scheme, policy) runs plus
single-application "alone" runs for weighted speedup.  The runner
caches results so that e.g. the Figure 12 and Figure 13 benches share
the same simulations.

Run length is controlled by ``events_per_core`` (memory instructions
per core).  The ``REPRO_EVENTS`` environment variable overrides the
default, so benchmark fidelity can be scaled up without code changes.

Uncached runs execute serially in-process (the oracle) or, when the
runner is given a :class:`repro.sim.pool.SimPool`, on that pool's
warm workers; both are bit-identical.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

if TYPE_CHECKING:
    from repro.sim.pool import SimPool

from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, Scheme, by_name
from repro.cpu.metrics import weighted_speedup
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.snapshot import resolve_fingerprint
from repro.sim.system import System
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


#: Runner-wide invariants shipped to workers once per batch:
#: (base_config, seed, warmup, snapshot_dir).
RunnerContext = Tuple[SystemConfig, int, Optional[int], Optional[str]]

#: One run: (workload, scheme_name, policy_value, events_per_core).
#: The workload object travels whole (``alone`` runs use ad-hoc
#: single-app workloads that no registry lookup could resolve); the
#: scheme and policy travel as their names — the config delta.
RunSpec = Tuple[Workload, str, str, int]


def _simulate_task(ctx: RunnerContext, spec: RunSpec) -> SimResult:
    """One simulation; module-level so worker processes can unpickle
    it.  ``ctx`` carries the runner-wide invariants (shipped once per
    worker); :class:`SimResult` is a plain dataclass tree and crosses
    the process boundary intact.
    """
    base_config, seed, warmup, snapshot_dir = ctx
    wl, scheme_name, policy_value, events = spec
    config = base_config.with_scheme(by_name(scheme_name)).with_policy(
        RowPolicy(policy_value)
    )
    system = System(
        config,
        wl,
        events,
        seed=seed,
        warmup_events_per_core=warmup,
        snapshot_dir=snapshot_dir,
    )
    return system.run()


class ExperimentRunner:
    """Runs and caches full-system simulations."""

    def __init__(
        self,
        events_per_core: Optional[int] = None,
        base_config: Optional[SystemConfig] = None,
        seed: int = 1,
        warmup_events_per_core: Optional[int] = None,
        snapshot_dir: Optional[str] = None,
        pool: "Optional[SimPool]" = None,
    ) -> None:
        """Configure shared run parameters for all cached simulations.

        ``snapshot_dir`` opts the runner into the on-disk warm-state
        snapshot layer, extending warm-state reuse across pool worker
        processes (which share no in-process cache) and across
        interpreter invocations.

        ``pool`` routes every uncached simulation through a persistent
        :class:`repro.sim.pool.SimPool`: one set of warm workers
        (snapshot + trace caches intact) serves :meth:`run`,
        :meth:`run_many` and every later batch, with results cached in
        this runner as usual.  Bit-identical to in-process execution.
        """
        self.events_per_core = (
            default_events_per_core() if events_per_core is None else events_per_core
        )
        self.base_config = base_config if base_config is not None else SystemConfig()
        self.seed = seed
        self.warmup_events_per_core = warmup_events_per_core
        self.snapshot_dir = snapshot_dir
        self.pool = pool
        self._results: Dict[Tuple, SimResult] = {}

    # ------------------------------------------------------------------
    def _context(self) -> RunnerContext:
        """The runner-wide invariants every execution backend shares."""
        return (
            self.base_config,
            self.seed,
            self.warmup_events_per_core,
            self.snapshot_dir,
        )

    def _spec_group_key(self, spec: RunSpec) -> tuple:
        """Warm fingerprint of a spec, for pool cache-affinity grouping."""
        wl, scheme_name, policy_value, _events = spec
        config = self.base_config.with_scheme(by_name(scheme_name)).with_policy(
            RowPolicy(policy_value)
        )
        return resolve_fingerprint(config, wl, self.seed, self.warmup_events_per_core)

    # ------------------------------------------------------------------
    def run(
        self,
        workload: "Workload | str",
        scheme: Scheme = BASELINE,
        policy: RowPolicy = RowPolicy.RELAXED_CLOSE,
        events_per_core: Optional[int] = None,
    ) -> SimResult:
        """Run (or fetch from cache) one simulation."""
        return self.run_many(
            [(workload, scheme, policy)], events_per_core=events_per_core
        )[0]

    # ------------------------------------------------------------------
    def run_many(
        self,
        specs: Sequence[Tuple],
        events_per_core: Optional[int] = None,
    ) -> List[SimResult]:
        """Run a batch of ``(workload, scheme, policy)`` specs.

        Uncached specs run on the runner's pool when one is attached
        (warm workers, fingerprint-grouped scheduling), else serially
        in-process — bit-identical either way (the same deterministic
        seed governs both).  Everything lands in the shared cache and
        the results come back in spec order.  Duplicate specs are
        simulated once.
        """
        events = self.events_per_core if events_per_core is None else events_per_core
        keys: List[Tuple] = []
        todo: Dict[Tuple, RunSpec] = {}
        for spec in specs:
            wl, scheme, policy = spec
            wl = lookup_workload(wl) if isinstance(wl, str) else wl
            key = (wl.name, tuple(wl.app_names), scheme.name, policy.value, events)
            keys.append(key)
            if key not in self._results and key not in todo:
                todo[key] = (wl, scheme.name, policy.value, events)
        if todo:
            tasks = list(todo.values())
            ctx = self._context()
            if self.pool is not None:
                results = self.pool.map(
                    _simulate_task,
                    tasks,
                    shared=ctx,
                    group_keys=[self._spec_group_key(task) for task in tasks],
                )
            else:
                results = [_simulate_task(ctx, task) for task in tasks]
            for key, result in zip(todo, results):
                self._results[key] = result
        return [self._results[key] for key in keys]

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
