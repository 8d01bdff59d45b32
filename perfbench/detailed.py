"""``detailed``: full-fidelity runs of four schemes on MIX2.

Why: this is the single-run hot path that ``repro run`` and figure
regeneration pay.  MIX2 is the most write-heavy mix, so PRA's
masked-write activations, write drains and DBI writebacks do real work.
Each timed run builds a ``System`` for the next scheme in turn (the
paper's 4 MB L2) from the warm snapshots made during set-up and runs it
to completion.
``System.run(strict_polling=True)`` is the oracle every run must match.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Callable, Dict, List, Tuple

from repro.core.schemes import by_name
from repro.sim.config import SystemConfig
from repro.sim.snapshot import SNAPSHOTS, default_warmup, resolve_fingerprint
from repro.sim.system import System
from repro.workloads.mixes import workload
from repro.workloads.synthetic import compiled_trace

from measure import (
    Checks, HostSpeed, Outcome, SimTotals, clear_caches, peak_rss_mb,
    result_digest, set_ups_and_slices, setup_seconds,
)

SCHEMES = ("Baseline", "PRA", "SDS", "DBI+PRA")
WORKLOAD = "MIX2"
#: Timed trace events per core: full fidelity is thousands per core.
EVENTS = 2000
#: PRA's total-power change vs Baseline on MIX2 in the paper (Figure 12,
#: as quoted in EXPERIMENTS.md).
PAPER_PRA_POWER_PCT = -32.0


class Detailed:
    """Four schemes on MIX2, one ``System.run()`` per timed run."""

    name = "detailed"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.mix = workload(WORKLOAD)
        self.configs = [SystemConfig(scheme=by_name(name), seed=seed) for name in SCHEMES]
        self.warmup = default_warmup(self.configs[0], self.mix)
        #: Timed runs take the schemes in turn, so a run's share of each
        #: scheme differs by at most one run.
        self._turns = itertools.cycle(list(zip(SCHEMES, self.configs)))
        #: (scheme, result digest) of every timed run -> times seen.
        self.seen: Counter = Counter()
        self.totals = {name: SimTotals() for name in SCHEMES}
        self.power_mw: Dict[str, float] = {}

    def fingerprints(self) -> List[SystemConfig]:
        """One config per distinct warm fingerprint."""
        reps: Dict[tuple, SystemConfig] = {}
        for config in self.configs:
            reps.setdefault(resolve_fingerprint(config, self.mix, self.seed), config)
        return list(reps.values())

    def set_up_steps(self) -> List[Callable[[], None]]:
        """Trace compile for each core, then warmup replay and snapshot
        capture for each warm fingerprint (building a System does both)."""
        steps: List[Callable[[], None]] = [
            functools.partial(self._compile, core_id) for core_id in range(self.mix.num_cores)
        ]
        steps += [functools.partial(System, config, self.mix, EVENTS)
                  for config in self.fingerprints()]
        return steps

    def _compile(self, core_id: int) -> None:
        profile = self.mix.apps[core_id]
        compiled_trace(profile, seed=self.seed, core_id=core_id).ensure(self.warmup + EVENTS)

    def set_up(self) -> None:
        for step in self.set_up_steps():
            step()

    def run_point(self) -> int:
        """One run of the next scheme in turn; its DRAM requests served."""
        name, config = next(self._turns)
        result = System(config, self.mix, EVENTS).run()
        self.seen[(name, result_digest(result))] += 1
        self.totals[name].add(result)
        self.power_mw[name] = result.avg_power_mw
        return result.controller.total_served

    def measure(self, seconds: float) -> Outcome:
        host = HostSpeed()
        runs: List[Tuple[float, int]] = []
        set_ups = set_ups_and_slices(
            self.set_up_steps(), seconds, lambda: runs.append(host.timed(self.run_point)),
            host,
        )
        rss = peak_rss_mb()
        checks = Checks()
        self.verify(checks)
        busy = sum(s for s, _ in runs)
        full = host.full_speed(busy)
        metrics = {
            "setup_s": (setup_seconds(set_ups, host), "s"),
            "points_per_s": (len(runs) / full, "points/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines = [
            f"timed: {len(runs)} runs in {busy:.3f} CPU s ({full:.3f} s at full speed); "
            "set-ups " + ", ".join(f"{sum(s):.3f}" for s in set_ups) + " CPU s",
            host.report(),
            f"req_per_s {sum(served for _, served in runs) / full:.1f} req/s "
            "(DRAM requests served per second at full speed over every run)",
        ]
        return Outcome(metrics, checks, lines + self.report())

    def traced_work(self) -> Dict[str, int]:
        """Fixed work for a traced run: one set-up and one run per scheme."""
        clear_caches()
        self.set_up()
        for _ in SCHEMES:
            self.run_point()
        return {}

    def verify(self, checks: Checks) -> None:
        """Every timed run against ``System.run(strict_polling=True)``."""
        for name, config in zip(SCHEMES, self.configs):
            oracle = result_digest(
                System(config, self.mix, EVENTS).run(strict_polling=True)
            )
            for (scheme, digest), count in self.seen.items():
                if scheme == name:
                    checks.record(
                        digest == oracle,
                        f"{name}: run differs from System.run(strict_polling=True)",
                        count,
                    )

    def report(self) -> List[str]:
        shares = ", ".join(
            f"{name} {100 * totals.write_share:.1f}%"
            for name, totals in self.totals.items()
        )
        lines = [
            f"traffic: DRAM write share {shares}",
            f"traffic: {len(self.fingerprints())} warm fingerprints, "
            f"SNAPSHOTS.capacity {SNAPSHOTS.capacity}",
            f"traffic: {self.mix.num_cores} cores x {EVENTS} timed events per point, "
            f"after {self.warmup} warmup events per core",
        ]
        if {"PRA", "Baseline"} <= self.power_mw.keys():
            change = 100.0 * (self.power_mw["PRA"] / self.power_mw["Baseline"] - 1.0)
            lines.append(
                f"accuracy: PRA total power vs Baseline on {WORKLOAD} {change:+.1f}% "
                f"(paper {PAPER_PRA_POWER_PCT:+.0f}%, EXPERIMENTS.md Figure 12); "
                "the model has no hardware reference and is otherwise unvalidated"
            )
        return lines
