"""``screen``: the ``_batch`` grid through ``Sweep.run(batch="auto")``.

Why: this is the regime the batch kernel exists for.  A 2 MB LLC and a
handful of timed events per point leave lane construction, copy-on-write
restore and the cohort screen a large share while the controller issues
little; with ``detailed`` it brackets the user's ``--batch`` choice.  The grid has 8 warm fingerprints, exactly
``SNAPSHOTS.capacity``.  The policy axis stays at ``relaxed``:
``restricted`` changes the interleaving DBI fingerprints key on, so the
full axis would need 12 and the workload would measure warmup replay
instead of batching.  ``Sweep.run`` returns every row at once, so a
grid's first row arrives with the whole grid.  The serial
``Sweep.run()`` is the oracle every batched row must match.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.schemes import by_name
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.snapshot import SNAPSHOTS, resolve_fingerprint
from repro.sim.sweep import Sweep
from repro.sim.system import System
from repro.workloads.mixes import Workload, workload
from repro.workloads.synthetic import compiled_trace

from measure import (
    Checks, HostSpeed, Outcome, SimTotals, captured_results, clear_caches,
    median, peak_rss_mb, set_ups_and_slices, setup_seconds,
)

SCHEMES = ("Baseline", "FGA", "Half-DRAM", "PRA", "SDS", "DBI+PRA")
WORKLOADS = ("GUPS", "MIX1", "MIX2", "LinkedList")
LLC_BYTES = 2 * 1024 * 1024
#: Screening fidelity: a handful of timed events per core.  Eight
#: rather than the ``_batch`` section's two: with two, the grid's DRAM
#: requests vary by a third from seed to seed, and so does its run time.
EVENTS = 8
WARMUP = 12000
#: Grids in a traced run.
TRACED_GRIDS = 20


class Screen:
    """The 24-point grid, batched, repeated to fill the timed region."""

    name = "screen"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.base = SystemConfig(cache=CacheConfig(llc_bytes=LLC_BYTES), seed=seed)
        self.points = len(SCHEMES) * len(WORKLOADS)
        #: Canonical JSON of every timed grid's rows -> times seen.
        self.seen: Counter = Counter()
        self._oracle: Optional[List[dict]] = None
        #: Work counts of one grid, from the oracle pass.
        self.grid = SimTotals()

    def sweep(self) -> Sweep:
        sweep = Sweep(
            events_per_core=EVENTS,
            base_config=self.base,
            seed=self.seed,
            warmup_events_per_core=WARMUP,
        )
        sweep.add_axis("scheme", list(SCHEMES))
        sweep.add_axis("workload", list(WORKLOADS))
        sweep.add_axis("policy", ["relaxed"])
        return sweep

    def fingerprints(self) -> List[Tuple[SystemConfig, Workload]]:
        """One (config, workload) per distinct warm fingerprint."""
        reps: Dict[tuple, Tuple[SystemConfig, Workload]] = {}
        for scheme in SCHEMES:
            config = self.base.with_scheme(by_name(scheme))
            for name in WORKLOADS:
                mix = workload(name)
                key = resolve_fingerprint(config, mix, self.seed, WARMUP)
                reps.setdefault(key, (config, mix))
        return list(reps.values())

    def set_up_steps(self) -> List[Callable[[], None]]:
        """One step per warm fingerprint: trace compile, warmup replay
        and snapshot capture."""
        return [functools.partial(self._warm, config, mix)
                for config, mix in self.fingerprints()]

    def _warm(self, config: SystemConfig, mix: Workload) -> None:
        System(config, mix, EVENTS, warmup_events_per_core=WARMUP)
        for core_id, profile in enumerate(mix.apps):
            compiled_trace(profile, seed=self.seed, core_id=core_id).ensure(
                WARMUP + EVENTS
            )

    def set_up(self) -> None:
        for step in self.set_up_steps():
            step()

    def run_grid(self, sweep: Sweep) -> List[dict]:
        return sweep.run(batch="auto")

    def oracle(self) -> List[dict]:
        """Serial ``Sweep.run()`` rows, computed once outside any timing."""
        if self._oracle is None:
            with captured_results() as results:
                rows = self.sweep().run()
            self._oracle = json.loads(json.dumps(rows))
            for result in results:
                self.grid.add(result)
        return self._oracle

    def measure(self, seconds: float) -> Outcome:
        self.oracle()
        sweep = self.sweep()
        host = HostSpeed()
        times: List[float] = []

        def grid() -> None:
            elapsed, rows = host.timed(lambda: self.run_grid(sweep))
            times.append(elapsed)
            self.seen[json.dumps(rows, sort_keys=True)] += 1

        set_ups = set_ups_and_slices(self.set_up_steps(), seconds, grid, host)
        rss = peak_rss_mb()
        checks = Checks()
        self.verify(checks)
        full = host.full_speed(median(times))
        metrics = {
            "setup_s": (setup_seconds(set_ups, host), "s"),
            "points_per_s": (self.points / full, "points/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines = [
            f"timed: {len(times)} grids of {self.points} points, median "
            f"{1e3 * median(times):.2f} CPU ms ({1e3 * full:.2f} ms at full speed); set-ups "
            + ", ".join(f"{sum(s):.3f}" for s in set_ups) + " CPU s",
            host.report(),
        ]
        return Outcome(metrics, checks, lines + self.report())

    def traced_work(self) -> Dict[str, int]:
        """Fixed work for a traced run: one set-up and 20 grids."""
        clear_caches()
        self.set_up()
        sweep = self.sweep()
        for _ in range(TRACED_GRIDS):
            self.seen[json.dumps(self.run_grid(sweep), sort_keys=True)] += 1
        return {}

    def verify(self, checks: Checks) -> None:
        """Every batched row against the serial ``Sweep.run()`` row."""
        oracle = self.oracle()
        for output, count in self.seen.items():
            rows = json.loads(output)
            if len(rows) != len(oracle):
                checks.record(
                    False,
                    f"screen grid returned {len(rows)} rows, want {len(oracle)}",
                    count * len(oracle),
                )
                continue
            for row, want in zip(rows, oracle):
                checks.record(
                    row == want,
                    f"screen row {row.get('scheme')}/{row.get('workload')} "
                    "differs from serial Sweep.run()",
                    count,
                )

    def report(self) -> List[str]:
        self.oracle()
        cores = workload(WORKLOADS[0]).num_cores
        return [
            f"traffic: DRAM write share {100 * self.grid.write_share:.1f}% "
            f"of {self.grid.served} requests per grid",
            f"traffic: {len(self.fingerprints())} warm fingerprints, "
            f"SNAPSHOTS.capacity {SNAPSHOTS.capacity}",
            f"traffic: {cores} cores x {EVENTS} timed events per point, "
            f"after {WARMUP} warmup events per core",
        ]
