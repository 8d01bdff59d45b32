"""Batch kernel: run N grid points as lanes, one after another.

A sweep grid point is one (config, workload) simulation.  The scalar
path builds a :class:`~repro.sim.system.System` per point and runs it
to completion before touching the next point.  A :class:`BatchSystem`
holds N points as *lanes* and does exactly the same, so it adds
nothing over a serial sweep; it runs in-process only (a
:class:`~repro.sim.pool.SimPool` ships one message per warm-fingerprint
group of single points instead).  The module stays because the layered
benchmark's span table names :class:`BatchSystem` and
:meth:`_Lane.advance`.

* **One System per lane, one lane at a time.**  Each lane is a plain
  :class:`~repro.sim.system.System`, so the scheduler hot path is the
  scalar one and bit-identity holds by construction.  A lane's System
  is built when its turn comes, drained through :meth:`_Lane.advance`
  (one pass of :meth:`System._passes
  <repro.sim.system.System._passes>` per call), summarized and
  dropped before the next lane is built, so memory does not grow with
  the lane count.  Its warm snapshot is restored copy-on-write, as
  every System's is.  ``Sweep._run_batched`` passes lanes in
  warm-fingerprint order, so the lanes of one fingerprint restore from
  one snapshot back to back.

The scalar engine remains the oracle: every lane's
:class:`~repro.sim.results.SimResult` must equal its serial run
bit-for-bit (``tests/test_batch.py`` pins this across schemes and
mixed snapshot-restored/cold batches).

Entry points: :class:`BatchSystem` directly, :func:`simulate_batch`
for one-shot use, and ``Sweep.run(batch=N)`` for grids, which runs
each lane group through :func:`_run_lane_group`.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

# Not called here.  The layered benchmark's span table names the column
# ops in this module, and its Tracer.patch (perfbench/spans.py) looks
# them up in sys.modules, so importing the batch kernel loads it.
import repro.dram.soa_batch  # noqa: F401
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.sweep import SweepContext, _apply_point, result_row
from repro.sim.system import System
from repro.workloads.mixes import Workload
from repro.workloads.mixes import workload as lookup_workload

__all__ = ["BatchSystem", "simulate_batch"]

# Oracle-parity declaration enforced by reprolint: the batch kernel is
# a fast path; the scalar ``System.run`` is the oracle every lane
# must match bit-for-bit.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.sim.system.System.run"
ORACLE_TESTS = ("tests/test_batch.py",)

#: One lane: a specialized config plus its workload (or workload name).
LaneSpec = Tuple[SystemConfig, Union[Workload, str]]


class _Lane:
    """One grid point's System with its event loop paused between passes."""

    __slots__ = ("system", "passes")

    def __init__(self, system: System) -> None:
        self.system = system
        self.passes: Iterator[int] = system._passes()

    def advance(self) -> Optional[int]:
        """Run the lane's next pass of :meth:`System._passes`.

        Returns the cycle of the lane's next pass, or ``None`` once the
        lane finished (its last pass ran at the cycle returned last).
        """
        return next(self.passes, None)


class BatchSystem:
    """N grid points run one after another, each as a plain System."""

    def __init__(
        self,
        lanes: Sequence[LaneSpec],
        events_per_core: int,
        seed: Optional[int] = None,
        warmup_events_per_core: Optional[int] = None,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        """Resolve the lanes' workloads; no System is built until :meth:`run`.

        ``lanes`` is one ``(config, workload)`` pair per grid point
        (workloads may be names).  ``events_per_core`` / ``seed`` /
        ``warmup_events_per_core`` / ``snapshot_dir`` are grid-wide
        invariants, exactly as in :class:`~repro.sim.sweep.Sweep`.
        """
        self._specs: List[Tuple[SystemConfig, Workload]] = [
            (config, lookup_workload(wl) if isinstance(wl, str) else wl)
            for config, wl in lanes
        ]
        if not self._specs:
            raise ValueError("BatchSystem needs at least one lane")
        self._events_per_core = events_per_core
        self._seed = seed
        self._warmup = warmup_events_per_core
        self._snapshot_dir = snapshot_dir
        self._ran = False

    def run(self) -> List[SimResult]:
        """Run every lane to completion, in lane order; results in lane order."""
        if self._ran:
            raise RuntimeError("BatchSystem.run() may only be called once")
        self._ran = True
        return [self._run_lane(config, workload) for config, workload in self._specs]

    def _run_lane(self, config: SystemConfig, workload: Workload) -> SimResult:
        """Build one lane, drain its event loop and summarize it.

        The lane's System is dropped on return, before the next lane is
        built.  It is summarized with :meth:`System._finalize` rather
        than run by :meth:`System.run`: a tracer hooked on both
        ``System.run`` and :meth:`run` would otherwise see each lane's
        result twice.
        """
        lane = _Lane(
            System(
                config,
                workload,
                self._events_per_core,
                seed=self._seed,
                warmup_events_per_core=self._warmup,
                snapshot_dir=self._snapshot_dir,
            )
        )
        cycle = 0
        for cycle in iter(lane.advance, None):
            pass
        return lane.system._finalize(cycle)


def simulate_batch(
    lanes: Sequence[LaneSpec],
    events_per_core: int,
    seed: Optional[int] = None,
    warmup_events_per_core: Optional[int] = None,
    snapshot_dir: Optional[str] = None,
) -> List[SimResult]:
    """Convenience one-shot: build a :class:`BatchSystem` and run it."""
    return BatchSystem(
        lanes,
        events_per_core,
        seed=seed,
        warmup_events_per_core=warmup_events_per_core,
        snapshot_dir=snapshot_dir,
    ).run()


def _run_lane_group(ctx: SweepContext, points: List[Dict]) -> List[Dict]:
    """Run one lane group of a batched ``Sweep.run``.

    ``ctx`` is the grid-wide :data:`~repro.sim.sweep.SweepContext`;
    ``points`` are the group's point dicts (config deltas).  Runs the
    group as one :class:`BatchSystem` and returns the points'
    :func:`~repro.sim.sweep.result_row` rows in group order.
    """
    base_config, events, seed, warmup, snapshot_dir = ctx
    specs: List[LaneSpec] = [
        (_apply_point(base_config, point), point["workload"]) for point in points
    ]
    results = simulate_batch(
        specs,
        events,
        seed=seed,
        warmup_events_per_core=warmup,
        snapshot_dir=snapshot_dir,
    )
    return [result_row(point, result) for point, result in zip(points, results)]
