"""Lane-parallel batch kernel: advance N grid points through one loop.

A sweep grid point is one (config, workload) simulation.  The scalar
path builds a :class:`~repro.sim.system.System` per point and runs its
event loop to completion before touching the next point; at screening
fidelity (small event counts) most of the wall time is construction and
interpreter overhead, not scheduling work.  This module changes the
*unit of work*: a :class:`BatchSystem` holds N points as *lanes* and
interleaves their event loops on one shared wake heap.

* **One System per lane.**  Each lane is a plain
  :class:`~repro.sim.system.System` with its own per-channel
  :class:`~repro.dram.soa.TimingCore`, exactly as in a solo run, so
  the scheduler hot path is the scalar one and bit-identity holds by
  construction.
* **Shared wake heap keyed ``(cycle, lane)``.**  Every lane runs the
  scalar engine's own event loop, :meth:`System._passes
  <repro.sim.system.System._passes>`, suspended between passes.
  Popping the heap advances the earliest-due lane by exactly one pass
  (:meth:`_Lane.advance`), then re-keys it at its next event cycle.
  Each lane's pass sequence is identical to its solo run; the heap only
  interleaves lanes, it never reorders one lane's events.
* **Shared construction.**  Lanes are built in warm-fingerprint groups:
  the first lane of a fingerprint builds (or disk-loads) the warm
  snapshot, the rest restore from the in-process cache — copy-on-write
  (``System(cow_restore=True)``), so N lanes share one snapshot's
  per-set state until they actually diverge.  Compiled
  :class:`~repro.workloads.synthetic.TraceBlocks` are shared through
  the existing block cache.

The scalar engine remains the oracle: every lane's
:class:`~repro.sim.results.SimResult` must equal its serial run
bit-for-bit (``tests/test_batch.py`` pins this across schemes and
mixed snapshot-restored/cold batches).

Entry points: :class:`BatchSystem` directly, :func:`simulate_batch`
for one-shot use, ``Sweep.run(batch=N)`` for grids, and
:func:`_run_lane_group` as the :class:`~repro.sim.pool.SimPool` task
body that ships whole lane-groups to warm workers.
"""

from __future__ import annotations

import gc
from collections import OrderedDict
from heapq import heappop, heappush
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

# Not called here.  The layered benchmark's span table names the column
# ops in this module, and its Tracer.patch (perfbench/spans.py) looks
# them up in sys.modules, so importing the batch kernel loads it.
import repro.dram.soa_batch  # noqa: F401
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.snapshot import default_warmup, warm_fingerprint
from repro.sim.sweep import SweepContext, _apply_point
from repro.sim.system import System
from repro.workloads.mixes import Workload
from repro.workloads.mixes import workload as lookup_workload

__all__ = ["BatchSystem", "simulate_batch"]

# Oracle-parity declaration enforced by reprolint: the lane heap is a
# fast path; the scalar ``System.run`` is the oracle every lane
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

        Returns the lane's next event cycle, or ``None`` once the lane
        finished (its last pass ran at the cycle it was keyed at).
        """
        return next(self.passes, None)


class BatchSystem:
    """N grid points whose event loops interleave on one wake heap."""

    def __init__(
        self,
        lanes: Sequence[LaneSpec],
        events_per_core: int,
        seed: Optional[int] = None,
        warmup_events_per_core: Optional[int] = None,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        """Build all lanes (shared snapshots and trace blocks).

        ``lanes`` is one ``(config, workload)`` pair per grid point
        (workloads may be names).  ``events_per_core`` / ``seed`` /
        ``warmup_events_per_core`` / ``snapshot_dir`` are grid-wide
        invariants, exactly as in :class:`~repro.sim.sweep.Sweep`.

        Construction runs with the cyclic GC paused: building N lanes
        allocates hundreds of thousands of container objects that are
        all provably live, and generational collections triggered by
        that allocation burst dominated batch wall time.  The guard
        restores the collector's prior state on every exit path.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            self._build(
                lanes,
                events_per_core,
                seed,
                warmup_events_per_core,
                snapshot_dir,
            )
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build(
        self,
        lanes: Sequence[LaneSpec],
        events_per_core: int,
        seed: Optional[int],
        warmup_events_per_core: Optional[int],
        snapshot_dir: Optional[str],
    ) -> None:
        specs: List[Tuple[SystemConfig, Workload]] = []
        for config, wl in lanes:
            workload = lookup_workload(wl) if isinstance(wl, str) else wl
            specs.append((config, workload))
        if not specs:
            raise ValueError("BatchSystem needs at least one lane")

        # Construction in warm-fingerprint groups: the first lane of a
        # group builds/loads the snapshot, the rest restore from the
        # in-process cache (copy-on-write) before another fingerprint
        # can age it out of the LRU.
        fp_groups: "OrderedDict[tuple, List[int]]" = OrderedDict()
        for i, (config, workload) in enumerate(specs):
            warmup = warmup_events_per_core
            if warmup is None:
                warmup = default_warmup(config, workload)
            resolved_seed = config.seed if seed is None else seed
            fp = warm_fingerprint(config, workload, resolved_seed, warmup)
            fp_groups.setdefault(fp, []).append(i)

        systems: List[Optional[System]] = [None] * len(specs)
        for members in fp_groups.values():
            for i in members:
                config, workload = specs[i]
                systems[i] = System(
                    config,
                    workload,
                    events_per_core,
                    seed=seed,
                    warmup_events_per_core=warmup_events_per_core,
                    snapshot_dir=snapshot_dir,
                    cow_restore=True,
                )
        self.lanes: List[_Lane] = [
            _Lane(system) for system in systems if system is not None
        ]
        self._ran = False

    # ------------------------------------------------------------------
    @property
    def num_lanes(self) -> int:
        return len(self.lanes)

    def run(self) -> List[SimResult]:
        """Drive every lane to completion; results in lane order.

        The shared heap holds ``(cycle, lane_index)``: each pop advances
        the earliest-due lane by one pass and re-keys it at its next
        event cycle (ties break on lane index).  Lanes never share
        mutable state (snapshot sharing is copy-on-write), so the
        interleaving cannot affect per-lane results; a lane that terminates finalizes immediately (stats
        flush + summary) and leaves the heap.
        """
        if self._ran:
            raise RuntimeError("BatchSystem.run() may only be called once")
        self._ran = True
        lanes = self.lanes
        results: List[Optional[SimResult]] = [None] * len(lanes)
        heap: List[Tuple[int, int]] = [(0, index) for index in range(len(lanes))]
        while heap:
            cycle, index = heappop(heap)
            lane = lanes[index]
            nxt = lane.advance()
            if nxt is None:
                results[index] = lane.system._finalize(cycle)
            else:
                heappush(heap, (nxt, index))
        return [result for result in results if result is not None]


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
    """Sweep/pool task body: one whole lane-group per task.

    ``ctx`` is the grid-wide :data:`~repro.sim.sweep.SweepContext`;
    ``points`` are the group's point dicts (config deltas).  Runs the
    group as one :class:`BatchSystem` and returns the flattened result
    rows in group order.  Module-level so :class:`~repro.sim.pool
    .SimPool` workers can unpickle it by reference.
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
    rows: List[Dict] = []
    for point, result in zip(points, results):
        row = {**point}
        row.update(result.summary())
        rows.append(row)
    return rows
