"""Meta-benchmark: whole-sweep throughput, cold-spawn vs warm pool.

Not a paper figure — this measures the sweep *service* itself: a
24-point grid (6 schemes x 4 workloads) executed

* on a fresh :class:`repro.sim.pool.SimPool` under the **spawn** start
  method, opened and closed inside the timed region — every worker
  pays the full cold start (interpreter boot, package import,
  trace-block compilation, one warmup replay per warm fingerprint it
  encounters), the cost every fresh sweep invocation pays; versus
* on a persistent :class:`repro.sim.pool.SimPool` whose workers are
  already **warm** — snapshot and trace caches populated by an earlier
  batch, fingerprint-grouped scheduling keeping them hot — the steady
  state of the benchmark conftest, ``repro bench`` and repeated
  ``Sweep.run(pool=...)`` calls.

Both arms (and the serial oracle) must produce row-for-row identical
grids; the speedup and absolute points/sec land in the ``_sweep``
section of ``BENCH_throughput.json`` so CI archives them per commit.
The floor is 3x locally; CI sets ``REPRO_SWEEP_SPEEDUP_FLOOR=2`` to
absorb shared-runner jitter.

``test_batch_sweep_speedup`` adds the third backend: the lane-parallel
batch kernel (``Sweep.run(batch=N)``, :mod:`repro.sim.batch`) on the
same 24-point grid at *screening* fidelity — a realistic 2 MB LLC and
a handful of timed events per point, the regime sensitivity screens
actually run in, where per-point construction / restore / IPC dominate
and batching is designed to win.  Its numbers land in the ``_batch``
section with a ``REPRO_BATCH_SPEEDUP_FLOOR`` floor (3x locally, 2x in
CI) over the warm pool, plus a 10x floor over cold spawn.
"""

import os
import time

from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.pool import SimPool
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import Sweep

from bench_io import update_results

#: Kept small so the grid is warmup-dominated, like real sensitivity
#: sweeps at screening fidelity: the warm-state reuse the pool provides
#: is exactly what separates the two arms.
EVENTS = 100
WARMUP = 12000
WORKERS = 2

SCHEMES = ["Baseline", "FGA", "Half-DRAM", "PRA", "SDS", "DBI+PRA"]
WORKLOADS = ["GUPS", "MIX1", "MIX2", "LinkedList"]
POLICIES = ["relaxed"]


def make_sweep() -> Sweep:
    sweep = Sweep(
        events_per_core=EVENTS,
        base_config=SystemConfig(cache=CacheConfig(llc_bytes=512 * 1024)),
        warmup_events_per_core=WARMUP,
    )
    sweep.add_axis("scheme", SCHEMES)
    sweep.add_axis("workload", WORKLOADS)
    sweep.add_axis("policy", POLICIES)
    return sweep


def test_sweep_pool_speedup():
    """Warm-pool sweep vs cold-spawn sweep on the same 24-point grid."""
    floor = float(os.environ.get("REPRO_SWEEP_SPEEDUP_FLOOR", "3.0"))
    points = len(SCHEMES) * len(WORKLOADS) * len(POLICIES)

    # Serial oracle (also the bit-identity reference for both arms).
    serial_rows = make_sweep().run()

    # Cold arm: a fresh spawn-start pool, start-up and close timed —
    # each worker is a fresh interpreter with empty caches, as in a
    # fresh CLI/CI invocation.  Parent caches are irrelevant to spawned
    # children but are cleared anyway so the arm never depends on test
    # order.
    SNAPSHOTS.clear()
    cold_sweep = make_sweep()
    t0 = time.perf_counter()
    with SimPool(workers=WORKERS, start_method="spawn") as pool:
        cold_rows = cold_sweep.run(pool=pool)
    cold_s = time.perf_counter() - t0

    # Warm arm: a persistent pool that has already served one batch
    # (the steady state of the benchmark session / repeated sweeps).
    with SimPool(workers=WORKERS) as pool:
        make_sweep().run(pool=pool)  # warms worker caches; untimed
        t0 = time.perf_counter()
        pooled_rows = make_sweep().run(pool=pool)
        pooled_s = time.perf_counter() - t0

    assert cold_rows == serial_rows
    assert pooled_rows == serial_rows
    speedup = cold_s / pooled_s

    print()
    print(f"=== Sweep service ({points} points, {WORKERS} workers) ===")
    print(f"  cold spawn     {cold_s:6.2f} s  ({points / cold_s:6.1f} points/s)")
    print(f"  warm pool      {pooled_s:6.2f} s  ({points / pooled_s:6.1f} points/s)")
    print(f"  speedup        {speedup:6.2f}x  (floor {floor}x)")

    update_results("_sweep", {
        "grid_points": points,
        "workers": WORKERS,
        "events_per_core": EVENTS,
        "warmup_events_per_core": WARMUP,
        "cold_spawn_seconds": round(cold_s, 3),
        "cold_spawn_points_per_second": round(points / cold_s, 2),
        "pooled_seconds": round(pooled_s, 3),
        "pooled_points_per_second": round(points / pooled_s, 2),
        "pooled_speedup": round(speedup, 2),
    })

    assert speedup >= floor


# -- Batched sweep (lane-parallel kernel) ------------------------------

#: Screening fidelity: a realistic full-size LLC and a handful of timed
#: events per point.  Here per-point overhead — cache construction,
#: warm-state restore, task IPC — dominates the wall time, which is
#: exactly the regime the batch kernel amortizes: one shared event loop,
#: copy-on-write snapshot restores, one task message per lane group.
BATCH_LLC_BYTES = 2 * 1024 * 1024
BATCH_EVENTS = 2
BATCH_REPEATS = 3


def make_batch_sweep() -> Sweep:
    sweep = Sweep(
        events_per_core=BATCH_EVENTS,
        base_config=SystemConfig(cache=CacheConfig(llc_bytes=BATCH_LLC_BYTES)),
        warmup_events_per_core=WARMUP,
    )
    sweep.add_axis("scheme", SCHEMES)
    sweep.add_axis("workload", WORKLOADS)
    sweep.add_axis("policy", POLICIES)
    return sweep


def _best_of(fn, repeats: int = BATCH_REPEATS) -> float:
    """Min wall time over ``repeats`` runs (standard jitter control)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_batch_sweep_speedup():
    """Batched sweep vs warm pool vs cold spawn on the 24-point grid."""
    floor = float(os.environ.get("REPRO_BATCH_SPEEDUP_FLOOR", "3.0"))
    points = len(SCHEMES) * len(WORKLOADS) * len(POLICIES)

    # Serial oracle: the bit-identity reference for every arm (also
    # builds the warm snapshots the in-process arms restore from).
    serial_rows = make_batch_sweep().run()

    # Cold arm: a fresh spawn-start pool, start-up and close timed,
    # exactly one run with no untimed warm-up — every worker pays
    # interpreter boot, imports and one warmup replay per fingerprint
    # it encounters.
    SNAPSHOTS.clear()
    t0 = time.perf_counter()
    with SimPool(workers=WORKERS, start_method="spawn") as pool:
        cold_rows = make_batch_sweep().run(pool=pool)
    cold_s = time.perf_counter() - t0
    make_batch_sweep().run()  # re-warm parent snapshots for the arms below

    # Warm-pool baseline: persistent SimPool in steady state.
    with SimPool(workers=WORKERS) as pool:
        make_batch_sweep().run(pool=pool)  # warms worker caches; untimed
        pooled_s = _best_of(lambda: make_batch_sweep().run(pool=pool))
        pooled_rows = make_batch_sweep().run(pool=pool)

    # Batched arm: the whole grid as one lane group through one shared
    # event loop, in-process.
    make_batch_sweep().run(batch=points)  # untimed: triggers lazy imports
    batch_s = _best_of(lambda: make_batch_sweep().run(batch=points))
    batch_rows = make_batch_sweep().run(batch=points)

    assert cold_rows == serial_rows
    assert pooled_rows == serial_rows
    assert batch_rows == serial_rows
    pool_speedup = pooled_s / batch_s
    cold_speedup = cold_s / batch_s

    print()
    print(f"=== Batched sweep ({points} points, batch={points}, "
          f"{BATCH_EVENTS} events/core, {BATCH_LLC_BYTES // 1024} KB LLC) ===")
    print(f"  cold spawn     {cold_s:6.2f} s  ({points / cold_s:6.1f} points/s)")
    print(f"  warm pool      {pooled_s:6.2f} s  ({points / pooled_s:6.1f} points/s)")
    print(f"  batched        {batch_s:6.2f} s  ({points / batch_s:6.1f} points/s)")
    print(f"  vs warm pool   {pool_speedup:6.2f}x  (floor {floor}x)")
    print(f"  vs cold spawn  {cold_speedup:6.2f}x  (floor 10x)")

    update_results("_batch", {
        "grid_points": points,
        "batch_lanes": points,
        "events_per_core": BATCH_EVENTS,
        "warmup_events_per_core": WARMUP,
        "llc_bytes": BATCH_LLC_BYTES,
        "workers": WORKERS,
        "cold_spawn_seconds": round(cold_s, 3),
        "cold_spawn_points_per_second": round(points / cold_s, 2),
        "pooled_seconds": round(pooled_s, 3),
        "pooled_points_per_second": round(points / pooled_s, 2),
        "batched_seconds": round(batch_s, 3),
        "batched_points_per_second": round(points / batch_s, 2),
        "batched_speedup_vs_pool": round(pool_speedup, 2),
        "batched_speedup_vs_cold": round(cold_speedup, 2),
    })

    assert pool_speedup >= floor
    assert cold_speedup >= 10.0
