"""Meta-benchmark: simulation throughput of the platform itself.

Not a paper figure — this is the classic pytest-benchmark use, tracking
how many DRAM commands and memory requests per second the pure-Python
simulator sustains, so performance regressions in the hot scheduling
paths show up in CI.

Two tests:

* ``test_simulator_throughput`` — the historical PRA+MIX2 measurement
  with a hard req/s floor (the regression tripwire);
* ``test_throughput_per_scheme`` — Baseline / PRA / SDS side by side,
  written to ``BENCH_throughput.json`` so CI can archive the numbers
  per commit (schemes stress different controller paths: Baseline has
  no mask bookkeeping, PRA adds masked ACTs and false-hit recovery,
  SDS exercises the write-I/O scaling without partial rows);
* ``test_construction_fast_path`` — System construction time cold
  (reference path: per-event trace iterators + replayed warmup) versus
  snapshot-restored (precompiled blocks + warm-state copy-in), also
  archived in ``BENCH_throughput.json``.

All sections are written through :mod:`bench_io`, which stamps the
``_env`` provenance (python/numpy, platform, git sha,
comparison fingerprint) into the snapshot; besides the best-of-N
headline (N = 3, stretched to 5 when the spread exceeds 15%), each
scheme records min/median/spread and ``reps_used`` so the trajectory
history captures measurement dispersion, not just the headline.
"""

import statistics
import time

import pytest

from bench_io import RESULTS_PATH, update_results  # noqa: F401 - re-exported
from repro.core.schemes import BASELINE, PRA, SDS
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.system import System
from repro.workloads.mixes import workload

EVENTS = 1500
#: Cache-warmup events per core.  2000 is enough to wake up dirty
#: evictions (DRAM write traffic) in the 512 KiB LLC used here while
#: keeping the measured run dominated by the scheduling hot path.
WARMUP = 2000

#: Per-scheme dispersion control: start at best-of-3 and take up to
#: two more reps when the spread exceeds the limit, so a noisy sample
#: window (measured 25%+ on SDS under a busy 1-core container) tightens
#: itself instead of polluting the trajectory history.
REPS_BASE = 3
REPS_MAX = 5
SPREAD_LIMIT_PCT = 15.0


def _spread_pct(rates):
    best, worst = max(rates), min(rates)
    return (best - worst) / worst * 100.0 if worst else 0.0


def one_run(scheme=PRA):
    config = SystemConfig(scheme=scheme, cache=CacheConfig(llc_bytes=512 * 1024))
    system = System(config, workload("MIX2"), EVENTS, warmup_events_per_core=WARMUP)
    result = system.run()
    return result.controller.total_served, result.runtime_cycles


def test_simulator_throughput(benchmark):
    served, cycles = benchmark.pedantic(one_run, rounds=3, iterations=1)
    seconds = benchmark.stats["mean"]
    print()
    print("=== Simulator throughput (PRA, MIX2, 4 cores) ===")
    print(f"  requests served      {served}")
    print(f"  simulated cycles     {cycles}")
    print(f"  wall time            {seconds:.2f} s per run")
    print(f"  requests / second    {served / seconds:,.0f}")
    print(f"  sim cycles / second  {cycles / seconds:,.0f}")
    assert served > 0
    # Floor set from measured history (best-of-N on a 1-core container):
    # seed engine ~4,700 req/s, event-engine rework ~8,300 req/s, the
    # array-backed core + burst-streak scheduling ~10,300 req/s, the
    # front-end fast path (array-backed caches + precompiled traces +
    # warm-state snapshots) ~12,000 req/s.  4000 leaves ~3x headroom
    # for slower CI machines while still catching a regression back to
    # per-cycle-scan behavior.
    assert served / seconds > 4000


@pytest.mark.parametrize("scheme", [BASELINE, PRA, SDS], ids=lambda s: s.name)
def test_throughput_per_scheme(scheme):
    """Best-of-N req/s per scheme (+ dispersion), archived as JSON.

    N adapts to the measurement: 3 reps normally, up to 5 when the
    best/min spread exceeds :data:`SPREAD_LIMIT_PCT` — extra reps are
    the cheap fix for a noisy window, and ``reps_used`` rides along so
    the history shows when a sample needed them.
    """
    rates = []
    served = cycles = 0
    while len(rates) < REPS_BASE or (
        _spread_pct(rates) > SPREAD_LIMIT_PCT and len(rates) < REPS_MAX
    ):
        t0 = time.perf_counter()
        served, cycles = one_run(scheme)
        elapsed = time.perf_counter() - t0
        rates.append(served / elapsed)
    best, worst = max(rates), min(rates)
    median = statistics.median(rates)
    spread_pct = _spread_pct(rates)
    print(f"\n  {scheme.name:<10} {best:,.0f} req/s best-of-{len(rates)} "
          f"(median {median:,.0f}, min {worst:,.0f}, "
          f"spread {spread_pct:.1f}%; {served} served, {cycles} cycles)")
    assert served > 0
    # Per-scheme tripwire, tighter than the main benchmark's: every
    # scheme sustains ~10-12k req/s on a 1-core container (the PRA
    # write path now rides the queue's per-row OR aggregates instead
    # of bucket walks), so 6000 still leaves ~2x headroom for slower
    # CI machines while catching any per-scheme regression.
    assert best > 6000

    # Dispersion rides along with the headline so the trajectory
    # history can tell a real regression from a noisy sample: a 25%
    # drop with a 3% spread is a regression; with a 40% spread it is a
    # flaky machine.
    update_results(scheme.name, {
        "requests_per_second_best": round(best),
        "requests_per_second_median": round(median),
        "requests_per_second_min": round(worst),
        "requests_per_second_spread_pct": round(spread_pct, 1),
        "reps_used": len(rates),
        "requests_served": served,
        "simulated_cycles": cycles,
        "events_per_core": EVENTS,
        "warmup_events_per_core": WARMUP,
        "workload": "MIX2",
    })


def _best_construction_ms(rounds, **system_kwargs):
    """Best-of-``rounds`` System construction wall time in ms."""
    config = SystemConfig(scheme=PRA, cache=CacheConfig(llc_bytes=512 * 1024))
    best = float("inf")
    system = None
    for _ in range(rounds):
        t0 = time.perf_counter()
        system = System(
            config,
            workload("MIX2"),
            EVENTS,
            warmup_events_per_core=WARMUP,
            **system_kwargs,
        )
        best = min(best, (time.perf_counter() - t0) * 1000.0)
    return best, system


def test_construction_fast_path():
    """Snapshot-restored construction must beat cold warmup >= 5x.

    ``cold`` is the pre-fast-path construction: per-event trace
    iterators and a replayed warmup (the reference path every sweep
    point used to pay).  ``restored`` is the default path once a warm
    snapshot exists: precompiled blocks plus state copy-in.  Both land
    in ``BENCH_throughput.json`` alongside the intermediate
    ``blocks_cached`` variant (blocks reused, warmup still replayed).
    """
    SNAPSHOTS.clear()
    cold_ms, _ = _best_construction_ms(
        3, precompiled_traces=False, use_snapshots=False
    )
    # Prime blocks + snapshot, then measure the two fast variants.
    System(
        SystemConfig(scheme=PRA, cache=CacheConfig(llc_bytes=512 * 1024)),
        workload("MIX2"),
        EVENTS,
        warmup_events_per_core=WARMUP,
    )
    blocks_ms, _ = _best_construction_ms(3, use_snapshots=False)
    restored_ms, system = _best_construction_ms(3)
    assert system.snapshot_restored, "warm snapshot should have been reused"
    speedup = cold_ms / restored_ms
    print()
    print("=== System construction (PRA, MIX2, 4 cores) ===")
    print(f"  cold (reference path)     {cold_ms:8.2f} ms")
    print(f"  blocks cached, warmed     {blocks_ms:8.2f} ms")
    print(f"  snapshot restored         {restored_ms:8.2f} ms")
    print(f"  cold / restored           {speedup:8.1f} x")
    # Acceptance floor: warm-state restore must save at least 5x over
    # replaying warmup (measured ~20x on the dev container).
    assert speedup >= 5.0

    update_results("_construction", {
        "cold_ms_best_of_3": round(cold_ms, 3),
        "blocks_cached_ms_best_of_3": round(blocks_ms, 3),
        "snapshot_restored_ms_best_of_3": round(restored_ms, 3),
        "cold_over_restored": round(speedup, 2),
        "events_per_core": EVENTS,
        "warmup_events_per_core": WARMUP,
        "workload": "MIX2",
    })
