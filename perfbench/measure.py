"""Shared helpers: statistics, memory, output checks and cache resets."""

from __future__ import annotations

import heapq
import json
import math
import resource
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, Iterator, List, Tuple, TypeVar

import repro.sim.sweep as sweep_module
import repro.workloads.synthetic as synthetic
from repro.sim.results import SimResult
from repro.sim.snapshot import SNAPSHOTS

#: Wall clock: run lengths, and timings of work spread over processes.
clock = time.perf_counter
#: CPU time of this process, for work done in it: on a shared host the
#: wall clock also counts time the machine gives to other tenants.
cpu_clock = time.process_time

#: Cold set-ups per untraced run, spread over its timed region.
SET_UPS = 4
#: Reference-loop chunks run per second of timed work (a chunk takes
#: about half a millisecond, so the loop costs under 3% of a run).
REFERENCE_RATE = 50
#: CPU seconds of one reference chunk at full speed: the fastest tenth
#: of its times under CPython 3.11 on a 2-vCPU Xeon virtual machine.
#: Times scaled by it are seconds on that machine running unhindered.
REFERENCE_CHUNK_S = 0.33e-3

#: Metric name -> (value, unit).
Metrics = Dict[str, Tuple[float, str]]
T = TypeVar("T")


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q / 100.0 * len(ordered))) - 1]


def ratio(part: float, whole: float) -> float:
    """``part / whole``, or 0.0 when nothing was measured."""
    return part / whole if whole else 0.0


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set of this process or, with ``children``, of its
    largest reaped descendant (Linux reports KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def clear_caches() -> None:
    """Forget in-process warm snapshots and compiled trace blocks, so the
    next set-up pays trace compile, warmup replay and capture again."""
    SNAPSHOTS.clear()
    synthetic._BLOCK_CACHE.clear()


class _Item:
    """A record the reference loop updates."""

    __slots__ = ("key", "value", "links")

    def __init__(self, key: int) -> None:
        self.key = key
        self.value = key * 3
        self.links = [key & 7] * 4


def reference_chunk() -> int:
    """A fixed pure-Python computation sharing no code with the program:
    attribute, list, dict and heap traffic like a simulator's inner loop."""
    items = [_Item(i) for i in range(64)]
    counts: Dict[int, int] = {}
    heap: List[Tuple[int, int]] = []
    total = 0
    for i in range(400):
        item = items[(i * 37) & 63]
        if i & 1:
            item.key += item.links[i & 3]
        else:
            item.value ^= i
        total += item.key + item.value
        slot = (i * 2654435761) & 255
        counts[slot] = counts.get(slot, 0) + 1
        heapq.heappush(heap, (total & 1023, i))
        if len(heap) > 32:
            heapq.heappop(heap)
    return total


class HostSpeed:
    """How fast the host ran this process, from a reference loop.

    On a shared virtual machine other tenants slow the CPUs by up to a
    half, in spells of milliseconds whose share of the time drifts over
    minutes (and at times for a whole run), so the CPU time of the same
    work moves by a third from one run to the next.  A fixed reference
    loop, run in short chunks between the timed operations, meets the
    same spells; its mean chunk time against :data:`REFERENCE_CHUNK_S`
    is the speed the run got, and :meth:`full_speed` scales the run's
    CPU seconds by it.  The loop shares no code with the program, so a
    change in the program's own speed still shows in full.

    Only work done in this process is scaled.  Chunks run by the
    ``service`` workload's client between its calls did not track the
    wall times of the service's own processes, so it reports those as
    measured.
    """

    def __init__(self) -> None:
        self.chunks: List[float] = []

    def sample(self, work_s: float) -> None:
        """Reference chunks in proportion to ``work_s`` seconds of work."""
        for _ in range(max(1, round(work_s * REFERENCE_RATE))):
            start = cpu_clock()
            reference_chunk()
            self.chunks.append(cpu_clock() - start)

    def timed(self, fn: Callable[[], T]) -> Tuple[float, T]:
        """``fn()``'s CPU seconds and result, then reference chunks."""
        start = cpu_clock()
        result = fn()
        elapsed = cpu_clock() - start
        self.sample(elapsed)
        return elapsed, result

    def speed(self) -> float:
        """The run's speed as a share of the reference machine's full speed."""
        return REFERENCE_CHUNK_S / statistics.fmean(self.chunks)

    def full_speed(self, seconds: float) -> float:
        return seconds * self.speed()

    def report(self) -> str:
        return (
            f"host: ran at {100 * self.speed():.1f}% of full speed (reference loop: "
            f"{len(self.chunks)} chunks, mean {1e3 * statistics.fmean(self.chunks):.3f} CPU ms, "
            f"fastest tenth {1e3 * percentile(self.chunks, 10):.3f}, "
            f"full speed {1e3 * REFERENCE_CHUNK_S:.3f})"
        )


def timed_set_up(steps: List[Callable[[], None]], host: HostSpeed) -> List[float]:
    """CPU seconds of each set-up step, run in order from cold caches."""
    clear_caches()
    return [host.timed(step)[0] for step in steps]


def set_ups_and_slices(steps: List[Callable[[], None]], seconds: float,
                       op: Callable[[], None], host: HostSpeed) -> List[List[float]]:
    """:data:`SET_UPS` cold set-ups, each followed by a timed slice of
    ``seconds / SET_UPS`` in which ``op`` runs at least once; returns
    the steps' CPU seconds, one list per set-up.

    Spreading both over the whole run gives set-up and timed work the
    same mix of the host's fast and slow spells, which ``host`` meets too.
    """
    set_ups = []
    for _ in range(SET_UPS):
        set_ups.append(timed_set_up(steps, host))
        deadline = clock() + seconds / SET_UPS
        op()
        while clock() < deadline:
            op()
    return set_ups


def setup_seconds(set_ups: List[List[float]], host: HostSpeed) -> float:
    """``setup_s``: the set-ups' mean CPU seconds at full speed."""
    return host.full_speed(statistics.fmean(sum(times) for times in set_ups))


def result_digest(result: SimResult) -> str:
    """Canonical JSON of everything a run reports, for identity checks.

    Scheduling passes are left out: the strict-polling oracle may probe
    a controller more often without changing any result.
    """
    ctrl = result.controller
    kinds = {
        kind: [s.served, s.row_hits, s.false_hits, s.activations,
               s.latency_sum, s.latency_max]
        for kind, s in (("reads", ctrl.reads), ("writes", ctrl.writes))
    }
    counters = [
        ctrl.refreshes, ctrl.drain_entries, ctrl.precharges,
        ctrl.power_down_entries, ctrl.false_hit_reactivations,
        ctrl.streaks, ctrl.streak_commands,
    ]
    payload = {"result": result.to_dict(), "kinds": kinds, "counters": counters}
    return json.dumps(payload, sort_keys=True)


@dataclass
class SimTotals:
    """Deterministic work counts summed over simulation results."""

    served: int = 0
    writes: int = 0
    sched_passes: int = 0
    streaks: int = 0
    streak_commands: int = 0
    llc_hits: int = 0
    llc_misses: int = 0
    dbi_writebacks: int = 0

    def add(self, result: SimResult) -> None:
        ctrl = result.controller
        self.served += ctrl.total_served
        self.writes += ctrl.writes.served
        self.sched_passes += ctrl.sched_passes
        self.streaks += ctrl.streaks
        self.streak_commands += ctrl.streak_commands
        self.llc_hits += result.llc.hits
        self.llc_misses += result.llc.misses
        self.dbi_writebacks += result.dbi_proactive_writebacks

    @property
    def write_share(self) -> float:
        return ratio(self.writes, self.served)


@contextmanager
def captured_results() -> Iterator[List[SimResult]]:
    """Collect the result behind every ``_run_point`` row built inside.

    ``repro.sim.sweep._run_point`` resolves ``simulate`` as a global of
    its module; rebinding it there for the duration hands each result
    to the oracle pass (for DRAM request counts) while the row is built
    exactly as usual.
    """
    results: List[SimResult] = []
    original = sweep_module.simulate

    def capture(*args: Any, **kwargs: Any) -> SimResult:
        result = original(*args, **kwargs)
        results.append(result)
        return result

    sweep_module.simulate = capture
    try:
        yield results
    finally:
        sweep_module.simulate = original


class Checks:
    """Operations attempted and failed, with the first few failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def record(self, ok: bool, note: str, count: int = 1) -> None:
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 5:
                self.notes.append(note)


@dataclass
class Outcome:
    """One workload's metrics, output checks and report lines."""

    metrics: Metrics
    checks: Checks
    lines: List[str] = field(default_factory=list)
