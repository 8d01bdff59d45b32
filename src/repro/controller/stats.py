"""Controller-side statistics: row-buffer behaviour, traffic, latency.

These counters feed Table 1 (traffic and activation splits, hit rates),
Figure 10 (hit rates and false row-buffer hits under PRA) and
Figure 11 (activation-granularity proportions, together with the power
accountant's histogram).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

from repro.stats.histogram import LatencyHistogram


@dataclass(slots=True)
class KindStats:
    """Per-request-kind (read/write) counters."""

    served: int = 0
    row_hits: int = 0
    false_hits: int = 0
    activations: int = 0
    latency_sum: int = 0
    latency_max: int = 0
    #: Log-bucketed latency distribution (percentile queries).
    latency_hist: LatencyHistogram = field(default_factory=LatencyHistogram)

    @property
    def hit_rate(self) -> float:
        return self.row_hits / self.served if self.served else 0.0

    @property
    def false_hit_rate(self) -> float:
        return self.false_hits / self.served if self.served else 0.0

    def record_service(self, was_hit: bool, was_false: bool, latency: int) -> None:
        """Account one served request and its latency sample."""
        self.served += 1
        if was_hit:
            self.row_hits += 1
        if was_false:
            self.false_hits += 1
        self.latency_sum += latency
        if latency > self.latency_max:
            self.latency_max = latency
        self.latency_hist.record(latency)

    def record_services(self, latencies: Sequence[int], hits: int, falses: int) -> None:
        """Account a batch of served requests (one burst streak).

        Equivalent to ``len(latencies)`` calls to :meth:`record_service`
        with ``hits`` of them row hits and ``falses`` false hits, but
        with the counter updates and histogram inserts amortized over
        the batch.
        """
        self.served += len(latencies)
        self.row_hits += hits
        self.false_hits += falses
        self.latency_sum += sum(latencies)
        m = max(latencies)
        if m > self.latency_max:
            self.latency_max = m
        self.latency_hist.record_many(latencies)


@dataclass(slots=True)
class ControllerStats:
    """All counters for one channel controller."""

    reads: KindStats = field(default_factory=KindStats)
    writes: KindStats = field(default_factory=KindStats)
    #: Activations triggered by refresh-forced precharges etc.
    refreshes: int = 0
    drain_entries: int = 0
    precharges: int = 0
    power_down_entries: int = 0
    #: Extra activations caused by false row-buffer hits.
    false_hit_reactivations: int = 0
    #: Burst streaks committed (multi-command column batches) and the
    #: total column commands they covered; ``streak_commands /
    #: streaks`` is the mean streak length.
    streaks: int = 0
    streak_commands: int = 0
    #: Scheduling passes that got past the command-bus gate (one per
    #: ``ChannelController.step`` call that unpacked the hot arrays).
    #: Profiling-only: feeds the ``--profile`` phase table and the
    #: engine-identity digests, not the result summaries.
    sched_passes: int = 0

    def merge(self, other: "ControllerStats") -> None:
        """Accumulate another channel's counters into this one."""
        for mine, theirs in ((self.reads, other.reads), (self.writes, other.writes)):
            mine.served += theirs.served
            mine.row_hits += theirs.row_hits
            mine.false_hits += theirs.false_hits
            mine.activations += theirs.activations
            mine.latency_sum += theirs.latency_sum
            mine.latency_max = max(mine.latency_max, theirs.latency_max)
            mine.latency_hist.merge(theirs.latency_hist)
        self.refreshes += other.refreshes
        self.drain_entries += other.drain_entries
        self.precharges += other.precharges
        self.power_down_entries += other.power_down_entries
        self.false_hit_reactivations += other.false_hit_reactivations
        self.streaks += other.streaks
        self.streak_commands += other.streak_commands
        self.sched_passes += other.sched_passes

    # ------------------------------------------------------------------
    # Derived metrics used by the experiment harness
    # ------------------------------------------------------------------
    @property
    def total_served(self) -> int:
        return self.reads.served + self.writes.served

    @property
    def total_hits(self) -> int:
        return self.reads.row_hits + self.writes.row_hits

    @property
    def total_hit_rate(self) -> float:
        total = self.total_served
        return self.total_hits / total if total else 0.0

    @property
    def total_activations(self) -> int:
        return self.reads.activations + self.writes.activations

    def traffic_split(self) -> Dict[str, float]:
        """Read/write shares of memory traffic (Table 1)."""
        total = self.total_served
        if not total:
            return {"read": 0.0, "write": 0.0}
        return {
            "read": self.reads.served / total,
            "write": self.writes.served / total,
        }

    def activation_split(self) -> Dict[str, float]:
        """Read/write shares of row activations (Table 1)."""
        total = self.total_activations
        if not total:
            return {"read": 0.0, "write": 0.0}
        return {
            "read": self.reads.activations / total,
            "write": self.writes.activations / total,
        }
