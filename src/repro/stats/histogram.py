"""Log-bucketed histograms for latency distributions.

Memory-request latencies span orders of magnitude (a row hit costs
~15 ns; a request stuck behind a refresh and a write drain costs
microseconds), so buckets grow geometrically.  The histogram supports
percentile queries with linear interpolation inside a bucket — enough
resolution for p50/p95/p99 comparisons between schemes at negligible
memory cost.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple


class LatencyHistogram:
    """Geometric-bucket histogram over non-negative integer samples."""

    def __init__(self, base: float = 1.3, max_buckets: int = 64) -> None:
        if base <= 1.0:
            raise ValueError("bucket growth base must exceed 1")
        if max_buckets < 4:
            raise ValueError("need at least 4 buckets")
        self.base = base
        self.max_buckets = max_buckets
        self._counts: List[int] = [0] * max_buckets
        self.samples = 0
        self.total = 0
        self.min_value: int = 0
        self.max_value: int = 0
        self._log_base = math.log(base)
        #: Bucket of each latency seen so far: runs repeat a few hundred
        #: distinct latencies, so each pays :meth:`_bucket` once.
        self._bucket_of: Dict[int, int] = {}

    def _bucket(self, value: int) -> int:
        if value <= 1:
            return 0
        idx = int(math.log(value) / self._log_base)
        return min(idx, self.max_buckets - 1)

    def _bucket_bounds(self, idx: int) -> Tuple[float, float]:
        if idx == 0:
            return (0.0, self.base)
        return (self.base ** idx, self.base ** (idx + 1))

    # ------------------------------------------------------------------
    def record(self, value: int) -> None:
        """Add one non-negative sample."""
        if value < 0:
            raise ValueError("latency samples must be non-negative")
        if self.samples == 0:
            self.min_value = self.max_value = value
        elif value < self.min_value:
            self.min_value = value
        elif value > self.max_value:
            self.max_value = value
        self.samples += 1
        self.total += value
        idx = self._bucket_of.get(value)
        if idx is None:
            idx = self._bucket_of[value] = self._bucket(value)
        self._counts[idx] += 1

    def record_many(self, values: Iterable[int]) -> None:
        """Add a batch of non-negative samples.

        Equivalent to calling :meth:`record` on each value, but the
        min/max/total updates are computed once per batch: the burst
        streak commit in the controller records a whole streak's
        latencies through this path.  Validation happens before any
        state is touched, so a bad batch leaves the histogram unchanged.
        """
        vals = values if isinstance(values, list) else list(values)
        if not vals:
            return
        lo = min(vals)
        if lo < 0:
            raise ValueError("latency samples must be non-negative")
        hi = max(vals)
        if self.samples == 0:
            self.min_value, self.max_value = lo, hi
        else:
            if lo < self.min_value:
                self.min_value = lo
            if hi > self.max_value:
                self.max_value = hi
        self.samples += len(vals)
        self.total += sum(vals)
        counts = self._counts
        bucket_of = self._bucket_of
        for value in vals:
            idx = bucket_of.get(value)
            if idx is None:
                idx = bucket_of[value] = self._bucket(value)
            counts[idx] += 1

    def extend(self, values: Iterable[int]) -> None:
        self.record_many(values)

    def merge(self, other: "LatencyHistogram") -> None:
        """Absorb another histogram of identical shape."""
        if other.base != self.base or other.max_buckets != self.max_buckets:
            raise ValueError("histogram shapes must match to merge")
        if other.samples == 0:
            return
        if self.samples == 0:
            self.min_value, self.max_value = other.min_value, other.max_value
        else:
            self.min_value = min(self.min_value, other.min_value)
            self.max_value = max(self.max_value, other.max_value)
        self.samples += other.samples
        self.total += other.total
        for idx, count in enumerate(other._counts):
            self._counts[idx] += count

    # ------------------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    def percentile(self, p: float) -> float:
        """p in [0, 100]; interpolated within the containing bucket."""
        if not 0.0 <= p <= 100.0:
            raise ValueError("percentile must be within [0, 100]")
        if self.samples == 0:
            return 0.0
        if p == 0:
            return float(self.min_value)
        target = self.samples * p / 100.0
        cumulative = 0
        result = float(self.max_value)
        for idx, count in enumerate(self._counts):
            if count == 0:
                continue
            if cumulative + count >= target:
                lo, hi = self._bucket_bounds(idx)
                lo = max(lo, float(self.min_value))
                hi = min(hi, float(self.max_value) + 1.0)
                if hi <= lo:
                    result = lo
                else:
                    within = (target - cumulative) / count
                    result = lo + within * (hi - lo)
                break
            cumulative += count
        # Interpolation may poke past the observed extremes; clamp.
        return min(max(result, float(self.min_value)), float(self.max_value))

    def summary(self) -> Dict[str, float]:
        """Count, mean and key percentiles as a flat dict."""
        return {
            "samples": float(self.samples),
            "mean": self.mean,
            "min": float(self.min_value),
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": float(self.max_value),
        }
