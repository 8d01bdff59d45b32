"""Latency histograms and ASCII report helpers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.histogram import LatencyHistogram
from repro.stats.report import bar, format_breakdown


class TestHistogramBasics:
    def test_empty(self):
        h = LatencyHistogram()
        assert h.samples == 0
        assert h.mean == 0.0
        assert h.percentile(50) == 0.0

    def test_single_sample(self):
        h = LatencyHistogram()
        h.record(37)
        assert h.samples == 1
        assert h.mean == 37
        assert h.min_value == h.max_value == 37
        assert h.percentile(0) == 37

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_bad_base_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(base=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram(max_buckets=2)

    def test_percentile_bounds_checked(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_summary_keys(self):
        h = LatencyHistogram()
        h.extend([10, 20, 30])
        summary = h.summary()
        assert summary["samples"] == 3
        assert summary["mean"] == pytest.approx(20)
        assert {"p50", "p95", "p99", "min", "max"} <= set(summary)


class TestHistogramAccuracy:
    @given(st.lists(st.integers(min_value=0, max_value=100_000), min_size=5,
                    max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_percentiles_within_bucket_error(self, values):
        h = LatencyHistogram()
        h.extend(values)
        exact = sorted(values)
        n = len(exact)
        for p in (50, 95):
            approx = h.percentile(p)
            lo_ref = exact[max(0, (n * p) // 100 - 1)]
            hi_ref = exact[min(n - 1, -(-(n * p) // 100))]
            # Geometric buckets: relative error bounded by the base,
            # plus slack for tiny absolute values.
            assert approx <= hi_ref * 1.4 + 3
            assert approx >= lo_ref / 1.4 - 3

    @given(st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                    max_size=200),
           st.lists(st.integers(min_value=0, max_value=100_000), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_memoized_buckets_match_bucket_function(self, repeats, spread):
        """``record`` and ``record_many`` look each latency's bucket up
        once; the counts, minimum and maximum stay those ``_bucket``
        and ``min``/``max`` give."""
        values = repeats + spread + repeats
        expected = [0] * LatencyHistogram().max_buckets
        for value in values:
            expected[LatencyHistogram()._bucket(value)] += 1
        one_by_one, batched = LatencyHistogram(), LatencyHistogram()
        for value in values:
            one_by_one.record(value)
        batched.record_many(values[:7])
        batched.record_many(values[7:])
        for h in (one_by_one, batched):
            assert h._counts == expected
            assert (h.min_value, h.max_value) == (min(values), max(values))
            assert (h.samples, h.total) == (len(values), sum(values))

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_mean_exact_and_percentiles_monotone(self, values):
        h = LatencyHistogram()
        h.extend(values)
        assert h.mean == pytest.approx(sum(values) / len(values))
        ps = [h.percentile(p) for p in (0, 25, 50, 75, 95, 100)]
        assert ps == sorted(ps)
        assert h.min_value <= ps[0]
        assert ps[-1] <= h.max_value

    def test_merge_equals_combined(self):
        a, b, combined = LatencyHistogram(), LatencyHistogram(), LatencyHistogram()
        xs, ys = [5, 100, 2000], [1, 50, 50, 9999]
        a.extend(xs)
        b.extend(ys)
        combined.extend(xs + ys)
        a.merge(b)
        assert a.samples == combined.samples
        assert a.total == combined.total
        assert a.percentile(50) == combined.percentile(50)

    def test_merge_shape_mismatch(self):
        a = LatencyHistogram(base=1.3)
        b = LatencyHistogram(base=1.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_into_empty(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        b.extend([7, 8])
        a.merge(b)
        assert a.samples == 2
        assert a.min_value == 7


class TestBar:
    def test_full_and_partial(self):
        assert bar(10, 10, width=10) == "#" * 10
        assert bar(5, 10, width=10) == "#" * 5

    def test_clamps_overflow(self):
        assert bar(100, 10, width=10) == "#" * 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            bar(1, 0)


class TestTables:
    def test_format_breakdown(self):
        text = format_breakdown({"act_pre": 0.25, "bg": 0.75}, width=8)
        assert "act_pre" in text
        assert "25.0%" in text


class TestControllerIntegration:
    def test_latency_histogram_populated_by_runs(self):
        from repro.sim.config import CacheConfig, SystemConfig
        from repro.sim.system import simulate
        from repro.workloads.mixes import workload

        config = SystemConfig(cache=CacheConfig(llc_bytes=128 * 1024))
        result = simulate(config, workload("GUPS"), 600,
                          warmup_events_per_core=1500)
        hist = result.controller.reads.latency_hist
        assert hist.samples == result.controller.reads.served
        assert hist.percentile(50) > 15  # at least ACT+CAS+burst
        assert hist.max_value == result.controller.reads.latency_max
