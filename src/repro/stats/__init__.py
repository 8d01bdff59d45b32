"""Statistics utilities: latency histograms and ASCII reporting."""

from repro.stats.histogram import LatencyHistogram
from repro.stats.report import bar, format_breakdown

__all__ = [
    "bar",
    "format_breakdown",
    "LatencyHistogram",
]
