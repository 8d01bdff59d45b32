"""CPU substrate: trace format, bounded-MLP cores, CMP metrics."""

from repro.cpu.core_model import NEVER, Core
from repro.cpu.metrics import (
    energy_delay_product,
    normalized_performance,
    weighted_speedup,
)
from repro.cpu.trace import TraceEvent, materialize, pack_events, total_instructions

__all__ = [
    "Core",
    "energy_delay_product",
    "materialize",
    "NEVER",
    "normalized_performance",
    "pack_events",
    "TraceEvent",
    "total_instructions",
    "weighted_speedup",
]
