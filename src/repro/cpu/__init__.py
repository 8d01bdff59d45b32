"""CPU substrate: trace format, bounded-MLP cores, CMP metrics."""

from repro.cpu.core_model import NEVER, Core
from repro.cpu.metrics import weighted_speedup
from repro.cpu.trace import TraceEvent, materialize, pack_events, total_instructions

__all__ = [
    "Core",
    "materialize",
    "NEVER",
    "pack_events",
    "TraceEvent",
    "total_instructions",
    "weighted_speedup",
]
