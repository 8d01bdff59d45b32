"""System assembly, configuration, sweeps, results and paper metrics."""

from repro.sim.config import (
    CacheConfig,
    ControllerConfig,
    CoreConfig,
    SystemConfig,
)
from repro.sim.metrics import Grid, mean
from repro.sim.results import CoreResult, SimResult
from repro.sim.sampling import EpochSample, EpochSampler, EpochSeries
from repro.sim.snapshot import SNAPSHOTS, SnapshotCache, WarmSnapshot
from repro.sim.sweep import Sweep
from repro.sim.system import OVERFLOW_STALL_THRESHOLD, System, simulate
from repro.sim.validate import ValidationError, validate_result

__all__ = [
    "CacheConfig",
    "ControllerConfig",
    "CoreConfig",
    "CoreResult",
    "EpochSample",
    "EpochSampler",
    "EpochSeries",
    "Grid",
    "mean",
    "OVERFLOW_STALL_THRESHOLD",
    "simulate",
    "SimResult",
    "SNAPSHOTS",
    "SnapshotCache",
    "Sweep",
    "WarmSnapshot",
    "System",
    "SystemConfig",
    "ValidationError",
    "validate_result",
]
