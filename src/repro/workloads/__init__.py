"""Workload substrate: calibrated benchmark profiles, generators, mixes."""

from repro.workloads.mixes import (
    ALL_WORKLOADS,
    ALONE_WORKLOADS,
    MIX1,
    MIX2,
    MIX3,
    MIX4,
    MIX5,
    MIX6,
    MIXES,
    Workload,
    homogeneous,
    workload,
)
from repro.workloads.phased import Phase, PhasedGenerator, phased_workload_name
from repro.workloads.profiles import BENCHMARKS, BenchmarkProfile, profile
from repro.workloads.synthetic import (
    REGION_LINES,
    TraceBlocks,
    TraceGenerator,
    compiled_trace,
    generate,
)
from repro.workloads.trace_io import (
    FileTraceWorkload,
    iter_trace,
    load_trace,
    save_trace,
)

__all__ = [
    "ALL_WORKLOADS",
    "ALONE_WORKLOADS",
    "BenchmarkProfile",
    "BENCHMARKS",
    "compiled_trace",
    "FileTraceWorkload",
    "generate",
    "iter_trace",
    "load_trace",
    "save_trace",
    "homogeneous",
    "MIX1",
    "MIX2",
    "MIX3",
    "MIX4",
    "MIX5",
    "MIX6",
    "MIXES",
    "Phase",
    "PhasedGenerator",
    "phased_workload_name",
    "profile",
    "REGION_LINES",
    "TraceBlocks",
    "TraceGenerator",
    "Workload",
    "workload",
]
