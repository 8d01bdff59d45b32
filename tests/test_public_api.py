"""Public API surface: the names README and examples rely on exist.

Guards the package boundary: downstream code imports these symbols, so
renames or dropped exports must fail loudly here rather than in user
code.
"""

import importlib

import pytest

TOP_LEVEL = [
    "ALL_WORKLOADS",
    "BASELINE",
    "BENCHMARKS",
    "DBI",
    "DBI_PRA",
    "FGA",
    "HALF_DRAM",
    "HALF_DRAM_PRA",
    "PRA",
    "PRAMask",
    "RowPolicy",
    "Scheme",
    "simulate",
    "SimResult",
    "System",
    "SystemConfig",
    "workload",
    "Workload",
]

SUBPACKAGE_EXPORTS = {
    "repro.core": ["PRA_DM", "SDSComparator", "covers", "merge", "popcount"],
    "repro.dram": ["AddressMapper", "Channel", "DDR3_1600", "Rank"],
    "repro.dram.protocol": ["CommandRecord", "ProtocolChecker", "ProtocolViolation"],
    "repro.controller": ["ChannelController", "RequestQueue", "ROW_HIT_CAP"],
    "repro.cache": ["CacheHierarchy", "DirtyBlockIndex", "SetAssociativeCache"],
    "repro.cpu": ["Core", "TraceEvent", "weighted_speedup"],
    "repro.workloads": [
        "ALONE_WORKLOADS",
        "FileTraceWorkload",
        "PhasedGenerator",
        "TraceBlocks",
        "TraceGenerator",
        "compiled_trace",
        "load_trace",
        "save_trace",
    ],
    "repro.power": ["DDR3_1600_POWER", "PowerAccountant", "TABLE3_ACT_MW"],
    "repro.sim": [
        "EpochSampler",
        "Grid",
        "SNAPSHOTS",
        "SnapshotCache",
        "Sweep",
        "validate_result",
    ],
    "repro.stats": ["LatencyHistogram", "format_table"],
}


def test_top_level_exports():
    repro = importlib.import_module("repro")
    for name in TOP_LEVEL:
        assert hasattr(repro, name), f"repro.{name} missing"
        assert name in repro.__all__, f"repro.{name} not in __all__"


@pytest.mark.parametrize("module_name", sorted(SUBPACKAGE_EXPORTS))
def test_subpackage_exports(module_name):
    module = importlib.import_module(module_name)
    for name in SUBPACKAGE_EXPORTS[module_name]:
        assert hasattr(module, name), f"{module_name}.{name} missing"


def test_version_string():
    import repro

    assert repro.__version__.count(".") == 2


def test_cli_entry_point():
    from repro.cli import main

    assert callable(main)
