"""Read-latency distribution: why PRA barely hurts performance.

Supporting evidence for Figure 13(a): PRA's overheads (the +1 tCK mask
cycle, rare false hits, the occasional extra activation) land on
*writes*, which are posted; the read-latency distribution — what IPC
actually depends on — is nearly unchanged.
"""

import pytest



def test_latency_distribution(benchmark, grid_of):
    grid = grid_of("relaxed-base", "relaxed-pra")

    def run_all():
        rows = {}
        for name in ("GUPS", "lbm", "MIX1"):
            rows[name] = (grid.row(name, "Baseline"), grid.row(name, "PRA"))
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("=== Read-latency percentiles (cycles), baseline vs PRA ===")
    print(f"{'workload':<10}{'p50 b/p':>16}{'p95 b/p':>16}{'p99 b/p':>18}")
    for name, (base, pra) in rows.items():
        print(
            f"{name:<10}"
            f"{base['read_latency_p50']:>8.0f}{pra['read_latency_p50']:>8.0f}"
            f"{base['read_latency_p95']:>8.0f}{pra['read_latency_p95']:>8.0f}"
            f"{base['read_latency_p99']:>9.0f}{pra['read_latency_p99']:>9.0f}"
        )

    for name, (base, pra) in rows.items():
        # Medians move by at most ~15% in either direction.
        assert pra["read_latency_p50"] <= base["read_latency_p50"] * 1.15, name
        assert pra["read_latency_p50"] >= base["read_latency_p50"] * 0.8, name
        # Tails stay the same order of magnitude.
        assert pra["read_latency_p99"] <= base["read_latency_p99"] * 1.6, name
        # Physical floor: a read cannot beat CAS + burst.
        assert base["read_latency_min"] >= 15
        assert pra["read_latency_min"] >= 15
