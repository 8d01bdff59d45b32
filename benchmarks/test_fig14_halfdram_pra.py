"""Figure 14: PRA combined with Half-DRAM (restricted close-page).

The combined scheme stacks PRA's masked write activation on top of
Half-DRAM's vertically split MATs: writes open g/16 of a row, reads
half a row.  The paper reports synergy on every metric versus either
scheme alone, evaluated under the restricted close-page policy (with
line-interleaved mapping), where relaxed tRRD/tFAW matter most.
"""

import pytest

from paper_grid import WORKLOAD_ORDER
from repro.sim.metrics import mean

POLICY = "restricted"
SCHEMES = ("Half-DRAM", "PRA", "Half-DRAM+PRA")


def test_fig14_halfdram_pra(benchmark, grid_of):
    grid = grid_of(
        "restricted-base", "restricted-pra", "restricted-half", "alone-restricted"
    )

    def run_all():
        means = {}
        for scheme in SCHEMES:
            power, perf, energy, edp = [], [], [], []
            for name in WORKLOAD_ORDER:
                power.append(grid.ratio("total_power_mw", name, scheme, POLICY))
                perf.append(grid.performance(name, scheme, POLICY))
                energy.append(grid.ratio("energy_mj", name, scheme, POLICY))
                edp.append(grid.ratio("edp", name, scheme, POLICY))
            means[scheme] = {
                "power": mean(power),
                "perf": mean(perf),
                "energy": mean(energy),
                "edp": mean(edp),
            }
        return means

    means = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("=== Figure 14: Half-DRAM + PRA (restricted close-page, mean of 14) ===")
    print(f"{'scheme':<16}{'power':>8}{'perf':>8}{'energy':>8}{'EDP':>8}")
    for name, m in means.items():
        print(f"{name:<16}{m['power']:>8.3f}{m['perf']:>8.3f}{m['energy']:>8.3f}{m['edp']:>8.3f}")

    combo = means["Half-DRAM+PRA"]
    half = means["Half-DRAM"]
    pra = means["PRA"]

    # Synergy: the combined scheme saves more power/energy than either.
    assert combo["power"] < half["power"]
    assert combo["power"] < pra["power"]
    assert combo["energy"] < half["energy"]
    assert combo["energy"] < pra["energy"]
    assert combo["edp"] < pra["edp"]
    # Nobody loses significant performance under restricted close-page.
    for m in means.values():
        assert m["perf"] > 0.93
    # All schemes save power versus the restricted baseline.
    for m in means.values():
        assert m["power"] < 1.0
