"""Figure 13: normalized performance (weighted speedup), DRAM energy
and energy-delay product for FGA, Half-DRAM and PRA.

Paper averages: PRA performance -0.8% (worst -4.8%), Half-DRAM +0.3%,
FGA -14%; PRA energy 0.77 and EDP 0.78, the best of the three.
"""

import pytest

from paper_grid import WORKLOAD_ORDER
from repro.sim.metrics import mean

SCHEMES = ("FGA", "Half-DRAM", "PRA")


def test_fig13_perf_energy_edp(benchmark, grid_of):
    grid = grid_of(
        "relaxed-base", "relaxed-pra", "relaxed-fga-half", "alone-relaxed"
    )

    def run_all():
        rows = {}
        for name in WORKLOAD_ORDER:
            rows[name] = {
                scheme: {
                    "perf": grid.performance(name, scheme),
                    "energy": grid.ratio("energy_mj", name, scheme),
                    "edp": grid.ratio("edp", name, scheme),
                }
                for scheme in SCHEMES
            }
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for metric in ("perf", "energy", "edp"):
        print()
        print(f"=== Figure 13 ({metric}, normalized to baseline) ===")
        print(f"{'workload':<12}" + "".join(f"{s:>11}" for s in SCHEMES))
        for name, per_scheme in rows.items():
            print(f"{name:<12}" + "".join(
                f"{per_scheme[s][metric]:>11.3f}" for s in SCHEMES))
        means = {
            s: mean([rows[w][s][metric] for w in rows])
            for s in SCHEMES
        }
        print(f"{'average':<12}" + "".join(f"{means[s]:>11.3f}" for s in SCHEMES))

    perf = {s: mean([rows[w][s]["perf"] for w in rows]) for s in SCHEMES}
    energy = {s: mean([rows[w][s]["energy"] for w in rows]) for s in SCHEMES}
    edp = {s: mean([rows[w][s]["edp"] for w in rows]) for s in SCHEMES}
    print()
    print(f"paper: perf FGA 0.86 / Half 1.003 / PRA 0.992;"
          f" energy PRA 0.77; EDP PRA 0.78")

    # PRA: almost no performance loss.
    assert 0.94 < perf["PRA"] < 1.03
    # Half-DRAM: neutral-to-slightly-positive performance.
    assert 0.96 < perf["Half-DRAM"] < 1.05
    # FGA: significant performance loss (larger here than the paper's
    # 14% because our cores saturate the bus; see module docstring).
    assert perf["FGA"] < 0.9
    # Energy: PRA best, in the paper's band; FGA worst (bandwidth loss
    # cancels its activation saving).
    assert 0.68 < energy["PRA"] < 0.88
    assert energy["PRA"] < energy["Half-DRAM"] < energy["FGA"]
    # EDP: PRA best of the three (paper: -22% average).
    assert edp["PRA"] < edp["Half-DRAM"]
    assert edp["PRA"] < edp["FGA"]
    assert 0.65 < edp["PRA"] < 0.92
