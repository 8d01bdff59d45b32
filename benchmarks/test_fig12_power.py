"""Figure 12: normalized DRAM row-activation, I/O, and total power for
FGA, Half-DRAM and PRA across the 14 workloads.

Paper averages: PRA activation power 0.66 (up to 0.57), PRA I/O power
0.55 (up to 0.42), PRA total power 0.77 (up to 0.68); FGA and Half-DRAM
save more activation power than PRA (half-row for reads *and* writes)
but nothing on I/O, so PRA wins on total power.

Known divergence (see EXPERIMENTS.md): our trace-driven cores stress
bandwidth harder than the paper's gem5 cores, so FGA's runtime
inflation — and therefore its *average-power* deflation — is larger
than in the paper; the energy comparison (Fig. 13) is the
runtime-independent view.
"""

import pytest

from paper_grid import WORKLOAD_ORDER
from repro.sim.metrics import mean

SCHEMES = ("FGA", "Half-DRAM", "PRA")


def test_fig12_power(benchmark, grid_of):
    grid = grid_of("relaxed-base", "relaxed-pra", "relaxed-fga-half")

    def run_all():
        rows = {}
        for name in WORKLOAD_ORDER:
            per_scheme = {}
            for scheme in SCHEMES:
                per_scheme[scheme] = {
                    "act": grid.ratio("act_pre_mw", name, scheme),
                    "io": _io_ratio(name, scheme),
                    "total": grid.ratio("total_power_mw", name, scheme),
                }
            rows[name] = per_scheme
        return rows

    def _io_ratio(name, scheme):
        r = grid.row(name, scheme)
        b = grid.row(name, "Baseline")
        return (r["rd_io_mw"] + r["wr_io_mw"]) / (b["rd_io_mw"] + b["wr_io_mw"])

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    for metric, paper_pra in (("act", 0.66), ("io", 0.55), ("total", 0.77)):
        print()
        print(f"=== Figure 12 ({metric} power, normalized to baseline) ===")
        print(f"{'workload':<12}" + "".join(f"{s:>11}" for s in SCHEMES))
        for name, per_scheme in rows.items():
            print(f"{name:<12}" + "".join(
                f"{per_scheme[s][metric]:>11.3f}" for s in SCHEMES))
        means = {
            s: mean([rows[w][s][metric] for w in rows])
            for s in SCHEMES
        }
        print(f"{'average':<12}" + "".join(f"{means[s]:>11.3f}" for s in SCHEMES))
        if metric == "total":
            print(f"(paper averages: FGA 0.85, Half-DRAM 0.89, PRA {paper_pra})")

    pra_act = mean([rows[w]["PRA"]["act"] for w in rows])
    pra_io = mean([rows[w]["PRA"]["io"] for w in rows])
    pra_tot = mean([rows[w]["PRA"]["total"] for w in rows])
    half_act = mean([rows[w]["Half-DRAM"]["act"] for w in rows])
    half_io = mean([rows[w]["Half-DRAM"]["io"] for w in rows])
    half_tot = mean([rows[w]["Half-DRAM"]["total"] for w in rows])

    # PRA activation-power saving: ~34% average in the paper.
    assert 0.55 < pra_act < 0.80
    # Half-row schemes save *more* activation power than PRA.
    assert half_act < pra_act
    # PRA is the only scheme that cuts I/O power (Half-DRAM ~ 1.0).
    assert pra_io < 0.75
    assert half_io == pytest.approx(1.0, abs=0.08)
    # PRA total power saving in the paper's band, beating Half-DRAM.
    assert 0.68 < pra_tot < 0.85
    assert pra_tot < half_tot
    # Every workload saves total power with PRA.
    assert all(rows[w]["PRA"]["total"] < 1.0 for w in rows)
