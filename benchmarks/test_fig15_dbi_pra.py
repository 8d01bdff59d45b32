"""Figure 15: PRA combined with the Dirty-Block Index (DBI).

DBI proactively writes back dirty LLC lines sharing a DRAM row,
raising the write row-hit rate; PRA shrinks write activations.  The
paper's representative picks: bzip2 (power saved by PRA, DBI's
performance gain lost), GUPS (only PRA helps), em3d (synergy).  On
average DBI+PRA beats DBI alone but saves less power than PRA alone,
because DBI's write bursts raise PRA's false-hit pressure.
"""

import pytest

from paper_grid import WORKLOAD_ORDER
from repro.sim.metrics import mean

SCHEMES = ("DBI", "PRA", "DBI+PRA")
SPOTLIGHT = ("bzip2", "GUPS", "em3d")


def test_fig15_dbi_pra(benchmark, grid_of):
    grid = grid_of(
        "relaxed-base", "relaxed-pra", "relaxed-dbi", "alone-relaxed"
    )

    def run_all():
        rows = {}
        for name in WORKLOAD_ORDER:
            rows[name] = {
                scheme: {
                    "power": grid.ratio("total_power_mw", name, scheme),
                    "perf": grid.performance(name, scheme),
                    "energy": grid.ratio("energy_mj", name, scheme),
                    "edp": grid.ratio("edp", name, scheme),
                    "wr_hit": grid.row(name, scheme)["write_hit_rate"],
                    "false_w": grid.row(name, scheme)["write_false_hit_rate"],
                }
                for scheme in SCHEMES
            }
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("=== Figure 15: DBI / PRA / DBI+PRA ===")
    print(f"{'workload':<12}{'scheme':<9}{'power':>8}{'perf':>8}{'energy':>8}"
          f"{'EDP':>8}{'wrHit':>8}{'falseW':>8}")
    for name in SPOTLIGHT + ("MEAN",):
        for scheme in SCHEMES:
            if name == "MEAN":
                m = {
                    k: mean([rows[w][scheme][k] for w in rows])
                    for k in ("power", "perf", "energy", "edp", "wr_hit", "false_w")
                }
            else:
                m = rows[name][scheme]
            print(f"{name:<12}{scheme:<9}{m['power']:>8.3f}{m['perf']:>8.3f}"
                  f"{m['energy']:>8.3f}{m['edp']:>8.3f}{m['wr_hit']:>8.1%}{m['false_w']:>8.2%}")

    means = {
        s: {
            k: mean([rows[w][s][k] for w in rows])
            for k in ("power", "perf", "energy", "edp", "wr_hit", "false_w")
        }
        for s in SCHEMES
    }

    # PRA is the power tool; DBI alone saves little power.
    assert means["PRA"]["power"] < means["DBI"]["power"]
    # Combined beats DBI alone on power...
    assert means["DBI+PRA"]["power"] < means["DBI"]["power"]
    # ...but stays at or above PRA alone (the paper attributes this to
    # extra false hits; our DBI enqueues a row's companions atomically,
    # so their masks OR-merge perfectly and the loss shows up as larger
    # merged activations instead — same direction, different channel).
    assert means["DBI+PRA"]["power"] >= means["PRA"]["power"] - 0.01
    assert means["DBI+PRA"]["false_w"] >= means["PRA"]["false_w"] - 0.001
    # DBI raises the write row-hit rate.
    assert means["DBI"]["wr_hit"] > means["PRA"]["wr_hit"]
    # Nothing falls off a performance cliff.
    for s in SCHEMES:
        assert means[s]["perf"] > 0.9
