"""Figure 2: baseline DRAM power-consumption breakdown.

Single-core runs of the eight benchmarks on the baseline system; the
figure shows what share of DRAM power goes to ACT-PRE, RD/WR core,
read/write I/O, background and refresh.  The paper's headline numbers:
ACT-PRE up to 33% (avg 25%), I/O up to 19% (avg 14%).
"""

import pytest

from repro.power.accounting import CATEGORIES
from repro.workloads.profiles import BENCHMARKS


def test_fig02_power_breakdown(benchmark, grid_of):
    grid = grid_of("alone-relaxed")

    def run_all():
        return {
            name: {c: grid.alone(name)[f"power_share_{c}"] for c in CATEGORIES}
            for name in BENCHMARKS
        }

    fractions = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("=== Figure 2: DRAM power breakdown (fractions) ===")
    print(f"{'bench':<12}" + "".join(f"{c:>8}" for c in CATEGORIES))
    for name, frac in fractions.items():
        print(f"{name:<12}" + "".join(f"{frac[c]:>8.3f}" for c in CATEGORIES))

    act_shares = [f["act_pre"] for f in fractions.values()]
    io_shares = [f["rd_io"] + f["wr_io"] for f in fractions.values()]
    avg_act = sum(act_shares) / len(act_shares)
    avg_io = sum(io_shares) / len(io_shares)
    print(f"{'average':<12}act-pre {avg_act:.1%} (paper ~25%), "
          f"i/o {avg_io:.1%} (paper ~14%)")

    # Shape assertions (generous bands around the paper's averages).
    assert 0.10 < avg_act < 0.40
    assert 0.04 < avg_io < 0.25
    assert max(act_shares) < 0.55
    # Every category present somewhere; fractions sum to 1 per bench.
    for frac in fractions.values():
        assert sum(frac.values()) == pytest.approx(1.0)
        assert frac["bg"] > 0
        assert frac["ref"] > 0
