"""Figure 11: proportion of row-activation granularities under PRA.

Both policies of the paper: (a) restricted close-page with
line-interleaved mapping, where the dirty-word distribution maps
directly onto activation granularity, and (b) relaxed close-page.
Paper averages (relaxed): 39% 1/8-row, 2% 2/8, slivers in between,
58% full; restricted: 36% / 2.3% / ... / 60%.
"""

import pytest

from paper_grid import WORKLOAD_ORDER
from repro.controller.policies import RowPolicy

#: (sweep ``policy`` axis value, row policy), in table order.
POLICIES = (
    ("relaxed", RowPolicy.RELAXED_CLOSE),
    ("restricted", RowPolicy.RESTRICTED_CLOSE),
)


def _shares(row):
    return {g: row[f"granularity_share_{g}"] for g in range(1, 9)}


def _average(fractions_by_workload):
    n = len(fractions_by_workload)
    return {
        g: sum(f[g] for f in fractions_by_workload.values()) / n for g in range(1, 9)
    }


def test_fig11_granularity(benchmark, grid_of):
    grid = grid_of("relaxed-pra", "restricted-pra")

    def run_all():
        out = {}
        for axis_value, policy in POLICIES:
            per_wl = {
                name: _shares(grid.row(name, "PRA", axis_value))
                for name in WORKLOAD_ORDER
            }
            out[policy.value] = per_wl
        return out

    data = benchmark.pedantic(run_all, rounds=1, iterations=1)

    paper_avg = {
        "relaxed-close-page": (0.39, 0.02, 0.0043, 0.0045, 0.0005, 0.0005, 0.0002, 0.58),
        "restricted-close-page": (0.36, 0.023, 0.004, 0.012, 0.0004, 0.0004, 0.0002, 0.60),
    }
    for policy_name, per_wl in data.items():
        avg = _average(per_wl)
        print()
        print(f"=== Figure 11 ({policy_name}): activation granularity mix ===")
        print(f"{'workload':<12}" + "".join(f"{g}/8".rjust(7) for g in range(1, 9)))
        for name, frac in per_wl.items():
            print(f"{name:<12}" + "".join(f"{frac[g]:>7.2f}" for g in range(1, 9)))
        print(f"{'average':<12}" + "".join(f"{avg[g]:>7.2f}" for g in range(1, 9)))
        print(f"{'paper avg':<12}" + "".join(f"{v:>7.2f}" for v in paper_avg[policy_name]))

        # Shape: bimodal mix of 1/8-row writes and full-row reads.
        assert 0.25 < avg[1] < 0.55, f"{policy_name}: 1/8 share {avg[1]:.2f}"
        assert 0.40 < avg[8] < 0.75, f"{policy_name}: full share {avg[8]:.2f}"
        middle = sum(avg[g] for g in range(2, 8))
        assert middle < 0.15, f"{policy_name}: middle {middle:.2f}"
        assert sum(avg.values()) == pytest.approx(1.0, abs=1e-6)
