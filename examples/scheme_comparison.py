#!/usr/bin/env python3
"""Compare Baseline / FGA / Half-DRAM / PRA on one workload (Fig. 12-13).

Usage::

    python examples/scheme_comparison.py [workload] [events_per_core]

``workload`` is any of the paper's 14: the eight benchmark names
(4 identical copies each) or MIX1..MIX6.
"""

import sys

from repro.sim import Grid, Sweep
from repro.workloads import ALL_WORKLOADS

SCHEMES = ("Baseline", "FGA", "Half-DRAM", "PRA")


def _rows(events: int, schemes, workloads):
    sweep = Sweep(events_per_core=events)
    sweep.add_axis("scheme", list(schemes))
    sweep.add_axis("workload", list(workloads))
    sweep.add_axis("policy", ["relaxed"])
    return sweep.run()


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "MIX1"
    events = int(sys.argv[2]) if len(sys.argv) > 2 else 4000
    if name not in ALL_WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}; pick one of {sorted(ALL_WORKLOADS)}")

    apps = ALL_WORKLOADS[name].app_names
    print(f"Workload {name}, {events} memory instructions per core")
    print(f"(apps: {', '.join(apps)})")
    print()

    # The schemes on the workload, and each distinct app alone (Eq. 3).
    grid = Grid(
        _rows(events, SCHEMES, [name]),
        _rows(events, ("Baseline",), [f"{app}-alone" for app in dict.fromkeys(apps)]),
    )
    base = grid.row(name, "Baseline")
    header = (
        f"{'scheme':<11}{'ACT power':>10}{'I/O power':>10}{'total pwr':>10}"
        f"{'energy':>8}{'EDP':>8}{'perf':>8}"
    )
    print(header)
    print("-" * len(header))
    for scheme in SCHEMES:
        r = grid.row(name, scheme)
        act = grid.ratio("act_pre_mw", name, scheme)
        io_now = r["rd_io_mw"] + r["wr_io_mw"]
        io_base = base["rd_io_mw"] + base["wr_io_mw"]
        total = grid.ratio("total_power_mw", name, scheme)
        energy = grid.ratio("energy_mj", name, scheme)
        edp = grid.ratio("edp", name, scheme)
        perf = grid.performance(name, scheme)
        print(
            f"{scheme:<11}{act:>10.3f}{io_now / io_base:>10.3f}{total:>10.3f}"
            f"{energy:>8.3f}{edp:>8.3f}{perf:>8.3f}"
        )

    pra = grid.row(name, "PRA")
    print()
    print("PRA details:")
    print(f"  mean activation granularity: {pra['mean_granularity']:.2f} of a row")
    print(f"  false row-buffer hits: reads {pra['read_false_hit_rate']:.3%}, "
          f"writes {pra['write_false_hit_rate']:.3%}")
    print(f"  row-buffer hit rate: {base['total_hit_rate']:.1%} -> "
          f"{pra['total_hit_rate']:.1%}")


if __name__ == "__main__":
    main()
