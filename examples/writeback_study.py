#!/usr/bin/env python3
"""Case study: PRA combined with DRAM-aware writeback (DBI), Fig. 15.

DBI proactively drains dirty LLC lines that share a DRAM row, raising
the write row-buffer hit rate; PRA shrinks each write activation.
Together they interact: DBI's write bursts carry heterogeneous masks,
which raises PRA's false-hit pressure.  This script reproduces that
interaction on the paper's three representative benchmarks.

Usage::

    python examples/writeback_study.py [events_per_core]
"""

import sys

from repro.sim import Grid, Sweep

#: Paper's picks: bzip2 (DBI gain lost), GUPS (only PRA helps), em3d
#: (synergy).
WORKLOADS = ("bzip2", "GUPS", "em3d")
SCHEMES = ("DBI", "PRA", "DBI+PRA")


def _rows(events: int, schemes, workloads):
    sweep = Sweep(events_per_core=events)
    sweep.add_axis("scheme", list(schemes))
    sweep.add_axis("workload", list(workloads))
    sweep.add_axis("policy", ["relaxed"])
    return sweep.run()


def main() -> None:
    events = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    # The schemes on each workload, and each app alone (Eq. 3).
    grid = Grid(
        _rows(events, ("Baseline",) + SCHEMES, WORKLOADS),
        _rows(events, ("Baseline",), [f"{name}-alone" for name in WORKLOADS]),
    )

    for name in WORKLOADS:
        print(f"=== {name} ===")
        header = (
            f"{'scheme':<9}{'power':>8}{'energy':>8}{'perf':>8}"
            f"{'wr hit':>8}{'false wr':>9}{'proactive':>10}"
        )
        print(header)
        for scheme in SCHEMES:
            r = grid.row(name, scheme)
            print(
                f"{scheme:<9}"
                f"{grid.ratio('total_power_mw', name, scheme):>8.3f}"
                f"{grid.ratio('energy_mj', name, scheme):>8.3f}"
                f"{grid.performance(name, scheme):>8.3f}"
                f"{r['write_hit_rate']:>8.1%}"
                f"{r['write_false_hit_rate']:>9.2%}"
                f"{r['dbi_proactive_writebacks']:>10}"
            )
        base = grid.row(name, "Baseline")
        print(f"{'(base)':<9}{'1.000':>8}{'1.000':>8}{'1.000':>8}"
              f"{base['write_hit_rate']:>8.1%}{'-':>9}{'-':>10}")
        print()

    print("Paper's observation: DBI helps performance, PRA helps power;")
    print("combined, extra false row-buffer hits make DBI+PRA save less")
    print("power than PRA alone on average.")


if __name__ == "__main__":
    main()
