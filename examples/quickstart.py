#!/usr/bin/env python3
"""Quickstart: measure what PRA saves on a write-heavy workload.

Runs the GUPS update kernel (4 cores) on the baseline DDR3-1600 system
and on the same system with Partial Row Activation, then prints the
power/energy comparison the paper leads with.

Usage::

    python examples/quickstart.py [events_per_core]
"""

import sys

from repro.sim import Grid, Sweep


def main() -> None:
    events = int(sys.argv[1]) if len(sys.argv) > 1 else 4000
    sweep = Sweep(events_per_core=events)
    sweep.add_axis("scheme", ["Baseline", "PRA"])
    sweep.add_axis("workload", ["GUPS"])
    sweep.add_axis("policy", ["relaxed"])

    print(f"Simulating GUPS (4 cores, {events} memory instructions/core)...")
    grid = Grid(sweep.run())
    base, pra = grid.row("GUPS", "Baseline"), grid.row("GUPS", "PRA")

    print()
    print(f"{'metric':<28}{'Baseline':>12}{'PRA':>12}{'ratio':>8}")
    rows = [
        ("total DRAM power (mW)", "total_power_mw", 1),
        ("ACT-PRE power (mW)", "act_pre_mw", 1),
        ("write I/O power (mW)", "wr_io_mw", 1),
        ("DRAM energy (mJ)", "energy_mj", 1),
        ("runtime (k cycles)", "runtime_cycles", 1e3),
    ]
    for label, column, scale in rows:
        b, p = base[column] / scale, pra[column] / scale
        print(f"{label:<28}{b:>12.2f}{p:>12.2f}{p / b:>8.3f}")

    hist = {g: pra[f"granularity_share_{g}"] for g in range(1, 9)}
    print()
    print("PRA activation granularity mix (fraction of activations):")
    for g in range(1, 9):
        bar = "#" * int(60 * hist[g])
        print(f"  {g}/8 row  {hist[g]:6.1%}  {bar}")

    saving = 1 - grid.ratio("total_power_mw", "GUPS", "PRA")
    print()
    print(f"PRA saves {saving:.1%} total DRAM power on GUPS "
          f"(paper: up to 32%, 23% on average across 14 workloads).")


if __name__ == "__main__":
    main()
