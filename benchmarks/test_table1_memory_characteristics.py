"""Table 1: memory characteristics of the benchmarks.

Single-core baseline runs reproducing the three column groups: row
buffer hit rate (read/write), memory traffic split, and row-activation
split.  The key property PRA builds on — locality asymmetry between
reads and writes — must be visible.
"""

import pytest

from repro.workloads.profiles import BENCHMARKS

PAPER_TABLE1 = {
    #           rdHit wrHit  rd%  wr%  rdAct wrAct
    "bzip2": (32, 1, 69, 31, 60, 40),
    "lbm": (29, 18, 57, 43, 54, 46),
    "libquantum": (73, 48, 66, 34, 50, 50),
    "mcf": (18, 1, 79, 21, 76, 24),
    "omnetpp": (47, 2, 71, 29, 57, 43),
    "em3d": (5, 1, 51, 49, 50, 50),
    "GUPS": (3, 1, 53, 47, 52, 48),
    "LinkedList": (4, 1, 65, 35, 64, 36),
}


def test_table1_memory_characteristics(benchmark, grid_of):
    grid = grid_of("alone-relaxed")

    def run_all():
        rows = {}
        for name in BENCHMARKS:
            row = grid.alone(name)
            rows[name] = (
                100 * row["read_hit_rate"],
                100 * row["write_hit_rate"],
                100 * row["read_traffic_share"],
                100 * row["write_traffic_share"],
                100 * row["read_activation_share"],
                100 * row["write_activation_share"],
            )
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("=== Table 1: memory characteristics (measured vs paper) ===")
    print(f"{'bench':<12}{'rdHit':>12}{'wrHit':>12}{'rd%':>12}{'wrAct%':>12}")
    for name, row in rows.items():
        p = PAPER_TABLE1[name]
        print(
            f"{name:<12}"
            f"{row[0]:>6.0f}({p[0]:>3})"
            f"{row[1]:>7.0f}({p[1]:>3})"
            f"{row[2]:>7.0f}({p[2]:>3})"
            f"{row[5]:>7.0f}({p[5]:>3})"
        )

    for name, row in rows.items():
        p = PAPER_TABLE1[name]
        assert abs(row[0] - p[0]) <= 12, f"{name} read hit rate off"
        assert abs(row[1] - p[1]) <= 10, f"{name} write hit rate off"
        assert abs(row[2] - p[2]) <= 6, f"{name} traffic split off"

    # Average asymmetry: reads hit far more often than writes.
    avg_rd = sum(r[0] for r in rows.values()) / len(rows)
    avg_wr = sum(r[1] for r in rows.values()) / len(rows)
    print(f"{'average':<12}{avg_rd:>6.0f}( 26){avg_wr:>7.0f}(  9)")
    assert avg_rd > 2 * avg_wr
