"""Figure 3: proportion of dirty words in LLC-evicted cache lines.

The phenomenon PRA exploits: most written-back lines carry only a few
dirty 8-byte words, so most write activations can be 1/8-row.
"""

import pytest

from repro.workloads.profiles import BENCHMARKS


def test_fig03_dirty_words(benchmark, grid_of):
    grid = grid_of("alone-relaxed")

    def run_all():
        return {
            name: {n: grid.alone(name)[f"dirty_words_{n}"] for n in range(1, 9)}
            for name in BENCHMARKS
        }

    dists = benchmark.pedantic(run_all, rounds=1, iterations=1)

    print()
    print("=== Figure 3: dirty words per evicted LLC line ===")
    print(f"{'bench':<12}" + "".join(f"{n:>7}" for n in range(1, 9)))
    for name, frac in dists.items():
        print(f"{name:<12}" + "".join(f"{frac[n]:>7.2f}" for n in range(1, 9)))

    avg_one = sum(d[1] for d in dists.values()) / len(dists)
    avg_full = sum(d[8] for d in dists.values()) / len(dists)
    print(f"{'average':<12}1-word {avg_one:.1%}, full-line {avg_full:.1%}")

    # Shape: single-word dirtiness dominates; full-line is a minority.
    assert avg_one > 0.55
    assert avg_full < 0.2
    # GUPS updates exactly one word.
    assert dists["GUPS"][1] > 0.95
    # Every distribution is a valid probability vector.
    for name, frac in dists.items():
        assert sum(frac.values()) == pytest.approx(1.0, abs=1e-6), name
