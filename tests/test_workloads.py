"""Workload generators: determinism, stream statistics, mixes."""

import pytest

from repro.cpu.trace import TraceEvent
from repro.workloads.mixes import ALL_WORKLOADS, MIXES, Workload, homogeneous, workload
from repro.workloads.profiles import BENCHMARKS, BenchmarkProfile, profile
from repro.workloads.synthetic import REGION_LINES, TraceGenerator, generate


class TestProfiles:
    def test_eight_benchmarks(self):
        assert set(BENCHMARKS) == {
            "bzip2",
            "lbm",
            "libquantum",
            "mcf",
            "omnetpp",
            "em3d",
            "GUPS",
            "LinkedList",
        }

    def test_lookup_case_insensitive(self):
        assert profile("gups").name == "GUPS"
        with pytest.raises(KeyError):
            profile("povray")

    def test_fractions_sum_to_one(self):
        for prof in BENCHMARKS.values():
            total = prof.load_fraction + prof.store_fraction + prof.rmw_fraction
            assert total == pytest.approx(1.0)

    def test_dirty_distributions_sum_to_one(self):
        for prof in BENCHMARKS.values():
            assert sum(p for _, p in prof.dirty_word_dist) == pytest.approx(1.0)

    def test_gups_is_single_word_dirty(self):
        assert profile("GUPS").mean_dirty_words() == pytest.approx(1.0)

    def test_most_benchmarks_dominated_by_one_word(self):
        # Figure 3: not many dirty words in written-back lines.
        one_word_heavy = sum(
            1
            for prof in BENCHMARKS.values()
            if dict(prof.dirty_word_dist).get(1, 0.0) >= 0.45
        )
        assert one_word_heavy >= 6

    def test_validation(self):
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad",
                mean_gap=1.0,
                load_fraction=0.5,
                store_fraction=0.5,
                rmw_fraction=0.5,
                read_run=1.0,
                write_run=1.0,
                footprint_lines=10,
                dirty_word_dist=((1, 1.0),),
            )
        with pytest.raises(ValueError):
            BenchmarkProfile(
                name="bad",
                mean_gap=1.0,
                load_fraction=1.0,
                store_fraction=0.0,
                rmw_fraction=0.0,
                read_run=1.0,
                write_run=1.0,
                footprint_lines=10,
                dirty_word_dist=((1, 0.5),),
            )

    def test_rmw_run_defaults_to_write_run(self):
        prof = BenchmarkProfile(
            name="x",
            mean_gap=1.0,
            load_fraction=1.0,
            store_fraction=0.0,
            rmw_fraction=0.0,
            read_run=1.0,
            write_run=3.0,
            footprint_lines=10,
            dirty_word_dist=((1, 1.0),),
        )
        assert prof.rmw_run == 3.0


class TestGenerator:
    def test_deterministic_for_seed(self):
        a = generate(profile("GUPS"), 200, seed=7)
        b = generate(profile("GUPS"), 200, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = generate(profile("GUPS"), 200, seed=7)
        b = generate(profile("GUPS"), 200, seed=8)
        assert a != b

    def test_cores_use_disjoint_regions(self):
        a = generate(profile("GUPS"), 500, seed=1, core_id=0)
        b = generate(profile("GUPS"), 500, seed=1, core_id=1)
        max_a = max(e.line_addr for e in a)
        min_b = min(e.line_addr for e in b)
        assert max_a < REGION_LINES <= min_b

    def test_rmw_pairs_load_then_store_same_line(self):
        events = generate(profile("GUPS"), 1000, seed=3)
        pairs = 0
        for first, second in zip(events, events[1:]):
            if not first.is_store and second.is_store:
                if first.line_addr == second.line_addr:
                    pairs += 1
        # GUPS is 88% RMW: nearly half of all events are pair-starts.
        assert pairs > 300

    def test_store_masks_follow_distribution(self):
        events = generate(profile("GUPS"), 2000, seed=5)
        masks = [e.write_mask for e in events if e.is_store]
        assert masks, "GUPS must generate stores"
        assert all(bin(m).count("1") == 1 for m in masks)

    def test_full_line_mask_for_eight_words(self):
        prof = BenchmarkProfile(
            name="full",
            mean_gap=0.0,
            load_fraction=0.0,
            store_fraction=1.0,
            rmw_fraction=0.0,
            read_run=1.0,
            write_run=1.0,
            footprint_lines=1000,
            dirty_word_dist=((8, 1.0),),
        )
        events = [next(TraceGenerator(prof, seed=1)) for _ in range(50)]
        assert all(e.write_mask == 0xFF for e in events)

    def test_no_fill_flag_propagates(self):
        events = generate(profile("lbm"), 3000, seed=2)
        flagged = [e for e in events if e.no_fill]
        assert flagged, "lbm streaming stores must skip fills"
        assert all(e.is_store for e in flagged)

    def test_read_fraction_roughly_matches(self):
        prof = profile("mcf")
        events = generate(prof, 5000, seed=9)
        stores = sum(1 for e in events if e.is_store)
        # mcf: 27% RMW => stores ~ 0.27 / 1.27 of all events.
        expected = prof.rmw_fraction / (1 + prof.rmw_fraction)
        assert stores / len(events) == pytest.approx(expected, abs=0.05)

    def test_gap_mean_in_range(self):
        prof = profile("omnetpp")
        events = generate(prof, 4000, seed=11)
        gaps = [e.gap for e in events if not e.is_store or True]
        mean_gap = sum(gaps) / len(gaps)
        # RMW store halves ride with gap=2, so the mean sits below the
        # profile's mean_gap but well above zero.
        assert 0.3 * prof.mean_gap < mean_gap < 1.2 * prof.mean_gap

    def test_sequential_runs_present(self):
        events = generate(profile("libquantum"), 2000, seed=13)
        loads = [e.line_addr for e in events if not e.is_store]
        # The pure-load and RMW-load streams interleave, so compare each
        # load against a small window of successors.
        sequential = sum(
            1
            for i, a in enumerate(loads[:-3])
            if any(b == a + 1 for b in loads[i + 1 : i + 4])
        )
        assert sequential > len(loads) * 0.5


class TestMixes:
    def test_table4_mixes(self):
        assert MIXES["MIX1"].app_names == ("bzip2", "lbm", "libquantum", "omnetpp")
        assert MIXES["MIX2"].app_names == ("mcf", "em3d", "GUPS", "LinkedList")
        assert MIXES["MIX3"].app_names == ("bzip2", "mcf", "lbm", "em3d")
        assert MIXES["MIX4"].app_names == (
            "libquantum",
            "GUPS",
            "omnetpp",
            "LinkedList",
        )
        assert MIXES["MIX5"].app_names == ("bzip2", "LinkedList", "lbm", "GUPS")
        assert MIXES["MIX6"].app_names == ("libquantum", "em3d", "omnetpp", "mcf")

    def test_fourteen_workloads(self):
        assert len(ALL_WORKLOADS) == 14

    def test_homogeneous_four_copies(self):
        wl = homogeneous("GUPS")
        assert wl.num_cores == 4
        assert wl.app_names == ("GUPS",) * 4

    def test_workload_lookup(self):
        assert workload("mix3").name == "MIX3"
        assert workload("GUPS").num_cores == 4
        with pytest.raises(KeyError):
            workload("MIX9")


class TestCrossProcessDeterminism:
    def test_seed_is_hashseed_independent(self):
        """Traces must not depend on PYTHONHASHSEED (process-stable)."""
        import os
        import subprocess
        import sys

        import repro

        # Minimal env: the child still needs to find the package, which
        # may be importable via PYTHONPATH rather than installed.
        repro_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        script = (
            "from repro.workloads.synthetic import generate\n"
            "from repro.workloads.profiles import profile\n"
            "events = generate(profile('GUPS'), 50, seed=3)\n"
            "print(sum(e.line_addr for e in events))\n"
        )
        outputs = set()
        for hashseed in ("0", "12345"):
            env = {
                "PYTHONHASHSEED": hashseed,
                "PYTHONPATH": repro_root,
                "PATH": "/usr/bin:/bin",
            }
            # A run that writes no bytecode cache must not get one from
            # its children either.
            if "PYTHONDONTWRITEBYTECODE" in os.environ:
                env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.add(result.stdout.strip())
        assert len(outputs) == 1, f"trace depends on hash seed: {outputs}"
