"""Paper metrics: weighted speedup (Eq. 3), and the Baseline ratios,
Eq. 3 and means :mod:`repro.sim.metrics` computes from sweep rows."""

import pytest

from repro.cpu.metrics import weighted_speedup
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.metrics import Grid, mean
from repro.sim.sweep import Sweep
from repro.workloads.mixes import MIX2


class TestWeightedSpeedup:
    def test_equation3(self):
        ws = weighted_speedup([1.0, 2.0], [2.0, 2.0])
        assert ws == pytest.approx(0.5 + 1.0)

    def test_no_slowdown_gives_core_count(self):
        assert weighted_speedup([1.5] * 4, [1.5] * 4) == pytest.approx(4.0)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [1.0, 2.0])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([], [])

    def test_zero_alone_rejected(self):
        with pytest.raises(ValueError):
            weighted_speedup([1.0], [0.0])


class TestMeans:
    def test_arithmetic(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])


class TestRatio:
    @staticmethod
    def _grid(base_edp):
        return Grid([
            {"workload": "GUPS", "scheme": "Baseline", "policy": "relaxed", "edp": base_edp},
            {"workload": "GUPS", "scheme": "PRA", "policy": "relaxed", "edp": 3.0},
        ])

    def test_divides(self):
        assert self._grid(4.0).ratio("edp", "GUPS", "PRA") == 0.75

    def test_zero_baseline(self):
        with pytest.raises(ZeroDivisionError):
            self._grid(0.0).ratio("edp", "GUPS", "PRA")


def _rows(schemes, workloads, policy="relaxed"):
    sweep = Sweep(
        events_per_core=800,
        base_config=SystemConfig(cache=CacheConfig(llc_bytes=256 * 1024)),
        warmup_events_per_core=4000,
    )
    sweep.add_axis("scheme", schemes)
    sweep.add_axis("workload", workloads)
    sweep.add_axis("policy", [policy])
    return sweep.run()


@pytest.fixture(scope="module")
def grid():
    """GUPS under Baseline and PRA, Baseline restricted, and MIX2's
    apps alone (GUPS among them)."""
    return Grid(
        _rows(["Baseline", "PRA"], ["GUPS"]),
        _rows(["Baseline"], ["GUPS"], policy="restricted"),
        _rows(["Baseline"], [f"{app}-alone" for app in MIX2.app_names]),
    )


class TestGridWeightedSpeedup:
    def test_alone_ipcs_one_per_app(self, grid):
        ipcs = [grid.alone(app)["ipcs"] for app in MIX2.app_names]
        assert len(ipcs) == 4
        assert all(len(ipc) == 1 and ipc[0] > 0 for ipc in ipcs)

    def test_ws_bounded_by_core_count(self, grid):
        ws = grid.weighted_speedup("GUPS", "Baseline")
        assert 0 < ws <= 4.3  # shared can rarely beat alone slightly

    def test_normalized_performance_near_one_for_baseline(self, grid):
        assert grid.performance("GUPS", "Baseline") == pytest.approx(1.0)

    def test_pra_performance_close_to_baseline(self, grid):
        perf = grid.performance("GUPS", "PRA")
        assert 0.85 < perf < 1.1

    def test_equation3_over_alone_rows(self, grid):
        alone = grid.alone("GUPS")["ipcs"][0]
        shared = grid.row("GUPS", "PRA")["ipcs"]
        assert grid.weighted_speedup("GUPS", "PRA") == sum(i / alone for i in shared)


class TestGridRatios:
    def test_baseline_normalizes_to_one(self, grid):
        for column in ("total_power_mw", "energy_mj", "edp"):
            assert grid.ratio(column, "GUPS", "Baseline") == pytest.approx(1.0)

    def test_pra_reduces_power_energy_edp(self, grid):
        assert grid.ratio("total_power_mw", "GUPS", "PRA") < 0.95
        assert grid.ratio("energy_mj", "GUPS", "PRA") < 0.95
        assert grid.ratio("edp", "GUPS", "PRA") < 1.0

    def test_category_normalization(self, grid):
        assert grid.ratio("act_pre_mw", "GUPS", "PRA") < 0.9

    def test_policy_dimension(self, grid):
        restricted = grid.row("GUPS", "Baseline", "restricted")
        relaxed = grid.row("GUPS", "Baseline", "relaxed")
        assert (restricted["policy"], relaxed["policy"]) == ("restricted", "relaxed")
        # The policy reached the simulation: restricted close-page shuts
        # each row after its access, so it hits less and runs longer.
        assert restricted["total_hit_rate"] < relaxed["total_hit_rate"]
        assert restricted["runtime_cycles"] > relaxed["runtime_cycles"]
        assert grid.ratio("edp", "GUPS", "Baseline", "restricted") == 1.0

    def test_missing_point_is_a_key_error(self, grid):
        with pytest.raises(KeyError):
            grid.ratio("edp", "GUPS", "PRA", "restricted")
