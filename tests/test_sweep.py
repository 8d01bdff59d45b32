"""Sweep harness: grid execution and export."""

import csv
import json

import pytest

from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import Sweep
from repro.workloads.mixes import ALL_WORKLOADS


@pytest.fixture(scope="module")
def ran_sweep():
    sweep = Sweep(
        events_per_core=500,
        base_config=SystemConfig(cache=CacheConfig(llc_bytes=128 * 1024)),
        warmup_events_per_core=1500,
    )
    sweep.add_axis("scheme", ["Baseline", "PRA"])
    sweep.add_axis("workload", ["GUPS"])
    sweep.run()
    return sweep


class TestAxes:
    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown axis"):
            Sweep().add_axis("voltage", [1.5])

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Sweep().add_axis("scheme", [])

    def test_workload_axis_required(self):
        sweep = Sweep().add_axis("scheme", ["PRA"])
        with pytest.raises(ValueError, match="workload"):
            sweep.run()

    def test_no_axes_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            Sweep().run()


class TestResults:
    def test_grid_size(self, ran_sweep):
        assert len(ran_sweep.rows) == 2  # 2 schemes x 1 workload

    def test_rows_carry_point_and_summary(self, ran_sweep):
        for row in ran_sweep.rows:
            assert row["workload"] == "GUPS"
            assert row["scheme"] in ("Baseline", "PRA")
            assert row["total_power_mw"] > 0
            assert "edp" in row

    def test_pra_row_cheaper(self, ran_sweep):
        by_scheme = {r["scheme"]: r for r in ran_sweep.rows}
        assert by_scheme["PRA"]["total_power_mw"] < by_scheme["Baseline"]["total_power_mw"]


class TestExport:
    def test_csv(self, ran_sweep, tmp_path):
        path = tmp_path / "sweep.csv"
        ran_sweep.to_csv(str(path))
        with open(path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 2
        assert rows[0]["scheme"] == "Baseline"

    def test_json(self, ran_sweep, tmp_path):
        path = tmp_path / "sweep.json"
        ran_sweep.to_json(str(path))
        data = json.loads(path.read_text())
        assert len(data) == 2

    def test_export_before_run_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="run"):
            Sweep().to_csv(str(tmp_path / "x.csv"))


class TestPolicyAndECCAxes:
    def test_policy_and_ecc_grid(self):
        sweep = Sweep(
            events_per_core=300,
            base_config=SystemConfig(cache=CacheConfig(llc_bytes=128 * 1024)),
            warmup_events_per_core=1000,
        )
        sweep.add_axis("workload", ["GUPS"])
        sweep.add_axis("policy", ["relaxed", "restricted"])
        sweep.add_axis("ecc_chips", [0, 1])
        rows = sweep.run()
        assert len(rows) == 4
        ecc_power = [r["total_power_mw"] for r in rows if r["ecc_chips"] == 1]
        plain_power = [r["total_power_mw"] for r in rows if r["ecc_chips"] == 0]
        assert min(ecc_power) > min(plain_power)


class TestFingerprintOrder:
    def test_serial_sweep_warms_each_fingerprint_once(self):
        # 10 workloads are 10 warm fingerprints, more than SNAPSHOTS
        # holds.  In grid order (every Baseline point, then every PRA
        # point) each snapshot would age out before its PRA point.
        workloads = list(ALL_WORKLOADS)[:10]
        assert len(workloads) > SNAPSHOTS.capacity
        sweep = Sweep(
            events_per_core=50,
            base_config=SystemConfig(cache=CacheConfig(llc_bytes=64 * 1024)),
        )
        sweep.add_axis("scheme", ["Baseline", "PRA"])
        sweep.add_axis("workload", workloads)
        SNAPSHOTS.clear()
        rows = sweep.run()
        assert SNAPSHOTS.misses == 10
        assert SNAPSHOTS.hits == 10
        # Rows still come back in grid order.
        assert [(r["scheme"], r["workload"]) for r in rows] == [
            (scheme, wl) for scheme in ("Baseline", "PRA") for wl in workloads
        ]
