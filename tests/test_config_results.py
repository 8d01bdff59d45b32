"""System configuration and result containers."""

import pytest

from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, PRA
from repro.dram.mapping import Interleaving
from repro.power.accounting import PowerBreakdown
from repro.sim.config import CacheConfig, ControllerConfig, CoreConfig, SystemConfig
from repro.sim.results import CoreResult, SimResult
from repro.controller.stats import ControllerStats
from repro.cache.set_assoc import CacheStats


class TestSystemConfig:
    def test_table3_defaults(self):
        cfg = SystemConfig()
        assert cfg.cache.llc_bytes == 4 * 1024 * 1024
        assert cfg.cache.llc_ways == 8
        assert cfg.cache.l1_bytes == 32 * 1024
        assert cfg.controller.read_queue_size == 64
        assert cfg.controller.write_queue_size == 64
        assert cfg.controller.drain_high_watermark == 48
        assert cfg.controller.drain_low_watermark == 16
        assert cfg.core.cpu_per_mem_clock == 4.0  # 3.2 GHz over 800 MHz
        assert cfg.core.rob_instructions == 192

    def test_policy_picks_interleaving(self):
        # Paper: row-interleaved for relaxed, line-interleaved for
        # restricted close-page (Section 5.1.2).
        relaxed = SystemConfig(policy=RowPolicy.RELAXED_CLOSE)
        restricted = SystemConfig(policy=RowPolicy.RESTRICTED_CLOSE)
        assert relaxed.effective_interleaving is Interleaving.ROW
        assert restricted.effective_interleaving is Interleaving.LINE

    def test_explicit_interleaving_wins(self):
        cfg = SystemConfig(
            policy=RowPolicy.RESTRICTED_CLOSE, interleaving=Interleaving.ROW
        )
        assert cfg.effective_interleaving is Interleaving.ROW

    def test_with_scheme_and_policy(self):
        cfg = SystemConfig()
        cfg2 = cfg.with_scheme(PRA).with_policy(RowPolicy.OPEN_PAGE)
        assert cfg2.scheme is PRA
        assert cfg2.policy is RowPolicy.OPEN_PAGE
        assert cfg.scheme is BASELINE  # original untouched


def _result(act_hist=None, runtime=1000):
    breakdown = PowerBreakdown(
        energy_pj={c: 100.0 for c in ("act_pre", "rd", "wr", "rd_io", "wr_io", "bg", "ref")},
        runtime_ns=runtime * 1.25,
    )
    return SimResult(
        scheme_name="PRA",
        policy_name="relaxed-close-page",
        workload_name="GUPS",
        runtime_cycles=runtime,
        cores=[
            CoreResult(core_id=0, app_name="GUPS", retired_instructions=100,
                       finish_cycle=runtime, ipc=0.5)
        ],
        controller=ControllerStats(),
        power=breakdown,
        activation_histogram=act_hist or {g: 0 for g in range(1, 9)},
        llc=CacheStats(),
    )


class TestSimResult:
    def test_granularity_fractions(self):
        hist = {g: 0 for g in range(1, 9)}
        hist[1] = 3
        hist[8] = 1
        r = _result(act_hist=hist)
        fracs = r.granularity_fractions()
        assert fracs[1] == pytest.approx(0.75)
        assert fracs[8] == pytest.approx(0.25)

    def test_mean_granularity(self):
        hist = {g: 0 for g in range(1, 9)}
        hist[1] = 1
        hist[8] = 1
        r = _result(act_hist=hist)
        assert r.mean_activation_granularity() == pytest.approx((1 + 8) / 16)

    def test_empty_histogram_defaults(self):
        r = _result()
        assert r.mean_activation_granularity() == 1.0
        assert all(v == 0.0 for v in r.granularity_fractions().values())

    def test_edp(self):
        r = _result()
        assert r.edp == pytest.approx(r.total_energy_mj * r.runtime_ns)

    def test_summary_keys(self):
        summary = _result().summary()
        for key in ("total_power_mw", "energy_mj", "edp", "read_hit_rate",
                    "mean_granularity"):
            assert key in summary

    def test_ipcs(self):
        assert _result().ipcs == [0.5]


class TestSerialization:
    def test_to_dict_round_trips_through_json(self, tmp_path=None):
        import json

        r = _result()
        blob = json.dumps(r.to_dict())
        back = json.loads(blob)
        assert back["scheme"] == "PRA"
        assert back["workload"] == "GUPS"
        assert back["cores"][0]["ipc"] == pytest.approx(0.5)
        assert set(back["power_mw"]) == {
            "act_pre", "rd", "wr", "rd_io", "wr_io", "bg", "ref",
        }

    def test_save_json(self, tmp_path):
        r = _result()
        path = tmp_path / "result.json"
        r.save_json(str(path))
        import json

        data = json.loads(path.read_text())
        assert data["runtime_cycles"] == 1000
