"""The sanitizer's result audit: real sanitized runs pass it, corrupt
results fail it with the check's name."""

import pytest

from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, FGA, HALF_DRAM, PRA
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.sanitize import SanitizerError, check_result
from repro.sim.system import System
from repro.workloads.mixes import workload


@pytest.fixture(autouse=True)
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def run(scheme=BASELINE, policy=RowPolicy.RELAXED_CLOSE):
    config = SystemConfig(scheme=scheme, policy=policy,
                          cache=CacheConfig(llc_bytes=256 * 1024))
    system = System(config, workload("MIX2"), 800, warmup_events_per_core=3000)
    assert all(c.protocol_checker is not None for c in system.controllers)
    return system.run()


@pytest.mark.parametrize("scheme", [BASELINE, FGA, HALF_DRAM, PRA],
                         ids=lambda s: s.name)
def test_real_runs_validate(scheme):
    result = run(scheme)
    assert result.runtime_cycles > 0


def test_restricted_policy_validates():
    result = run(BASELINE, RowPolicy.RESTRICTED_CLOSE)
    assert result.policy_name == RowPolicy.RESTRICTED_CLOSE.value


class TestCorruptionDetected:
    def test_histogram_mismatch(self):
        result = run(BASELINE)
        result.activation_histogram[8] += 5
        with pytest.raises(SanitizerError, match="activation-histogram-consistent"):
            check_result(result)

    def test_negative_energy(self):
        result = run(BASELINE)
        result.power.energy_pj["rd"] = -1.0
        with pytest.raises(SanitizerError, match="energy-nonnegative"):
            check_result(result)

    def test_hit_overflow(self):
        result = run(BASELINE)
        result.controller.reads.row_hits = result.controller.reads.served + 1
        with pytest.raises(SanitizerError, match="hits-bounded"):
            check_result(result)

    def test_baseline_partial_rows_flagged(self):
        result = run(BASELINE)
        result.activation_histogram[1] += 1
        result.controller.reads.activations += 1
        with pytest.raises(SanitizerError, match="baseline-full-rows-only"):
            check_result(result)

    def test_false_hits_without_masking_flagged(self):
        result = run(HALF_DRAM)
        result.controller.writes.false_hits = 1
        with pytest.raises(SanitizerError, match="no-false-hits-without-masking"):
            check_result(result)
