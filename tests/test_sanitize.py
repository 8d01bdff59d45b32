"""Runtime sanitizer: its switch, attached checkers, invariant teeth.

The sanitizer must (a) stay completely off by default, (b) attach a
protocol checker to every controller when ``REPRO_SANITIZE`` arms it,
(c) pass cleanly on real runs, and (d) actually *fail* when an
invariant is broken — a sanitizer that cannot fire is decoration.
"""

import os
from unittest import mock

import pytest

from repro.core.schemes import DBI_PRA
from repro.dram.protocol import ProtocolChecker
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.sanitize import (
    SanitizerError,
    check_finalize,
    sanitize_enabled,
    verify_restore,
)
from repro.sim.snapshot import (
    SNAPSHOTS,
    capture_warm_state,
    restore_warm_state,
    state_digest,
)
from repro.sim.system import System
from repro.workloads.mixes import workload

EVENTS = 300
WARMUP = 1500


def _system(sanitize=False, scheme=None, **kwargs):
    """A small GUPS System; ``sanitize`` arms it through the environment."""
    config = SystemConfig(cache=CacheConfig(llc_bytes=128 * 1024))
    if scheme is not None:
        config = config.with_scheme(scheme)
    with mock.patch.dict(os.environ, {"REPRO_SANITIZE": "1"} if sanitize else {}):
        return System(config, workload("GUPS"), EVENTS, seed=4,
                      warmup_events_per_core=WARMUP, **kwargs)


# ----------------------------------------------------------------------
# Switches
# ----------------------------------------------------------------------
def test_off_by_default(monkeypatch):
    """No checker is attached unless explicitly requested."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    system = _system()
    assert not sanitize_enabled()
    assert all(c.protocol_checker is None for c in system.controllers)


def test_env_var_enables(monkeypatch):
    """``REPRO_SANITIZE=1`` attaches a checker per controller."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    system = _system()
    assert all(
        isinstance(c.protocol_checker, ProtocolChecker)
        for c in system.controllers
    )


def test_falsy_env_values_stay_off(monkeypatch):
    """``REPRO_SANITIZE=0`` (and friends) must not arm the sanitizer."""
    for value in ("0", "false", "no", ""):
        monkeypatch.setenv("REPRO_SANITIZE", value)
        assert not sanitize_enabled()


# ----------------------------------------------------------------------
# Clean runs pass under full checking
# ----------------------------------------------------------------------
def test_sanitized_run_is_clean():
    """A tier-1-sized run completes with every command checked."""
    system = _system(sanitize=True)
    result = system.run()
    checked = sum(c.protocol_checker.commands_checked for c in system.controllers)
    assert checked > result.controller.total_served
    assert result.runtime_cycles > 0


def test_sanitized_results_match_unsanitized():
    """Checking is observation only: results stay bit-identical."""
    SNAPSHOTS.clear()
    plain = _system().run()
    SNAPSHOTS.clear()
    checked = _system(sanitize=True).run()
    assert checked.runtime_cycles == plain.runtime_cycles
    assert checked.controller.total_served == plain.controller.total_served
    assert checked.power.total_pj == plain.power.total_pj


def test_snapshot_restore_digest_verified():
    """A sanitized restore re-hashes the hierarchy against capture."""
    SNAPSHOTS.clear()
    _system(sanitize=True)  # captures the snapshot, with digest
    restored = _system(sanitize=True)  # restores + verifies
    assert restored.snapshot_restored
    key = next(iter(SNAPSHOTS._mem))
    assert SNAPSHOTS._mem[key].digest is not None


# ----------------------------------------------------------------------
# The invariants have teeth
# ----------------------------------------------------------------------
def test_counter_mismatch_fires():
    """Tampered burst counters raise a SanitizerError (not silence)."""
    system = _system(sanitize=True)
    result = system.run()
    system.accountant.read_bursts += 1
    with pytest.raises(SanitizerError, match="read bursts"):
        check_finalize(system, result)


def test_refresh_mismatch_fires():
    system = _system(sanitize=True)
    result = system.run()
    system.accountant.refreshes += 1
    with pytest.raises(SanitizerError, match="refreshes"):
        check_finalize(system, result)


def test_activation_histogram_mismatch_fires():
    system = _system(sanitize=True)
    result = system.run()
    result.activation_histogram[8] += 1
    with pytest.raises(SanitizerError, match="activation histogram"):
        check_finalize(system, result)


def test_nonfinite_energy_fires():
    system = _system(sanitize=True)
    result = system.run()
    result.power.energy_pj["rd"] = float("nan")
    with pytest.raises(SanitizerError, match="finite"):
        check_finalize(system, result)


def test_corrupt_open_bits_fires():
    """TimingCore incoherence (open_bits vs open_row) is caught."""
    system = _system(sanitize=True)
    result = system.run()
    system.channels[0].core.open_bits[0] ^= 1
    with pytest.raises(SanitizerError, match="open_bits"):
        check_finalize(system, result)


def test_corrupt_mask_fires():
    """An out-of-range PRA mask in the timing core is caught."""
    system = _system(sanitize=True)
    result = system.run()
    system.channels[0].core.open_mask[0] = 0
    with pytest.raises(SanitizerError, match="mask"):
        check_finalize(system, result)


def test_dbi_registry_mismatch_fires():
    """A registered line the LLC no longer holds dirty is caught."""
    system = _system(sanitize=True, scheme=DBI_PRA)
    result = system.run()  # the finalize check passed on the real run
    lines = next(iter(system.hierarchy.dbi.export_rows().values()))
    system.hierarchy.l2.clean_line(lines[0])
    with pytest.raises(SanitizerError, match="DBI registers"):
        check_finalize(system, result)


def test_finalize_runs_the_result_audit():
    """A sanitized run's own finalize applies the result checks: read
    row hits above reads served fail ``hits-bounded`` there."""
    system = _system(sanitize=True)
    finalize = system._finalize

    def corrupt_then_finalize(cycle):
        served = sum(c.stats.reads.served for c in system.controllers)
        system.controllers[0].stats.reads.row_hits = served + 1
        return finalize(cycle)

    system._finalize = corrupt_then_finalize
    with pytest.raises(SanitizerError, match="hits-bounded"):
        system.run()


def test_restore_digest_mismatch_fires():
    """A snapshot whose digest disagrees with the hierarchy fails."""
    SNAPSHOTS.clear()
    system = _system(sanitize=True)
    snapshot = capture_warm_state(system.hierarchy, with_digest=True)
    assert snapshot.digest == state_digest(system.hierarchy)
    verify_restore(system.hierarchy, snapshot)  # faithful: passes
    other = _system(sanitize=True, scheme=None, use_snapshots=False)
    other.hierarchy.l2.access(0x123456789, write_mask=0xFF)
    restore_warm_state(other.hierarchy, snapshot)
    other.hierarchy.l2.access(0x987654321, write_mask=0xFF)  # diverge
    with pytest.raises(SanitizerError, match="diverged"):
        verify_restore(other.hierarchy, snapshot)


def test_digestless_snapshot_skips_verification():
    """Snapshots captured without the sanitizer restore silently."""
    system = _system()
    snapshot = capture_warm_state(system.hierarchy)  # no digest
    assert snapshot.digest is None
    verify_restore(system.hierarchy, snapshot)  # no-op, no raise
