"""Perf-trajectory guard: baseline matching, thresholds, exit codes.

``benchmarks/check_perf_trajectory.py`` grades the fresh benchmark
snapshot against the last same-environment history record.  These
tests drive it on synthetic snapshots/histories in tmp_path: the
environment-fingerprint matching (a run on another interpreter or
platform must never be graded against this one's baseline), the skip
of the record the current session itself appended, the 25% threshold,
and the vacuous pass when no baseline exists.  The ``_env`` stamp the
fingerprint comes from (``benchmarks/bench_io.current_env``) is pinned
here too.
"""

import hashlib
import importlib.util
import json
import os
import platform

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARKS = os.path.join(REPO_ROOT, "benchmarks")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(BENCHMARKS, f"{name}.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


guard = _load("check_perf_trajectory")
bench_io = _load("bench_io")


def _snapshot(rates, fingerprint="fp-aaaa", rate_key="requests_per_second_best"):
    sections = {
        name: {rate_key: rate, "reps_used": 3}
        for name, rate in rates.items()
    }
    sections["_construction"] = {"cold_ms_best_of_3": 100.0}
    sections["_env"] = {"fingerprint": fingerprint}
    return sections


def _record(rates, fingerprint="fp-aaaa", commit="c0ffee"):
    return {
        "commit": commit,
        "timestamp": "2026-08-08T00:00:00Z",
        "exitstatus": 0,
        "sections": _snapshot(rates, fingerprint=fingerprint),
    }


def _write(tmp_path, snapshot, records):
    snap = tmp_path / "BENCH_throughput.json"
    snap.write_text(json.dumps(snapshot))
    hist = tmp_path / "BENCH_history.jsonl"
    hist.write_text("".join(json.dumps(r) + "\n" for r in records))
    return snap, hist


def _run(tmp_path, snapshot, records, extra_args=()):
    snap, hist = _write(tmp_path, snapshot, records)
    return guard.main(
        ["--snapshot", str(snap), "--history", str(hist), *extra_args]
    )


# ----------------------------------------------------------------------
# Pure helpers.
# ----------------------------------------------------------------------
def test_scheme_rates_skips_harness_sections():
    rates = guard.scheme_rates(_snapshot({"PRA": 9000, "BASELINE": 11000}))
    assert rates == {"PRA": 9000.0, "BASELINE": 11000.0}


def test_scheme_rates_reads_legacy_key():
    """Pre-rename history records (best_of_3 key) still grade."""
    legacy = _snapshot(
        {"PRA": 9000}, rate_key="requests_per_second_best_of_3"
    )
    assert guard.scheme_rates(legacy) == {"PRA": 9000.0}


def test_legacy_baseline_grades_current_snapshot(tmp_path, capsys):
    """A current-key snapshot is compared against a legacy-key record."""
    legacy_record = {
        "commit": "old",
        "timestamp": "2026-08-01T00:00:00Z",
        "exitstatus": 0,
        "sections": _snapshot(
            {"PRA": 10000}, rate_key="requests_per_second_best_of_3"
        ),
    }
    code = _run(tmp_path, _snapshot({"PRA": 7000}), [legacy_record])
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_find_baseline_matches_fingerprint_and_skips_current():
    current = _snapshot({"PRA": 9000})
    records = [
        _record({"PRA": 12000}, fingerprint="fp-aaaa", commit="old"),
        _record({"PRA": 50}, fingerprint="fp-OTHER", commit="alien"),
        {"commit": "self", "timestamp": "t", "exitstatus": 0,
         "sections": current},  # the record this very session appended
    ]
    baseline = guard.find_baseline(records, "fp-aaaa", current)
    assert baseline is not None and baseline["commit"] == "old"


def test_find_baseline_none_when_only_other_environments():
    current = _snapshot({"PRA": 9000})
    records = [_record({"PRA": 12000}, fingerprint="fp-OTHER")]
    assert guard.find_baseline(records, "fp-aaaa", current) is None


def test_compare_flags_only_beyond_threshold():
    failures, lines = guard.compare(
        {"PRA": 7000.0, "BASELINE": 10500.0, "NEW": 5000.0},
        {"PRA": 10000.0, "BASELINE": 11000.0},
        threshold_pct=25.0,
    )
    # PRA dropped 30% (fail); BASELINE 4.5% (ok); NEW has no baseline.
    assert failures == ["PRA"]
    assert any("no baseline entry" in line for line in lines)


# ----------------------------------------------------------------------
# End-to-end exit codes.
# ----------------------------------------------------------------------
def test_regression_fails(tmp_path, capsys):
    code = _run(
        tmp_path,
        _snapshot({"PRA": 7000}),
        [_record({"PRA": 10000})],
    )
    assert code == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_within_threshold_passes(tmp_path, capsys):
    code = _run(
        tmp_path,
        _snapshot({"PRA": 8000}),
        [_record({"PRA": 10000})],
        extra_args=["--threshold", "30"],
    )
    assert code == 0
    assert "perf-guard: ok" in capsys.readouterr().out


def test_improvement_passes(tmp_path):
    assert _run(
        tmp_path, _snapshot({"PRA": 15000}), [_record({"PRA": 10000})]
    ) == 0


def test_no_history_is_vacuous_pass(tmp_path, capsys):
    assert _run(tmp_path, _snapshot({"PRA": 9000}), []) == 0
    assert "vacuous pass" in capsys.readouterr().out


def test_other_environment_only_is_vacuous_pass(tmp_path, capsys):
    code = _run(
        tmp_path,
        _snapshot({"PRA": 100}),
        [_record({"PRA": 10000}, fingerprint="fp-OTHER")],
    )
    assert code == 0
    assert "vacuous pass" in capsys.readouterr().out


def test_missing_snapshot_passes(tmp_path):
    hist = tmp_path / "BENCH_history.jsonl"
    hist.write_text("")
    assert guard.main(
        ["--snapshot", str(tmp_path / "nope.json"), "--history", str(hist)]
    ) == 0


def test_threshold_env_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_PERF_REGRESSION_PCT", "50")
    # 30% drop: fails at the default 25, passes at the env-set 50.
    code = _run(tmp_path, _snapshot({"PRA": 7000}), [_record({"PRA": 10000})])
    assert code == 0


def test_corrupt_history_lines_are_skipped(tmp_path):
    snap = tmp_path / "BENCH_throughput.json"
    snap.write_text(json.dumps(_snapshot({"PRA": 9000})))
    hist = tmp_path / "BENCH_history.jsonl"
    hist.write_text(
        "not json\n" + json.dumps(_record({"PRA": 9100})) + "\n{\"a\": 1}\n"
    )
    assert guard.main(
        ["--snapshot", str(snap), "--history", str(hist)]
    ) == 0


# ----------------------------------------------------------------------
# The _env stamp the fingerprint comes from.
# ----------------------------------------------------------------------
def test_current_env_schema():
    env = bench_io.current_env()
    assert isinstance(env["python"], str) and env["python"].count(".") == 2
    assert env["numpy"] is None or isinstance(env["numpy"], str)
    assert "-" in env["platform"]
    assert isinstance(env["cpus"], int) and env["cpus"] >= 1
    # The fingerprint hashes exactly these fields, so it still matches
    # the committed BENCH_history.jsonl records of this environment.
    hashed = {
        "engine": "interpreted",
        "python": ".".join(platform.python_version().split(".")[:2]),
        "numpy": (
            ".".join(env["numpy"].split(".")[:2]) if env["numpy"] else None
        ),
        "platform": env["platform"],
    }
    digest = hashlib.sha256(json.dumps(hashed, sort_keys=True).encode())
    assert env["fingerprint"] == digest.hexdigest()[:16]
    # JSON-serializable as-is (it lands in BENCH_throughput.json).
    json.dumps(env)
