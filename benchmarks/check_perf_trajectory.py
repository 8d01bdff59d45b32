#!/usr/bin/env python
"""Perf-trajectory regression guard over the benchmark history.

Compares the *fresh* per-scheme throughput in ``BENCH_throughput.json``
against the most recent ``BENCH_history.jsonl`` record produced in the
**same environment** — matched by the ``_env.fingerprint`` stamp
(python/numpy major.minor, platform), so a 3.12 run is never graded
against a 3.10 baseline, nor one platform against another.  A scheme whose best-of-N req/s dropped more than
the threshold (default 25%, ``REPRO_PERF_REGRESSION_PCT`` or
``--threshold`` overrides) fails the check.

Stdlib-only on purpose: CI runs it right after the benchmark steps
(``python benchmarks/check_perf_trajectory.py``) without needing the
package importable, and it must never perturb what it measures.

No baseline in the history (first run on a new environment, fresh
clone without history) passes vacuously with a notice — the guard
gates *trajectories*, not absolute numbers; the absolute floors live
in the benchmarks themselves.
"""

import argparse
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
THROUGHPUT_PATH = REPO_ROOT / "BENCH_throughput.json"
HISTORY_PATH = REPO_ROOT / "BENCH_history.jsonl"

#: Per-scheme metric the trajectory is graded on.  Older snapshots
#: (before the dispersion-adaptive best-of-N reps) recorded the rate
#: under the legacy key, so history records keep grading across the
#: rename.
RATE_KEY = "requests_per_second_best"
LEGACY_RATE_KEYS = ("requests_per_second_best_of_3",)

DEFAULT_THRESHOLD_PCT = 25.0


def scheme_rates(sections):
    """scheme name -> req/s for every scheme section of a snapshot.

    Scheme sections are the non-underscore keys carrying the rate
    metric; harness sections (``_construction``, ``_sweep``, ``_env``,
    ...) are skipped.
    """
    rates = {}
    for name, section in sections.items():
        if name.startswith("_") or not isinstance(section, dict):
            continue
        for key in (RATE_KEY, *LEGACY_RATE_KEYS):
            rate = section.get(key)
            if isinstance(rate, (int, float)) and rate > 0:
                rates[name] = float(rate)
                break
    return rates


def read_history(path):
    """Parsed history records, oldest first (bad lines skipped)."""
    if not path.exists():
        return []
    records = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and isinstance(record.get("sections"), dict):
            records.append(record)
    return records


def find_baseline(records, fingerprint, current_sections):
    """Most recent same-environment record that isn't the current run.

    The benchmark session appends the refreshed snapshot to the history
    before CI runs this guard, so a record whose sections equal the
    current snapshot is the run under test, not a baseline.
    """
    for record in reversed(records):
        sections = record["sections"]
        if sections == current_sections:
            continue
        env = sections.get("_env")
        if not isinstance(env, dict) or env.get("fingerprint") != fingerprint:
            continue
        if scheme_rates(sections):
            return record
    return None


def compare(current_rates, baseline_rates, threshold_pct):
    """(failures, report lines) for schemes present in both snapshots."""
    failures = []
    lines = []
    for name in sorted(current_rates):
        if name not in baseline_rates:
            lines.append(f"  {name:<12} {current_rates[name]:>10,.0f} req/s "
                         f"(no baseline entry)")
            continue
        now, then = current_rates[name], baseline_rates[name]
        delta_pct = (now - then) / then * 100.0
        verdict = "ok"
        if delta_pct < -threshold_pct:
            verdict = f"REGRESSION (>{threshold_pct:.0f}% drop)"
            failures.append(name)
        lines.append(
            f"  {name:<12} {now:>10,.0f} req/s vs {then:>10,.0f} "
            f"({delta_pct:+6.1f}%)  {verdict}"
        )
    return failures, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--threshold", type=float,
        default=float(os.environ.get(
            "REPRO_PERF_REGRESSION_PCT", DEFAULT_THRESHOLD_PCT
        )),
        help="max tolerated drop in percent (default %(default)s)",
    )
    parser.add_argument(
        "--snapshot", type=Path, default=THROUGHPUT_PATH,
        help="BENCH_throughput.json to grade",
    )
    parser.add_argument(
        "--history", type=Path, default=HISTORY_PATH,
        help="BENCH_history.jsonl holding the baselines",
    )
    args = parser.parse_args(argv)

    try:
        current = json.loads(args.snapshot.read_text())
    except (OSError, ValueError):
        print(f"perf-guard: no readable snapshot at {args.snapshot}; "
              f"nothing to grade (pass)")
        return 0
    current_rates = scheme_rates(current)
    env = current.get("_env")
    if not current_rates or not isinstance(env, dict):
        print("perf-guard: snapshot carries no per-scheme rates or no "
              "_env stamp; nothing to grade (pass)")
        return 0

    records = read_history(args.history)
    baseline = find_baseline(records, env.get("fingerprint"), current)
    if baseline is None:
        print(f"perf-guard: no prior history for environment "
              f"{env.get('fingerprint')!r}; "
              f"vacuous pass — this run becomes the baseline")
        return 0

    baseline_rates = scheme_rates(baseline["sections"])
    failures, lines = compare(current_rates, baseline_rates, args.threshold)
    print(f"perf-guard: comparing against commit "
          f"{baseline.get('commit')} ({baseline.get('timestamp')}), "
          f"environment {env.get('fingerprint')!r}, "
          f"threshold {args.threshold:.0f}%")
    for line in lines:
        print(line)
    if failures:
        print(f"perf-guard: FAIL — {', '.join(failures)} regressed more "
              f"than {args.threshold:.0f}%")
        return 1
    print("perf-guard: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
