#!/usr/bin/env python3
"""CI guard: reject one-sided twin-fingerprint regenerations.

``tests/data/twin_fingerprints.json`` pins the structural digests of
the declared oracle-twin pairs (see ``repro.analysis.twins``).  The
lint pass forces an editor of twin code to regenerate the file — this
guard closes the remaining loophole: regenerating the fingerprints
while the diff edits only ONE side of a pair means the twin
transcription was *not* mirrored, just re-pinned around.

Policy, per pair, when the diff touches the fingerprint file:

* neither side touched  — fine (new pair added, note edited, …)
* both sides touched    — fine (the edit was mirrored)
* exactly one side      — REJECTED

Usage::

    python scripts/check_twin_regen.py --base origin/main
    python scripts/check_twin_regen.py --files a.py b.py ...  # tests

With ``--base``, the changed-file list comes from ``git diff
--name-only <base>...HEAD``; when the range cannot be resolved
(shallow clone, first commit) the guard passes vacuously rather than
blocking CI.  ``--files`` bypasses git entirely.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import List, Optional, Sequence

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))

from repro.analysis import twins  # noqa: E402  (path set up above)


def changed_files_from_git(base: str) -> Optional[List[str]]:
    """Repo-relative changed paths for ``base...HEAD``, or None."""
    try:
        completed = subprocess.run(
            ["git", "diff", "--name-only", f"{base}...HEAD"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if completed.returncode != 0:
        return None
    return [line.strip() for line in completed.stdout.splitlines() if line.strip()]


def check(changed: Sequence[str]) -> List[str]:
    """Violation messages for one changed-file set (empty = pass)."""
    changed_set = {path.replace("\\", "/") for path in changed}
    if twins.FINGERPRINT_FILE not in changed_set:
        return []
    violations: List[str] = []
    for pair in twins.PAIRS:
        a_touched = pair.a.path in changed_set
        b_touched = pair.b.path in changed_set
        if a_touched == b_touched:
            continue
        touched, untouched = (
            (pair.a, pair.b) if a_touched else (pair.b, pair.a)
        )
        violations.append(
            f"pair '{pair.id}': fingerprints were regenerated and "
            f"{touched.label()} changed, but its twin "
            f"{untouched.label()} did not — mirror the edit on both "
            f"sides before re-pinning ({pair.note})"
        )
    return violations


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="check_twin_regen",
        description="Reject twin-fingerprint regenerations whose diff "
        "touches only one side of a pair.",
    )
    parser.add_argument(
        "--base", default=None,
        help="git ref to diff HEAD against (e.g. origin/main)",
    )
    parser.add_argument(
        "--files", nargs="*", default=None,
        help="explicit changed-file list (bypasses git; for tests)",
    )
    args = parser.parse_args(argv)

    if args.files is not None:
        changed: Optional[List[str]] = list(args.files)
    elif args.base:
        changed = changed_files_from_git(args.base)
    else:
        parser.print_usage(sys.stderr)
        print("check_twin_regen: need --base or --files", file=sys.stderr)
        return 2

    if changed is None:
        print(
            "check_twin_regen: diff range unavailable (shallow clone or "
            "unknown base); passing vacuously",
            file=sys.stderr,
        )
        return 0

    violations = check(changed)
    for violation in violations:
        print(f"check_twin_regen: {violation}")
    if violations:
        print(
            f"check_twin_regen: {len(violations)} one-sided "
            f"regeneration(s) rejected",
            file=sys.stderr,
        )
        return 1
    print("check_twin_regen: ok", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
