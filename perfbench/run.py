#!/usr/bin/env python3
"""Layered benchmark of the PRA simulator: detailed, screen and service.

Run from the root of a checkout::

    python3 perfbench/run.py [--workload detailed|screen|service|all]
                             [--seed N] [--seconds S] [--trace 0|1]

An untraced run times each workload for ``--seconds`` and prints every
end-to-end metric with its unit.  Work done in the benchmark process
(``detailed`` and ``screen``) is timed in CPU seconds scaled to a fixed
machine's full speed by the speed that a reference loop, interleaved
with the work, measured in the same run (``measure.HostSpeed``); the
``service`` workload reports wall time.  A traced run (``--trace 1``) wraps
the program's public calls before it builds anything, runs a fixed
amount of the workload, removes the wrappers, runs the same work again
untraced, and prints the per-layer metrics, the closing-the-books table
and the tracing overhead.  Both check every output against the
program's own oracle: ``fail_ratio`` is failed over attempted
operations.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--workload all`` each workload runs in a process of its own, so that
one workload's memory does not show in the next one's ``peak_rss_mb``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Span dumps and service state directories (ignored by git).
SCRATCH = ROOT / ".perfbench"
WORKLOADS = ("detailed", "screen", "service")
#: Environment settings that change what the program does - disk
#: snapshots would turn set-up replays into loads, the sanitizer and a
#: forced engine or batch backend change the timed code - so the
#: benchmark always measures the defaults.
PINNED_ENV = ("REPRO_SNAPSHOT_DIR", "REPRO_SANITIZE", "REPRO_ENGINE",
              "REPRO_BATCH_BACKEND")


def load_program() -> None:
    """Import ``repro`` from this checkout's ``src``, or exit non-zero."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: {package} not found; run from a checkout of the repository")
    for name in PINNED_ENV:
        if os.environ.pop(name, None) is not None:
            print(f"perfbench: ignoring {name}", file=sys.stderr)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=(__doc__ or "").splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1,
                        help="trace seed of every workload (default 1, the repository's)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="length of each workload's timed region (untraced runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing the per-layer metrics")
    return parser.parse_args(argv)


def build(name: str, seed: int) -> Any:
    if name == "detailed":
        from detailed import Detailed

        return Detailed(seed)
    if name == "screen":
        from screen import Screen

        return Screen(seed)
    from service import Service

    return Service(seed, SCRATCH, SRC)


def show(outcome: Any) -> None:
    for name, (value, unit) in outcome.metrics.items():
        print(f"  {name:<26} {value:>16.6g} {unit}")
    checks = outcome.checks
    fail_ratio = checks.failed / checks.attempted if checks.attempted else 0.0
    print(f"  {'fail_ratio':<26} {fail_ratio:>16.6g} fraction "
          f"({checks.failed} of {checks.attempted} operations failed)")
    for note in checks.notes:
        print(f"  FAILED: {note}")
    for line in outcome.lines:
        print(line)
    sys.stdout.flush()


def result(outcome: Any) -> Dict[str, Any]:
    """The result object of one workload."""
    checks = outcome.checks
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in outcome.metrics.items()}
    return {"correct": checks.failed == 0, "attempted": checks.attempted,
            "failed": checks.failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in a child process; their results merged, metric
    names prefixed with ``<workload>.``."""
    merged: Dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(child.stdout, end="", flush=True)
            print(f"perfbench: {name} exited with code {child.returncode}", file=sys.stderr)
            code = code or child.returncode or 1
            continue
        *report, last = lines
        print("\n".join(report), flush=True)
        outcome = json.loads(last)
        merged["correct"] = merged["correct"] and outcome["correct"]
        merged["attempted"] += outcome["attempted"]
        merged["failed"] += outcome["failed"]
        for metric, value in outcome["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    if code == 0:
        print(json.dumps(merged))
    return code


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    load_program()
    if args.workload == "all":
        return run_all(args)
    from layers import traced

    SCRATCH.mkdir(exist_ok=True)
    workload = build(args.workload, args.seed)
    mode = "traced" if args.trace else f"{args.seconds:g} s timed"
    print(f"== {args.workload} (seed {args.seed}, {mode}) ==", flush=True)
    if args.trace:
        outcome = traced(workload, SCRATCH)
    else:
        outcome = workload.measure(args.seconds)
    show(outcome)
    print(json.dumps(result(outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
