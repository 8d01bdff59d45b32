"""reprolint driver: walk trees, apply the rule engine, report.

Usage::

    python -m repro.analysis.lint src/            # lint the simulator
    python -m repro.analysis.lint --list-rules
    python -m repro.analysis.lint path.py --select hygiene-slots

Exit status 0 when no findings, 1 when any rule fired, 2 on usage
errors.  Output is one ``path:line: [rule-id] message`` per finding —
stable order, so CI diffs are readable.

The tree walk skips the analysis package itself, committed lint
fixtures (which *should* fail) and build debris; linting a file
explicitly (a direct path argument) bypasses the exclusion list so
fixtures can be exercised one by one.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterable, List, Optional, Sequence

from repro.analysis import registry
from repro.analysis.rules import ALL_RULES, RULE_IDS, Finding, check_file, find_repo_root


def iter_python_files(root: str) -> Iterable[str]:
    """Yield lintable ``.py`` files under ``root`` in sorted order."""
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        dirnames[:] = [
            d for d in dirnames
            if not registry.is_excluded(os.path.join(dirpath, d) + "/")
        ]
        for filename in sorted(filenames):
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            if not registry.is_excluded(path):
                yield path


def lint_paths(
    paths: Sequence[str],
    select: Optional[Sequence[str]] = None,
    repo_root: Optional[str] = None,
) -> List[Finding]:
    """Lint files/trees through :func:`check_file`; returns all
    findings in stable order."""
    findings: List[Finding] = []
    root: Optional[str] = repo_root
    for path in paths:
        root = root or find_repo_root(path)
        if os.path.isdir(path):
            for file_path in iter_python_files(path):
                findings.extend(check_file(file_path, root, select))
        else:
            findings.extend(check_file(path, root, select))
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="reprolint",
        description="Simulator-invariant static analysis for this repo "
        "(determinism, oracle parity, hot-path hygiene).",
    )
    parser.add_argument("paths", nargs="*", help="files or trees to lint")
    parser.add_argument(
        "--select", nargs="+", metavar="RULE",
        help="only report these rule ids",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true",
        help="suppress the summary line",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:32s} [{rule.family}] {rule.summary}")
        return 0
    if not args.paths:
        parser.print_usage(sys.stderr)
        return 2
    if args.select:
        unknown = set(args.select) - RULE_IDS
        if unknown:
            print(f"reprolint: unknown rule(s): {sorted(unknown)}", file=sys.stderr)
            return 2

    findings = lint_paths(args.paths, select=args.select)
    for finding in findings:
        print(finding.render())
    if not args.quiet:
        noun = "finding" if len(findings) == 1 else "findings"
        print(f"reprolint: {len(findings)} {noun}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
