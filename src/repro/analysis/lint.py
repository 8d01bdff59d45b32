"""reprolint's tree walk: find lintable files and apply the rule engine.

The command line is ``repro lint`` (:func:`repro.cli.cmd_lint`)::

    repro lint --no-typegate src/ tests/      # reprolint only
    repro lint --list-rules
    repro lint --no-typegate path.py --select hygiene-slots

It exits 0 when no rule fired, 1 on any finding (or a failed typing
gate), 2 on usage errors.  Output is one ``path:line: [rule-id]
message`` per finding — stable order, so CI diffs are readable.

The tree walk skips the analysis package itself, committed lint
fixtures (which *should* fail) and build debris; linting a file
explicitly (a direct path argument) bypasses the exclusion list so
fixtures can be exercised one by one.
"""

from __future__ import annotations

import os
from typing import Iterable, List, Optional, Sequence

from repro.analysis import registry
from repro.analysis.rules import Finding, check_file, find_repo_root


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
