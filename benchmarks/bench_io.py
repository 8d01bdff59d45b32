"""Shared I/O for the benchmark snapshot artifacts.

Every meta-benchmark that records numbers goes through
:func:`update_results`, which read-modify-writes its section of
``BENCH_throughput.json`` and refreshes the ``_env`` provenance stamp
(python/numpy versions, platform, git sha, and the comparison
fingerprint, see :func:`current_env`).  The stamp is what makes the
numbers *interpretable*: a throughput jump means nothing until you
know whether a different interpreter or a different machine produced
it — and the perf-trajectory guard (``check_perf_trajectory.py``)
only ever compares entries whose fingerprints match.

The benchmark conftest mirrors the whole snapshot (``_env`` included)
into ``BENCH_history.jsonl``, one line per refreshing session.
"""

import hashlib
import json
import os
import platform
import subprocess
from pathlib import Path

#: Where the benchmark snapshot lands (repo root; uploaded by CI).
RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_throughput.json"


def git_head(root=None):
    """Current commit sha (with ``-dirty`` suffix), or None outside git."""
    root = str(root or RESULTS_PATH.parent)
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
        if sha.returncode != 0:
            return None
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    head = sha.stdout.strip()
    if status.returncode == 0 and status.stdout.strip():
        head += "-dirty"
    return head


def load_results(path=None):
    """The current snapshot dict (tolerant of absence/corruption)."""
    path = path or RESULTS_PATH
    if not path.exists():
        return {}
    try:
        return json.loads(path.read_text())
    except (ValueError, OSError):
        return {}


def current_env():
    """The ``_env`` stamp: execution environment plus the git sha.

    The ``fingerprint`` hashes the fields that decide whether two
    records are comparable — python/numpy major.minor and platform —
    and deliberately excludes the git sha (the whole point is comparing
    across commits) and the CPU count (the benchmarks are single-point
    serial).  The hashed fields keep the ``"engine": "interpreted"``
    entry every committed history record was stamped with, so
    fingerprints stay comparable with that history.
    """
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    python_version = platform.python_version()
    comparable = {
        "engine": "interpreted",
        "python": ".".join(python_version.split(".")[:2]),
        "numpy": ".".join(numpy_version.split(".")[:2]) if numpy_version else None,
        "platform": f"{platform.system().lower()}-{platform.machine()}",
    }
    digest = hashlib.sha256(json.dumps(comparable, sort_keys=True).encode()).hexdigest()
    return {
        "python": python_version,
        "numpy": numpy_version,
        "platform": comparable["platform"],
        "cpus": os.cpu_count(),
        "fingerprint": digest[:16],
        "git": git_head(),
    }


def _write(results, path):
    path.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")


def update_results(section, payload, path=None):
    """Replace one section of the snapshot and refresh ``_env``.

    Returns the full snapshot as written.  Sections are either scheme
    names or underscore-prefixed harness sections (``_construction``,
    ``_sweep``, ``_batch``, ``_service``); ``_env`` is reserved and
    always rewritten here so it describes the process that last touched
    the file.
    """
    path = path or RESULTS_PATH
    results = load_results(path)
    results[section] = payload
    results["_env"] = current_env()
    _write(results, path)
    return results
