"""Shared fixtures for the paper-reproduction benchmark harness.

Every benchmark module regenerates one table or figure of the paper.
The session-scoped :class:`ExperimentRunner` caches simulations, so
e.g. Figures 10-13 share their baseline/PRA runs.

Run length defaults to a laptop-friendly size; set ``REPRO_EVENTS``
(memory instructions per core) to scale fidelity up, e.g.::

    REPRO_EVENTS=20000 pytest benchmarks/ --benchmark-only -s

The runner simulates in-process, one spec at a time; a grid that
should fan out over worker processes is a :class:`repro.sim.sweep.Sweep`
run on a :class:`repro.sim.pool.SimPool` (``repro bench --pool N``).

Sessions that refresh ``BENCH_throughput.json`` (the meta-benchmarks
in ``test_simulator_throughput.py`` / ``test_sweep_throughput.py``)
also append one line to ``BENCH_history.jsonl`` — commit sha,
timestamp, and every performance section — so the repo accumulates a
perf trajectory per commit that CI archives alongside the snapshot
numbers.
"""

import json
import os
import time

import pytest

from bench_io import RESULTS_PATH as THROUGHPUT_PATH
from bench_io import git_head
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.workloads.mixes import Workload
from repro.workloads.profiles import BENCHMARKS, profile

#: Default memory instructions per core for benchmark runs.
BENCH_EVENTS = int(os.environ.get("REPRO_EVENTS", "5000"))

#: The paper's 14 multiprogrammed workloads, in presentation order.
WORKLOAD_ORDER = list(BENCHMARKS) + [f"MIX{i}" for i in range(1, 7)]

#: Per-commit perf trajectory: one JSON line per benchmark session
#: that refreshed the throughput snapshot.  (The snapshot path itself,
#: and the git helper, live in :mod:`bench_io` so the meta-benchmarks
#: and the trajectory guard share them.)
HISTORY_PATH = THROUGHPUT_PATH.with_name("BENCH_history.jsonl")


def _throughput_mtime() -> "float | None":
    try:
        return THROUGHPUT_PATH.stat().st_mtime
    except OSError:
        return None


def pytest_sessionstart(session):
    """Remember the throughput snapshot's pre-session mtime."""
    session.config._repro_bench_mtime = _throughput_mtime()


def pytest_sessionfinish(session, exitstatus):
    """Append a perf-trajectory line when the snapshot was refreshed.

    Only sessions that actually rewrote ``BENCH_throughput.json``
    append (figure-only benchmark runs leave the history untouched),
    so every line corresponds to fresh numbers.  Failures to read git
    state degrade to ``"commit": null`` rather than failing the
    session — the history is an artifact, never a gate.
    """
    before = getattr(session.config, "_repro_bench_mtime", None)
    if _throughput_mtime() in (None, before):
        return
    try:
        sections = json.loads(THROUGHPUT_PATH.read_text())
    except (OSError, ValueError):
        return
    record = {
        "commit": git_head(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "exitstatus": int(getattr(exitstatus, "value", exitstatus)),
        "sections": sections,
    }
    with HISTORY_PATH.open("a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


@pytest.fixture(scope="session")
def runner() -> ExperimentRunner:
    return ExperimentRunner(
        events_per_core=BENCH_EVENTS,
        base_config=SystemConfig(),
    )


def single_core(name: str) -> Workload:
    """Single instance of a benchmark (Table 1 / Figs 2-3 methodology)."""
    return Workload(name=f"{name}-1core", apps=(profile(name),))
