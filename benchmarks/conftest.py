"""Shared fixtures for the paper-reproduction benchmark harness.

Every benchmark module regenerates one table or figure of the paper.
The simulated figures read rows of the paper's grid, declared once in
:mod:`paper_grid` as ten disjoint sweep blocks.  A test asks the
session fixture ``grid_of`` for the blocks it reads
(``grid_of("relaxed-base", "relaxed-pra")`` is a
:class:`repro.sim.metrics.Grid` over their rows).  Each block runs as
one :class:`repro.sim.sweep.Sweep` the first time a test names it, on
a session :class:`repro.sim.pool.SimPool` of ``min(2, CPUs)`` workers,
the rule ``repro bench`` uses; so a module run on its own simulates
only the blocks it reads, and no point runs twice in a session.  The
ablation and sensitivity modules call ``simulate`` with their own
one-off configs.

Run length defaults to a laptop-friendly size; set ``REPRO_EVENTS``
(memory instructions per core) to scale fidelity up, e.g.::

    REPRO_EVENTS=20000 pytest benchmarks/ --benchmark-only -s

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
from paper_grid import BLOCKS
from repro.sim.metrics import Grid
from repro.sim.pool import SimPool
from repro.sim.sweep import Sweep

#: Default memory instructions per core for benchmark runs.
BENCH_EVENTS = int(os.environ.get("REPRO_EVENTS", "5000"))

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
def sim_pool():
    """The session's simulation workers, opened by the first block run."""
    with SimPool(workers=min(2, os.cpu_count() or 1)) as pool:
        yield pool


@pytest.fixture(scope="session")
def grid_of(sim_pool):
    """``grid_of(*names)``: a Grid over the named blocks of the paper grid."""
    blocks = {}

    def grid(*names):
        for name in names:
            if name not in blocks:
                sweep = Sweep(events_per_core=BENCH_EVENTS)
                for axis, values in BLOCKS[name].items():
                    sweep.add_axis(axis, values)
                blocks[name] = sweep.run(pool=sim_pool)
        return Grid(*(blocks[name] for name in names))

    return grid
