"""The layered benchmark's traced work counts are pinned at seed 1.

``perfbench/run.py --trace 1`` reports, per layer, how often the
program's public calls ran during a fixed amount of work.  Those counts
are deterministic: the scheduler's step schedule is part of the model
(power-down entry and close-idle precharges happen at whatever cycle a
step runs), so a change that makes a run cheaper without changing what
it computes leaves every one of them equal.  This test wraps every
``SPANS`` target of ``perfbench/layers.py`` with a call counter (the
table is parsed from the file and resolved the way ``Tracer.patch``
resolves it; nothing under ``perfbench/`` is edited or imported for
it), runs each workload's ``traced_work()`` and checks the counts the
benchmark prints.
"""

import ast
import functools
import os
import sys
from collections import Counter

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(REPO_ROOT, "perfbench")
LAYERS = os.path.join(PERFBENCH, "layers.py")

#: Span names whose call counts make up ``power.calls``.
POWER_PREFIX = "power."

#: Per workload: the benchmark's call counts, the summed proactive DBI
#: writebacks and the summed scheduling passes of every result.
EXPECTED = {
    "detailed": {
        "controller.calls": 46570,
        "cache.access_calls": 32000,
        "cpu.advance_calls": 63454,
        "dram.decode_calls": 35390,
        "power.calls": 68267,
        "dbi_writebacks": 1166,
        "sched_passes": 129618,
    },
    "screen": {
        "controller.calls": 19820,
        "cache.access_calls": 15360,
        "cpu.advance_calls": 39140,
        "dram.decode_calls": 11940,
        "power.calls": 21600,
        "dbi_writebacks": 60,
        "sched_passes": 49000,
    },
}


def _spans():
    """``(span name, "module:Attr.path")`` pairs of the benchmark's table."""
    with open(LAYERS, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    for stmt in tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id == "SPANS"
        ):
            return ast.literal_eval(stmt.value)
    raise AssertionError("perfbench/layers.py defines no SPANS table")


class _Counting:
    """Call counters on every span target; results of the run spans."""

    def __init__(self):
        self.calls = Counter()
        self.results = []
        self._undo = []

    def install(self, spans):
        # What layers.py imports before it patches, so that functions
        # imported by name are rebound in those modules too.
        import repro.service.client  # noqa: F401
        import repro.sim.batch  # noqa: F401
        import repro.sim.system  # noqa: F401

        for name, target in spans:
            module_name, _, path = target.partition(":")
            owner = sys.modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            wrapped = self._wrap(name, original)
            self._set(owner, attr, wrapped, original)
            if parents:
                continue
            for mod_name, module in list(sys.modules.items()):
                if module is owner or module is None or not mod_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, wrapped, original)

    def _wrap(self, name, fn):
        calls, results = self.calls, self.results

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "system.run":
                results.append(result)
            elif name == "batch.run":
                results.extend(result)
            return result

        return counted

    def _set(self, owner, attr, value, original):
        setattr(owner, attr, value)
        self._undo.append((owner, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


@pytest.fixture
def perfbench_path(monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_SNAPSHOT_DIR", raising=False)


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_traced_work_counts(workload, perfbench_path):
    if workload == "detailed":
        from detailed import Detailed as Workload
    else:
        from screen import Screen as Workload
    bench = Workload(1)
    counting = _Counting()
    counting.install(_spans())
    try:
        bench.traced_work()
    finally:
        counting.uninstall()
    calls = counting.calls
    got = {
        "controller.calls": calls["controller.run_until"],
        "cache.access_calls": calls["cache.access"],
        "cpu.advance_calls": calls["cpu.try_advance"],
        "dram.decode_calls": calls["dram.decode_line"],
        "power.calls": sum(
            n for name, n in calls.items() if name.startswith(POWER_PREFIX)
        ),
        "dbi_writebacks": sum(r.dbi_proactive_writebacks for r in counting.results),
        "sched_passes": sum(r.controller.sched_passes for r in counting.results),
    }
    assert got == EXPECTED[workload]
