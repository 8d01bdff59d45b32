"""The layered benchmark's patch targets resolve against the package.

``perfbench/layers.py`` names every call its traced pass wraps as
``"module:Attr.path"`` (``SPANS``, ``FIRST_EVENT``, ``LANE_PASSES``).
``Tracer.patch`` in ``perfbench/spans.py`` resolves each one as
``sys.modules[module]``, then ``getattr`` down the dotted parents, then
``vars(owner)[attr]``, after importing only ``repro.service.client``,
``repro.sim.batch`` and ``repro.sim.system``.  A rename or deletion in
``src/`` that breaks one of them breaks ``perfbench/run.py --trace 1``;
this test makes it fail the test suite instead.

The table is parsed from the file, never imported or edited here, so
the test follows it when the benchmark changes.  Resolution runs in a
fresh interpreter: this test process has imported far more of the
package than the benchmark does, which would hide a module that only
loads by accident.

The benchmark also rebinds ``repro.sim.sweep.simulate`` (the global
``_run_point`` calls; ``perfbench/measure.py::captured_results``) to
count the ``screen`` grid's DRAM requests, so a ``_run_point`` that
stopped calling it would zero those counts without an error;
:func:`test_run_point_calls_module_simulate` pins that hook.
"""

import ast
import json
import os
import subprocess
import sys

import pytest

import repro
from repro.sim import sweep as sweep_mod
from repro.sim.config import CacheConfig, SystemConfig

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = os.path.join(REPO_ROOT, "perfbench", "layers.py")
TABLE_NAMES = ("SPANS", "FIRST_EVENT", "LANE_PASSES")

#: Imports what layers.py imports, then resolves each target the way
#: Tracer.patch does; prints {target: problem} for the failures.
_RESOLVE = """
import json, sys
import repro.service.client, repro.sim.batch, repro.sim.system
problems = {}
for target in json.loads(sys.argv[1]):
    module_name, _, path = target.partition(":")
    owner = sys.modules.get(module_name)
    if owner is None:
        problems[target] = f"{module_name} is not loaded"
        continue
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        problems[target] = f"{path} not found in {module_name}"
print(json.dumps(problems))
"""


def _read_table():
    """``(span name, target)`` pairs from the benchmark's span table."""
    with open(LAYERS, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    found = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            name = stmt.targets[0]
            if isinstance(name, ast.Name) and name.id in TABLE_NAMES:
                found[name.id] = ast.literal_eval(stmt.value)
    assert set(found) == set(TABLE_NAMES), f"layers.py defines {sorted(found)}"
    return [*found["SPANS"], found["FIRST_EVENT"], found["LANE_PASSES"]]


TARGETS = _read_table()


@pytest.fixture(scope="module")
def problems():
    repro_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = {"PYTHONPATH": repro_root, "PATH": "/usr/bin:/bin"}
    # A run that writes no bytecode cache must not get one from its
    # child either.
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    result = subprocess.run(
        [sys.executable, "-c", _RESOLVE, json.dumps([t for _, t in TARGETS])],
        capture_output=True,
        text=True,
        env=env,
        check=True,
        timeout=120,
    )
    return json.loads(result.stdout)


@pytest.mark.parametrize("target", [t for _, t in TARGETS], ids=[n for n, _ in TARGETS])
def test_patch_target_resolves(target, problems):
    assert target not in problems, problems[target]


def test_run_point_calls_module_simulate(monkeypatch):
    ctx = (SystemConfig(cache=CacheConfig(llc_bytes=128 * 1024)), 40, 1, 200, None)
    point = {"scheme": "PRA", "workload": "GUPS"}
    expected = sweep_mod._run_point(ctx, point)
    calls = []
    original = sweep_mod.simulate

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(sweep_mod, "simulate", counting)
    assert sweep_mod._run_point(ctx, point) == expected
    assert len(calls) == 1
