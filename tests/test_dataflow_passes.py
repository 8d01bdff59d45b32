"""Unit tests for the reprolint v2 dataflow passes.

Covers the three passes directly (twins, cowcheck, constraints) on
synthetic inputs and tmp-clone repos, the ``repro lint`` CLI wrapper,
and the tier-1 wall-clock budget for the full analysis suite.  The
fixture round-trips (each rule fires on its committed broken module)
live in ``tests/test_reprolint.py``; these tests pin the *semantics*
each pass must get right.
"""

import ast
import json
import os
import shutil
import time

import pytest

from repro.analysis import constraints, cowcheck, twins
from repro.analysis.lint import lint_paths
from repro.analysis.rules import check_file
from repro.cli import main as cli_main

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(REPO_ROOT, "tests", "lint_fixtures")


# ----------------------------------------------------------------------
# Twins: qualname resolution and in-file pairs.
# ----------------------------------------------------------------------
def test_find_qualname_resolves_methods_and_constants():
    tree = ast.parse(
        "CONST = (1, 2)\n"
        "class C:\n"
        "    __slots__ = ('a', 'b')\n"
        "    def method(self):\n"
        "        pass\n"
    )
    assert isinstance(twins._find_qualname(tree, "CONST"), ast.Assign)
    assert isinstance(twins._find_qualname(tree, "C.method"), ast.FunctionDef)
    assert isinstance(twins._find_qualname(tree, "C.__slots__"), ast.Assign)
    assert twins._find_qualname(tree, "C.missing") is None
    assert twins._find_qualname(tree, "nope") is None


def test_in_file_pair_identical_up_to_name_and_docstring():
    tree = ast.parse(
        'REPRO_TWIN_PAIRS = (("p", "a", "b"),)\n'
        "def a(x):\n"
        '    """doc a"""\n'
        "    return x + 1\n"
        "def b(x):\n"
        '    """doc b, different"""\n'
        "    return x + 1\n"
    )
    assert twins.check_in_file(tree, "m.py") == []


def test_in_file_pair_drift_and_missing_side():
    drifted = ast.parse(
        'REPRO_TWIN_PAIRS = (("p", "a", "b"),)\n'
        "def a(x):\n"
        "    return x + 1\n"
        "def b(x):\n"
        "    return x + 2\n"
    )
    findings = twins.check_in_file(drifted, "m.py")
    assert len(findings) == 1
    assert "no longer structurally identical" in findings[0][2]

    missing = ast.parse(
        'REPRO_TWIN_PAIRS = (("p", "a", "gone"),)\n'
        "def a(x):\n"
        "    return x\n"
    )
    findings = twins.check_in_file(missing, "m.py")
    assert len(findings) == 1
    assert "'gone'" in findings[0][2]


# ----------------------------------------------------------------------
# Twins: fingerprint drift in a tmp clone of the twin sources.
# ----------------------------------------------------------------------
_SOA = "src/repro/dram/soa.py"
_SOA_BATCH = "src/repro/dram/soa_batch.py"


def _clone(tmp_path, with_fingerprints=True):
    """Copy the timing-slots pair sources (and the committed
    fingerprints) into a bare tmp repo root."""
    rels = [_SOA, _SOA_BATCH]
    if with_fingerprints:
        rels.append(twins.FINGERPRINT_FILE)
    for rel in rels:
        dst = tmp_path / rel
        dst.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(os.path.join(REPO_ROOT, *rel.split("/")), dst)
    return str(tmp_path)


def _mutate_scalar_slots(root):
    """Append a slot to ``TimingCore.__slots__`` in the clone (one-sided
    drift, comment-free rewrite via unparse round-trip)."""
    path = os.path.join(root, *_SOA.split("/"))
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    slots = twins._find_qualname(tree, "TimingCore.__slots__")
    assert isinstance(slots, ast.Assign) and isinstance(slots.value, ast.Tuple)
    slots.value.elts.append(ast.Constant(value="drift_probe"))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(ast.unparse(ast.fix_missing_locations(tree)) + "\n")


def test_clean_clone_matches_committed_fingerprints(tmp_path):
    root = _clone(tmp_path)
    assert twins.check_fingerprints(root, {_SOA, _SOA_BATCH}) == []


def test_one_sided_drift_names_the_untouched_twin(tmp_path):
    root = _clone(tmp_path)
    _mutate_scalar_slots(root)
    findings = twins.check_fingerprints(root, {_SOA})
    assert len(findings) == 1
    path, line, message = findings[0]
    assert path == _SOA
    assert line > 1
    assert "timing-slots" in message
    assert "did NOT change" in message
    assert twins.REGEN_ENV in message  # regeneration instructions


def test_regeneration_clears_drift(tmp_path):
    root = _clone(tmp_path)
    _mutate_scalar_slots(root)
    twins.write_fingerprints(root, "test re-pin")
    assert twins.check_fingerprints(root, {_SOA}) == []


def test_linted_paths_scope_pairs(tmp_path):
    # Drift exists, but no linted file is a side of any pair: silent.
    root = _clone(tmp_path)
    _mutate_scalar_slots(root)
    assert twins.check_fingerprints(root, {"src/unrelated.py"}) == []


def test_missing_fingerprint_file_is_a_finding(tmp_path):
    root = _clone(tmp_path, with_fingerprints=False)
    findings = twins.check_fingerprints(root, {_SOA})
    assert findings
    assert all("no committed fingerprint" in msg for _, _, msg in findings)


def test_write_refuses_without_regen_env(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv(twins.REGEN_ENV, raising=False)
    root = _clone(tmp_path, with_fingerprints=False)
    assert twins.main(["--write", "--repo-root", root]) == 2
    assert not os.path.exists(twins.fingerprint_path(root))
    assert twins.REGEN_ENV in capsys.readouterr().err


def test_write_succeeds_with_regen_env(tmp_path, monkeypatch):
    monkeypatch.setenv(twins.REGEN_ENV, "1")
    root = _clone(tmp_path, with_fingerprints=False)
    assert twins.main(["--write", "--repo-root", root, "--note", "t"]) == 0
    stored = twins.load_fingerprints(root)
    assert stored is not None and stored["format"] == twins.FORMAT


# ----------------------------------------------------------------------
# Twins: semantic slot coverage for the timing-slots pair.
# ----------------------------------------------------------------------
def _slot_repo(tmp_path, scalar_slots, batch_slots, lane_rebinds):
    """Synthetic soa/soa_batch modules for check_slot_coverage."""
    soa = tmp_path / "src" / "repro" / "dram" / "soa.py"
    soa.parent.mkdir(parents=True, exist_ok=True)
    soa.write_text(
        "class TimingCore:\n"
        f"    __slots__ = {tuple(scalar_slots)!r}\n"
    )
    lane_body = "".join(
        f"        core.{name} = self.{name}[i]\n" for name in lane_rebinds
    ) or "        pass\n"
    (soa.parent / "soa_batch.py").write_text(
        "class BatchTimingCore:\n"
        f"    __slots__ = {tuple(batch_slots)!r}\n"
        "    def lane(self, i, core):\n"
        f"{lane_body}"
        "        return core\n"
    )
    return str(tmp_path)


def test_slot_coverage_clean_when_slab_covers_scalar(tmp_path):
    root = _slot_repo(
        tmp_path,
        scalar_slots=("num_ranks", "num_banks", "act_ready", "faw"),
        batch_slots=("num_lanes", "num_ranks", "num_banks", "act_ready",
                     "faw"),
        lane_rebinds=("act_ready", "faw"),
    )
    assert twins.check_slot_coverage(root) == []


def test_slot_coverage_flags_missing_and_unwired_slots(tmp_path):
    # 'faw' exists on the scalar core but has no slab column and is
    # never rebound by lane(): both semantic checks must fire.
    root = _slot_repo(
        tmp_path,
        scalar_slots=("num_ranks", "num_banks", "act_ready", "faw"),
        batch_slots=("num_lanes", "num_ranks", "num_banks", "act_ready"),
        lane_rebinds=("act_ready",),
    )
    messages = [msg for _, _, msg in twins.check_slot_coverage(root)]
    assert len(messages) == 2
    assert any("missing scalar TimingCore slots ['faw']" in m
               for m in messages)
    assert any("never rebinds scalar slots ['faw']" in m for m in messages)


# ----------------------------------------------------------------------
# COW/aliasing pass.
# ----------------------------------------------------------------------
_PROTOCOL = cowcheck.Protocol(("_tags",), ("lane",), ("_own",), 1)


def _cow_findings(source):
    fn = ast.parse(source).body[-1]
    assert isinstance(fn, ast.FunctionDef)
    return cowcheck.check_function(fn.name, fn, _PROTOCOL)


def test_unguarded_view_mutation_is_flagged():
    findings = _cow_findings(
        "def f(self, i):\n"
        "    tags = self._tags[i]\n"
        "    tags['k'] = 1\n"
    )
    assert len(findings) == 1
    assert "possibly-shared" in findings[0][1]


def test_root_mutation_is_safe():
    # The outer container is a fresh copy; rebinding its element is the
    # privatization idiom itself, never a finding.
    assert _cow_findings(
        "def f(self, i, t):\n"
        "    self._tags[i] = t\n"
    ) == []


def test_shared_call_views_and_mutating_methods():
    findings = _cow_findings(
        "def f(slab, i):\n"
        "    view = lane(i)\n"
        "    view.update({})\n"
    )
    assert len(findings) == 1
    assert ".update() on" in findings[0][1]


def test_guarded_privatizer_anchors_downstream_mutation():
    # The set_assoc shape: the *guard* dominates the mutation even
    # though the privatizing branch does not.
    assert _cow_findings(
        "def f(self, i):\n"
        "    tags = self._tags[i]\n"
        "    if not self.owned:\n"
        "        tags = self._own(i)\n"
        "    tags['k'] = 1\n"
    ) == []


def test_fresh_copy_rebind_anchors():
    # The dbi thaw shape: a guarded set() self-rebind privatizes.
    assert _cow_findings(
        "def f(self, key):\n"
        "    lines = self._tags[key]\n"
        "    if isinstance(lines, tuple):\n"
        "        lines = set(lines)\n"
        "    lines.add(3)\n"
    ) == []


def test_privatizer_after_mutation_does_not_anchor():
    findings = _cow_findings(
        "def f(self, i):\n"
        "    tags = self._tags[i]\n"
        "    tags['k'] = 1\n"
        "    tags = self._own(i)\n"
    )
    assert len(findings) == 1


def test_for_loop_over_root_yields_views():
    findings = _cow_findings(
        "def f(self):\n"
        "    for row in self._tags:\n"
        "        row.clear()\n"
    )
    assert len(findings) == 1
    assert ".clear() on" in findings[0][1]


def test_missing_protocol_in_registered_module():
    findings = cowcheck.check_module(ast.parse("x = 1\n"), "m.py", True)
    assert len(findings) == 1
    assert findings[0][0] == 1
    assert "REPRO_COW_PROTOCOL" in findings[0][1]
    # Unregistered modules without a protocol are simply skipped.
    assert cowcheck.check_module(ast.parse("x = 1\n"), "m.py", False) == []


def test_shares_pragma_suppresses_cow_finding(tmp_path):
    def body(pragma):
        return (
            "REPRO_COW_PROTOCOL = {\n"
            '    "shared_roots": ("_tags",),\n'
            '    "shared_calls": (),\n'
            '    "privatizers": (),\n'
            "}\n"
            "\n"
            "\n"
            "class C:\n"
            "    def f(self, i):\n"
            "        tags = self._tags[i]\n"
            f"        tags['k'] = 1{pragma}\n"
        )

    bare = tmp_path / "bare.py"
    bare.write_text(body(""))
    flagged = check_file(str(bare), str(tmp_path), ["cow-unsafe-mutation"])
    assert len(flagged) == 1

    marked = tmp_path / "marked.py"
    marked.write_text(
        body("  # reprolint: shares[test: aliasing is the point]")
    )
    assert check_file(str(marked), str(tmp_path),
                      ["cow-unsafe-mutation"]) == []


# ----------------------------------------------------------------------
# Timing-constraint coverage pass.
# ----------------------------------------------------------------------
def test_issue_site_recognition():
    fn = ast.parse(
        "def f(core, rank, g, r, row, now):\n"
        "    core.open_row[g] = row\n"
        "    core.open_row[g] = -1\n"
        "    core.next_col_ok[r] = now\n"
        "    rank.do_refresh(now)\n"
        "    rank.enter_power_down(now)\n"
    ).body[0]
    commands = [site.command for site in constraints.issue_sites(fn)]
    assert commands == ["ACT", "PRE", "COLUMN", "REF", "PD"]


def test_slice_stores_are_administrative():
    fn = ast.parse(
        "def f(core, fresh):\n"
        "    core.open_row[0:4] = fresh\n"
    ).body[0]
    assert constraints.issue_sites(fn) == []


def test_uncovered_act_names_every_missed_parameter():
    findings = constraints.check_module(
        ast.parse(
            "def sneak(core, g, row):\n"
            "    core.open_row[g] = row\n"
        ),
        "m.py",
    )
    assert len(findings) == 1
    message = findings[0][1]
    for param in ("act_ready", "next_act_ok", "tFAW", "gate"):
        assert param in message


def test_caller_union_covers_unconditional_helpers():
    # The _try_column shape: the helper commits unconditionally, the
    # caller performed every screen — the union covers the site.
    tree = ast.parse(
        "def _commit(core, g, row):\n"
        "    core.open_row[g] = row\n"
        "\n"
        "def step(core, g, row, now):\n"
        "    if core.act_ready[g] <= now and core.next_act_ok <= now:\n"
        "        if core.faw_ok(now) and core.gate <= now:\n"
        "            _commit(core, g, row)\n"
    )
    assert constraints.check_module(tree, "m.py") == []


def test_helper_without_screening_caller_is_flagged():
    tree = ast.parse(
        "def _commit(core, g, row):\n"
        "    core.open_row[g] = row\n"
        "\n"
        "def step(core, g, row, now):\n"
        "    _commit(core, g, row)\n"
    )
    findings = constraints.check_module(tree, "m.py")
    assert len(findings) == 1
    assert "_commit" in findings[0][1]


def test_admin_functions_are_exempt():
    tree = ast.parse(
        "def reset_rows(core):\n"
        "    core.open_row[0] = -1\n"
        "\n"
        "def restore_rows(core, snap):\n"
        "    core.open_row[0] = snap[0]\n"
    )
    assert constraints.check_module(tree, "m.py") == []


def test_unpacked_alias_reads_count_as_consultation():
    # The hot path unpacks timing state into suffixed locals; substring
    # matching must accept them as consultation.
    tree = ast.parse(
        "def go(core, g, row, now):\n"
        "    act_ready_g = core.timers[0]\n"
        "    next_act_ok_a = core.timers[1]\n"
        "    faw_ok_a = core.timers[2]\n"
        "    gate_a = core.timers[3]\n"
        "    if act_ready_g <= now <= next_act_ok_a <= faw_ok_a <= gate_a:\n"
        "        core.open_row[g] = row\n"
    )
    assert constraints.check_module(tree, "m.py") == []


def test_timing_scope_and_opt_in():
    assert constraints.applies_to("src/repro/controller/policy.py", "")
    assert constraints.applies_to("src/repro/dram/soa.py", "")
    assert not constraints.applies_to("src/repro/sim/system.py", "x = 1\n")
    assert constraints.applies_to(
        "tests/lint_fixtures/whatever.py", "# reprolint: timing\n"
    )


# ----------------------------------------------------------------------
# `repro lint` CLI wrapper.
# ----------------------------------------------------------------------
_COW_FIXTURE = os.path.join(FIXTURES, "cow_unsafe_mutation.py")


def test_cli_lint_json_report(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "report.json"
    code = cli_main([
        "lint", _COW_FIXTURE, "--format", "json",
        "--json-out", str(out), "--no-typegate",
    ])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["typegate"] is None
    assert set(report["counts"]) == {"cow-unsafe-mutation"}
    assert all(
        f["path"] == "tests/lint_fixtures/cow_unsafe_mutation.py"
        for f in report["findings"]
    )
    # --json-out writes the same document CI archives.
    assert json.loads(out.read_text()) == report


def test_cli_lint_github_annotations(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli_main([
        "lint", _COW_FIXTURE, "--format", "github", "--no-typegate",
    ])
    assert code == 1
    lines = [
        line for line in capsys.readouterr().out.splitlines() if line
    ]
    assert lines
    for line in lines:
        assert line.startswith(
            "::error file=tests/lint_fixtures/cow_unsafe_mutation.py,line="
        )
        assert "title=reprolint cow-unsafe-mutation::" in line


def test_cli_lint_clean_file_exits_zero(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    target = os.path.join(REPO_ROOT, "src", "repro", "analysis", "registry.py")
    assert cli_main(["lint", target, "--no-typegate"]) == 0
    assert "0 findings" in capsys.readouterr().err


def test_cli_lint_rejects_unknown_rule(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    code = cli_main([
        "lint", _COW_FIXTURE, "--select", "no-such-rule", "--no-typegate",
    ])
    assert code == 2
    assert "no-such-rule" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Tier-1 budget: the full analysis suite must stay cheap enough to run
# on every commit (v1 rules + all three dataflow passes + the repo-wide
# fingerprint check over src/ and tests/).
# ----------------------------------------------------------------------
def test_full_analysis_suite_clean_and_under_budget():
    start = time.monotonic()  # reprolint: allow[determinism-wallclock]
    findings = lint_paths(
        [os.path.join(REPO_ROOT, "src"), os.path.join(REPO_ROOT, "tests")],
        repo_root=REPO_ROOT,
    )
    elapsed = time.monotonic() - start  # reprolint: allow[determinism-wallclock]
    assert findings == [], [f.render() for f in findings]
    # ~0.6 s locally; 30 s leaves a wide margin for CI runners while
    # still catching an accidental quadratic blowup in the passes.
    assert elapsed < 30.0, f"analysis suite took {elapsed:.1f}s"
