"""reprolint self-test: the repo lints clean, every fixture fails.

Two obligations pin the linter itself:

* ``repro lint --no-typegate src/`` must exit 0 on the committed
  tree (the rules describe invariants the code actually upholds);
* each fixture under ``tests/lint_fixtures/`` must trip exactly its
  named rule with a non-zero exit, so a rule that silently stops
  firing breaks this suite rather than rotting unnoticed.
"""

import json
import os

import pytest

from repro import cli
from repro.analysis.lint import lint_paths
from repro.analysis.rules import ALL_RULES, RULE_IDS, check_file

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "lint_fixtures")

#: rule id -> fixture file expected to trip it (rules with several
#: trigger spellings may appear more than once).
FIXTURES = {
    "determinism-global-random": "global_random.py",
    "determinism-wallclock": "wallclock.py",
    "determinism-unordered-iter": "unordered_iter.py",
    "determinism-float-energy": "float_energy.py",
    "determinism-digest-canonical": "digest_noncanonical.py",
    "oracle-twin-undeclared": "oracle_twin_undeclared.py",
    "oracle-test-missing": "oracle_test_missing.py",
    "hygiene-slots": "slots_missing.py",
    "hygiene-try-in-loop": "try_in_loop.py",
    "hygiene-mutable-default": "mutable_default.py",
}

EXTRA_FIXTURES = {
    "determinism-global-random": ["global_random_import.py"],
}


def _fixture(name):
    return os.path.join(FIXTURE_DIR, name)


def _lint(*argv):
    """Exit code of ``repro lint --no-typegate ARGV`` (reprolint only)."""
    return cli.main(["lint", "--no-typegate", *argv])


# ----------------------------------------------------------------------
# The committed tree is clean.
# ----------------------------------------------------------------------
def test_src_tree_lints_clean():
    """The simulator source trips no rule (acceptance criterion)."""
    findings = lint_paths([SRC], repo_root=REPO_ROOT)
    assert findings == [], "\n".join(f.render() for f in findings)


def test_cli_exits_zero_on_src(capsys):
    """``repro lint --no-typegate src/`` exits 0 on the repo."""
    assert _lint(SRC) == 0
    assert "0 findings" in capsys.readouterr().err


def test_tests_tree_lints_clean():
    """The test suite itself honours the repo-wide rules too."""
    findings = lint_paths(
        [os.path.join(REPO_ROOT, "tests")], repo_root=REPO_ROOT
    )
    assert findings == [], "\n".join(f.render() for f in findings)


# ----------------------------------------------------------------------
# Fast-path registration coverage: the oracle-parity rules must be
# *armed* for the performance-critical modules, not just pass on them.
# ----------------------------------------------------------------------
BATCH_FAST_PATHS = ("src/repro/sim/batch.py",)


@pytest.mark.parametrize("rel_path", BATCH_FAST_PATHS)
def test_batch_modules_are_registered_fast_paths(rel_path):
    """The batch-kernel modules are in the registry and lint armed.

    Registration is what makes ``oracle-twin-undeclared`` /
    ``oracle-test-missing`` fire if a future edit drops the
    declarations; an unregistered module passes vacuously.
    """
    from repro.analysis.registry import FAST_PATH_MODULES, is_registered_fast_path

    assert rel_path in FAST_PATH_MODULES
    assert is_registered_fast_path(os.path.join(REPO_ROOT, rel_path))


@pytest.mark.parametrize("module_name", ["repro.sim.batch"])
def test_batch_oracle_declarations_resolve(module_name):
    """ORACLE_TWIN / ORACLE_TESTS on the batch modules are live.

    The twin's dotted path must import (module, optionally attribute)
    and every declared equivalence test must exist and mention the
    module, so the pairing cannot silently rot.
    """
    import importlib

    module = importlib.import_module(module_name)
    assert module.REPRO_FAST_PATH is True

    twin = module.ORACLE_TWIN
    parts = twin.split(".")
    for split in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for attr in parts[split:]:
            obj = getattr(obj, attr)
        break
    else:
        pytest.fail(f"ORACLE_TWIN {twin!r} does not import")

    stem = module_name.rsplit(".", 1)[1]
    for test_rel in module.ORACLE_TESTS:
        test_path = os.path.join(REPO_ROOT, test_rel)
        assert os.path.isfile(test_path), test_rel
        with open(test_path, encoding="utf-8") as handle:
            assert stem in handle.read(), (
                f"{test_rel} never references {stem}"
            )


@pytest.mark.parametrize("rel_path", BATCH_FAST_PATHS)
def test_batch_modules_trip_rule_without_declarations(rel_path, tmp_path):
    """Stripping the declarations from a registered path fails lint."""
    source = open(os.path.join(REPO_ROOT, rel_path), encoding="utf-8").read()
    stripped = "\n".join(
        line for line in source.splitlines()
        if not line.startswith(("ORACLE_TWIN", "ORACLE_TESTS"))
    )
    # Recreate the registered repo-relative path under tmp_path so the
    # path-based registry match still fires.
    clone = tmp_path / rel_path
    clone.parent.mkdir(parents=True)
    clone.write_text(stripped)
    rules = {f.rule for f in check_file(str(clone), repo_root=str(tmp_path))}
    assert "oracle-twin-undeclared" in rules
    assert "oracle-test-missing" in rules


# ----------------------------------------------------------------------
# The simulation hot path (timing core, ranks, controller, cache
# arrays) is registered too, and its oracle declarations stay live.
# ----------------------------------------------------------------------
HOT_MODULES = (
    "repro.cache.set_assoc",
    "repro.controller.memctrl",
    "repro.dram.rank",
    "repro.dram.soa",
)


@pytest.mark.parametrize("module_name", HOT_MODULES)
def test_hot_modules_are_registered_fast_paths(module_name):
    """Every hot-path module is oracle-registered (rules armed)."""
    from repro.analysis.registry import FAST_PATH_MODULES, is_registered_fast_path

    rel_path = "src/" + module_name.replace(".", "/") + ".py"
    assert rel_path in FAST_PATH_MODULES
    assert is_registered_fast_path(os.path.join(REPO_ROOT, rel_path))


@pytest.mark.parametrize("module_name", HOT_MODULES)
def test_hot_module_oracle_declarations_resolve(module_name):
    """ORACLE_TWIN / ORACLE_TESTS on the hot-path modules are live."""
    import importlib

    module = importlib.import_module(module_name)
    assert module.REPRO_FAST_PATH is True

    twins = module.ORACLE_TWIN
    if isinstance(twins, str):
        twins = (twins,)
    for twin in twins:
        parts = twin.split(".")
        for split in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for attr in parts[split:]:
                obj = getattr(obj, attr)
            break
        else:
            pytest.fail(f"ORACLE_TWIN {twin!r} does not import")

    stem = module_name.rsplit(".", 1)[1]
    for test_rel in module.ORACLE_TESTS:
        test_path = os.path.join(REPO_ROOT, test_rel)
        assert os.path.isfile(test_path), test_rel
        with open(test_path, encoding="utf-8") as handle:
            assert stem in handle.read(), (
                f"{test_rel} never references {stem}"
            )


# ----------------------------------------------------------------------
# Every rule has a fixture that trips it.
# ----------------------------------------------------------------------
def test_every_rule_has_a_fixture():
    """The fixture table covers the whole rule catalogue."""
    assert set(FIXTURES) == RULE_IDS
    assert len(ALL_RULES) >= 8


@pytest.mark.parametrize("rule_id", sorted(FIXTURES))
def test_fixture_trips_its_rule(rule_id, capsys):
    """Each fixture fails lint with (at least) its named rule."""
    path = _fixture(FIXTURES[rule_id])
    findings = check_file(path, repo_root=REPO_ROOT)
    assert rule_id in {f.rule for f in findings}, (
        f"{path} did not trip {rule_id}: "
        + "\n".join(f.render() for f in findings)
    )
    # Non-zero exit through the CLI surface too.
    assert _lint(path) == 1
    assert f"[{rule_id}]" in capsys.readouterr().out


@pytest.mark.parametrize(
    "rule_id,name",
    [(r, n) for r, names in sorted(EXTRA_FIXTURES.items()) for n in names],
)
def test_extra_fixture_spellings(rule_id, name):
    """Alternative trigger spellings are caught as well."""
    findings = check_file(_fixture(name), repo_root=REPO_ROOT)
    assert rule_id in {f.rule for f in findings}


def test_clean_fixture_passes(capsys):
    """The control fixture (seeded RNG, slots, sorted sets) exits 0."""
    assert _lint(_fixture("clean.py")) == 0
    assert capsys.readouterr().out == ""


def test_fixtures_are_excluded_from_tree_walks():
    """Walking tests/ must not descend into the failing fixtures."""
    findings = lint_paths(
        [os.path.join(REPO_ROOT, "tests")], repo_root=REPO_ROOT
    )
    assert not any("lint_fixtures" in f.path for f in findings)


# ----------------------------------------------------------------------
# Suppression and CLI behaviour.
# ----------------------------------------------------------------------
def test_allow_pragma_suppresses_one_line(tmp_path):
    """``# reprolint: allow[rule-id]`` silences exactly that line."""
    bad = tmp_path / "pragma.py"
    bad.write_text(
        '"""Doc."""\n'
        "def f(a=[]):  # reprolint: allow[hygiene-mutable-default]\n"
        "    return a\n"
        "def g(b=[]):\n"
        "    return b\n"
    )
    findings = check_file(str(bad), repo_root=REPO_ROOT)
    assert [f.rule for f in findings] == ["hygiene-mutable-default"]
    assert findings[0].line == 4


def test_skip_file_pragma_disables_everything(tmp_path):
    """``# reprolint: skip-file`` turns the whole module off."""
    bad = tmp_path / "skip.py"
    bad.write_text(
        '"""Doc."""\n'
        "# reprolint: skip-file\n"
        "def f(a=[]):\n"
        "    return a\n"
    )
    assert check_file(str(bad), repo_root=REPO_ROOT) == []


def test_select_filters_rules():
    """--select narrows reporting to the requested rule ids."""
    path = _fixture("mutable_default.py")
    only = lint_paths([path], select=["determinism-wallclock"],
                      repo_root=REPO_ROOT)
    assert only == []
    kept = lint_paths([path], select=["hygiene-mutable-default"],
                      repo_root=REPO_ROOT)
    assert [f.rule for f in kept] == ["hygiene-mutable-default"]


def test_unknown_select_is_a_usage_error(capsys):
    """Typos in --select exit 2 instead of silently matching nothing."""
    assert _lint(_fixture("clean.py"), "--select", "no-such-rule") == 2
    assert "unknown reprolint rule" in capsys.readouterr().err


def test_cli_lint_rejects_unknown_rule(monkeypatch, capsys):
    """An unknown --select id given before --no-typegate exits 2 and
    names the bad id."""
    monkeypatch.chdir(REPO_ROOT)
    code = cli.main([
        "lint", _fixture("wallclock.py"), "--select", "no-such-rule",
        "--no-typegate",
    ])
    assert code == 2
    assert "no-such-rule" in capsys.readouterr().err


def test_cli_lint_json_report(tmp_path, monkeypatch, capsys):
    """``--format json`` prints the report; ``--json-out`` writes it."""
    monkeypatch.chdir(REPO_ROOT)
    out = tmp_path / "report.json"
    code = _lint(_fixture("wallclock.py"), "--format", "json",
                 "--json-out", str(out))
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["version"] == 1
    assert report["typegate"] is None
    assert report["counts"] == {"determinism-wallclock": 1}
    assert [f["path"] for f in report["findings"]] == [
        "tests/lint_fixtures/wallclock.py"
    ]
    assert json.loads(out.read_text()) == report


def test_cli_lint_github_annotations(monkeypatch, capsys):
    """``--format github`` prints one workflow annotation per finding."""
    monkeypatch.chdir(REPO_ROOT)
    assert _lint(_fixture("wallclock.py"), "--format", "github") == 1
    lines = [line for line in capsys.readouterr().out.splitlines() if line]
    assert len(lines) == 1
    assert lines[0].startswith(
        "::error file=tests/lint_fixtures/wallclock.py,line=8,"
        "title=reprolint determinism-wallclock::"
    )


def test_cli_lint_clean_file_exits_zero(monkeypatch, capsys):
    """A clean source file named explicitly exits 0 with 0 findings."""
    monkeypatch.chdir(REPO_ROOT)
    target = os.path.join(SRC, "repro", "analysis", "registry.py")
    assert _lint(target) == 0
    assert "0 findings" in capsys.readouterr().err


def test_list_rules(capsys):
    """--list-rules prints the full catalogue and exits 0."""
    assert cli.main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in ALL_RULES:
        assert rule.id in out


def test_syntax_error_is_reported_not_raised(tmp_path, capsys):
    """Unparseable input, bad syntax or bytes that are not UTF-8,
    becomes a finding that names the file, not a crash."""
    for name, content, line in (
        ("broken.py", b"def f(:\n", 1),
        ("latin1.py", b'"""Doc."""\nNAME = "caf\xe9"\n', 2),
    ):
        bad = tmp_path / name
        bad.write_bytes(content)
        findings = check_file(str(bad), repo_root=REPO_ROOT)
        assert [(f.rule, f.line) for f in findings] == [("syntax-error", line)]
        assert _lint(str(bad)) == 1
        assert f"{bad}:{line}: [syntax-error]" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Typing gate wrapper
# ----------------------------------------------------------------------
def test_typegate_skips_missing_tools(monkeypatch, capsys):
    """Absent tools skip loudly with exit 0 (1 under --strict)."""
    from repro.analysis import typegate

    monkeypatch.setattr(
        typegate, "GATES", (("no_such_tool_xyz", ("no_such_tool_xyz",)),)
    )
    assert typegate.main([]) == 0
    assert typegate.main(["--strict"]) == 1
    err = capsys.readouterr().err
    assert "SKIP no_such_tool_xyz" in err


def test_typegate_runs_available_tools(monkeypatch):
    """An importable tool is executed and its exit code propagated."""
    from repro.analysis import typegate

    # `pytest` is importable in every test environment; --version exits 0.
    monkeypatch.setattr(
        typegate, "GATES", (("pytest", ("pytest", "--version")),)
    )
    assert typegate.main([]) == 0
