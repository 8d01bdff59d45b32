"""The reprolint rule catalogue: repo-specific AST correctness rules.

Three rule families guard the invariants PRs 1-3 built the fast paths
on (see DESIGN.md, "Correctness tooling"):

**Determinism** — the fast-path/oracle duality (event engine vs
polling, TimingCore vs Bank/Rank views, TraceBlocks vs generator,
snapshot restore vs cold warmup) is only testable because runs are
bit-reproducible.  Anything that injects wall-clock time, the global
RNG, or unordered iteration into sim code silently breaks that.

* ``determinism-global-random`` — no module-level ``random.*`` calls;
  randomness must flow through a seeded ``random.Random`` instance.
* ``determinism-wallclock`` — no ``time.time``/``perf_counter``/
  ``datetime.now`` and friends inside sim code; timestamps belong to
  the harness, not the model.
* ``determinism-unordered-iter`` — no iteration over sets (literals,
  ``set()``/``frozenset()`` calls, set methods) without an explicit
  ``sorted(...)``; result merging and scheduling must not depend on
  hash order.
* ``determinism-float-energy`` — no float accumulation into
  ``*energy*`` counters outside ``repro/power``; energy bookkeeping
  is centralized so streak-batched and per-command accounting stay
  bit-identical.
* ``determinism-digest-canonical`` — in digest modules
  (:data:`repro.analysis.registry.DIGEST_MODULE_PATHS`, the sweep
  service's content-addressed cache keys), no builtin ``hash()``
  (salted per process since PEP 456) and no ``json.dumps``/``dump``
  without ``sort_keys=True`` (insertion-ordered); a cache key that
  varies across processes defeats cross-job and cross-restart dedup.

**Oracle parity** — every registered fast path must say what its
oracle twin is and which equivalence tests pin the pairing:

* ``oracle-twin-undeclared`` — fast-path module lacks a resolvable
  ``ORACLE_TWIN`` declaration (or a registered module dropped its
  ``REPRO_FAST_PATH`` marker).
* ``oracle-test-missing`` — ``ORACLE_TESTS`` missing, names a test
  file that does not exist, or names one that never references the
  module.

**Hot-path hygiene** — rules for code on the per-event/per-command
path:

* ``hygiene-slots`` — dataclasses in hot modules must use
  ``slots=True`` (or define ``__slots__``).
* ``hygiene-try-in-loop`` — no ``try``/``except`` inside loop bodies
  in hot modules; hoist the handler out of the inner loop.
* ``hygiene-mutable-default`` — mutable default arguments are banned
  repo-wide.

**Dataflow passes (v2)** — whole-function/whole-module analyses built
on :mod:`repro.analysis.flow` (see DESIGN.md §9):

* ``cow-unsafe-mutation`` — in-place mutation of a possibly-shared
  copy-on-write value not dominated by the declared privatization
  (:mod:`repro.analysis.cowcheck`); intentional sharing is declared
  with ``# reprolint: shares[reason]``.
* ``timing-unchecked-issue`` — a DRAM command-issue site whose
  function (and same-module callers) never consult the timing state
  the JEDEC constraint table mandates
  (:mod:`repro.analysis.constraints`).

Suppression: ``# reprolint: allow[rule-id]`` on the flagged line;
``# reprolint: skip-file`` anywhere disables the whole file;
``# reprolint: shares[reason]`` (reason required) declares an
intentional shared-mutation site to the COW pass.
"""

from __future__ import annotations

import ast
import os
import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

#: Sync/async function definitions share the default-checking logic.
_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]

from repro.analysis import registry


@dataclass(frozen=True, slots=True)
class Rule:
    """One lint rule: stable id plus a one-line summary."""

    id: str
    family: str
    summary: str


ALL_RULES: Tuple[Rule, ...] = (
    Rule("determinism-global-random", "determinism",
         "module-level random.* call; use a seeded random.Random"),
    Rule("determinism-wallclock", "determinism",
         "wall-clock call (time.time/perf_counter/datetime.now) in sim code"),
    Rule("determinism-unordered-iter", "determinism",
         "iteration over an unordered set without sorted(...)"),
    Rule("determinism-float-energy", "determinism",
         "float accumulation into an energy counter outside repro/power"),
    Rule("determinism-digest-canonical", "determinism",
         "process-salted hash() or unsorted json serialization in a "
         "digest module"),
    Rule("oracle-twin-undeclared", "oracle-parity",
         "fast-path module without a resolvable ORACLE_TWIN declaration"),
    Rule("oracle-test-missing", "oracle-parity",
         "fast-path module without a live ORACLE_TESTS equivalence test"),
    Rule("hygiene-slots", "hot-path-hygiene",
         "dataclass on a hot path without slots=True/__slots__"),
    Rule("hygiene-try-in-loop", "hot-path-hygiene",
         "try/except inside a loop body on a hot path"),
    Rule("hygiene-mutable-default", "hot-path-hygiene",
         "mutable default argument"),
    Rule("cow-unsafe-mutation", "cow-aliasing",
         "in-place mutation of a possibly-shared COW value without "
         "dominating privatization"),
    Rule("timing-unchecked-issue", "timing-coverage",
         "DRAM command issued without consulting the mandated timing state"),
)

RULE_IDS = frozenset(rule.id for rule in ALL_RULES)


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at a source location."""

    path: str
    line: int
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


_ALLOW_RE = re.compile(r"#\s*reprolint:\s*allow\[([a-z0-9\-,\s]+)\]")
_SKIP_FILE_RE = re.compile(r"#\s*reprolint:\s*skip-file")
#: Intentional-sharing pragma for the COW pass; the reason is
#: mandatory — ``shares[]`` does not parse and therefore suppresses
#: nothing.
_SHARES_RE = re.compile(r"#\s*reprolint:\s*shares\[([^\]]+)\]")

#: ``time`` module functions that read the wall clock / host state.
_WALL_TIME_FNS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic",
     "monotonic_ns", "process_time", "process_time_ns", "clock_gettime"}
)
#: ``datetime`` constructors that read the wall clock.
_WALL_DATETIME_FNS = frozenset({"now", "utcnow", "today"})
#: ``random`` module attributes that are *not* the global RNG.
_RANDOM_SAFE_ATTRS = frozenset({"Random", "SystemRandom"})
#: Set methods returning unordered sets.
_SET_METHODS = frozenset(
    {"intersection", "union", "difference", "symmetric_difference"}
)
#: Callables producing mutable containers (bad as argument defaults).
_MUTABLE_FACTORIES = frozenset(
    {"list", "dict", "set", "bytearray", "deque", "defaultdict",
     "OrderedDict", "Counter"}
)


def _allowed_lines(source: str) -> Dict[int, Set[str]]:
    """line number -> rule ids suppressed on that line."""
    allowed: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _ALLOW_RE.search(line)
        if match:
            ids = {part.strip() for part in match.group(1).split(",")}
            allowed[lineno] = ids
    return allowed


def _shares_lines(source: str) -> Set[int]:
    """Line numbers carrying a non-empty ``shares[reason]`` pragma."""
    shares: Set[int] = set()
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SHARES_RE.search(line)
        if match and match.group(1).strip():
            shares.add(lineno)
    return shares


def _call_name(node: ast.AST) -> Optional[str]:
    """Dotted name of a call target, best effort (``a.b.c`` or ``c``)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_unordered_expr(node: ast.expr, set_names: Set[str]) -> bool:
    """True when ``node`` syntactically evaluates to an unordered set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        target = node.func
        if isinstance(target, ast.Name) and target.id in ("set", "frozenset"):
            return True
        if isinstance(target, ast.Attribute) and target.attr in _SET_METHODS:
            return True
    if isinstance(node, ast.Name) and node.id in set_names:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        return _is_unordered_expr(node.left, set_names) or _is_unordered_expr(
            node.right, set_names
        )
    return False


def _mentions_energy(target: ast.expr) -> bool:
    """True when an assignment target names an energy counter."""
    node: Optional[ast.AST] = target
    while node is not None:
        if isinstance(node, ast.Subscript):
            node = node.value
            continue
        if isinstance(node, ast.Attribute):
            if "energy" in node.attr.lower():
                return True
            node = node.value
            continue
        if isinstance(node, ast.Name):
            return "energy" in node.id.lower()
        return False
    return False


class _ModuleChecker(ast.NodeVisitor):
    """Single-pass visitor collecting findings for one module."""

    def __init__(
        self,
        path: str,
        source: str,
        *,
        hot_path: bool,
        energy_ok: bool,
        digest: bool = False,
    ) -> None:
        self.path = path
        self.hot_path = hot_path
        self.energy_ok = energy_ok
        self.digest = digest
        self.findings: List[Finding] = []
        #: Aliases the ``random`` / ``time`` / ``json`` modules are
        #: imported under, and names ``json.dumps``/``dump`` are bound
        #: to by ``from json import ...``.
        self.random_aliases: Set[str] = set()
        self.time_aliases: Set[str] = set()
        self.json_aliases: Set[str] = set()
        self.json_dump_names: Set[str] = set()
        #: Names bound to set-valued expressions (per scope; coarse).
        self.set_names: Set[str] = set()
        self.loop_depth = 0
        # Module-level declarations the oracle rules read.
        self.declares_fast_path = False
        self.oracle_twin: Optional[object] = None
        self.oracle_tests: Optional[object] = None
        self.oracle_decl_line = 1

    # -- helpers -------------------------------------------------------
    def _add(self, node: ast.AST, rule: str, message: str) -> None:
        self.findings.append(
            Finding(self.path, getattr(node, "lineno", 1), rule, message)
        )

    # -- imports -------------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "random":
                self.random_aliases.add(alias.asname or "random")
            elif alias.name == "time":
                self.time_aliases.add(alias.asname or "time")
            elif alias.name == "json":
                self.json_aliases.add(alias.asname or "json")
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name not in _RANDOM_SAFE_ATTRS:
                    self._add(
                        node, "determinism-global-random",
                        f"'from random import {alias.name}' pulls in the "
                        f"process-global RNG; use random.Random(seed)",
                    )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_TIME_FNS:
                    self._add(
                        node, "determinism-wallclock",
                        f"'from time import {alias.name}' reads the wall "
                        f"clock inside sim code",
                    )
        elif node.module == "json":
            for alias in node.names:
                if alias.name in ("dumps", "dump"):
                    self.json_dump_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # -- calls ---------------------------------------------------------
    def _check_digest_call(self, node: ast.Call) -> None:
        """Digest-module canonicalization: no hash(), sorted JSON only."""
        func = node.func
        if isinstance(func, ast.Name) and func.id == "hash":
            self._add(
                node, "determinism-digest-canonical",
                "builtin hash() is salted per process (PEP 456); digest "
                "inputs must go through hashlib over canonical bytes",
            )
            return
        serializes = (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.json_aliases
            and func.attr in ("dumps", "dump")
        ) or (isinstance(func, ast.Name) and func.id in self.json_dump_names)
        if serializes and not any(
            kw.arg == "sort_keys"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value
            for kw in node.keywords
        ):
            self._add(
                node, "determinism-digest-canonical",
                "json serialization without sort_keys=True in a digest "
                "module; key order must not depend on dict insertion "
                "history",
            )

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if self.digest:
            self._check_digest_call(node)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            base, attr = func.value.id, func.attr
            if base in self.random_aliases and attr not in _RANDOM_SAFE_ATTRS:
                self._add(
                    node, "determinism-global-random",
                    f"random.{attr}() uses the process-global RNG; "
                    f"draw from a seeded random.Random instead",
                )
            if base in self.time_aliases and attr in _WALL_TIME_FNS:
                self._add(
                    node, "determinism-wallclock",
                    f"time.{attr}() reads the wall clock inside sim code",
                )
            if attr in _WALL_DATETIME_FNS and "date" in base.lower():
                self._add(
                    node, "determinism-wallclock",
                    f"{base}.{attr}() reads the wall clock inside sim code",
                )
        elif isinstance(func, ast.Attribute):
            dotted = _call_name(func)
            if dotted and dotted.startswith("datetime.") and (
                func.attr in _WALL_DATETIME_FNS
            ):
                self._add(
                    node, "determinism-wallclock",
                    f"{dotted}() reads the wall clock inside sim code",
                )
        self.generic_visit(node)

    # -- unordered iteration ------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        if _is_unordered_expr(node.value, self.set_names):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.add(target.id)
        else:
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self.set_names.discard(target.id)
            self._check_oracle_decl(node)
        self.generic_visit(node)

    def _check_oracle_decl(self, node: ast.Assign) -> None:
        for target in node.targets:
            if not isinstance(target, ast.Name):
                continue
            if target.id == "REPRO_FAST_PATH":
                if isinstance(node.value, ast.Constant) and node.value.value:
                    self.declares_fast_path = True
                    self.oracle_decl_line = node.lineno
            elif target.id == "ORACLE_TWIN":
                self.oracle_twin = node.value
            elif target.id == "ORACLE_TESTS":
                self.oracle_tests = node.value

    def _flag_iter(self, node: ast.AST, iterable: ast.expr) -> None:
        if _is_unordered_expr(iterable, self.set_names):
            self._add(
                node, "determinism-unordered-iter",
                "iterating an unordered set; wrap it in sorted(...) so "
                "merge/scheduling order is deterministic",
            )

    def visit_For(self, node: ast.For) -> None:
        self._flag_iter(node, node.iter)
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_While(self, node: ast.While) -> None:
        self.loop_depth += 1
        self.generic_visit(node)
        self.loop_depth -= 1

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self._flag_iter(node.iter, node.iter)
        self.generic_visit(node)

    # -- try/except in hot loops --------------------------------------
    def visit_Try(self, node: ast.Try) -> None:
        if self.hot_path and self.loop_depth > 0:
            self._add(
                node, "hygiene-try-in-loop",
                "try/except inside a loop body on a hot path; hoist the "
                "handler out of the per-cycle loop",
            )
        self.generic_visit(node)

    # -- energy accumulation ------------------------------------------
    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        if (
            not self.energy_ok
            and isinstance(node.op, (ast.Add, ast.Sub))
            and _mentions_energy(node.target)
        ):
            self._add(
                node, "determinism-float-energy",
                "accumulating into an energy counter outside repro/power; "
                "route it through the PowerAccountant helpers",
            )
        self.generic_visit(node)

    # -- functions: mutable defaults, fresh loop context ---------------
    def _check_defaults(self, node: _FunctionNode) -> None:
        args = node.args
        for default in list(args.defaults) + [
            d for d in args.kw_defaults if d is not None
        ]:
            bad = isinstance(
                default, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)
            )
            if isinstance(default, ast.Call):
                name = _call_name(default.func)
                bad = bad or (
                    name is not None
                    and name.rsplit(".", 1)[-1] in _MUTABLE_FACTORIES
                )
            if bad:
                self._add(
                    node, "hygiene-mutable-default",
                    f"mutable default argument on {node.name}(); default "
                    f"to None and create inside the body",
                )

    def _visit_function(self, node: _FunctionNode) -> None:
        self._check_defaults(node)
        outer_depth, self.loop_depth = self.loop_depth, 0
        outer_sets, self.set_names = self.set_names, set()
        self.generic_visit(node)
        self.loop_depth = outer_depth
        self.set_names = outer_sets

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    # -- dataclass slots -----------------------------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        if self.hot_path:
            self._check_dataclass_slots(node)
        self.generic_visit(node)

    def _check_dataclass_slots(self, node: ast.ClassDef) -> None:
        dataclass_deco = None
        for deco in node.decorator_list:
            name = _call_name(deco.func if isinstance(deco, ast.Call) else deco)
            if name and name.rsplit(".", 1)[-1] == "dataclass":
                dataclass_deco = deco
                break
        if dataclass_deco is None:
            return
        if isinstance(dataclass_deco, ast.Call):
            for kw in dataclass_deco.keywords:
                if kw.arg == "slots" and isinstance(kw.value, ast.Constant):
                    if kw.value.value:
                        return
        for stmt in node.body:
            targets = []
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id == "__slots__":
                    return
        self._add(
            node, "hygiene-slots",
            f"dataclass {node.name} on a hot path without slots=True; "
            f"per-event instances pay a __dict__ each",
        )


def _resolve_twin(twin: str, repo_root: str) -> bool:
    """True if a dotted ``ORACLE_TWIN`` resolves to a module under src/.

    The declaration may point at a module (``repro.dram.bank``) or an
    attribute inside one (``repro.sim.system.System._run_polling``):
    components are stripped from the right until a file matches.
    """
    parts = twin.split(".")
    while parts:
        candidate = os.path.join(repo_root, "src", *parts) + ".py"
        if os.path.isfile(candidate):
            return True
        init = os.path.join(repo_root, "src", *parts, "__init__.py")
        if os.path.isfile(init):
            return True
        parts = parts[:-1]
    return False


def _const_strings(node: ast.expr) -> Optional[List[str]]:
    """Extract a string or tuple/list-of-strings constant, else None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, (ast.Tuple, ast.List)):
        out = []
        for element in node.elts:
            if not (
                isinstance(element, ast.Constant)
                and isinstance(element.value, str)
            ):
                return None
            out.append(element.value)
        return out
    return None


def _check_oracle_parity(
    checker: _ModuleChecker, path: str, repo_root: str
) -> None:
    """Apply the oracle-parity rules after the AST pass."""
    registered = registry.is_registered_fast_path(path)
    if registered and not checker.declares_fast_path:
        checker.findings.append(Finding(
            path, 1, "oracle-twin-undeclared",
            "module is a registered fast path but lacks the "
            "'REPRO_FAST_PATH = True' marker",
        ))
    if not (registered or checker.declares_fast_path):
        return
    line = checker.oracle_decl_line

    twins: Optional[List[str]] = None
    if checker.oracle_twin is None:
        checker.findings.append(Finding(
            path, line, "oracle-twin-undeclared",
            "fast-path module must declare ORACLE_TWIN = "
            "'<dotted.path.of.oracle>' naming its slow reference twin",
        ))
    else:
        twins = _const_strings(checker.oracle_twin)
        if not twins:
            checker.findings.append(Finding(
                path, checker.oracle_twin.lineno, "oracle-twin-undeclared",
                "ORACLE_TWIN must be a string (or tuple of strings) "
                "constant",
            ))
        else:
            for twin in twins:
                if not _resolve_twin(twin, repo_root):
                    checker.findings.append(Finding(
                        path, checker.oracle_twin.lineno,
                        "oracle-twin-undeclared",
                        f"ORACLE_TWIN {twin!r} does not resolve to a "
                        f"module under src/",
                    ))

    module_stem = os.path.splitext(os.path.basename(path))[0]
    if checker.oracle_tests is None:
        checker.findings.append(Finding(
            path, line, "oracle-test-missing",
            "fast-path module must declare ORACLE_TESTS = ('tests/...',) "
            "naming the equivalence tests that pin it to its twin",
        ))
        return
    tests = _const_strings(checker.oracle_tests)
    if not tests:
        checker.findings.append(Finding(
            path, checker.oracle_tests.lineno, "oracle-test-missing",
            "ORACLE_TESTS must be a non-empty tuple of repo-relative "
            "test paths",
        ))
        return
    for test_rel in tests:
        test_path = os.path.join(repo_root, test_rel)
        if not os.path.isfile(test_path):
            checker.findings.append(Finding(
                path, checker.oracle_tests.lineno, "oracle-test-missing",
                f"equivalence test {test_rel!r} does not exist",
            ))
            continue
        with open(test_path, "r", encoding="utf-8") as handle:
            text = handle.read()
        if module_stem not in text:
            checker.findings.append(Finding(
                path, checker.oracle_tests.lineno, "oracle-test-missing",
                f"equivalence test {test_rel!r} never references "
                f"'{module_stem}'",
            ))


def find_repo_root(start: str) -> str:
    """Walk up from ``start`` to the directory holding pyproject.toml."""
    current = os.path.abspath(start)
    if os.path.isfile(current):
        current = os.path.dirname(current)
    while True:
        if os.path.isfile(os.path.join(current, "pyproject.toml")):
            return current
        parent = os.path.dirname(current)
        if parent == current:
            return os.getcwd()
        current = parent


def check_file(
    path: str,
    repo_root: Optional[str] = None,
    select: Optional[Sequence[str]] = None,
) -> List[Finding]:
    """Lint one file; returns surviving findings (pragmas applied)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    if _SKIP_FILE_RE.search(source):
        return []
    if repo_root is None:
        repo_root = find_repo_root(path)
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [Finding(path, exc.lineno or 1, "syntax-error", str(exc))]

    checker = _ModuleChecker(
        path,
        source,
        hot_path=registry.is_hot_path(path, source),
        energy_ok=registry.allows_energy_accumulation(path),
        digest=registry.is_digest_module(path, source),
    )
    checker.visit(tree)
    _check_oracle_parity(checker, path, repo_root)
    _run_dataflow_passes(checker, tree, path, source)

    allowed = _allowed_lines(source)
    shares = _shares_lines(source)
    findings = [
        finding
        for finding in checker.findings
        if finding.rule not in allowed.get(finding.line, ())
        and not (
            finding.rule == "cow-unsafe-mutation" and finding.line in shares
        )
    ]
    if select:
        wanted = set(select)
        findings = [f for f in findings if f.rule in wanted]
    return sorted(findings, key=lambda f: (f.path, f.line, f.rule))


def _run_dataflow_passes(
    checker: _ModuleChecker, tree: ast.Module, path: str, source: str
) -> None:
    """Apply the v2 dataflow passes (COW, timing)."""
    from repro.analysis import constraints, cowcheck

    for line, message in cowcheck.check_module(
        tree, path, must_declare=registry.is_cow_module(path)
    ):
        checker.findings.append(
            Finding(path, line, "cow-unsafe-mutation", message)
        )
    if constraints.applies_to(path, source):
        for line, message in constraints.check_module(tree, path):
            checker.findings.append(
                Finding(path, line, "timing-unchecked-issue", message)
            )
