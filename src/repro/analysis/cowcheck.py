"""COW/aliasing-escape analysis over the shared dataflow layer.

The warm-state snapshot machinery relies on *deliberate* aliasing:
``SetAssociativeCache.restore_state`` rebinds per-set containers that
are still shared with the snapshot until ``_own_set`` privatizes them,
and ``DirtyBlockIndex.restore_rows`` installs immutable tuple aliases
that ``mark_dirty``/``mark_clean``/``on_writeback`` thaw on first
write.  The invariant that
keeps snapshots reusable is "never mutate a possibly-shared value in
place without first privatizing it" — previously enforced only by code
review.

This pass makes the invariant checkable.  A module opts in with an
in-file protocol declaration::

    REPRO_COW_PROTOCOL = {
        "shared_roots": ("_tags", "_free"),   # attrs holding COW containers
        "privatizers": ("_own_set",),         # calls that unshare
    }

Modules listed in ``registry.COW_MODULES`` *must* declare a protocol
(``cow-unsafe-mutation`` fires on the module line otherwise); any
other module may declare one and get the same analysis.

For each function we run a forward may-alias dataflow (see
``flow.solve_forward``) with a three-level lattice per local name:

* ``NONE``   — not derived from a COW root,
* ``ROOT``   — the outer container itself (``self._tags``); the outer
  container is a fresh copy, so mutating *it* is safe,
* ``SHARED`` — an element view of a root (``self._tags[i]``,
  ``self._rows.get(k)``): possibly aliased with a snapshot.

In-place mutation of a ``SHARED`` value (subscript store/delete,
mutating method call, augmented assignment) is a finding unless some
*dominating* statement privatizes it — either a call to a declared
privatizer or a fresh-copy self-rebind (``lines = set(lines)``) of the
mutated name — or the line carries an intentional-sharing pragma::

    # reprolint: shares[rows alias the snapshot by design]

The reason string is mandatory; an empty ``shares[]`` does not parse.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.flow import (
    CFG,
    State,
    build_cfg,
    iter_functions,
    join_max,
    solve_forward,
)

#: Lattice levels (ordered; join is per-name max).
NONE, ROOT, SHARED = 0, 1, 2

#: Method names treated as in-place mutation of their receiver.
MUTATING_METHODS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popleft", "popitem", "remove", "reverse",
    "setdefault", "sort", "update",
})

#: Call names that produce a fresh (unshared) copy of their argument.
FRESH_COPY_CALLS = frozenset({"set", "list", "dict", "frozenset", "tuple",
                              "sorted", "copy", "deepcopy"})


class Protocol:
    """A module's parsed ``REPRO_COW_PROTOCOL`` declaration."""

    __slots__ = ("shared_roots", "privatizers", "line")

    def __init__(
        self,
        shared_roots: Tuple[str, ...],
        privatizers: Tuple[str, ...],
        line: int,
    ) -> None:
        self.shared_roots = shared_roots
        self.privatizers = privatizers
        self.line = line


def parse_protocol(tree: ast.Module) -> Optional[Protocol]:
    """Extract ``REPRO_COW_PROTOCOL`` from a module, if declared."""
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "REPRO_COW_PROTOCOL"
            for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, ast.Dict):
            return None
        fields: Dict[str, Tuple[str, ...]] = {}
        for key, value in zip(stmt.value.keys, stmt.value.values):
            if not (
                isinstance(key, ast.Constant) and isinstance(key.value, str)
            ):
                continue
            if isinstance(value, (ast.Tuple, ast.List)):
                fields[key.value] = tuple(
                    elt.value
                    for elt in value.elts
                    if isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)
                )
        return Protocol(
            fields.get("shared_roots", ()),
            fields.get("privatizers", ()),
            stmt.lineno,
        )
    return None


# ----------------------------------------------------------------------
# Expression classification.
# ----------------------------------------------------------------------

def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class _Classifier:
    """Maps expressions to lattice levels under one protocol + state."""

    __slots__ = ("protocol",)

    def __init__(self, protocol: Protocol) -> None:
        self.protocol = protocol

    def level(self, node: Optional[ast.expr], state: State) -> int:
        """May-level of the value ``node`` evaluates to under ``state``."""
        if node is None:
            return NONE
        if isinstance(node, ast.Name):
            return state.get(node.id, NONE)
        if isinstance(node, ast.Attribute):
            if node.attr in self.protocol.shared_roots:
                return ROOT
            return NONE
        if isinstance(node, ast.Subscript):
            base = self.level(node.value, state)
            return SHARED if base >= ROOT else NONE
        if isinstance(node, ast.Call):
            name = _call_name(node)
            if name in self.protocol.privatizers:
                return NONE
            if name in FRESH_COPY_CALLS:
                return NONE
            if name == "get" and isinstance(node.func, ast.Attribute):
                base = self.level(node.func.value, state)
                return SHARED if base >= ROOT else NONE
            return NONE
        if isinstance(node, (ast.Tuple, ast.List)):
            if any(self.level(elt, state) >= ROOT for elt in node.elts):
                return ROOT  # container of views: indexing it yields SHARED
            return NONE
        if isinstance(node, ast.IfExp):
            return max(
                self.level(node.body, state), self.level(node.orelse, state)
            )
        if isinstance(node, ast.NamedExpr):
            return self.level(node.value, state)
        if isinstance(node, ast.Starred):
            return self.level(node.value, state)
        return NONE

    def transfer(self, stmt: ast.stmt, state: State) -> State:
        """Forward transfer for one statement (pure; returns new state)."""
        out = dict(state)
        if isinstance(stmt, ast.Assign):
            level = self.level(stmt.value, state)
            for target in stmt.targets:
                self._bind(target, level, out, state)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._bind(stmt.target, self.level(stmt.value, state), out, state)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            # Iterating a root or a container of views yields views.
            iter_level = self.level(stmt.iter, state)
            element = SHARED if iter_level >= ROOT else NONE
            self._bind(stmt.target, element, out, state)
        elif isinstance(stmt, ast.AugAssign):
            pass  # level of the target is unchanged by +=
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                if item.optional_vars is not None:
                    self._bind(
                        item.optional_vars,
                        self.level(item.context_expr, state),
                        out,
                        state,
                    )
        return out

    def _bind(
        self,
        target: ast.expr,
        level: int,
        out: State,
        state: State,
    ) -> None:
        if isinstance(target, ast.Name):
            if level == NONE:
                out.pop(target.id, None)
            else:
                out[target.id] = level
        elif isinstance(target, (ast.Tuple, ast.List)):
            # Unpacking a container of views: each element may be a view.
            element = SHARED if level >= ROOT else NONE
            for elt in target.elts:
                self._bind(elt, element, out, state)
        elif isinstance(target, ast.Starred):
            self._bind(target.value, level, out, state)
        # Attribute / Subscript targets do not bind local names.


# ----------------------------------------------------------------------
# Mutation-site extraction and anchoring.
# ----------------------------------------------------------------------

class _Mutation:
    """One in-place mutation site within a function body."""

    __slots__ = ("stmt", "target", "line", "verb")

    def __init__(
        self, stmt: ast.stmt, target: ast.expr, line: int, verb: str
    ) -> None:
        self.stmt = stmt      # the anchoring statement (for dominance)
        self.target = target  # the expression whose value is mutated
        self.line = line
        self.verb = verb


def _mutations_in(stmt: ast.stmt) -> List[_Mutation]:
    """Mutation sites syntactically inside one statement."""
    out: List[_Mutation] = []
    if isinstance(stmt, ast.Assign):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                out.append(
                    _Mutation(stmt, target.value, stmt.lineno, "item store on")
                )
            elif isinstance(target, ast.Attribute) and isinstance(
                target.value, ast.Name
            ):
                out.append(
                    _Mutation(
                        stmt, target.value, stmt.lineno, "attribute store on"
                    )
                )
    elif isinstance(stmt, ast.AugAssign):
        if isinstance(stmt.target, ast.Subscript):
            out.append(
                _Mutation(
                    stmt, stmt.target.value, stmt.lineno,
                    "augmented item store on",
                )
            )
        elif isinstance(stmt.target, ast.Name):
            # ``x += [...]`` mutates lists in place; treat any augmented
            # assignment to a shared name as a mutation of its value.
            out.append(
                _Mutation(
                    stmt, stmt.target, stmt.lineno, "augmented assignment to"
                )
            )
    elif isinstance(stmt, ast.Delete):
        for target in stmt.targets:
            if isinstance(target, ast.Subscript):
                out.append(
                    _Mutation(
                        stmt, target.value, stmt.lineno, "item delete on"
                    )
                )
    # Mutating method calls can appear in any expression position.  A
    # compound statement is placed in the CFG as a *header* while its
    # body statements are placed separately, so scan only the header
    # expressions here — body mutations are found at their own site.
    for root in _scan_roots(stmt):
        for node in ast.walk(root):
            if isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ):
                if node.func.attr in MUTATING_METHODS:
                    out.append(
                        _Mutation(
                            stmt,
                            node.func.value,
                            getattr(node, "lineno", stmt.lineno),
                            f".{node.func.attr}() on",
                        )
                    )
    return out


def _scan_roots(stmt: ast.stmt) -> List[ast.AST]:
    """Subtrees of ``stmt`` owned by its own CFG placement."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return [item.context_expr for item in stmt.items]
    if isinstance(stmt, ast.Match):
        return [stmt.subject]
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # opaque nested scopes are analyzed separately
    return [stmt]


def _is_privatizing(stmt: ast.stmt, protocol: Protocol, name: str) -> bool:
    """Does ``stmt`` privatize ``name`` (or everything, via a privatizer)?

    Two forms count, both matched anywhere in the statement's subtree
    so that *guarded* privatization anchors (the common shape is an
    ``if`` whose condition decides whether unsharing is needed, and
    whose body does it): a call to a declared privatizer (set_assoc's
    ``if owned: tags = self._own_set(i)``), and a fresh-copy
    self-rebind of the mutated name (dbi's thaw,
    ``if isinstance(lines, tuple): lines = set(lines)``).  Dominance by
    the guard — not the guarded branch — is what makes the downstream
    mutation safe on every path: the condition is trusted to identify
    exactly the shared cases.
    """
    for node in ast.walk(stmt):
        if isinstance(node, ast.Call):
            call = _call_name(node)
            if call in protocol.privatizers:
                return True
        if name and isinstance(node, ast.Assign):
            if (
                len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and node.targets[0].id == name
                and isinstance(node.value, ast.Call)
                and _call_name(node.value) in FRESH_COPY_CALLS
            ):
                return True
    return False


def _target_name(expr: ast.expr) -> str:
    return expr.id if isinstance(expr, ast.Name) else ""


def _describe(expr: ast.expr) -> str:
    try:
        return ast.unparse(expr)
    except Exception:  # pragma: no cover
        return "<expr>"


# ----------------------------------------------------------------------
# Per-function and per-module entry points.
# ----------------------------------------------------------------------

def check_function(
    qualname: str,
    node: ast.AST,
    protocol: Protocol,
) -> List[Tuple[int, str]]:
    """All unguarded shared-mutation findings in one function.

    Returns ``(line, message)`` tuples; pragma filtering happens in the
    caller, which owns the source text.
    """
    assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    cfg: CFG = build_cfg(node.body)
    classifier = _Classifier(protocol)
    pre_states = solve_forward(cfg, classifier.transfer, join=join_max)

    # Collect every statement in CFG order for the anchor scan.
    placed: List[ast.stmt] = []
    for block in cfg.blocks:
        placed.extend(block.stmts)

    findings: List[Tuple[int, str]] = []
    for block in cfg.blocks:
        for stmt in block.stmts:
            state = pre_states.get(id(stmt), {})
            for mutation in _mutations_in(stmt):
                level = classifier.level(mutation.target, state)
                if level != SHARED:
                    continue
                name = _target_name(mutation.target)
                anchored = False
                for candidate in placed:
                    if candidate is mutation.stmt:
                        continue
                    if not _is_privatizing(candidate, protocol, name):
                        continue
                    if cfg.stmt_dominates(candidate, mutation.stmt):
                        anchored = True
                        break
                if anchored:
                    continue
                findings.append((
                    mutation.line,
                    f"{qualname}: {mutation.verb} possibly-shared value "
                    f"'{_describe(mutation.target)}' is not dominated by a "
                    f"privatization ({', '.join(protocol.privatizers) or 'none declared'}) "
                    f"or fresh-copy rebind; privatize first or mark the "
                    f"line '# reprolint: shares[reason]'",
                ))
    return findings


def check_module(
    tree: ast.Module,
    path: str,
    must_declare: bool,
) -> List[Tuple[int, str]]:
    """COW findings for one module: protocol presence + per-function."""
    protocol = parse_protocol(tree)
    if protocol is None:
        if must_declare:
            return [(
                1,
                "module is listed in registry.COW_MODULES but declares no "
                "REPRO_COW_PROTOCOL; declare shared_roots/privatizers "
                "so the aliasing pass can check it",
            )]
        return []
    findings: List[Tuple[int, str]] = []
    for qualname, fn in iter_functions(tree):
        findings.extend(check_function(qualname, fn, protocol))
    return findings
