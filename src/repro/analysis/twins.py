"""Twin-drift detection: structural fingerprints of oracle-twin pairs.

One hand-maintained transcription remains: the batch kernel's
lane-major slab (``BatchTimingCore``) mirrors ``TimingCore``'s slot
set.  Runtime identity tests only catch drift on inputs they happen to
exercise; this pass catches it at lint time, structurally.

Every declared pair side is **normalized** (docstrings stripped,
locations discarded) and hashed into a committed fingerprint file,
``tests/data/twin_fingerprints.json``.  ``repro lint`` recomputes the
digests on every run: a side whose digest no longer matches the
committed one fails with a per-unit diff and a note on whether its
twin moved too.  Editing twin code therefore *requires* regenerating
the fingerprints::

    REPRO_REGEN_TWINS=1 python -m repro.analysis.twins --write \
        --note "why the pair moved"

and CI additionally rejects a regeneration whose diff touches only
one side of a pair (``scripts/check_twin_regen.py``) — so
``TimingCore``'s slots cannot change without the slab's (or an
explicit, reviewed fingerprint bump) moving with them.  The
``timing-slots`` pair additionally gets *semantic* cross-checks (slab
slots must be a superset of the scalar slots and ``lane()`` must
rebind every scalar state slot), which fire even when the fingerprints
are up to date.

Fixtures (and future modules) can also declare *in-file* pairs::

    REPRO_TWIN_PAIRS = (("pair-id", "fast_fn", "slow_fn"),)

whose two functions must be structurally identical up to their names
and docstrings — the self-contained form of the drift contract.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import sys
from typing import Dict, List, Optional, Sequence, Set, Tuple

#: Repo-relative fingerprint store (committed; CI-guarded).
FINGERPRINT_FILE = "tests/data/twin_fingerprints.json"

#: Fingerprint format marker; bump when normalization changes.
FORMAT = "twin-fp-v1"

#: Environment flag required for ``--write`` regeneration.
REGEN_ENV = "REPRO_REGEN_TWINS"


class Side:
    """One side of a twin pair: a file plus an object selector."""

    __slots__ = ("path", "qualname", "kind")

    def __init__(self, path: str, qualname: str, kind: str) -> None:
        self.path = path          # repo-relative, "/"-separated
        self.qualname = qualname
        self.kind = kind          # "function" | "slots"

    def label(self) -> str:
        return f"{self.path}::{self.qualname}"


class Pair:
    """A declared twin pair: two sides that must move together."""

    __slots__ = ("id", "a", "b", "note")

    def __init__(self, pair_id: str, a: Side, b: Side, note: str) -> None:
        self.id = pair_id
        self.a = a
        self.b = b
        self.note = note

    def sides(self) -> List[Tuple[str, Side]]:
        """The pair's sides as ``(key, Side)`` tuples."""
        return [("a", self.a), ("b", self.b)]


#: The declared oracle-twin pairs this pass guards.  Paths are
#: repo-relative; adding a transcription twin to the codebase means
#: adding it here and regenerating the fingerprints.
PAIRS: Tuple[Pair, ...] = (
    Pair(
        "timing-slots",
        Side("src/repro/dram/soa.py", "TimingCore.__slots__", "slots"),
        Side(
            "src/repro/dram/soa_batch.py", "BatchTimingCore.__slots__",
            "slots",
        ),
        "the lane-major slab carries every scalar timing slot as a "
        "lane-indexed matrix",
    ),
)

#: Scalar TimingCore slots that are constructor *parameters*, not
#: aliased lane state — ``lane()`` is not expected to rebind these.
_SLOT_PARAMS = frozenset({"num_ranks", "num_banks"})

#: Extra slab-only slots the semantic slot check tolerates.
_SLAB_ONLY_SLOTS = frozenset({"num_lanes", "backend"})


# ----------------------------------------------------------------------
# Normalization and digests.
# ----------------------------------------------------------------------

def _strip_docstrings(node: ast.AST) -> ast.AST:
    """Remove docstring expressions everywhere under ``node``."""
    for child in ast.walk(node):
        if isinstance(
            child,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Module),
        ) and child.body:
            first = child.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                child.body = child.body[1:] or [ast.Pass()]
    return node


def _digest(node: ast.AST) -> str:
    """Location-free structural hash of a (docstring-stripped) node."""
    dump = ast.dump(node, annotate_fields=True, include_attributes=False)
    return hashlib.sha256(dump.encode()).hexdigest()[:16]


def _summary(node: ast.AST, width: int = 72) -> str:
    """First line of the unparsed node, truncated for diff display."""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on 3.10+
        text = type(node).__name__
    line = text.splitlines()[0].strip()
    return line if len(line) <= width else line[: width - 3] + "..."


class _Resolved:
    """A located pair side: digest, display units, anchor line."""

    __slots__ = ("digest", "units", "line")

    def __init__(
        self, digest: str, units: List[Tuple[str, str]], line: int
    ) -> None:
        self.digest = digest
        self.units = units
        self.line = line


def _find_qualname(tree: ast.Module, qualname: str) -> Optional[ast.AST]:
    """Resolve ``Class.attr`` / ``Class.method`` / ``name`` in a module."""
    parts = qualname.split(".")
    body: Sequence[ast.stmt] = tree.body
    node: Optional[ast.AST] = None
    for i, part in enumerate(parts):
        node = None
        for stmt in body:
            if isinstance(
                stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and stmt.name == part:
                node = stmt
                break
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == part
                for t in stmt.targets
            ):
                node = stmt
                break
            if (
                isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and stmt.target.id == part
            ):
                node = stmt
                break
        if node is None:
            return None
        if i + 1 < len(parts):
            if not isinstance(node, ast.ClassDef):
                return None
            body = node.body
    return node


def resolve_side(side: Side, repo_root: str) -> Optional[_Resolved]:
    """Compute a side's digest and display units from the live source."""
    path = os.path.join(repo_root, *side.path.split("/"))
    try:
        with open(path, "r", encoding="utf-8") as handle:
            source = handle.read()
        tree = ast.parse(source, filename=path)
    except (OSError, SyntaxError):
        return None

    node = _find_qualname(tree, side.qualname)
    if node is None:
        return None
    line = getattr(node, "lineno", 1)

    if side.kind == "function":
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        clean = _strip_docstrings(
            ast.parse(ast.unparse(node)).body[0]  # detached copy
        )
        assert isinstance(clean, (ast.FunctionDef, ast.AsyncFunctionDef))
        units = [(_summary(stmt), _digest(stmt)) for stmt in clean.body]
        return _Resolved(_digest(clean), units, line)

    if side.kind == "slots":
        values = _slot_names(node)
        if values is None:
            return None
        units = [(name, _digest(ast.Constant(value=name))) for name in values]
        joined = hashlib.sha256("\x00".join(values).encode()).hexdigest()[:16]
        return _Resolved(joined, units, line)

    return None


def _slot_names(node: ast.AST) -> Optional[List[str]]:
    """The string elements of a ``__slots__`` assignment, in order."""
    value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
    if not isinstance(value, (ast.Tuple, ast.List)):
        return None
    names: List[str] = []
    for elt in value.elts:
        if not (isinstance(elt, ast.Constant) and isinstance(elt.value, str)):
            return None
        names.append(elt.value)
    return names


# ----------------------------------------------------------------------
# Fingerprint store.
# ----------------------------------------------------------------------

def fingerprint_path(repo_root: str) -> str:
    """Absolute path of the committed fingerprint file."""
    return os.path.join(repo_root, *FINGERPRINT_FILE.split("/"))


def load_fingerprints(repo_root: str) -> Optional[dict]:
    """The committed fingerprint document, or None if absent/invalid."""
    try:
        with open(fingerprint_path(repo_root), "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(data, dict) or data.get("format") != FORMAT:
        return None
    return data


def compute_fingerprints(repo_root: str, note: str = "") -> dict:
    """The full fingerprint document for the current tree."""
    pairs: Dict[str, dict] = {}
    for pair in PAIRS:
        entry: Dict[str, object] = {"note": pair.note}
        for key, side in pair.sides():
            resolved = resolve_side(side, repo_root)
            entry[key] = (
                None
                if resolved is None
                else {
                    "path": side.path,
                    "qualname": side.qualname,
                    "kind": side.kind,
                    "digest": resolved.digest,
                    "units": [list(unit) for unit in resolved.units],
                }
            )
        pairs[pair.id] = entry
    return {"format": FORMAT, "note": note, "pairs": pairs}


def write_fingerprints(repo_root: str, note: str) -> str:
    """Regenerate the fingerprint file from the live tree."""
    document = compute_fingerprints(repo_root, note)
    path = fingerprint_path(repo_root)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# Checking.
# ----------------------------------------------------------------------

def _unit_diff(
    stored: List[List[str]], current: List[Tuple[str, str]]
) -> List[str]:
    """Human-readable unit delta between stored and live fingerprints."""
    stored_set = {tuple(unit) for unit in stored}
    current_set = set(current)
    lines: List[str] = []
    for summary, digest in current:
        if (summary, digest) not in stored_set:
            lines.append(f"+ {summary}")
    for unit in stored:
        if tuple(unit) not in current_set:
            lines.append(f"- {unit[0]}")
    return lines[:8]


def check_fingerprints(
    repo_root: str, linted_paths: Optional[Set[str]] = None
) -> List[Tuple[str, int, str]]:
    """Drift findings as ``(repo-relative path, line, message)`` tuples.

    ``linted_paths`` (normalized repo-relative) restricts reporting to
    pairs with a side among the linted files; ``None`` checks all.
    """
    findings: List[Tuple[str, int, str]] = []

    def in_scope(pair: Pair) -> bool:
        if linted_paths is None:
            return True
        return any(side.path in linted_paths for _, side in pair.sides())

    stored = load_fingerprints(repo_root)
    if stored is None:
        for pair in PAIRS:
            if in_scope(pair):
                findings.append((
                    pair.a.path, 1,
                    f"twin pair '{pair.id}' has no committed fingerprint "
                    f"({FINGERPRINT_FILE} missing or unreadable); "
                    f"regenerate with {REGEN_ENV}=1 python -m "
                    f"repro.analysis.twins --write",
                ))
        return findings

    stored_pairs = stored.get("pairs", {})
    for pair in PAIRS:
        if not in_scope(pair):
            continue
        entry = stored_pairs.get(pair.id)
        resolved: Dict[str, Optional[_Resolved]] = {}
        drifted: List[str] = []
        for key, side in pair.sides():
            resolved[key] = resolve_side(side, repo_root)
        if entry is None:
            findings.append((
                pair.a.path,
                resolved["a"].line if resolved["a"] else 1,
                f"twin pair '{pair.id}' is declared in "
                f"repro.analysis.twins but absent from the committed "
                f"fingerprints; regenerate with {REGEN_ENV}=1",
            ))
            continue
        for key, side in pair.sides():
            live = resolved[key]
            pinned = entry.get(key)
            if live is None:
                findings.append((
                    side.path, 1,
                    f"twin pair '{pair.id}': cannot resolve "
                    f"{side.label()} in the live tree (moved or "
                    f"renamed?); update repro.analysis.twins and "
                    f"regenerate the fingerprints",
                ))
                continue
            if not isinstance(pinned, dict):
                drifted.append(key)
                continue
            if pinned.get("digest") != live.digest:
                drifted.append(key)
        for key in drifted:
            side, twin = (pair.a, pair.b) if key == "a" else (pair.b, pair.a)
            live = resolved[key]
            assert live is not None
            pinned = entry.get(key) if isinstance(entry, dict) else None
            diff = _unit_diff(
                pinned.get("units", []) if isinstance(pinned, dict) else [],
                live.units,
            )
            twin_note = (
                "its twin drifted too"
                if len(drifted) == 2
                else f"its twin {twin.label()} did NOT change"
            )
            detail = ("; " + "; ".join(diff)) if diff else ""
            findings.append((
                side.path, live.line,
                f"twin pair '{pair.id}': {side.label()} changed since "
                f"the committed fingerprint ({twin_note}); mirror the "
                f"edit on the twin, then regenerate with {REGEN_ENV}=1 "
                f"python -m repro.analysis.twins --write --note '...'"
                f"{detail}",
            ))
    findings.extend(
        finding
        for finding in check_slot_coverage(repo_root)
        if linted_paths is None or finding[0] in linted_paths
    )
    return findings


def check_slot_coverage(repo_root: str) -> List[Tuple[str, int, str]]:
    """Semantic slot checks for the ``timing-slots`` pair.

    Fingerprints say *something* changed; these say what must stay
    true regardless: the slab's slot set must cover every scalar slot,
    and ``lane()`` must rebind every scalar *state* slot onto a slab
    row (a slot added to ``TimingCore`` but not wired through
    ``lane()`` would silently unshare that field).
    """
    scalar_side = Side("src/repro/dram/soa.py", "TimingCore.__slots__", "slots")
    batch_path = "src/repro/dram/soa_batch.py"
    batch_side = Side(batch_path, "BatchTimingCore.__slots__", "slots")
    findings: List[Tuple[str, int, str]] = []

    def parse(path: str) -> Optional[ast.Module]:
        try:
            with open(
                os.path.join(repo_root, *path.split("/")), "r",
                encoding="utf-8",
            ) as handle:
                return ast.parse(handle.read())
        except (OSError, SyntaxError):
            return None

    scalar_tree = parse(scalar_side.path)
    batch_tree = parse(batch_path)
    if scalar_tree is None or batch_tree is None:
        return findings
    scalar_node = _find_qualname(scalar_tree, scalar_side.qualname)
    batch_node = _find_qualname(batch_tree, batch_side.qualname)
    scalar_slots = _slot_names(scalar_node) if scalar_node else None
    batch_slots = _slot_names(batch_node) if batch_node else None
    if scalar_slots is None or batch_slots is None:
        return findings

    missing = [
        name
        for name in scalar_slots
        if name not in batch_slots and name not in _SLOT_PARAMS
    ] + [name for name in scalar_slots if name in _SLOT_PARAMS
         and name not in batch_slots]
    if missing:
        findings.append((
            batch_path, getattr(batch_node, "lineno", 1),
            f"BatchTimingCore.__slots__ is missing scalar TimingCore "
            f"slots {missing}; every scalar field needs a lane-major "
            f"column",
        ))

    lane_fn = _find_qualname(batch_tree, "BatchTimingCore.lane")
    if isinstance(lane_fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        rebound: Set[str] = set()
        for stmt in ast.walk(lane_fn):
            if isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Attribute):
                        rebound.add(target.attr)
        unwired = [
            name
            for name in scalar_slots
            if name not in _SLOT_PARAMS and name not in rebound
        ]
        if unwired:
            findings.append((
                batch_path, lane_fn.lineno,
                f"BatchTimingCore.lane() never rebinds scalar slots "
                f"{unwired} onto slab rows; lane views would silently "
                f"own private copies of those fields",
            ))
    return findings


# ----------------------------------------------------------------------
# In-file pairs (fixtures and future same-module twins).
# ----------------------------------------------------------------------

def in_file_pairs(tree: ast.Module) -> List[Tuple[str, str, str, int]]:
    """Parse ``REPRO_TWIN_PAIRS = ((id, fn_a, fn_b), ...)`` if present."""
    out: List[Tuple[str, str, str, int]] = []
    for stmt in tree.body:
        if not isinstance(stmt, ast.Assign):
            continue
        if not any(
            isinstance(t, ast.Name) and t.id == "REPRO_TWIN_PAIRS"
            for t in stmt.targets
        ):
            continue
        if not isinstance(stmt.value, (ast.Tuple, ast.List)):
            continue
        for elt in stmt.value.elts:
            if not isinstance(elt, (ast.Tuple, ast.List)):
                continue
            names = [
                e.value
                for e in elt.elts
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            ]
            if len(names) == 3:
                out.append((names[0], names[1], names[2], stmt.lineno))
    return out


def _normalized_function(node: ast.AST) -> Optional[str]:
    """Name-independent, docstring-free dump of one function."""
    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None
    clone = ast.parse(ast.unparse(node)).body[0]
    assert isinstance(clone, (ast.FunctionDef, ast.AsyncFunctionDef))
    _strip_docstrings(clone)
    clone.name = "_"
    clone.decorator_list = []
    return ast.dump(clone, include_attributes=False)


def check_in_file(
    tree: ast.Module, path: str
) -> List[Tuple[str, int, str]]:
    """Check a module's declared in-file twin pairs for drift."""
    findings: List[Tuple[str, int, str]] = []
    for pair_id, name_a, name_b, line in in_file_pairs(tree):
        node_a = _find_qualname(tree, name_a)
        node_b = _find_qualname(tree, name_b)
        dump_a = _normalized_function(node_a) if node_a else None
        dump_b = _normalized_function(node_b) if node_b else None
        if dump_a is None or dump_b is None:
            missing = name_a if dump_a is None else name_b
            findings.append((
                path, line,
                f"in-file twin pair '{pair_id}' names {missing!r}, which "
                f"is not a function in this module",
            ))
            continue
        if dump_a != dump_b:
            anchor = getattr(node_b, "lineno", line)
            findings.append((
                path, anchor,
                f"in-file twin pair '{pair_id}': {name_b} is no longer "
                f"structurally identical to {name_a} (names and "
                f"docstrings excluded); mirror the edit on both sides",
            ))
    return findings


# ----------------------------------------------------------------------
# CLI: status / regeneration.
# ----------------------------------------------------------------------

def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point: report drift, or ``--write`` to regenerate."""
    import argparse

    from repro.analysis.rules import find_repo_root

    parser = argparse.ArgumentParser(
        prog="repro-twins",
        description="Show or regenerate the committed twin fingerprints.",
    )
    parser.add_argument(
        "--write", action="store_true",
        help=f"rewrite {FINGERPRINT_FILE} (requires {REGEN_ENV}=1)",
    )
    parser.add_argument(
        "--note", default=os.environ.get("REPRO_TWIN_NOTE", ""),
        help="changelog note recorded with a regeneration",
    )
    parser.add_argument(
        "--repo-root", default=None, help="repo root (default: auto)"
    )
    args = parser.parse_args(argv)
    repo_root = args.repo_root or find_repo_root(os.getcwd())

    if args.write:
        if os.environ.get(REGEN_ENV) != "1":
            print(
                f"twins: refusing to regenerate without {REGEN_ENV}=1 "
                f"(deliberate-regeneration guard)",
                file=sys.stderr,
            )
            return 2
        path = write_fingerprints(repo_root, args.note)
        print(f"twins: wrote {os.path.relpath(path, repo_root)}")
        return 0

    findings = check_fingerprints(repo_root)
    for path, line, message in findings:
        print(f"{path}:{line}: [twin-drift] {message}")
    count = len(findings)
    noun = "pair side" if count == 1 else "pair sides"
    status = "drifted" if count else "all twin fingerprints match"
    print(
        f"twins: {count} {noun} {status}" if count else f"twins: {status}",
        file=sys.stderr,
    )
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
