"""Which modules the lint rules apply to, and how modules opt in/out.

Three scopes drive the rule engine (:mod:`repro.analysis.rules`):

* **sim code** — everything under ``src/repro`` except this analysis
  package: determinism and mutable-default rules apply here.
* **hot paths** — modules whose objects are created or touched
  per-event/per-command: hygiene rules (``slots``, no try/except in
  inner loops) apply here.  Membership is the path-based
  :data:`HOT_PATH_PARTS` set, or a ``# reprolint: hot-path`` comment
  anywhere in the file (used by fixtures and future modules).
* **fast paths** — modules registered as an optimized twin of a
  slower oracle: they must declare ``ORACLE_TWIN`` (the oracle's
  dotted module/attribute path) and ``ORACLE_TESTS`` (repo-relative
  equivalence-test files that exercise both sides).  Membership is
  :data:`FAST_PATH_MODULES`, or a module-level ``REPRO_FAST_PATH =
  True`` assignment.

Suppression: ``# reprolint: allow[rule-id]`` on the offending line,
or ``# reprolint: skip-file`` anywhere in the file.
"""

from __future__ import annotations

#: Repo-relative module paths that are *registered* fast paths.  A
#: registered module must carry ``REPRO_FAST_PATH = True`` plus the
#: ``ORACLE_TWIN`` / ``ORACLE_TESTS`` declarations — deleting the
#: marker instead of the declarations is itself a lint error, so the
#: registration cannot silently rot.
FAST_PATH_MODULES = frozenset(
    {
        "src/repro/dram/soa.py",
        "src/repro/dram/rank.py",
        "src/repro/controller/memctrl.py",
        "src/repro/cache/set_assoc.py",
        "src/repro/workloads/synthetic.py",
        "src/repro/sim/snapshot.py",
        "src/repro/sim/system.py",
        "src/repro/sim/pool.py",
        "src/repro/sim/batch.py",
        "src/repro/service/jobs.py",
    }
)

#: Repo-relative paths of modules that compute content-addressed
#: digests (the sweep service's cache keys).  A digest must be a pure
#: function of the canonical spec: the ``determinism-digest-canonical``
#: rule bans builtin ``hash()`` (salted per process) and
#: ``json.dumps`` without ``sort_keys=True`` (dict insertion order) in
#: these modules, so two services — or one service across a
#: kill/restart — always agree on what has already been computed.
#: Modules may also opt in with a ``# reprolint: digest`` comment.
DIGEST_MODULE_PATHS = frozenset(
    {
        "src/repro/service/digest.py",
        "src/repro/service/store.py",
        "src/repro/service/journal.py",
    }
)

#: Path fragments marking hot-path modules (hygiene rules).  Matched
#: against the ``/``-normalized repo-relative path.
HOT_PATH_PARTS = (
    "src/repro/dram/",
    "src/repro/controller/",
    "src/repro/cpu/",
    "src/repro/cache/",
    "src/repro/core/",
    "src/repro/workloads/synthetic.py",
    "src/repro/stats/histogram.py",
)

#: Modules where float accumulation into energy counters is the whole
#: point (the power model) and therefore allowed.
ENERGY_ACCUMULATOR_PARTS = ("src/repro/power/",)

#: Paths never linted (the linter itself, tests' fixtures are linted
#: explicitly, never as part of a tree walk).
EXCLUDED_PARTS = (
    "src/repro/analysis/",
    "/lint_fixtures/",
    "/__pycache__/",
    ".egg-info",
)


def normalize(path: str) -> str:
    """``/``-separated path for fragment matching."""
    return path.replace("\\", "/")


def is_excluded(path: str) -> bool:
    """True if ``path`` must never be linted (see :data:`EXCLUDED_PARTS`)."""
    norm = normalize(path)
    return any(part in norm for part in EXCLUDED_PARTS)


def is_hot_path(path: str, source: str) -> bool:
    """True if hygiene rules apply: registry path match or opt-in comment."""
    norm = normalize(path)
    if any(part in norm for part in HOT_PATH_PARTS):
        return True
    return "# reprolint: hot-path" in source


def is_registered_fast_path(path: str) -> bool:
    """True if ``path`` is a registered fast-path module (oracle rules)."""
    norm = normalize(path)
    return any(norm.endswith(mod) for mod in FAST_PATH_MODULES)


def is_digest_module(path: str, source: str) -> bool:
    """True if the digest-canonicalization rule applies to this module."""
    norm = normalize(path)
    if any(norm.endswith(mod) for mod in DIGEST_MODULE_PATHS):
        return True
    return "# reprolint: digest" in source


def allows_energy_accumulation(path: str) -> bool:
    """True if float energy accumulation is legitimate here (power model)."""
    norm = normalize(path)
    return any(part in norm for part in ENERGY_ACCUMULATOR_PARTS)

