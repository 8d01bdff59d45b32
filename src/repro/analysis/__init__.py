"""Static analysis layer (``reprolint``) and the strict typing gate.

This package encodes the *repo-specific* correctness rules that keep
the simulator's fast-path/oracle duality trustworthy:

* :mod:`repro.analysis.lint` — the AST-based linter, run as
  ``repro lint`` (``repro lint --no-typegate src/`` for the rules
  alone, ``repro lint --list-rules`` for the catalogue).  Ten
  per-module rules: determinism, oracle parity and hot-path hygiene;
  see :mod:`repro.analysis.rules` for the catalogue.  The DRAM timing
  and copy-on-write restore invariants are not linted: the runtime
  sanitizer and the tier-1 identity tests check them (DESIGN.md §8).
* :mod:`repro.analysis.registry` — which modules are registered fast
  paths (and must declare their oracle twins) and which modules are
  hot paths (and must obey the hygiene rules).
* :mod:`repro.analysis.typegate` — runs ``ruff`` + ``mypy`` with the
  configs in ``pyproject.toml`` when they are installed, and skips
  cleanly (exit 0, loud message) when they are not, so the gate never
  blocks on a missing third-party toolchain.

The third correctness layer — the opt-in runtime sanitizer — lives in
:mod:`repro.sim.sanitize` because it runs inside the simulator.

Import the submodules directly (``from repro.analysis.rules import
...``); this package intentionally re-exports nothing.
"""
