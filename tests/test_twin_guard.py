"""Tests for scripts/check_twin_regen.py (one-sided regen guard).

The guard closes the last loophole in the twin-drift contract: an
editor who changes one side of a pair and silently re-pins the
fingerprints.  These tests drive ``check()`` and ``main()`` through
the ``--files`` override, so no git plumbing is involved.
"""

import importlib.util
import os

from repro.analysis import twins

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_GUARD = os.path.join(REPO_ROOT, "scripts", "check_twin_regen.py")

_spec = importlib.util.spec_from_file_location("check_twin_regen", _GUARD)
assert _spec is not None and _spec.loader is not None
guard = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(guard)

_FP = twins.FINGERPRINT_FILE
_SOA = "src/repro/dram/soa.py"
_SOA_BATCH = "src/repro/dram/soa_batch.py"


def test_no_fingerprint_change_is_vacuous():
    assert guard.check([]) == []
    # Twin source edits without a re-pin are the lint pass's problem,
    # not the guard's.
    assert guard.check([_SOA]) == []


def test_one_sided_regen_is_rejected():
    violations = guard.check([_FP, _SOA])
    assert len(violations) == 1
    assert "timing-slots" in violations[0]
    assert "mirror the edit" in violations[0]


def test_rejection_works_for_either_side():
    # Touching only the b side of the pair is just as one-sided as
    # touching only the a side.
    violations = guard.check([_FP, _SOA_BATCH])
    assert len(violations) == 1
    assert "timing-slots" in violations[0]


def test_both_sides_touched_passes():
    assert guard.check([_FP, _SOA, _SOA_BATCH]) == []


def test_untouched_pairs_do_not_block_a_regen():
    # Re-pinning with neither side of a pair in the diff (new pair
    # added, note edited) is allowed, whatever else changed.
    assert guard.check([_FP]) == []
    assert guard.check([_FP, "src/repro/sim/system.py"]) == []


def test_backslash_paths_normalize():
    assert guard.check(
        ["tests\\data\\twin_fingerprints.json", _SOA.replace("/", "\\")]
    )  # still one-sided after normalization


def test_main_files_mode_exit_codes(capsys):
    assert guard.main(["--files", _FP, _SOA]) == 1
    out = capsys.readouterr()
    assert "timing-slots" in out.out
    assert "rejected" in out.err

    assert guard.main(["--files", _FP, _SOA, _SOA_BATCH]) == 0
    assert guard.main(["--files"]) == 0  # empty diff: vacuous pass


def test_main_requires_base_or_files(capsys):
    assert guard.main([]) == 2
    assert "need --base or --files" in capsys.readouterr().err
