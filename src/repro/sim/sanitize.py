"""Runtime sanitizer: the one audit of a run.

The static layer (:mod:`repro.analysis`) proves properties of the
*source*; this module checks properties of a *run*.  Its one switch is
the ``REPRO_SANITIZE`` environment variable: any value but ``0``,
``false``, ``False``, ``no`` or empty arms it.  Pool and service
workers inherit the environment, so every command and every backend
is armed alike.  An armed :class:`~repro.sim.system.System` makes
three additions to an otherwise unmodified simulation:

* every :class:`~repro.controller.memctrl.ChannelController` gets a
  :class:`~repro.dram.protocol.ProtocolChecker` attached, so each
  issued DRAM command is replayed through the independent DDR3 rule
  set (a :class:`~repro.dram.protocol.ProtocolViolation` aborts the
  run at the offending command);
* a warm-snapshot restore is verified against the capture-time state
  digest (:func:`verify_restore`) — a copy-on-write restore must be
  bit-identical to the warmup it replaces;
* once ``System._finalize`` has built the run's
  :class:`~repro.sim.results.SimResult`, :func:`check_finalize` audits
  it against the system that produced it — energy conservation (the
  power accountant's burst and refresh counters equal the
  controllers'), a DBI registering exactly the LLC's dirty resident
  lines, and timing-core coherence (valid PRA masks, ``open_bits``
  mirroring ``open_row``) — and then :func:`check_result` audits the
  result alone: runtime-positive, cores-finished, ipc-bounds
  (0 < IPC <= 8), hits-bounded, false-hits-bounded,
  activation-histogram-consistent, activations-cover-misses,
  energy-nonnegative (finite too), fractions-normalized,
  power-positive, power-plausible (< 400 mW x 32 chips),
  dirty-words-normalized, no-false-hits-without-masking and
  baseline-full-rows-only.  :func:`check_result` also takes a bare
  ``SimResult``.

Every failed check raises :class:`SanitizerError` naming the check.
Everything here is *off* the hot path unless sanitizing: with the
sanitizer disabled no checker is attached and no digest is computed,
so the throughput floor is untouched.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING

from repro.dram.geometry import FULL_MASK
from repro.dram.protocol import ProtocolChecker

if TYPE_CHECKING:
    from repro.cache.hierarchy import CacheHierarchy
    from repro.sim.results import SimResult
    from repro.sim.snapshot import WarmSnapshot
    from repro.sim.system import System


class SanitizerError(Exception):
    """A runtime invariant failed under ``REPRO_SANITIZE=1``.

    A plain ``Exception`` subclass (not ``AssertionError``) so failures
    survive ``python -O``.
    """


_FALSY = frozenset({"", "0", "false", "False", "no"})

#: ``power-plausible`` bounds a run's average power by 400 mW per chip
#: for this many chips.
_PLAUSIBLE_CHIPS = 32


def sanitize_enabled() -> bool:
    """The sanitizer's one switch: the ``REPRO_SANITIZE`` variable."""
    return os.environ.get("REPRO_SANITIZE", "") not in _FALSY


def attach_checkers(system: "System") -> None:
    """Give every controller of ``system`` a protocol checker."""
    scheme = system.config.scheme
    for ctrl in system.controllers:
        if ctrl.protocol_checker is None:
            ctrl.protocol_checker = ProtocolChecker(
                system.config.timing,
                relax_act_constraints=scheme.relax_act_constraints,
            )


def _require(condition: bool, check: str, detail: str) -> None:
    if not condition:
        raise SanitizerError(f"{check} failed: {detail}")


def verify_restore(hierarchy: "CacheHierarchy", snapshot: "WarmSnapshot") -> None:
    """Check a restored hierarchy against the snapshot's state digest.

    Snapshots captured without the sanitizer carry no digest; those
    restores are skipped rather than failed (the equivalence tests pin
    restore fidelity independently).
    """
    from repro.sim.snapshot import state_digest

    expected = getattr(snapshot, "digest", None)
    if expected is None:
        return
    actual = state_digest(hierarchy)
    _require(
        actual == expected,
        "restore-digest",
        f"snapshot restore diverged from captured warm state "
        f"(digest {actual[:12]} != {expected[:12]})",
    )


def check_finalize(system: "System", result: "SimResult") -> None:
    """Audit a finished run: ``system``'s invariants, then its result's.

    ``result`` is the :class:`~repro.sim.results.SimResult` that
    ``system`` just built; its ``controller`` is the merged
    :class:`~repro.controller.stats.ControllerStats` of every channel.
    """
    acc = system.accountant
    merged = result.controller

    # Energy conservation: each served burst / REF was accounted
    # exactly once — the streak-batched accounting paths must agree
    # with the per-request statistics paths.  (ACTs are checked by
    # activation-histogram-consistent in check_result.)
    _require(
        acc.read_bursts == merged.reads.served,
        "energy-conservation",
        f"accountant saw {acc.read_bursts} read bursts but controllers "
        f"served {merged.reads.served} reads",
    )
    _require(
        acc.write_bursts == merged.writes.served,
        "energy-conservation",
        f"accountant saw {acc.write_bursts} write bursts but controllers "
        f"served {merged.writes.served} writes",
    )
    _require(
        acc.refreshes == merged.refreshes,
        "energy-conservation",
        f"accountant saw {acc.refreshes} refreshes but controllers "
        f"issued {merged.refreshes}",
    )

    # DBI registry: exactly the LLC's dirty resident lines, so a clean
    # victim never needs dropping from it.
    hierarchy = system.hierarchy
    if hierarchy.dbi is not None:
        registered = sorted(
            line for lines in hierarchy.dbi.export_rows().values() for line in lines
        )
        dirty = sorted(line for line, mask in hierarchy.l2.resident().items() if mask)
        _require(
            registered == dirty,
            "dbi-registry",
            f"DBI registers {len(registered)} lines but the LLC holds "
            f"{len(dirty)} dirty lines",
        )

    # Timing-core self-consistency: masks in range, open_bits exact.
    for channel_idx, channel in enumerate(system.channels):
        core = channel.core
        for rank in range(core.num_ranks):
            bits = 0
            for bank in range(core.num_banks):
                g = rank * core.num_banks + bank
                mask = core.open_mask[g]
                _require(
                    0 < mask <= FULL_MASK,
                    "timing-core-coherent",
                    f"channel {channel_idx} rank {rank} bank {bank}: "
                    f"mask {mask:#x} out of range",
                )
                if core.open_row[g] >= 0:
                    bits |= 1 << bank
            _require(
                bits == core.open_bits[rank],
                "timing-core-coherent",
                f"channel {channel_idx} rank {rank}: open_bits "
                f"{core.open_bits[rank]:#x} disagrees with open_row "
                f"({bits:#x})",
            )

    check_result(result)


def check_result(result: "SimResult") -> None:
    """Audit a finished :class:`~repro.sim.results.SimResult` on its own.

    Counter consistency, probability-vector sanity and physical bounds
    on power; needs nothing but the result.
    """
    ctrl = result.controller

    _require(result.runtime_cycles > 0, "runtime-positive",
             f"runtime {result.runtime_cycles} cycles")
    _require(
        all(c.finish_cycle > 0 and c.retired_instructions > 0 for c in result.cores),
        "cores-finished",
        f"finish cycles {[c.finish_cycle for c in result.cores]}, retired "
        f"{[c.retired_instructions for c in result.cores]}",
    )
    _require(all(0 < c.ipc <= 8.0 for c in result.cores), "ipc-bounds",
             f"ipcs={result.ipcs}")

    # Row-buffer counters partition services.
    for kind in (ctrl.reads, ctrl.writes):
        _require(kind.row_hits <= kind.served, "hits-bounded",
                 f"{kind.row_hits} hits > {kind.served} served")
        _require(kind.false_hits <= kind.served, "false-hits-bounded",
                 f"{kind.false_hits} false hits > {kind.served} served")
    histogram_total = sum(result.activation_histogram.values())
    _require(
        histogram_total == ctrl.total_activations,
        "activation-histogram-consistent",
        f"activation histogram holds {histogram_total} ACTs but "
        f"controllers recorded {ctrl.total_activations}",
    )
    served_misses = ctrl.total_served - ctrl.total_hits
    _require(
        ctrl.total_activations >= served_misses,
        "activations-cover-misses",
        f"{ctrl.total_activations} activations < {served_misses} misses",
    )

    # Energy: every category finite and non-negative, fractions sum
    # to one.
    for category, pj in sorted(result.power.energy_pj.items()):
        _require(
            math.isfinite(pj) and pj >= 0.0,
            "energy-nonnegative",
            f"energy category {category!r} is {pj!r} (must be finite "
            f"and non-negative)",
        )
    if result.power.total_pj > 0:
        fractions = sum(result.power.fractions().values())
        _require(abs(fractions - 1.0) < 1e-9, "fractions-normalized",
                 f"sum={fractions}")

    # Physical power bounds: within plausible chip budgets.
    total_mw = result.avg_power_mw
    _require(total_mw > 0, "power-positive", f"{total_mw} mW")
    _require(total_mw < 400 * _PLAUSIBLE_CHIPS, "power-plausible",
             f"{total_mw:.0f} mW for {_PLAUSIBLE_CHIPS} chips")

    # Dirty-word distribution is a probability vector (when present).
    if result.dirty_word_fractions:
        total = sum(result.dirty_word_fractions.values())
        _require(total == 0 or abs(total - 1.0) < 1e-6,
                 "dirty-words-normalized", f"sum={total}")

    # Scheme-specific: unmasked schemes never record false hits and
    # Baseline never opens partial rows.
    if result.scheme_name in ("Baseline", "FGA", "Half-DRAM", "DBI"):
        _require(
            ctrl.reads.false_hits == 0 and ctrl.writes.false_hits == 0,
            "no-false-hits-without-masking",
            f"{ctrl.reads.false_hits} read / {ctrl.writes.false_hits} "
            f"write false hits under {result.scheme_name}",
        )
    if result.scheme_name == "Baseline":
        partial = sum(result.activation_histogram[g] for g in range(1, 8))
        _require(partial == 0, "baseline-full-rows-only",
                 f"{partial} partial-row activations")
