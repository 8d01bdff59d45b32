"""Opt-in runtime sanitizer: differential checking on real runs.

The static layer (:mod:`repro.analysis`) proves properties of the
*source*; this module checks properties of a *run*.  Enabled by the
``REPRO_SANITIZE=1`` environment variable or
``SystemConfig(sanitize=True)``, it makes three additions to an
otherwise unmodified simulation:

* every :class:`~repro.controller.memctrl.ChannelController` gets a
  :class:`~repro.dram.protocol.ProtocolChecker` attached, so each
  issued DRAM command is replayed through the independent DDR3 rule
  set (a :class:`~repro.dram.protocol.ProtocolViolation` aborts the
  run at the offending command);
* a warm-snapshot restore is verified against the capture-time state
  digest (:func:`verify_restore`) — a copy-on-write restore must be
  bit-identical to the warmup it replaces;
* at finalize time, cheap cross-subsystem invariants are asserted
  (:func:`check_finalize`): the power accountant's event counters must
  agree exactly with the controllers' served/activation/refresh
  counters (energy conservation — every burst and ACT accounted once),
  per-category energies must be finite and non-negative, a DBI must
  register exactly the LLC's dirty resident lines, and the
  timing-core arrays must be self-consistent (valid PRA masks,
  ``open_bits`` mirroring ``open_row``).

Everything here is *off* the hot path unless sanitizing: with the
sanitizer disabled no checker is attached and no digest is computed,
so the throughput floor is untouched.
"""

from __future__ import annotations

import math
import os
from typing import TYPE_CHECKING, Optional

from repro.dram.geometry import FULL_MASK
from repro.dram.protocol import ProtocolChecker

if TYPE_CHECKING:
    from repro.cache.hierarchy import CacheHierarchy
    from repro.controller.stats import ControllerStats
    from repro.sim.config import SystemConfig
    from repro.sim.snapshot import WarmSnapshot
    from repro.sim.system import System


class SanitizerError(Exception):
    """A runtime invariant failed under ``REPRO_SANITIZE=1``.

    A plain ``Exception`` subclass (not ``AssertionError``) so failures
    survive ``python -O``.
    """


_FALSY = frozenset({"", "0", "false", "False", "no"})


def sanitize_enabled(config: "Optional[SystemConfig]" = None) -> bool:
    """Resolve the sanitizer switch: config field or environment."""
    if config is not None and getattr(config, "sanitize", False):
        return True
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


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise SanitizerError(message)


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
        f"snapshot restore diverged from captured warm state "
        f"(digest {actual[:12]} != {expected[:12]})",
    )


def check_finalize(system: "System", merged: "ControllerStats") -> None:
    """Assert end-of-run invariants between accountant, stats and DRAM.

    ``merged`` is the already-merged
    :class:`~repro.controller.stats.ControllerStats` of every channel.
    """
    acc = system.accountant

    # Energy conservation: each served burst / ACT / REF was accounted
    # exactly once — the streak-batched accounting paths must agree
    # with the per-request statistics paths.
    _require(
        acc.read_bursts == merged.reads.served,
        f"accountant saw {acc.read_bursts} read bursts but controllers "
        f"served {merged.reads.served} reads",
    )
    _require(
        acc.write_bursts == merged.writes.served,
        f"accountant saw {acc.write_bursts} write bursts but controllers "
        f"served {merged.writes.served} writes",
    )
    _require(
        acc.refreshes == merged.refreshes,
        f"accountant saw {acc.refreshes} refreshes but controllers "
        f"issued {merged.refreshes}",
    )
    histogram_total = sum(acc.activations_by_granularity.values())
    _require(
        histogram_total == merged.total_activations,
        f"activation histogram holds {histogram_total} ACTs but "
        f"controllers recorded {merged.total_activations}",
    )
    for category in sorted(acc.energy_pj):
        pj = acc.energy_pj[category]
        _require(
            math.isfinite(pj) and pj >= 0.0,
            f"energy category {category!r} is {pj!r} (must be finite "
            f"and non-negative)",
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
                    f"channel {channel_idx} rank {rank} bank {bank}: "
                    f"mask {mask:#x} out of range",
                )
                if core.open_row[g] >= 0:
                    bits |= 1 << bank
            _require(
                bits == core.open_bits[rank],
                f"channel {channel_idx} rank {rank}: open_bits "
                f"{core.open_bits[rank]:#x} disagrees with open_row "
                f"({bits:#x})",
            )
