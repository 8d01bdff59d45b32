"""Lane-major timing state for the batch kernel: N lanes x (ranks*banks).

:class:`BatchTimingCore` is :class:`~repro.dram.soa.TimingCore` with a
leading *lane* dimension: every flat per-(rank,bank) and per-rank
integer vector becomes a matrix whose row ``lane`` is one grid point's
channel state.  The batch kernel (:mod:`repro.sim.batch`) allocates
one slab per channel index and hands each lane its row set via
:meth:`lane` — a real :class:`TimingCore` whose slots *are* the slab
rows, so the controller's scheduling passes (which bind the arrays as
locals and mutate them in place) run unchanged against lane-sliced
views, and bit-identity with the scalar engine holds by construction.

Allocating whole slabs goes through a backend selected at import: numpy (installed via the ``.[fast]`` extra)
builds each matrix in one vectorized call, the pure-list fallback uses
per-lane list ops.  Both produce *identical* structures (nested plain
lists of Python ints/bools: ``ndarray.tolist()`` converts element
types), so the backend can never change simulation results — only how
fast lane state is materialized.  ``REPRO_BATCH_BACKEND=list|numpy``
forces a backend; :data:`HAVE_NUMPY` is the loud-skip shim tests and
callers consult.

Why the *hot path* stays scalar per lane: the FR-FCFS scheduler is
deeply data-dependent (burst-streak commits, useless-row masks) and
lanes sit at different cycles, so cross-lane SIMD of ``step()`` cannot
be bit-identical.  CPython also indexes plain lists faster than numpy
scalars.  The lane dimension instead amortizes allocation, snapshot
restore and event-loop interpreter overhead — see DESIGN.md §7.

The **column ops** at the bottom of this module (:func:`open_row_hits`,
:func:`refresh_due`, :func:`power_down_resident`, :func:`decay_timers`,
:func:`next_wake_min`) are column-wise reductions and updates over a
subset of lanes.  Nothing in the simulator calls them any more: the
layered benchmark still names them in its span table, so they stay
until that table drops them.  Both backends return identical plain
Python values.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.dram.geometry import FULL_MASK
from repro.dram.soa import TimingCore

try:  # the `.[fast]` optional extra; tier-1 must run without it
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _numpy = None  # type: ignore[assignment]

#: Loud-skip shim: ``False`` means the pure-list fallback backend is in
#: use (identical semantics, slower bulk ops).  Re-exported as
#: ``repro.sim.batch.HAVE_NUMPY``.
HAVE_NUMPY = _numpy is not None

#: Backends a :class:`BatchTimingCore` can allocate with.
BACKENDS = ("numpy", "list")


def default_backend() -> str:
    """Backend selected at import: env override, else numpy if present.

    ``REPRO_BATCH_BACKEND=list`` forces the fallback (e.g. to compare
    backends on one install); ``=numpy`` fails loudly when the extra is
    missing instead of silently degrading.
    """
    forced = os.environ.get("REPRO_BATCH_BACKEND", "").strip().lower()
    if forced:
        if forced not in BACKENDS:
            raise ValueError(
                f"REPRO_BATCH_BACKEND={forced!r}: expected one of {BACKENDS}"
            )
        if forced == "numpy" and not HAVE_NUMPY:
            raise ImportError(
                "REPRO_BATCH_BACKEND=numpy but numpy is not installed; "
                "install the extra: pip install 'repro[fast]'"
            )
        return forced
    return "numpy" if HAVE_NUMPY else "list"


def full_rows(lanes: int, width: int, fill: int, backend: str) -> List[List[int]]:
    """``lanes`` rows of ``width`` ints, every element ``fill``.

    The numpy backend materializes the whole matrix in one array op
    (``tolist()`` yields plain Python ints, bit-identical to the
    fallback's per-lane list repeats).
    """
    if backend == "numpy":
        assert _numpy is not None
        matrix: List[List[int]] = _numpy.full(
            (lanes, width), fill, dtype=_numpy.int64
        ).tolist()
        return matrix
    return [[fill] * width for _ in range(lanes)]


def false_rows(lanes: int, width: int, backend: str) -> List[List[bool]]:
    """``lanes`` rows of ``width`` ``False`` flags (same contract)."""
    if backend == "numpy":
        assert _numpy is not None
        matrix: List[List[bool]] = _numpy.zeros(
            (lanes, width), dtype=bool
        ).tolist()
        return matrix
    return [[False] * width for _ in range(lanes)]


def none_rows(lanes: int, width: int) -> List[List[Optional[int]]]:
    """``lanes`` rows of ``width`` ``None`` slots (no numpy analogue:
    object matrices gain nothing from vectorization)."""
    return [[None] * width for _ in range(lanes)]


# Oracle-parity declaration enforced by reprolint: the lane-major slab
# is the batch fast path; the scalar per-channel TimingCore it hands
# out rows of is the oracle.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.dram.soa"
ORACLE_TESTS = ("tests/test_batch.py",)

# COW contract for the aliasing pass (repro.analysis.cowcheck): every
# slab matrix row is aliased by the TimingCore views lane() hands out,
# so any in-place write through a row is visible to a live lane.  The
# one op below that mutates rows on purpose (decay_timers) carries
# explicit shares[...] pragmas.
REPRO_COW_PROTOCOL = {
    "shared_roots": (
        "open_row", "open_mask", "act_ready", "col_ready", "pre_ready",
        "last_act", "accesses", "autopre", "reserved", "next_act_ok",
        "next_col_ok", "next_read_ok", "next_write_ok", "gate",
        "open_bits", "pd", "next_refresh",
    ),
    "shared_calls": ("lane",),
    "privatizers": (),
}


class BatchTimingCore:
    """Lane-major DRAM timing state: one slab for N lanes of a channel.

    Field names and encodings match :class:`~repro.dram.soa.TimingCore`
    exactly; every field just gains a leading lane dimension.  Row
    ``lane`` of each matrix is the lane's live state — :meth:`lane`
    returns a ``TimingCore`` whose slots alias those rows, so there is
    exactly one copy of the state and no synchronization step.
    """

    __slots__ = (
        "num_lanes",
        "num_ranks",
        "num_banks",
        "backend",
        # -- lane-major per-bank matrices: [lane][rank*num_banks+bank] --
        "open_row",
        "open_mask",
        "act_ready",
        "col_ready",
        "pre_ready",
        "last_act",
        "accesses",
        "autopre",
        "reserved",
        # -- lane-major per-rank matrices: [lane][rank] --
        "next_act_ok",
        "next_col_ok",
        "next_read_ok",
        "next_write_ok",
        "gate",
        "open_bits",
        "pd",
        "next_refresh",
    )

    def __init__(
        self,
        num_lanes: int,
        num_ranks: int,
        num_banks: int,
        backend: Optional[str] = None,
    ) -> None:
        if num_lanes <= 0:
            raise ValueError("BatchTimingCore needs at least one lane")
        if num_ranks <= 0 or num_banks <= 0:
            raise ValueError("BatchTimingCore needs at least one rank and bank")
        if backend is None:
            backend = default_backend()
        if backend not in BACKENDS:
            raise ValueError(f"unknown backend {backend!r}; expected {BACKENDS}")
        if backend == "numpy" and not HAVE_NUMPY:
            raise ImportError(
                "numpy backend requested but numpy is not installed; "
                "install the extra: pip install 'repro[fast]'"
            )
        self.num_lanes = num_lanes
        self.num_ranks = num_ranks
        self.num_banks = num_banks
        self.backend = backend
        n = num_ranks * num_banks
        self.open_row = full_rows(num_lanes, n, -1, backend)
        self.open_mask = full_rows(num_lanes, n, FULL_MASK, backend)
        self.act_ready = full_rows(num_lanes, n, 0, backend)
        self.col_ready = full_rows(num_lanes, n, 0, backend)
        self.pre_ready = full_rows(num_lanes, n, 0, backend)
        self.last_act = full_rows(num_lanes, n, -1, backend)
        self.accesses = full_rows(num_lanes, n, 0, backend)
        self.autopre = false_rows(num_lanes, n, backend)
        self.reserved = none_rows(num_lanes, n)
        self.next_act_ok = full_rows(num_lanes, num_ranks, 0, backend)
        self.next_col_ok = full_rows(num_lanes, num_ranks, 0, backend)
        self.next_read_ok = full_rows(num_lanes, num_ranks, 0, backend)
        self.next_write_ok = full_rows(num_lanes, num_ranks, 0, backend)
        self.gate = full_rows(num_lanes, num_ranks, 0, backend)
        self.open_bits = full_rows(num_lanes, num_ranks, 0, backend)
        self.pd = full_rows(num_lanes, num_ranks, 0, backend)
        self.next_refresh = full_rows(num_lanes, num_ranks, 0, backend)

    # ------------------------------------------------------------------
    def lane(self, lane: int) -> TimingCore:
        """A :class:`TimingCore` whose arrays *are* this slab's rows.

        The returned core is the lane's only state copy: controller
        mutations through the view are mutations of the slab rows, and
        whole-slab operations observe them immediately.
        """
        if not 0 <= lane < self.num_lanes:
            raise IndexError(f"lane {lane} out of range 0..{self.num_lanes - 1}")
        core = TimingCore(self.num_ranks, self.num_banks)
        core.open_row = self.open_row[lane]
        core.open_mask = self.open_mask[lane]
        core.act_ready = self.act_ready[lane]
        core.col_ready = self.col_ready[lane]
        core.pre_ready = self.pre_ready[lane]
        core.last_act = self.last_act[lane]
        core.accesses = self.accesses[lane]
        core.autopre = self.autopre[lane]
        core.reserved = self.reserved[lane]
        core.next_act_ok = self.next_act_ok[lane]
        core.next_col_ok = self.next_col_ok[lane]
        core.next_read_ok = self.next_read_ok[lane]
        core.next_write_ok = self.next_write_ok[lane]
        core.gate = self.gate[lane]
        core.open_bits = self.open_bits[lane]
        core.pd = self.pd[lane]
        core.next_refresh = self.next_refresh[lane]
        return core


# ----------------------------------------------------------------------
# Column ops: column-wise reductions/updates over lane subsets.
#
# Each op takes the slab plus the *slots* (lane indices) of a subset of
# lanes and evaluates one column quantity for all of them at once.  The
# numpy path gathers the rows into a single array op; the list path
# reduces per lane.  Both return plain Python ints/bools so results are
# backend-invariant, and neither mutates anything except where
# documented (decay_timers).
# ----------------------------------------------------------------------


# Not called by the simulator; kept for the benchmark span table.
def open_row_hits(slab: BatchTimingCore, slots: Sequence[int]) -> List[int]:
    """Per-lane OR-fold of the ranks' ``open_bits``, one per slot.

    ``0`` means the lane has no open row anywhere on the channel.
    """
    if slab.backend == "numpy":
        assert _numpy is not None
        rows = _numpy.array(
            [slab.open_bits[s] for s in slots], dtype=_numpy.int64
        )
        out: List[int] = _numpy.bitwise_or.reduce(rows, axis=1).tolist()
        return out
    result = []
    for s in slots:
        bits = 0
        for b in slab.open_bits[s]:
            bits |= b
        result.append(bits)
    return result


# Not called by the simulator; kept for the benchmark span table.
def refresh_due(slab: BatchTimingCore, slots: Sequence[int]) -> List[int]:
    """Earliest refresh deadline per slot (min over ranks)."""
    if slab.backend == "numpy":
        assert _numpy is not None
        rows = _numpy.array(
            [slab.next_refresh[s] for s in slots], dtype=_numpy.int64
        )
        out: List[int] = rows.min(axis=1).tolist()
        return out
    return [min(slab.next_refresh[s]) for s in slots]


# Not called by the simulator; kept for the benchmark span table.
def power_down_resident(
    slab: BatchTimingCore, slots: Sequence[int]
) -> List[bool]:
    """Whether *every* rank of each slot's lane sits in power-down."""
    if slab.backend == "numpy":
        assert _numpy is not None
        rows = _numpy.array([slab.pd[s] for s in slots], dtype=_numpy.int64)
        out: List[bool] = rows.all(axis=1).tolist()
        return out
    return [all(slab.pd[s]) for s in slots]


# Not called by the simulator; kept for the benchmark span table.
def decay_timers(
    slab: BatchTimingCore, slots: Sequence[int], cycle: int
) -> None:
    """Clamp stale per-rank readiness timers up to ``cycle``, in place.

    Elementwise ``max(timer, cycle)`` over the slots' per-rank timer
    rows (tRRD/tCCD/turnaround/hold/gate).  Behavior-preserving for
    lanes at ``cycle``: the controller only ever consults these values
    via ``cycle >= t`` comparisons or max-folds against cycles ``>=
    cycle``, so a timer that already expired (``< cycle``) is
    indistinguishable from one clamped to ``cycle``.
    """
    columns = (
        slab.next_act_ok,
        slab.next_col_ok,
        slab.next_read_ok,
        slab.next_write_ok,
        slab.gate,
    )
    if slab.backend == "numpy":
        assert _numpy is not None
        for matrix in columns:
            rows = _numpy.array(
                [matrix[s] for s in slots], dtype=_numpy.int64
            )
            clamped = _numpy.maximum(rows, cycle).tolist()
            for s, row in zip(slots, clamped):
                matrix[s][:] = row  # reprolint: shares[clamping timers in place is behavior-preserving and must reach live lane views]
        return
    for matrix in columns:
        for s in slots:
            row = matrix[s]
            for i, v in enumerate(row):
                if v < cycle:
                    row[i] = cycle  # reprolint: shares[clamping timers in place is behavior-preserving and must reach live lane views]


# Not called by the simulator; kept for the benchmark span table.
def next_wake_min(
    candidates: Sequence[Sequence[int]], backend: str
) -> List[int]:
    """Row-wise min over per-lane wake-candidate rows (non-empty)."""
    if backend == "numpy" and HAVE_NUMPY:
        assert _numpy is not None
        widths = {len(row) for row in candidates}
        if len(widths) == 1:
            arr = _numpy.array(candidates, dtype=_numpy.int64)
            out: List[int] = arr.min(axis=1).tolist()
            return out
    return [min(row) for row in candidates]
