"""Rank model: power-down, background residency, the tFAW window, refresh.

A rank is eight x8 chips operating in lockstep.  Its per-bank and
per-rank timing state (open rows and masks, ACT/column/PRE readiness,
tRRD/tCCD/turnaround floors, the command gate, the power-down flag and
the refresh deadline) lives in the channel's shared
:class:`~repro.dram.soa.TimingCore` arrays at ``rank_index``, and the
controller (:mod:`repro.controller.memctrl`) is the only writer of the
command state: ACT, RD/WR and PRE each change the arrays in one place
there.  This class holds what spans a rank's banks and is touched on
cold paths only:

* precharge power-down entry and exit (tXP),
* the background-state residency the power model integrates
  (active standby / precharge standby / precharge power-down),
* the tFAW four-activation window (fractionally weighted under PRA),
* periodic all-bank refresh, which raises ``act_ready`` over the
  rank's slice of the core and the rank gate to the end of tRFC.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.dram.soa import TimingCore
from repro.dram.timing import TimingParams

# Oracle-parity declaration enforced by reprolint: the rank's writes to
# the timing core are the fast path; the independent protocol checker
# is the oracle.  Its tests replay every command the controller issues
# through the checker, and the golden digests pin the results.
REPRO_FAST_PATH = True
ORACLE_TWIN = ("repro.dram.protocol",)
ORACLE_TESTS = (
    "tests/test_protocol.py",
    "tests/test_engine_identity.py",
)


class BankStateError(RuntimeError):
    """A command was applied in a state that violates DDR3 rules."""


class ActivationWindow:
    """Sliding-window tracker for tFAW with fractional (PRA) weights.

    A full-row activation has weight 1.0; a partial activation of g/8
    granularity weighs g/8, reflecting its proportionally smaller
    contribution to the peak-power budget that tFAW protects
    (Section 4.1.3: relaxed tRRD/tFAW).
    """

    __slots__ = ("tfaw", "budget", "history", "total")

    def __init__(self, tfaw: int, budget: float = 4.0) -> None:
        self.tfaw = tfaw
        self.budget = budget
        #: (issue cycle, weight) of recent ACTs; ``record`` drops the
        #: ones the window has outgrown.
        self.history: List[Tuple[int, float]] = []
        #: Sum of ``history``'s weights.  Weights are multiples of 1/8,
        #: so the sum is exact.
        self.total = 0.0

    def next_allowed(self, cycle: int, weight: float) -> int:
        """Earliest cycle at which an ACT of ``weight`` fits the window.

        A pure query: hint computations probe *future* cycles, and
        pruning on those probes would drop entries still live for
        queries at earlier cycles.
        """
        budget = self.budget + 1e-9
        # ``total`` also counts recorded ACTs that have left the window
        # by ``cycle``, so when it leaves room the live ones do too; the
        # history walk runs only when the window may be full.
        if self.total + weight <= budget:
            return cycle
        window_start = cycle - self.tfaw
        total = weight
        first_live = 0
        hist = self.history
        for c, w in hist:
            if c > window_start:
                total += w
            else:
                first_live += 1
        candidate = cycle
        idx = first_live
        while total > budget and idx < len(hist):
            candidate = hist[idx][0] + self.tfaw + 1
            total -= hist[idx][1]
            idx += 1
        return candidate

    def record(self, cycle: int, weight: float) -> None:
        """Record an issued ACT; prunes entries the window outgrew.

        Issue times are monotonic per rank, so pruning here is safe.
        """
        hist = self.history
        window_start = cycle - self.tfaw
        while hist and hist[0][0] <= window_start:
            self.total -= hist.pop(0)[1]
        hist.append((cycle, weight))
        self.total += weight


class Rank:
    """One rank of DRAM chips: its cold-path state and transitions."""

    __slots__ = (
        "core",
        "rank_index",
        "faw",
        "pd_exit_ready",
        "_bg_last_cycle",
        "bg_residency",
        "_txp",
        "_trefi",
        "_trfc",
    )

    def __init__(
        self, timing: TimingParams, core: TimingCore, rank_index: int = 0
    ) -> None:
        #: Shared per-channel timing-state arrays.
        self.core = core
        self.rank_index = rank_index
        self.faw = ActivationWindow(tfaw=timing.tfaw)
        core.next_refresh[rank_index] = timing.trefi
        #: Earliest cycle a command may issue after power-down exit.
        self.pd_exit_ready: int = 0
        # Background residency integration.
        self._bg_last_cycle: int = 0
        self.bg_residency: Dict[str, int] = {
            "act_stby": 0,
            "pre_stby": 0,
            "pre_pdn": 0,
        }
        self._txp = timing.txp
        self._trefi = timing.trefi
        self._trfc = timing.trfc

    # ------------------------------------------------------------------
    # Background state accounting
    # ------------------------------------------------------------------
    def _bg_state(self) -> str:
        ri = self.rank_index
        if self.core.open_bits[ri]:
            return "act_stby"
        if self.core.pd[ri]:
            return "pre_pdn"
        return "pre_stby"

    def accrue_background(self, cycle: int) -> None:
        """Charge elapsed cycles to the current background state.

        Must be called *before* any state-changing operation and once at
        the end of simulation.
        """
        delta = cycle - self._bg_last_cycle
        if delta > 0:
            self.bg_residency[self._bg_state()] += delta
            self._bg_last_cycle = cycle

    # ------------------------------------------------------------------
    # Power-down
    # ------------------------------------------------------------------
    def enter_power_down(self, cycle: int) -> None:
        """Enter precharge power-down (all banks must be closed)."""
        core, ri = self.core, self.rank_index
        if core.open_bits[ri]:
            raise BankStateError("precharge power-down requires all banks closed")
        if not core.pd[ri]:
            self.accrue_background(cycle)
            core.pd[ri] = 1

    def exit_power_down(self, cycle: int) -> int:
        """Leave power-down; returns the cycle commands become legal."""
        core, ri = self.core, self.rank_index
        if core.pd[ri]:
            self.accrue_background(cycle)
            core.pd[ri] = 0
            self.pd_exit_ready = cycle + self._txp
            if self.pd_exit_ready > core.gate[ri]:
                core.gate[ri] = self.pd_exit_ready
        return self.pd_exit_ready

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def do_refresh(self, cycle: int) -> None:
        """Issue an all-bank refresh; rank must be fully precharged."""
        core, ri = self.core, self.rank_index
        if core.open_bits[ri]:
            raise BankStateError("refresh with open banks")
        self.accrue_background(cycle)
        until = cycle + self._trfc
        act_ready = core.act_ready
        base = ri * core.num_banks
        for g in range(base, base + core.num_banks):
            if until > act_ready[g]:
                act_ready[g] = until
        if until > core.gate[ri]:
            core.gate[ri] = until
        # Bound catch-up after long idle skips: DDR3 allows deferring at
        # most 8 refreshes, so don't bunch more than that.
        next_refresh = core.next_refresh[ri] + self._trefi
        lag_floor = cycle - 8 * self._trefi
        core.next_refresh[ri] = next_refresh if next_refresh >= lag_floor else lag_floor
