"""Rank model: banks in lockstep, inter-bank timing, power-down, refresh.

A rank is eight x8 chips operating in lockstep, so one :class:`Bank`
object here stands for the same bank across all chips.  The rank owns
the constraints that span banks:

* tRRD between activations (weight-relaxed for partial activations),
* the tFAW four-activation window (fractionally weighted under PRA),
* tCCD between column commands and the write-to-read turnaround,
* precharge power-down entry/exit,
* periodic refresh.

The rank also integrates background-state residency (active standby /
precharge standby / precharge power-down) for the power model.

Inter-bank timing state (``next_act_ok`` / ``next_col_ok`` /
``next_read_ok`` / ``next_write_ok``, the open-bank bitmask, the
command gate, the power-down flag and the refresh deadline) lives in
the channel's shared :class:`~repro.dram.soa.TimingCore` arrays at
``rank_index`` — the attributes here are views, so the controller's
flat-array hot loops and this object API always agree.  Only the tFAW
window, power-down exit timing and background-residency integration
stay plain attributes: they are touched on cold paths.

The per-bank :class:`Bank` views are built lazily on first access:
they carry no state of their own (everything lives in the core
arrays), and the batch kernel constructs hundreds of ranks per lane
group whose banks are often never touched before the run ends.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

from repro.dram.bank import ActivationWindow, Bank, BankStateError
from repro.dram.soa import TimingCore
from repro.dram.timing import TimingParams

# Oracle-parity declaration enforced by reprolint: the TimingCore-backed
# property views are the fast path; the Bank object model is the oracle.
# The golden digests in tests/test_engine_identity.py pin its results.
REPRO_FAST_PATH = True
ORACLE_TWIN = ("repro.dram.bank",)
ORACLE_TESTS = (
    "tests/test_engine_equivalence.py",
    "tests/test_engine_identity.py",
)


class Rank:
    """One rank of DRAM chips and its inter-bank constraints."""

    __slots__ = (
        "timing",
        "_banks",
        "core",
        "rank_index",
        "num_banks",
        "faw",
        "relax_act_constraints",
        "pd_exit_ready",
        "refresh_until",
        "_bg_last_cycle",
        "bg_residency",
        "_trrd",
        "_tccd",
        "_twtr",
        "_txp",
        "_trefi",
        "_trfc",
    )

    def __init__(
        self,
        timing: TimingParams,
        num_banks: int = 8,
        relax_act_constraints: bool = False,
        *,
        core: Optional[TimingCore] = None,
        rank_index: int = 0,
    ) -> None:
        self.timing = timing
        if core is None:
            # Standalone rank (unit tests): own a private core.
            core = TimingCore(rank_index + 1, num_banks)
        #: Shared per-channel timing-state arrays.
        self.core = core
        self.rank_index = rank_index
        self.num_banks = num_banks
        #: Lazily built :class:`Bank` views (state lives in ``core``).
        self._banks: Optional[List[Bank]] = None
        self.faw = ActivationWindow(tfaw=timing.tfaw)
        #: Whether partial/half activations relax tRRD and tFAW.
        self.relax_act_constraints = relax_act_constraints
        # Power-down flag and refresh deadline live in the core arrays
        # (written through the properties below).
        self.powered_down = False
        self.next_refresh = timing.trefi
        #: Earliest cycle a command may issue after power-down exit.
        self.pd_exit_ready: int = 0
        #: Cycle until which an in-flight refresh blocks the rank.
        self.refresh_until: int = 0
        # Background residency integration.
        self._bg_last_cycle: int = 0
        self.bg_residency: Dict[str, int] = {
            "act_stby": 0,
            "pre_stby": 0,
            "pre_pdn": 0,
        }
        self._trrd = timing.trrd
        self._tccd = timing.tccd
        self._twtr = timing.twtr
        self._txp = timing.txp
        self._trefi = timing.trefi
        self._trfc = timing.trfc

    # ------------------------------------------------------------------
    # Array-backed state views
    # ------------------------------------------------------------------
    @property
    def banks(self) -> List[Bank]:
        """Per-bank views, built on first access.

        Banks hold no state (everything lives in ``core``), so deferred
        construction (``adopt_state=True``: the view adopts whatever the
        arrays say instead of resetting them) is observationally
        identical to eager construction on a fresh core — and skips
        hundreds of never-touched Bank objects per batch lane group.
        """
        banks = self._banks
        if banks is None:
            banks = self._banks = [
                Bank(
                    self.timing,
                    core=self.core,
                    rank_index=self.rank_index,
                    bank_index=i,
                    adopt_state=True,
                )
                for i in range(self.num_banks)
            ]
        return banks

    @property
    def powered_down(self) -> bool:
        """True while the rank sits in precharge power-down."""
        return bool(self.core.pd[self.rank_index])

    @powered_down.setter
    def powered_down(self, value: bool) -> None:
        self.core.pd[self.rank_index] = 1 if value else 0

    @property
    def next_refresh(self) -> int:
        """Deadline of the next refresh."""
        return self.core.next_refresh[self.rank_index]

    @next_refresh.setter
    def next_refresh(self, value: int) -> None:
        self.core.next_refresh[self.rank_index] = value

    @property
    def open_bits(self) -> int:
        """Bitmask of banks with an open row (exact by construction)."""
        return self.core.open_bits[self.rank_index]

    @open_bits.setter
    def open_bits(self, value: int) -> None:
        self.core.open_bits[self.rank_index] = value

    @property
    def next_act_ok(self) -> int:
        """Earliest cycle the next ACT (any bank) may issue (tRRD)."""
        return self.core.next_act_ok[self.rank_index]

    @next_act_ok.setter
    def next_act_ok(self, value: int) -> None:
        self.core.next_act_ok[self.rank_index] = value

    @property
    def next_col_ok(self) -> int:
        """Earliest cycle the next column command (any bank) may issue."""
        return self.core.next_col_ok[self.rank_index]

    @next_col_ok.setter
    def next_col_ok(self, value: int) -> None:
        self.core.next_col_ok[self.rank_index] = value

    @property
    def next_read_ok(self) -> int:
        """Earliest cycle a READ may issue (write-to-read turnaround)."""
        return self.core.next_read_ok[self.rank_index]

    @next_read_ok.setter
    def next_read_ok(self, value: int) -> None:
        self.core.next_read_ok[self.rank_index] = value

    @property
    def next_write_ok(self) -> int:
        """Earliest cycle a WRITE may issue (DM-pin mask delivery holds
        the chip write buffers until the activation completes)."""
        return self.core.next_write_ok[self.rank_index]

    @next_write_ok.setter
    def next_write_ok(self, value: int) -> None:
        self.core.next_write_ok[self.rank_index] = value

    @property
    def _gate(self) -> int:
        """Cached max(pd_exit_ready, refresh_until); kept in sync by the
        two mutators so ``command_gate`` is a single comparison on the
        hot path instead of a recomputed max every probe."""
        return self.core.gate[self.rank_index]

    @_gate.setter
    def _gate(self, value: int) -> None:
        self.core.gate[self.rank_index] = value

    # ------------------------------------------------------------------
    # Background state accounting
    # ------------------------------------------------------------------
    def _bg_state(self) -> str:
        if self.core.open_bits[self.rank_index]:
            return "act_stby"
        if self.powered_down:
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
    @property
    def all_precharged(self) -> bool:
        return not self.core.open_bits[self.rank_index]

    def enter_power_down(self, cycle: int) -> None:
        """Enter precharge power-down (all banks must be closed)."""
        if not self.all_precharged:
            raise BankStateError("precharge power-down requires all banks closed")
        if not self.powered_down:
            self.accrue_background(cycle)
            self.powered_down = True

    def exit_power_down(self, cycle: int) -> int:
        """Leave power-down; returns the cycle commands become legal."""
        if self.powered_down:
            self.accrue_background(cycle)
            self.powered_down = False
            self.pd_exit_ready = cycle + self._txp
            ri = self.rank_index
            if self.pd_exit_ready > self.core.gate[ri]:
                self.core.gate[ri] = self.pd_exit_ready
        return self.pd_exit_ready

    def command_gate(self, cycle: int) -> int:
        """Earliest cycle any command may issue (PD exit / refresh)."""
        gate = self.core.gate[self.rank_index]
        return gate if gate > cycle else cycle

    # ------------------------------------------------------------------
    # Activation constraints
    # ------------------------------------------------------------------
    def _act_weight(self, granularity_eighths: int) -> float:
        if not self.relax_act_constraints:
            return 1.0
        return granularity_eighths / 8.0

    def can_activate(self, cycle: int, bank: int, granularity_eighths: int = 8) -> bool:
        """True when an ACT of the given granularity is legal now."""
        if self.powered_down or cycle < self.command_gate(cycle):
            return False
        weight = self._act_weight(granularity_eighths)
        return (
            cycle >= self.core.next_act_ok[self.rank_index]
            and self.banks[bank].can_activate(cycle)
            and self.faw.can_activate(cycle, weight)
        )

    def earliest_activate(self, cycle: int, bank: int, granularity_eighths: int = 8) -> int:
        """Lower bound on the cycle the ACT could issue (for skip-ahead)."""
        weight = self._act_weight(granularity_eighths)
        core = self.core
        ri = self.rank_index
        t = cycle
        if core.next_act_ok[ri] > t:
            t = core.next_act_ok[ri]
        act_ready = core.act_ready[ri * core.num_banks + bank]
        if act_ready > t:
            t = act_ready
        if core.gate[ri] > t:
            t = core.gate[ri]
        faw_t = self.faw.next_allowed(t, weight)
        return faw_t if faw_t > t else t

    def record_activate(self, cycle: int, granularity_eighths: int) -> None:
        """Update tRRD/tFAW bookkeeping after an ACT was issued."""
        weight = self._act_weight(granularity_eighths)
        trrd = self._trrd
        if self.relax_act_constraints:
            trrd = max(2, math.ceil(trrd * weight))
        self.core.next_act_ok[self.rank_index] = cycle + trrd
        self.faw.record(cycle, weight)

    # ------------------------------------------------------------------
    # Column constraints
    # ------------------------------------------------------------------
    def can_read(self, cycle: int, bank: int) -> bool:
        """True when a column READ to the bank is legal now."""
        ri = self.rank_index
        return (
            not self.powered_down
            and cycle >= self.command_gate(cycle)
            and cycle >= self.core.next_col_ok[ri]
            and cycle >= self.core.next_read_ok[ri]
            and self.banks[bank].can_column(cycle)
        )

    def can_write(self, cycle: int, bank: int) -> bool:
        """True when a column WRITE to the bank is legal now."""
        ri = self.rank_index
        return (
            not self.powered_down
            and cycle >= self.command_gate(cycle)
            and cycle >= self.core.next_col_ok[ri]
            and cycle >= self.core.next_write_ok[ri]
            and self.banks[bank].can_column(cycle)
        )

    def earliest_read(self, cycle: int, bank: int) -> int:
        """Lower bound on the next legal READ cycle (skip-ahead hint)."""
        core = self.core
        ri = self.rank_index
        t = cycle
        if core.next_col_ok[ri] > t:
            t = core.next_col_ok[ri]
        if core.next_read_ok[ri] > t:
            t = core.next_read_ok[ri]
        col_ready = core.col_ready[ri * core.num_banks + bank]
        if col_ready > t:
            t = col_ready
        if core.gate[ri] > t:
            t = core.gate[ri]
        return t

    def earliest_write(self, cycle: int, bank: int) -> int:
        """Lower bound on the next legal WRITE cycle (skip-ahead hint)."""
        core = self.core
        ri = self.rank_index
        t = cycle
        if core.next_col_ok[ri] > t:
            t = core.next_col_ok[ri]
        if core.next_write_ok[ri] > t:
            t = core.next_write_ok[ri]
        col_ready = core.col_ready[ri * core.num_banks + bank]
        if col_ready > t:
            t = col_ready
        if core.gate[ri] > t:
            t = core.gate[ri]
        return t

    def record_read(self, cycle: int) -> None:
        self.core.next_col_ok[self.rank_index] = cycle + self._tccd

    def record_write(self, cycle: int, burst_end: int) -> None:
        """Update tCCD and the write-to-read turnaround after a WRITE."""
        core = self.core
        ri = self.rank_index
        core.next_col_ok[ri] = cycle + self._tccd
        read_ok = burst_end + self._twtr
        if read_ok > core.next_read_ok[ri]:
            core.next_read_ok[ri] = read_ok

    def hold_write_buffer(self, until_cycle: int) -> None:
        """Block further writes until ``until_cycle`` (DM-pin delivery)."""
        core = self.core
        ri = self.rank_index
        if until_cycle > core.next_write_ok[ri]:
            core.next_write_ok[ri] = until_cycle

    # ------------------------------------------------------------------
    # Refresh
    # ------------------------------------------------------------------
    def refresh_due(self, cycle: int) -> bool:
        return cycle >= self.next_refresh

    def do_refresh(self, cycle: int) -> None:
        """Issue an all-bank refresh; rank must be fully precharged."""
        if not self.all_precharged:
            raise BankStateError("refresh with open banks")
        self.accrue_background(cycle)
        for bank in self.banks:
            bank.block_for_refresh(cycle)
        self.refresh_until = cycle + self._trfc
        ri = self.rank_index
        if self.refresh_until > self.core.gate[ri]:
            self.core.gate[ri] = self.refresh_until
        self.next_refresh += self._trefi
        # Bound catch-up after long idle skips: DDR3 allows deferring at
        # most 8 refreshes, so don't bunch more than that.
        lag_floor = cycle - 8 * self._trefi
        if self.next_refresh < lag_floor:
            self.next_refresh = lag_floor
