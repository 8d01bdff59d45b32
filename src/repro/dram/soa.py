"""Structure-of-arrays timing state shared by a channel's ranks/banks.

The :class:`TimingCore` *is* the device state of one channel: open rows
and their PRA masks, per-bank ACT/column/PRE readiness, and per-rank
tRRD/tCCD/turnaround floors, command gate, power-down flag and refresh
deadline, as plain integer lists indexed by ``g = rank_index *
num_banks + bank_index`` (per-bank) or by rank.  The scheduler's hot
loops (housekeeping walk, FR-FCFS passes, burst streak commits) read
this state tens of times per issued command, and flat arrays turn
readiness checks and wake-hint computation into flat min/compare
loops.

One :class:`TimingCore` is created per channel
(:class:`~repro.dram.channel.Channel`) and adopted by that channel's
:class:`~repro.controller.memctrl.ChannelController`, its only writer:
the controller changes it for ACT, RD/WR and PRE in one place each,
and through :class:`~repro.dram.rank.Rank` for refresh and power-down.
:class:`~repro.dram.protocol.ProtocolChecker` re-derives the DDR3
rules from the command stream alone and is the oracle.

Encoding conventions:

* ``open_row[g]`` is ``-1`` for a precharged bank,
* ``autopre[g]`` is a pending auto-precharge (restricted close-page),
  ``reserved[g]`` the request id an activation was issued for,
* ``open_bits[r]`` is the rank's open-bank bitmask,
* ``gate[r]`` is the earliest cycle any command may issue on the rank
  (the later of power-down exit and the end of a refresh),
* ``pd[r]`` is 1 while the rank sits in precharge power-down,
* ``next_refresh[r]`` is the rank's next refresh deadline.
"""

from __future__ import annotations

from typing import List, Optional

from repro.dram.geometry import FULL_MASK

# Oracle-parity declaration enforced by reprolint: this module is the
# array-backed device state; the independent protocol checker is the
# oracle.  Its tests replay every command the controller issues through
# the checker, and the golden digests pin the results.
REPRO_FAST_PATH = True
ORACLE_TWIN = ("repro.dram.protocol",)
ORACLE_TESTS = (
    "tests/test_protocol.py",
    "tests/test_engine_identity.py",
)


class TimingCore:
    """Flat per-(rank, bank) and per-rank timing state for one channel."""

    __slots__ = (
        "num_ranks",
        "num_banks",
        # -- per-bank arrays, indexed by g = rank * num_banks + bank --
        "open_row",
        "open_mask",
        "act_ready",
        "col_ready",
        "pre_ready",
        "last_act",
        "accesses",
        "autopre",
        "reserved",
        # -- per-rank arrays, indexed by rank --
        "next_act_ok",
        "next_col_ok",
        "next_read_ok",
        "next_write_ok",
        "gate",
        "open_bits",
        "pd",
        "next_refresh",
    )

    def __init__(self, num_ranks: int, num_banks: int) -> None:
        if num_ranks <= 0 or num_banks <= 0:
            raise ValueError("TimingCore needs at least one rank and bank")
        self.num_ranks = num_ranks
        self.num_banks = num_banks
        n = num_ranks * num_banks
        #: Open row per bank; -1 when precharged.
        self.open_row: List[int] = [-1] * n
        #: PRA mask the open row was activated under.
        self.open_mask: List[int] = [FULL_MASK] * n
        #: Earliest cycle an ACT may be issued to the bank.
        self.act_ready: List[int] = [0] * n
        #: Earliest cycle a column (RD/WR) command may be issued.
        self.col_ready: List[int] = [0] * n
        #: Earliest cycle a PRE may be issued.
        self.pre_ready: List[int] = [0] * n
        #: Cycle of the most recent activation (stats/debug).
        self.last_act: List[int] = [-1] * n
        #: Column accesses served by the open row (row-hit cap).
        self.accesses: List[int] = [0] * n
        #: Pending auto-precharge flag (restricted close-page).
        self.autopre: List[bool] = [False] * n
        #: Request id the activation was reserved for, or None.
        self.reserved: List[Optional[int]] = [None] * n
        #: Earliest next-ACT cycle per rank (tRRD).
        self.next_act_ok: List[int] = [0] * num_ranks
        #: Earliest next column command per rank (tCCD).
        self.next_col_ok: List[int] = [0] * num_ranks
        #: Earliest READ per rank (write-to-read turnaround).
        self.next_read_ok: List[int] = [0] * num_ranks
        #: Earliest WRITE per rank (DM-pin write-buffer hold).
        self.next_write_ok: List[int] = [0] * num_ranks
        #: Earliest command cycle per rank (power-down exit, refresh).
        self.gate: List[int] = [0] * num_ranks
        #: Bitmask of banks with an open row, per rank.
        self.open_bits: List[int] = [0] * num_ranks
        #: 1 while the rank is in precharge power-down, else 0.
        self.pd: List[int] = [0] * num_ranks
        #: Next refresh deadline per rank (``Rank.__init__`` seeds tREFI).
        self.next_refresh: List[int] = [0] * num_ranks
