"""Independent DDR3 protocol checker (differential verification).

The device state is the channel's :class:`~repro.dram.soa.TimingCore`,
and the scheduler in :mod:`repro.controller.memctrl` is its only
writer: it enforces timing by reading the core's readiness arrays
before it issues, and changes them once per command.  This module
re-implements the DDR3 rules *independently*, from the command stream
alone, so tests (and ``REPRO_SANITIZE=1`` runs) can attach a
:class:`ProtocolChecker` to a controller and fail on any violation the
scheduler lets through — classic differential testing, the same role
DRAMSim2's internal checker plays for the original paper.  It is the
oracle of the one device model.

Checked rules (per the JEDEC DDR3 core set + the paper's PRA extension):

* ACT only to a precharged bank; one open row per bank,
* tRCD before a column command (+1 tCK after a masked PRA activation),
* tRAS before PRE; tRP before the next ACT; tRC between same-bank ACTs,
* tWR after the end of a write burst before PRE; tRTP after READ,
* tCCD between column commands anywhere in a rank,
* tWTR from end of write burst to the next READ command in the rank,
* tRRD between ACTs in a rank and the (optionally weighted) tFAW window,
* column commands only to MAT groups covered by the activation mask,
* exclusive data bus with tRTRS on rank switches,
* command bus: at most one command per cycle; a masked ACT also owns
  the following (mask-transfer) cycle,
* REFRESH only with all banks precharged; rank frozen for tRFC.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dram.geometry import FULL_MASK
from repro.dram.timing import TimingParams


#: Every rule name the checker can report (``ProtocolViolation.rule``).
#: One negative test per entry lives in ``tests/test_protocol_negative.py``.
RULES = (
    "ACT-to-open-bank",
    "tRCD",
    "tRAS",
    "tRP",
    "tRC",
    "tWR",
    "tRTP",
    "tCCD",
    "tWTR",
    "tRRD",
    "tFAW",
    "mask-coverage",
    "mask-validity",
    "mask-transfer-cycle",
    "PRE-to-precharged-bank",
    "column-to-precharged-bank",
    "command-bus",
    "data-bus",
    "burst-window",
    "REF-open-banks",
    "tRFC",
)


class ProtocolViolation(Exception):
    """A DDR3 timing or state rule was broken by the command stream.

    Deliberately *not* an ``AssertionError``: violations must survive
    ``python -O`` (which strips asserts) and must never be silenced by
    test helpers that tolerate assertion failures.

    ``rule`` carries the machine-readable rule name (one of
    :data:`RULES`); the message adds the offending command and cycle.
    """

    def __init__(self, rule: str, message: str) -> None:
        super().__init__(message)
        self.rule = rule


class Cmd(enum.Enum):
    ACT = "ACT"
    PRE = "PRE"
    RD = "RD"
    WR = "WR"
    REF = "REF"


@dataclass(frozen=True, slots=True)
class CommandRecord:
    """One command as observed on the channel."""

    cycle: int
    cmd: Cmd
    rank: int
    bank: int = 0
    row: Optional[int] = None
    mask: int = FULL_MASK
    #: Activated fraction in eighths (ACT only; weights tRRD/tFAW).
    granularity: int = 8
    #: True when the ACT carried a PRA mask (occupies 2 cmd cycles).
    masked: bool = False
    #: Data-burst window for column commands [start, end).
    burst_start: int = 0
    burst_end: int = 0
    #: Needed MAT-group coverage for a column command.
    needed_mask: int = FULL_MASK
    #: True for precharges the controller models as command-free
    #: (auto-precharge embedded in RDA/WRA, or the row-closure engine).
    #: Exempt from command-bus exclusivity, still timing-checked.
    implicit: bool = False


@dataclass(slots=True)
class _BankState:
    open_row: Optional[int] = None
    open_mask: int = FULL_MASK
    act_cycle: int = -(1 << 30)
    act_masked: bool = False
    # Precharge floors tracked per rule so a violation names the
    # constraint that actually binds (tRAS vs tWR vs tRTP).
    ras_floor: int = 0
    wr_floor: int = 0
    rtp_floor: int = 0
    # Next-ACT floors, likewise split (tRP after PRE vs same-bank tRC).
    trp_ready: int = 0
    trc_ready: int = 0


@dataclass(slots=True)
class _RankState:
    banks: Dict[int, _BankState] = field(default_factory=dict)
    act_history: List[Tuple[int, float]] = field(default_factory=list)
    last_act_cycle: int = -(1 << 30)
    last_act_weight: float = 1.0
    next_col_ok: int = 0
    next_read_ok: int = 0
    frozen_until: int = 0  # refresh

    def bank(self, idx: int) -> _BankState:
        return self.banks.setdefault(idx, _BankState())


class ProtocolChecker:
    """Validates a stream of :class:`CommandRecord` against DDR3 rules."""

    def __init__(
        self,
        timing: TimingParams,
        relax_act_constraints: bool = False,
        faw_budget: float = 4.0,
    ) -> None:
        self.timing = timing
        self.relax = relax_act_constraints
        self.faw_budget = faw_budget
        self._ranks: Dict[int, _RankState] = {}
        self._cmd_bus_free = 0
        self._cmd_bus_masked = False
        self._data_bus_free = 0
        self._data_bus_rank = -1
        self.commands_checked = 0
        self.log: List[CommandRecord] = []

    def _rank(self, idx: int) -> _RankState:
        return self._ranks.setdefault(idx, _RankState())

    def _fail(self, record: CommandRecord, rule: str, detail: str = "") -> None:
        raise ProtocolViolation(
            rule,
            f"{rule} violated by {record.cmd.value} at cycle {record.cycle} "
            f"(rank {record.rank}, bank {record.bank})"
            + (f": {detail}" if detail else ""),
        )

    # ------------------------------------------------------------------
    def observe(self, record: CommandRecord) -> None:
        """Check one command and update shadow state."""
        self.commands_checked += 1
        self.log.append(record)
        t = self.timing
        cycle = record.cycle
        rank = self._rank(record.rank)

        # Command bus: one command per cycle (2 for a masked ACT).
        if not record.implicit and cycle < self._cmd_bus_free:
            if self._cmd_bus_masked:
                self._fail(
                    record, "mask-transfer-cycle",
                    "a masked ACT also owns the following command cycle",
                )
            self._fail(record, "command-bus")

        if cycle < rank.frozen_until:
            self._fail(record, "tRFC", "rank frozen by refresh")

        handler = {
            Cmd.ACT: self._check_act,
            Cmd.PRE: self._check_pre,
            Cmd.RD: self._check_col,
            Cmd.WR: self._check_col,
            Cmd.REF: self._check_ref,
        }[record.cmd]
        handler(record, rank)

        if not record.implicit:
            masked_act = record.cmd is Cmd.ACT and record.masked
            self._cmd_bus_free = cycle + (2 if masked_act else 1)
            self._cmd_bus_masked = masked_act

    # ------------------------------------------------------------------
    def _act_weight(self, granularity: int) -> float:
        return granularity / 8.0 if self.relax else 1.0

    def _check_act(self, record: CommandRecord, rank: _RankState) -> None:
        t = self.timing
        cycle = record.cycle
        bank = rank.bank(record.bank)
        if bank.open_row is not None:
            self._fail(record, "ACT-to-open-bank")
        if cycle < bank.trp_ready or cycle < bank.trc_ready:
            # Name whichever floor binds; on a tie report the classic
            # same-bank cycle-time rule (tRC = tRAS + tRP on DDR3).
            rule = "tRC" if bank.trc_ready >= bank.trp_ready else "tRP"
            self._fail(record, rule)
        # tRRD against the previous ACT in this rank.
        trrd = t.trrd
        if self.relax:
            trrd = max(2, math.ceil(t.trrd * rank.last_act_weight))
        if cycle - rank.last_act_cycle < trrd:
            self._fail(record, "tRRD")
        # tFAW sliding window (weighted under PRA/Half-DRAM relaxation).
        weight = self._act_weight(record.granularity)
        window = [
            (c, w) for c, w in rank.act_history if c > cycle - t.tfaw
        ]
        if sum(w for _, w in window) + weight > self.faw_budget + 1e-9:
            self._fail(record, "tFAW")
        window.append((cycle, weight))
        rank.act_history = window
        rank.last_act_cycle = cycle
        rank.last_act_weight = weight

        if not 0 < record.mask <= FULL_MASK:
            self._fail(record, "mask-validity")
        bank.open_row = record.row
        bank.open_mask = record.mask
        bank.act_cycle = cycle
        bank.act_masked = record.masked
        bank.ras_floor = cycle + t.tras
        bank.trc_ready = cycle + t.trc

    def _check_pre(self, record: CommandRecord, rank: _RankState) -> None:
        t = self.timing
        bank = rank.bank(record.bank)
        if bank.open_row is None:
            self._fail(record, "PRE-to-precharged-bank")
        if record.cycle < max(bank.ras_floor, bank.wr_floor, bank.rtp_floor):
            # Report the binding precharge floor by name.
            floors = (
                ("tRAS", bank.ras_floor),
                ("tWR", bank.wr_floor),
                ("tRTP", bank.rtp_floor),
            )
            rule = max(floors, key=lambda item: item[1])[0]
            self._fail(record, rule, "precharge issued before its floor")
        bank.open_row = None
        bank.open_mask = FULL_MASK
        bank.trp_ready = max(bank.trp_ready, record.cycle + t.trp)

    def _check_col(self, record: CommandRecord, rank: _RankState) -> None:
        t = self.timing
        cycle = record.cycle
        bank = rank.bank(record.bank)
        if bank.open_row is None:
            self._fail(record, "column-to-precharged-bank")
        trcd = t.trcd + (t.pra_extra if bank.act_masked else 0)
        if cycle - bank.act_cycle < trcd:
            self._fail(record, "tRCD", "+1 tCK after a masked PRA activation")
        if cycle < rank.next_col_ok:
            self._fail(record, "tCCD")
        if record.needed_mask & ~bank.open_mask:
            self._fail(record, "mask-coverage", "false-hit service (needed MAT group closed)")
        # Data bus exclusivity and rank switch penalty.
        start, end = record.burst_start, record.burst_end
        if start < cycle or end <= start:
            self._fail(record, "burst-window", "burst window sanity")
        min_start = self._data_bus_free
        if self._data_bus_rank not in (-1, record.rank):
            min_start += t.trtrs
        if start < min_start:
            self._fail(record, "data-bus", "exclusivity / tRTRS")
        self._data_bus_free = end
        self._data_bus_rank = record.rank

        rank.next_col_ok = cycle + t.tccd
        if record.cmd is Cmd.RD:
            if cycle < rank.next_read_ok:
                self._fail(record, "tWTR")
            bank.rtp_floor = max(bank.rtp_floor, cycle + t.trtp)
        else:
            bank.wr_floor = max(bank.wr_floor, end + t.twr)
            rank.next_read_ok = max(rank.next_read_ok, end + t.twtr)

    def _check_ref(self, record: CommandRecord, rank: _RankState) -> None:
        for bank in rank.banks.values():
            if bank.open_row is not None:
                self._fail(record, "REF-open-banks", "REFRESH with open banks")
        rank.frozen_until = record.cycle + self.timing.trfc
        for bank in rank.banks.values():
            bank.trp_ready = max(bank.trp_ready, rank.frozen_until)
