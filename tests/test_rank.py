"""Rank-level constraints: tRRD/tFAW (+ PRA relaxation), turnaround,
power-down, background residency and refresh.

The timing state is the channel's :class:`~repro.dram.soa.TimingCore`.
Activation and column constraints are the controller's to enforce, so
those cases drive a :class:`~repro.controller.memctrl.ChannelController`
and read the arrays; power-down, residency and refresh are the
:class:`~repro.dram.rank.Rank`'s own transitions over its slice of the
arrays.
"""

import dataclasses

import pytest

from repro.controller.memctrl import ChannelController
from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, PRA
from repro.dram.channel import Channel
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.protocol import Cmd, ProtocolChecker
from repro.dram.rank import BankStateError
from repro.dram.timing import DDR3_1600
from repro.power.accounting import PowerAccountant
from repro.power.params import DDR3_1600_POWER

T = DDR3_1600


@pytest.fixture
def rank():
    return Channel(T, num_ranks=1).ranks[0]


def make_controller(scheme=BASELINE):
    channel = Channel(T, num_ranks=2, burst_cycles_multiplier=scheme.burst_multiplier)
    acct = PowerAccountant(DDR3_1600_POWER, T, chips_per_rank=8)
    ctrl = ChannelController(channel, scheme, T, RowPolicy.RELAXED_CLOSE, acct)
    ctrl.protocol_checker = ProtocolChecker(
        T, relax_act_constraints=scheme.relax_act_constraints)
    return ctrl


def req(kind=ReqKind.READ, bank=0, row=1, cycle=0, mask=0xFF):
    return Request(
        kind=kind,
        addr=Address(channel=0, rank=0, bank=bank, row=row, column=0),
        arrive_cycle=cycle,
        dirty_mask=mask,
    )


def run(ctrl, cycle=0, until=None, max_cycles=100_000):
    """Step ``ctrl`` from ``cycle`` until ``until()`` holds (default:
    nothing pending); returns the next cycle to step."""
    done = until or (lambda: not ctrl.pending)
    while not done() and cycle < max_cycles:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)
    assert done(), "controller did not get there"
    return cycle


def act_cycles(ctrl):
    return [r.cycle for r in ctrl.protocol_checker.log if r.cmd is Cmd.ACT]


def column_cycle(read):
    return read.complete_cycle - T.tcas - T.tburst


class TestTRRD:
    def test_back_to_back_acts_blocked(self):
        ctrl = make_controller()
        ctrl.enqueue(req(bank=0))
        ctrl.enqueue(req(bank=1))
        run(ctrl)
        assert act_cycles(ctrl) == [0, T.trrd]

    def test_relaxed_trrd_for_partial(self):
        # A 1/8 activation shrinks the ACT-to-ACT spacing (Sec 4.1.3).
        ctrl = make_controller(PRA)
        for bank in (0, 1):
            ctrl.enqueue(req(ReqKind.WRITE, bank=bank, mask=0b1))
        run(ctrl, until=lambda: len(act_cycles(ctrl)) == 1)
        assert ctrl.channel.core.next_act_ok[0] == 2
        run(ctrl)
        assert act_cycles(ctrl) == [0, 2]

    def test_unrelaxed_rank_ignores_granularity(self):
        ctrl = make_controller(dataclasses.replace(PRA, relax_act_constraints=False))
        for bank in (0, 1):
            ctrl.enqueue(req(ReqKind.WRITE, bank=bank, mask=0b1))
        run(ctrl, until=lambda: len(act_cycles(ctrl)) == 1)
        assert ctrl.channel.core.next_act_ok[0] == T.trrd
        run(ctrl)
        assert act_cycles(ctrl) == [0, T.trrd]


class TestTFAW:
    def test_fifth_act_waits_for_window(self):
        ctrl = make_controller()
        for bank in range(5):
            ctrl.enqueue(req(bank=bank))
        run(ctrl)
        # 4 ACTs at 0,5,10,15; window = 24 => fifth must wait past 24.
        assert act_cycles(ctrl) == [0, 5, 10, 15, 25]

    def test_relaxed_faw_with_partial_acts(self):
        # Eight 1/8-row ACTs weigh 1.0 total; all fit in one window.
        ctrl = make_controller(PRA)
        for bank in range(8):
            ctrl.enqueue(req(ReqKind.WRITE, bank=bank, mask=0b1))
        run(ctrl, until=lambda: len(act_cycles(ctrl)) == 8)
        acts = act_cycles(ctrl)
        assert acts[-1] - acts[0] < T.tfaw
        window = ctrl.channel.ranks[0].faw
        assert sum(w for _, w in window.history) == pytest.approx(1.0)

    def test_earliest_activate_accounts_for_faw(self):
        ctrl = make_controller()
        for bank in range(4):
            ctrl.enqueue(req(bank=bank))
        run(ctrl, until=lambda: len(act_cycles(ctrl)) == 4)
        # The window the controller filled holds the fifth ACT to 25.
        assert ctrl.channel.ranks[0].faw.next_allowed(16, 1.0) == 25


class TestColumnTurnaround:
    def test_write_to_read_needs_twtr(self):
        ctrl = make_controller()
        w = req(ReqKind.WRITE, bank=0)
        ctrl.enqueue(w)
        cycle = run(ctrl, until=lambda: ctrl.stats.writes.served == 1)
        burst_end = w.complete_cycle + T.tcwl + T.tburst
        assert ctrl.channel.core.next_read_ok[0] == burst_end + T.twtr
        r = req(bank=0, cycle=cycle)
        ctrl.enqueue(r)
        run(ctrl, cycle)
        assert column_cycle(r) == burst_end + T.twtr

    def test_ccd_across_banks(self):
        ctrl = make_controller()
        r0, r1 = req(bank=0), req(bank=1)
        ctrl.enqueue(r0)
        ctrl.enqueue(r1)
        run(ctrl, until=lambda: ctrl.stats.reads.served == 1)
        # Bank 1 column must respect rank-level tCCD.
        assert ctrl.channel.core.next_col_ok[0] == column_cycle(r0) + T.tccd
        run(ctrl)
        assert column_cycle(r1) >= column_cycle(r0) + T.tccd


class TestPowerDown:
    def test_enter_requires_all_precharged(self, rank):
        rank.core.open_row[0] = 1
        rank.core.open_bits[0] = 0b1
        with pytest.raises(BankStateError):
            rank.enter_power_down(5)

    def test_enter_exit_cycle(self, rank):
        core = rank.core
        rank.enter_power_down(10)
        assert core.pd[0] == 1
        ready = rank.exit_power_down(20)
        assert ready == 20 + T.txp
        assert core.pd[0] == 0
        # No command on the rank before tXP has passed.
        assert core.gate[0] == ready

    def test_background_residency_tracks_pd(self, rank):
        rank.enter_power_down(10)
        rank.exit_power_down(30)
        rank.accrue_background(50)
        assert rank.bg_residency["pre_stby"] == 10 + 20
        assert rank.bg_residency["pre_pdn"] == 20


class TestBackgroundResidency:
    def test_active_standby_when_bank_open(self, rank):
        rank.accrue_background(10)  # 10 cycles precharged
        rank.core.open_bits[0] = 0b1  # a bank opens at 10
        rank.accrue_background(40)  # 30 cycles active
        assert rank.bg_residency["pre_stby"] == 10
        assert rank.bg_residency["act_stby"] == 30

    def test_accrue_is_monotonic(self, rank):
        rank.accrue_background(100)
        rank.accrue_background(50)  # earlier cycle: no-op
        assert sum(rank.bg_residency.values()) == 100


class TestRefresh:
    def test_refresh_due_schedule(self, rank):
        assert rank.core.next_refresh[0] == T.trefi
        rank.do_refresh(T.trefi)
        assert rank.core.next_refresh[0] == 2 * T.trefi

    def test_refresh_blocks_rank(self, rank):
        core = rank.core
        rank.do_refresh(T.trefi)
        assert core.gate[0] == T.trefi + T.trfc
        assert core.act_ready == [T.trefi + T.trfc] * core.num_banks

    def test_refresh_requires_precharged(self, rank):
        rank.core.open_row[3] = 1
        rank.core.open_bits[0] = 0b1000
        with pytest.raises(BankStateError):
            rank.do_refresh(T.trefi)

    def test_catch_up_is_bounded(self, rank):
        # After a long idle skip we bunch at most ~8 refreshes.
        late = 100 * T.trefi
        count = 0
        while late >= rank.core.next_refresh[0] and count < 50:
            rank.do_refresh(late)
            late += T.trfc
            count += 1
        assert count <= 10

    def test_refresh_touches_only_its_rank_slice(self):
        channel = Channel(T, num_ranks=2, num_banks=8)
        core = channel.core
        t = T.trefi
        channel.ranks[1].do_refresh(t)
        assert core.act_ready[8:16] == [t + T.trfc] * 8
        assert core.gate[1] == t + T.trfc
        # Rank 0 is untouched.
        assert core.act_ready[0:8] == [0] * 8
        assert core.gate[0] == 0
        assert core.next_refresh == [T.trefi, 2 * T.trefi]
