"""Bank state: DDR3 legality, partial-row state, false-hit classification.

A bank's state (open row, PRA mask, ACT/column/PRE readiness, access
count) lives in the channel's :class:`~repro.dram.soa.TimingCore`, and
the controller is its only writer.  These cases drive a
:class:`~repro.controller.memctrl.ChannelController` on bank 0 of rank
0 (``g == 0``), read the arrays and the issued commands back, and
replay every command through the :class:`ProtocolChecker` as they go.
The tFAW window is :class:`~repro.dram.rank.ActivationWindow`;
``next_allowed(cycle, w) == cycle`` means an ACT of weight ``w`` fits
at ``cycle``.
"""

import pytest

from repro.controller.memctrl import ChannelController
from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, PRA
from repro.dram.channel import Channel
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.geometry import FULL_MASK
from repro.dram.protocol import Cmd, ProtocolChecker
from repro.dram.rank import ActivationWindow
from repro.dram.timing import DDR3_1600
from repro.power.accounting import PowerAccountant
from repro.power.params import DDR3_1600_POWER

T = DDR3_1600


def make_controller(scheme=BASELINE, policy=RowPolicy.RELAXED_CLOSE):
    channel = Channel(T, num_ranks=2, burst_cycles_multiplier=scheme.burst_multiplier)
    acct = PowerAccountant(DDR3_1600_POWER, T, chips_per_rank=8)
    ctrl = ChannelController(channel, scheme, T, policy, acct)
    ctrl.protocol_checker = ProtocolChecker(
        T, relax_act_constraints=scheme.relax_act_constraints)
    return ctrl


def req(kind=ReqKind.READ, row=1, cycle=0, mask=FULL_MASK):
    return Request(
        kind=kind,
        addr=Address(channel=0, rank=0, bank=0, row=row, column=0),
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


def log(ctrl, cmd=None):
    """The issued commands (of kind ``cmd``), oldest first."""
    return [r for r in ctrl.protocol_checker.log if cmd is None or r.cmd is cmd]


def cycles(ctrl, cmd):
    return [r.cycle for r in log(ctrl, cmd)]


def serve_then(ctrl, first, second):
    """Serve ``first``, then enqueue ``second`` (arriving then) and
    drain; the row ``first`` opened is still open when it arrives."""
    ctrl.enqueue(first)
    kind = ctrl.stats.reads if first.is_read else ctrl.stats.writes
    cycle = run(ctrl, until=lambda: kind.served == 1)
    assert ctrl.channel.core.open_row[0] == first.addr.row
    second.arrive_cycle = cycle
    ctrl.enqueue(second)
    return run(ctrl, cycle)


class TestActivate:
    def test_initially_closed(self):
        core = Channel(T, num_ranks=2).core
        assert core.open_row == [-1] * 16
        assert core.open_bits == [0, 0]
        assert core.act_ready == [0] * 16
        ctrl = make_controller()
        ctrl.enqueue(req())
        assert ctrl.step(0)[0]
        assert cycles(ctrl, Cmd.ACT) == [0]

    def test_activate_opens_row(self):
        ctrl = make_controller()
        ctrl.enqueue(req(row=42))
        ctrl.step(0)
        core = ctrl.channel.core
        assert core.open_row[0] == 42
        assert core.open_mask[0] == FULL_MASK
        assert core.open_bits[0] == 0b1
        assert core.last_act[0] == 0
        assert core.accesses[0] == 0

    def test_full_activation_column_after_trcd(self):
        ctrl = make_controller()
        ctrl.enqueue(req())
        ctrl.step(0)
        assert ctrl.channel.core.col_ready[0] == T.trcd
        run(ctrl)
        assert cycles(ctrl, Cmd.RD) == [T.trcd]

    def test_partial_activation_adds_one_cycle(self):
        # Figure 7a: PRA delays the column command by tCK.
        ctrl = make_controller(PRA)
        ctrl.enqueue(req(ReqKind.WRITE, mask=0b00000001))
        ctrl.step(0)
        core = ctrl.channel.core
        assert core.col_ready[0] == T.trcd + 1
        assert core.open_mask[0] == 0b00000001
        run(ctrl)
        assert cycles(ctrl, Cmd.WR) == [T.trcd + 1]

    def test_activate_while_open_rejected(self):
        # A second row of the same bank waits for the first to close.
        ctrl = make_controller()
        ctrl.enqueue(req(row=1))
        ctrl.enqueue(req(row=2))
        run(ctrl)
        assert [r.cmd for r in log(ctrl)] == [Cmd.ACT, Cmd.RD, Cmd.PRE, Cmd.ACT, Cmd.RD]

    def test_same_bank_act_to_act_respects_trc(self):
        ctrl = make_controller()
        ctrl.enqueue(req(row=1))
        ctrl.enqueue(req(row=2))
        run(ctrl)
        # act_ready = max(tRC from ACT, tRP from PRE) = tRC here.
        assert cycles(ctrl, Cmd.ACT) == [0, T.trc]

    def test_zero_mask_rejected(self):
        # A write with no dirty word is no request at all.
        with pytest.raises(ValueError):
            req(ReqKind.WRITE, mask=0)


class TestPrecharge:
    def test_precharge_before_tras_rejected(self):
        ctrl = make_controller()
        ctrl.enqueue(req(row=1))
        ctrl.enqueue(req(row=2))
        ctrl.step(0)
        assert ctrl.channel.core.pre_ready[0] == T.tras
        run(ctrl)
        assert cycles(ctrl, Cmd.PRE) == [T.tras]

    def test_precharge_after_tras(self):
        # Open-page closes no idle row, so the conflict's PRE is an
        # explicit command and takes the command slot.
        ctrl = make_controller(policy=RowPolicy.OPEN_PAGE)
        ctrl.enqueue(req(row=1))
        ctrl.enqueue(req(row=2))
        run(ctrl, until=lambda: log(ctrl, Cmd.PRE))
        (pre,) = log(ctrl, Cmd.PRE)
        assert (pre.cycle, pre.implicit) == (T.tras, False)
        assert ctrl.channel.cmd_bus_free == T.tras + 1
        core = ctrl.channel.core
        assert core.open_row[0] == -1
        assert core.open_mask[0] == FULL_MASK
        assert core.open_bits[0] == 0
        assert core.act_ready[0] == max(T.trc, T.tras + T.trp)

    def test_write_recovery_blocks_precharge(self):
        ctrl = make_controller()
        ctrl.enqueue(req(ReqKind.WRITE, row=1))
        ctrl.enqueue(req(ReqKind.WRITE, row=2))
        run(ctrl, until=lambda: ctrl.stats.writes.served == 1)
        (wr,) = log(ctrl, Cmd.WR)
        assert wr.burst_end == wr.cycle + T.tcwl + T.tburst
        assert ctrl.channel.core.pre_ready[0] == wr.burst_end + T.twr
        run(ctrl)
        assert cycles(ctrl, Cmd.PRE) == [wr.burst_end + T.twr]

    def test_read_to_precharge_trtp(self):
        ctrl = make_controller()
        ctrl.enqueue(req())
        run(ctrl)
        earliest = max(T.tras, T.trcd + T.trtp)
        assert ctrl.channel.core.pre_ready[0] == earliest

    def test_precharge_closed_bank_rejected(self):
        # Every PRE closes a row an ACT opened: one PRE per ACT, and the
        # checker (no PRE to a precharged bank) saw them all.
        ctrl = make_controller()
        ctrl.enqueue(req(row=1))
        ctrl.enqueue(req(row=2))
        cycle = run(ctrl)
        run(ctrl, cycle, until=lambda: not ctrl.channel.core.open_bits[0])
        assert len(log(ctrl, Cmd.PRE)) == len(log(ctrl, Cmd.ACT)) == 2


class TestColumnAccess:
    def test_read_returns_burst_end(self):
        ctrl = make_controller()
        r = req()
        ctrl.enqueue(r)
        run(ctrl)
        assert r.complete_cycle == T.trcd + T.tcas + T.tburst
        assert log(ctrl, Cmd.RD)[0].burst_end == r.complete_cycle

    def test_ccd_between_columns(self):
        ctrl = make_controller()
        ctrl.enqueue(req())
        ctrl.enqueue(req())
        run(ctrl)
        first, second = cycles(ctrl, Cmd.RD)
        assert second - first >= T.tccd
        assert ctrl.channel.core.col_ready[0] == second + T.tccd

    def test_column_on_closed_bank_rejected(self):
        # A request to a closed bank gets its ACT first, its column
        # command no earlier than tRCD later.
        ctrl = make_controller()
        ctrl.enqueue(req())
        run(ctrl)
        assert [r.cmd for r in log(ctrl)] == [Cmd.ACT, Cmd.RD]
        assert cycles(ctrl, Cmd.RD)[0] - cycles(ctrl, Cmd.ACT)[0] >= T.trcd

    def test_access_counter(self):
        ctrl = make_controller()
        ctrl.enqueue(req())
        ctrl.step(0)
        assert ctrl.channel.core.accesses[0] == 0
        ctrl.enqueue(req())
        run(ctrl)
        assert ctrl.channel.core.accesses[0] == 2


class TestHitKind:
    def test_closed(self):
        ctrl = make_controller()
        ctrl.enqueue(req())
        run(ctrl)
        assert ctrl.stats.reads.row_hits == 0
        assert ctrl.stats.reads.activations == 1

    def test_hit_full(self):
        ctrl = make_controller()
        serve_then(ctrl, req(row=1), req(row=1))
        assert ctrl.stats.reads.row_hits == 1
        assert ctrl.stats.reads.activations == 1

    def test_miss_other_row(self):
        ctrl = make_controller()
        serve_then(ctrl, req(row=1), req(row=2))
        assert ctrl.stats.reads.row_hits == 0
        assert ctrl.stats.reads.false_hits == 0
        assert ctrl.stats.reads.activations == 2

    def test_false_hit_read_against_partial(self):
        # Section 5.2.1: read to a partially opened row is a false hit.
        ctrl = make_controller(PRA)
        serve_then(ctrl, req(ReqKind.WRITE, mask=0b11000000), req())
        assert ctrl.stats.reads.false_hits == 1
        assert ctrl.stats.false_hit_reactivations == 1
        assert ctrl.stats.reads.activations == 1

    def test_false_hit_write_uncovered(self):
        ctrl = make_controller(PRA)
        serve_then(
            ctrl,
            req(ReqKind.WRITE, mask=0b10000001),
            req(ReqKind.WRITE, mask=0b00000010),
        )
        assert ctrl.stats.writes.false_hits == 1
        assert ctrl.stats.writes.activations == 2

    def test_write_hit_covered_partial(self):
        ctrl = make_controller(PRA)
        serve_then(
            ctrl,
            req(ReqKind.WRITE, mask=0b10000001),
            req(ReqKind.WRITE, mask=0b00000001),
        )
        assert ctrl.stats.writes.row_hits == 1
        assert ctrl.stats.writes.activations == 1


class TestRefreshBlock:
    def test_refresh_requires_precharged(self):
        # Open-page keeps the row open; the refresh deadline forces a
        # PRE (taking the command slot) before the REF.
        ctrl = make_controller(policy=RowPolicy.OPEN_PAGE)
        ctrl.enqueue(req(cycle=T.trefi - 50))
        run(ctrl, T.trefi - 50, until=lambda: log(ctrl, Cmd.REF))
        cmds = [(r.cmd, r.rank) for r in log(ctrl)]
        assert cmds[:4] == [(Cmd.ACT, 0), (Cmd.RD, 0), (Cmd.PRE, 0), (Cmd.REF, 0)]
        assert not log(ctrl, Cmd.PRE)[0].implicit

    def test_refresh_blocks_activation(self):
        ctrl = make_controller()
        run(ctrl, T.trefi, until=lambda: len(log(ctrl, Cmd.REF)) == 2)
        (ref,) = [r for r in log(ctrl, Cmd.REF) if r.rank == 0]
        assert ctrl.channel.core.act_ready[0] == ref.cycle + T.trfc
        ctrl.enqueue(req(cycle=ref.cycle + 1))
        run(ctrl, ref.cycle + 1)
        assert cycles(ctrl, Cmd.ACT) == [ref.cycle + T.trfc]


class TestActivationWindow:
    def test_four_full_acts_fill_window(self):
        w = ActivationWindow(tfaw=24)
        for i in range(4):
            assert w.next_allowed(i, 1.0) == i
            w.record(i, 1.0)
        assert w.next_allowed(4, 1.0) > 4

    def test_window_expires(self):
        w = ActivationWindow(tfaw=24)
        for i in range(4):
            w.record(i, 1.0)
        assert w.next_allowed(25, 1.0) == 25

    def test_fractional_weights_relax_faw(self):
        # Section 4.1.3: partial activations relax tFAW.
        w = ActivationWindow(tfaw=24)
        for i in range(16):
            assert w.next_allowed(i, 0.125) == i, f"1/8 act #{i} should fit"
            w.record(i, 0.125)
        # 16 * 1/8 = 2.0 of 4.0 budget used; full act still fits.
        assert w.next_allowed(16, 1.0) == 16

    def test_next_allowed_after_full_window(self):
        w = ActivationWindow(tfaw=24)
        for i in range(4):
            w.record(i, 1.0)
        # Earliest slot: after the first entry leaves the window.
        assert w.next_allowed(4, 1.0) == 0 + 24 + 1

    def test_next_allowed_now_when_space(self):
        w = ActivationWindow(tfaw=24)
        assert w.next_allowed(7, 1.0) == 7
