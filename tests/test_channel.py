"""Channel buses: command-bus slots, data-bus exclusivity, rank switch
penalty and FGA's half-width bursts.

The controller reserves the channel's buses as it issues, so these
cases drive a :class:`~repro.controller.memctrl.ChannelController` and
read the bus state and the issued commands back; every command also
replays through the :class:`ProtocolChecker`.
"""

from repro.controller.memctrl import ChannelController
from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, FGA, PRA
from repro.dram.channel import Channel
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.protocol import Cmd, ProtocolChecker
from repro.dram.timing import DDR3_1600
from repro.power.accounting import PowerAccountant
from repro.power.params import DDR3_1600_POWER

T = DDR3_1600


def make_controller(scheme=BASELINE):
    channel = Channel(T, num_ranks=2, burst_cycles_multiplier=scheme.burst_multiplier)
    acct = PowerAccountant(DDR3_1600_POWER, T, chips_per_rank=8)
    ctrl = ChannelController(channel, scheme, T, RowPolicy.RELAXED_CLOSE, acct)
    ctrl.protocol_checker = ProtocolChecker(
        T, relax_act_constraints=scheme.relax_act_constraints)
    return ctrl


def req(kind=ReqKind.READ, rank=0, mask=0xFF):
    return Request(
        kind=kind,
        addr=Address(channel=0, rank=rank, bank=0, row=1, column=0),
        arrive_cycle=0,
        dirty_mask=mask,
    )


def drain(ctrl):
    cycle = 0
    while ctrl.pending:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)


def reads(ctrl):
    return [r for r in ctrl.protocol_checker.log if r.cmd is Cmd.RD]


def serve_one_read(scheme):
    """Serve one read on a fresh channel; returns (channel, request)."""
    ctrl = make_controller(scheme)
    r = req()
    ctrl.enqueue(r)
    drain(ctrl)
    return ctrl.channel, r


class TestCommandBus:
    def test_one_command_per_cycle(self):
        ctrl = make_controller()
        ctrl.enqueue(req(rank=0))
        ctrl.enqueue(req(rank=1))
        assert ctrl.step(0)[0]
        assert ctrl.channel.cmd_bus_free == 1
        # The other rank's ACT is legal now, but the slot is taken.
        assert ctrl.step(0) == (False, 1)
        assert ctrl.step(1)[0]
        assert [r.cycle for r in ctrl.protocol_checker.log] == [0, 1]

    def test_pra_act_occupies_two_cycles(self):
        # The PRA mask rides the address bus in the next cycle (Fig 7a).
        ctrl = make_controller(PRA)
        ctrl.enqueue(req(ReqKind.WRITE, rank=0, mask=0b1))
        ctrl.enqueue(req(ReqKind.WRITE, rank=1, mask=0b1))
        assert ctrl.step(0)[0]
        assert ctrl.channel.cmd_bus_free == 2
        assert ctrl.step(1) == (False, 2)
        assert ctrl.step(2)[0]


class TestDataBus:
    def test_burst_occupies_tburst(self):
        channel, r = serve_one_read(BASELINE)
        assert channel.data_bus_free == T.trcd + T.tcas + T.tburst == r.complete_cycle
        assert channel.last_burst_rank == 0

    def test_same_rank_back_to_back(self):
        ctrl = make_controller()
        ctrl.enqueue(req())
        ctrl.enqueue(req())
        drain(ctrl)
        first, second = reads(ctrl)
        assert second.burst_start == first.burst_end

    def test_rank_switch_penalty(self):
        ctrl = make_controller()
        ctrl.enqueue(req(rank=0))
        ctrl.enqueue(req(rank=1))
        drain(ctrl)
        first, second = reads(ctrl)
        # A burst from the other rank pays tRTRS after bus-free.
        assert (first.rank, second.rank) == (0, 1)
        assert second.burst_start == first.burst_end + T.trtrs

    def test_busy_cycles_accumulate(self):
        ctrl = make_controller()
        ctrl.enqueue(req())
        ctrl.enqueue(req())
        drain(ctrl)
        assert ctrl.channel.data_bus_busy_cycles == 2 * T.tburst


class TestFGABurstMultiplier:
    def test_fga_doubles_occupancy(self):
        assert FGA.burst_multiplier == 2
        channel, r = serve_one_read(FGA)
        assert channel.data_bus_busy_cycles == 2 * T.tburst
        # ACT at 0, READ at tRCD, data on the bus for 2 x tBURST.
        assert r.complete_cycle == T.trcd + T.tcas + 2 * T.tburst
        assert channel.data_bus_free == r.complete_cycle

    def test_baseline_multiplier_is_one(self):
        channel, r = serve_one_read(BASELINE)
        assert channel.data_bus_busy_cycles == T.tburst
        assert r.complete_cycle == T.trcd + T.tcas + T.tburst
