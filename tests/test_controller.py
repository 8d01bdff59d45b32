"""Controller behaviour: FR-FCFS, PRA activation, false hits, drains, refresh."""

import pytest

from repro.controller.memctrl import ChannelController
from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, HALF_DRAM, PRA
from repro.dram.channel import Channel
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.timing import DDR3_1600
from repro.power.accounting import PowerAccountant
from repro.power.params import DDR3_1600_POWER

T = DDR3_1600


def make_controller(scheme=BASELINE, policy=RowPolicy.RELAXED_CLOSE, **kwargs):
    channel = Channel(
        T,
        num_ranks=2,
        burst_cycles_multiplier=scheme.burst_multiplier,
    )
    acct = PowerAccountant(DDR3_1600_POWER, T, chips_per_rank=8)
    ctrl = ChannelController(channel, scheme, T, policy, acct, **kwargs)
    return ctrl, acct


def req(kind=ReqKind.READ, rank=0, bank=0, row=0, col=0, cycle=0, mask=0xFF):
    return Request(
        kind=kind,
        addr=Address(channel=0, rank=rank, bank=bank, row=row, column=col),
        arrive_cycle=cycle,
        dirty_mask=mask,
    )


def drain(ctrl, max_cycles=100_000):
    """Run the controller until idle; returns the last active cycle."""
    cycle = 0
    while ctrl.pending and cycle < max_cycles:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)
    assert not ctrl.pending, "controller failed to drain"
    return cycle


class TestBasicService:
    def test_single_read_latency(self):
        ctrl, acct = make_controller()
        r = req()
        assert ctrl.enqueue(r)
        drain(ctrl)
        # ACT at 0 (cmd), READ at tRCD, data at +tCAS+tBURST.
        assert r.complete_cycle == T.trcd + T.tcas + T.tburst
        assert ctrl.stats.reads.served == 1
        assert ctrl.stats.reads.activations == 1
        assert acct.read_bursts == 1

    def test_write_then_counts(self):
        ctrl, acct = make_controller()
        ctrl.enqueue(req(kind=ReqKind.WRITE, mask=0xFF))
        drain(ctrl)
        assert ctrl.stats.writes.served == 1
        assert acct.write_bursts == 1

    def test_row_hit_second_request(self):
        ctrl, _ = make_controller()
        a, b = req(row=5, col=0), req(row=5, col=1)
        ctrl.enqueue(a)
        ctrl.enqueue(b)
        drain(ctrl)
        assert ctrl.stats.reads.row_hits == 1
        assert ctrl.stats.reads.activations == 1

    def test_row_conflict_two_activations(self):
        ctrl, _ = make_controller()
        ctrl.enqueue(req(row=5))
        ctrl.enqueue(req(row=9))
        drain(ctrl)
        assert ctrl.stats.reads.activations == 2

    def test_row_hit_cap_forces_reactivation(self):
        ctrl, _ = make_controller(row_hit_cap=4)
        for col in range(6):
            ctrl.enqueue(req(row=5, col=col))
        drain(ctrl)
        # 6 same-row reads with a 4-access cap need 2 activations.
        assert ctrl.stats.reads.activations == 2

    def test_completed_reads_recorded(self):
        ctrl, _ = make_controller()
        r = req()
        ctrl.enqueue(r)
        drain(ctrl)
        assert [x[1] for x in ctrl.completed_reads] == [r]


class TestPRAActivation:
    def test_partial_write_activation_granularity(self):
        ctrl, acct = make_controller(scheme=PRA)
        ctrl.enqueue(req(kind=ReqKind.WRITE, mask=0b1))
        drain(ctrl)
        assert acct.activations_by_granularity[1] == 1
        assert acct.activations_by_granularity[8] == 0

    def test_mask_or_merging_across_queued_writes(self):
        # Section 5.2.1: queued same-row writes OR their masks.
        ctrl, acct = make_controller(scheme=PRA)
        ctrl.enqueue(req(kind=ReqKind.WRITE, row=5, col=0, mask=0b1))
        ctrl.enqueue(req(kind=ReqKind.WRITE, row=5, col=1, mask=0b10000000))
        drain(ctrl)
        # One activation at granularity 2 serving both writes.
        assert acct.activations_by_granularity[2] == 1
        assert ctrl.stats.writes.activations == 1
        assert ctrl.stats.writes.row_hits == 1

    def test_full_mask_write_is_normal_act(self):
        ctrl, acct = make_controller(scheme=PRA)
        ctrl.enqueue(req(kind=ReqKind.WRITE, mask=0xFF))
        drain(ctrl)
        assert acct.activations_by_granularity[8] == 1

    def test_reads_always_full_row(self):
        ctrl, acct = make_controller(scheme=PRA)
        ctrl.enqueue(req(kind=ReqKind.READ))
        drain(ctrl)
        assert acct.activations_by_granularity[8] == 1

    def test_write_false_hit_detected_and_recovered(self):
        ctrl, acct = make_controller(scheme=PRA)
        w1 = req(kind=ReqKind.WRITE, row=5, col=0, mask=0b1)
        ctrl.enqueue(w1)
        # Serve w1 so the row is open with mask 0b1.
        cycle = 0
        while ctrl.stats.writes.served < 1 and cycle < 10_000:
            issued, hint = ctrl.step(cycle)
            cycle = cycle + 1 if issued else max(hint, cycle + 1)
        if ctrl.channel.core.open_row[0] == 5:  # row still open (no other pending work)
            w2 = req(kind=ReqKind.WRITE, row=5, col=1, mask=0b10, cycle=cycle)
            ctrl.enqueue(w2)
            drain(ctrl)
            assert ctrl.stats.writes.false_hits == 1
            assert ctrl.stats.false_hit_reactivations == 1
            assert ctrl.stats.writes.activations == 2

    def test_pra_write_column_delayed_one_cycle(self):
        ctrl, _ = make_controller(scheme=PRA)
        w = req(kind=ReqKind.WRITE, mask=0b1)
        ctrl.enqueue(w)
        drain(ctrl)
        # Column write issued at tRCD+1 instead of tRCD.
        assert w.complete_cycle == T.trcd + 1

    def test_baseline_write_column_at_trcd(self):
        ctrl, _ = make_controller(scheme=BASELINE)
        w = req(kind=ReqKind.WRITE, mask=0b1)
        ctrl.enqueue(w)
        drain(ctrl)
        assert w.complete_cycle == T.trcd


class TestHalfDRAM:
    def test_half_fraction_charged(self):
        ctrl, acct = make_controller(scheme=HALF_DRAM)
        ctrl.enqueue(req(kind=ReqKind.READ))
        drain(ctrl)
        assert acct.activations_by_granularity[4] == 1

    def test_no_false_hits_possible(self):
        # Half-DRAM's vertical split still covers every column.
        ctrl, _ = make_controller(scheme=HALF_DRAM)
        ctrl.enqueue(req(kind=ReqKind.WRITE, row=5, col=0, mask=0b1))
        ctrl.enqueue(req(kind=ReqKind.READ, row=5, col=1))
        drain(ctrl)
        assert ctrl.stats.reads.false_hits == 0
        assert ctrl.stats.writes.false_hits == 0


class TestWriteDrain:
    def test_drain_triggers_at_high_watermark(self):
        ctrl, _ = make_controller(
            read_queue_size=64,
            write_queue_size=64,
            drain_high_watermark=8,
            drain_low_watermark=2,
        )
        for i in range(8):
            ctrl.enqueue(req(kind=ReqKind.WRITE, row=i, bank=i % 8))
        ctrl.step(0)
        assert ctrl.draining
        assert ctrl.stats.drain_entries == 1
        drain(ctrl)
        assert not ctrl.draining

    def test_reads_served_before_writes_below_watermark(self):
        ctrl, _ = make_controller()
        ctrl.enqueue(req(kind=ReqKind.WRITE, row=1))
        r = req(kind=ReqKind.READ, row=2, bank=1)
        ctrl.enqueue(r)
        # The first command should serve the read's path, not the write's.
        cycle = 0
        while ctrl.stats.reads.served == 0 and cycle < 10_000:
            issued, hint = ctrl.step(cycle)
            cycle = cycle + 1 if issued else max(hint, cycle + 1)
        assert ctrl.stats.reads.served == 1
        assert ctrl.stats.writes.served == 0


class TestRestrictedPolicy:
    def test_every_access_activates(self):
        ctrl, _ = make_controller(policy=RowPolicy.RESTRICTED_CLOSE)
        for col in range(4):
            ctrl.enqueue(req(row=5, col=col))
        drain(ctrl)
        assert ctrl.stats.reads.activations == 4
        assert ctrl.stats.reads.row_hits == 0


class TestRefresh:
    def test_refresh_issued_on_schedule(self):
        ctrl, acct = make_controller()
        cycle = 0
        # Idle-run past several tREFI periods.
        while cycle < 3 * T.trefi + 100:
            issued, hint = ctrl.step(cycle)
            cycle = cycle + 1 if issued else max(hint, cycle + 1)
        # 2 ranks x 3 refresh periods.
        assert ctrl.stats.refreshes >= 4
        assert acct.refreshes == ctrl.stats.refreshes


class TestOverflow:
    def test_submit_spills_and_drains(self):
        ctrl, _ = make_controller(read_queue_size=2)
        reqs = [req(row=i, bank=i % 8) for i in range(5)]
        for r in reqs:
            ctrl.submit(r)
        assert len(ctrl.overflow) == 3
        assert ctrl.pending == 5
        drain(ctrl)
        assert ctrl.stats.reads.served == 5

    def test_queue_full_enqueue_returns_false(self):
        ctrl, _ = make_controller(read_queue_size=1)
        assert ctrl.enqueue(req(row=1))
        assert not ctrl.enqueue(req(row=2))


class TestPowerDown:
    def test_idle_rank_enters_power_down(self):
        ctrl, _ = make_controller()
        ctrl.enqueue(req())
        drain(ctrl)
        # Idle-run (including pending refreshes) until both ranks sleep.
        cycle = 10_000
        for _ in range(50):
            issued, hint = ctrl.step(cycle)
            cycle = cycle + 1 if issued else max(hint, cycle + 1)
            if all(ctrl.channel.core.pd):
                break
        assert ctrl.stats.power_down_entries >= 2
        assert ctrl.channel.core.pd == [1, 1]

    def test_open_page_policy_never_powers_down(self):
        ctrl, _ = make_controller(policy=RowPolicy.OPEN_PAGE)
        ctrl.enqueue(req())
        drain(ctrl)
        ctrl.step(5000)
        assert ctrl.stats.power_down_entries == 0
        # Open-page also leaves the row open.
        assert ctrl.channel.core.open_row[0] >= 0
