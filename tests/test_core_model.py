"""Trace-driven core model: pacing, MLP/ROB blocking, IPC."""

import pytest

from repro.cpu.core_model import NEVER, Core
from repro.cpu.trace import TraceEvent, materialize, pack_events, total_instructions


def make_core(events, **kwargs):
    defaults = dict(
        cpu_per_mem_clock=4.0,
        nonmem_cpi=0.5,
        max_outstanding_misses=2,
        rob_instructions=64,
    )
    defaults.update(kwargs)
    return Core(core_id=0, trace=pack_events(events), **defaults)


class TestPacing:
    def test_gap_delays_issue(self):
        # gap=80 at CPI 0.5 = 40 CPU cycles = 10 memory cycles.
        core = make_core([TraceEvent(gap=80, line_addr=1)])
        assert core.try_advance(5) == -1
        assert core.next_action_cycle(0) == 10
        assert core.try_advance(10) == 0
        assert core.retired == 81

    def test_zero_gap_issues_immediately(self):
        core = make_core([TraceEvent(gap=0, line_addr=1)])
        assert core.try_advance(0) == 0

    def test_issue_returns_event_index(self):
        events = [TraceEvent(gap=0, line_addr=7), TraceEvent(gap=0, line_addr=9, write_mask=3)]
        core = make_core(events)
        first, second = core.try_advance(0), core.try_advance(0)
        assert (first, second) == (0, 1)
        assert core.addrs[second] == 9 and core.masks[second] == 3
        assert core.try_advance(0) == -1
        assert core.done

    def test_window_reads_only_its_events(self):
        events = [TraceEvent(gap=i, line_addr=i) for i in range(6)]
        core = Core(0, pack_events(events), 2, 4)
        assert core.next_action_cycle(0) == 1  # gap 2 at CPI 0.5, ratio 4
        assert core.try_advance(1) == 2
        assert core.retired == 3
        assert core.try_advance(100) == 3
        assert core.try_advance(200) == -1
        assert core.done and core.finish_cycle == 100

    def test_window_out_of_range_rejected(self):
        trace = pack_events([TraceEvent(gap=0, line_addr=0)])
        with pytest.raises(ValueError):
            Core(0, trace, 0, 2)
        with pytest.raises(ValueError):
            Core(0, trace, 1, 0)

    def test_done_waits_for_last_miss(self):
        core = make_core([TraceEvent(gap=0, line_addr=1)])
        assert core.try_advance(0) == 0
        core.note_demand_miss(0)
        assert not core.done
        core.on_fill_complete(0, cycle=30)
        assert core.done and core.finish_cycle == 30

    def test_empty_window_is_done(self):
        core = make_core([])
        assert core.done
        assert core.try_advance(0) == -1
        assert core.next_action_cycle(0) == NEVER

    def test_done_after_trace(self):
        core = make_core([TraceEvent(gap=0, line_addr=1)])
        core.try_advance(0)
        assert core.done
        assert core.finish_cycle == 0
        assert core.next_action_cycle(5) == NEVER


class TestBlocking:
    def test_mlp_limit_blocks(self):
        events = [TraceEvent(gap=0, line_addr=i) for i in range(3)]
        core = make_core(events, max_outstanding_misses=2)
        for i in range(2):
            assert core.try_advance(0) == i
            core.note_demand_miss(req_id=i)
        assert core.try_advance(0) == -1  # MLP exhausted
        assert core.next_action_cycle(0) == NEVER
        core.on_fill_complete(0, cycle=100)
        assert core.try_advance(100) == 2

    def test_rob_limit_blocks(self):
        events = [TraceEvent(gap=30, line_addr=i) for i in range(5)]
        core = make_core(events, max_outstanding_misses=8, rob_instructions=64)
        assert core.try_advance(100) == 0
        core.note_demand_miss(req_id=0)
        # Keep retiring until the ROB window past the miss is full.
        issued = 1
        cycle = 100
        while core.try_advance(cycle) >= 0:
            issued += 1
            cycle += 10
        # 64-instruction ROB / 31 instructions per event ~= 2 events.
        assert issued <= 3
        core.on_fill_complete(0, cycle=cycle + 50)
        assert core.next_action_cycle(cycle + 50) != NEVER

    def test_fill_unblocks_at_completion_time(self):
        core = make_core([TraceEvent(gap=0, line_addr=0), TraceEvent(gap=0, line_addr=1)],
                         max_outstanding_misses=1)
        core.try_advance(0)
        core.note_demand_miss(0)
        assert core.try_advance(50) == -1
        core.on_fill_complete(0, cycle=60)
        # Resumes from the completion time, not earlier.
        assert core.next_action_cycle(0) >= 60

    def test_unknown_fill_rejected(self):
        core = make_core([TraceEvent(gap=0, line_addr=0)])
        with pytest.raises(KeyError):
            core.on_fill_complete(42, cycle=10)

    @pytest.mark.parametrize("slots", [0, -1])
    def test_core_without_mshrs_rejected(self, slots):
        # A core that may not have one miss outstanding cannot run: it
        # would issue a demand miss and then trip the MLP guard mid-run.
        with pytest.raises(ValueError):
            make_core([TraceEvent(gap=0, line_addr=0)], max_outstanding_misses=slots)

    def test_negative_rob_rejected(self):
        with pytest.raises(ValueError):
            make_core([TraceEvent(gap=0, line_addr=0)], rob_instructions=-1)

    def test_mlp_overflow_guarded(self):
        core = make_core([TraceEvent(gap=0, line_addr=i) for i in range(4)],
                         max_outstanding_misses=1)
        core.try_advance(0)
        core.note_demand_miss(0)
        with pytest.raises(RuntimeError):
            core.note_demand_miss(1)


class TestIPC:
    def test_ipc_counts_cpu_cycles(self):
        core = make_core([TraceEvent(gap=39, line_addr=0)])
        core.try_advance(10)
        # 40 instructions retired by memory cycle 10 = 40 CPU cycles.
        assert core.ipc(10) == pytest.approx(1.0)

    def test_ipc_zero_before_start(self):
        core = make_core([TraceEvent(gap=0, line_addr=0)])
        assert core.ipc(0) == 0.0


class TestTraceHelpers:
    def test_materialize_limits(self):
        events = (TraceEvent(gap=0, line_addr=i) for i in range(100))
        assert len(materialize(events, 7)) == 7

    def test_total_instructions(self):
        events = [TraceEvent(gap=3, line_addr=0), TraceEvent(gap=0, line_addr=1)]
        assert total_instructions(events) == 5

    def test_event_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(gap=-1, line_addr=0)
        with pytest.raises(ValueError):
            TraceEvent(gap=0, line_addr=-1)
        with pytest.raises(ValueError):
            TraceEvent(gap=0, line_addr=0, write_mask=0x1FF)

    def test_store_flag(self):
        assert TraceEvent(gap=0, line_addr=0, write_mask=1).is_store
        assert not TraceEvent(gap=0, line_addr=0).is_store
