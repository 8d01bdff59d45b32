"""Protocol checker: unit rules + differential verification of the
scheduler (every command issued by full-system runs must be legal).

The checker is the oracle of the one device model: the timing core
(``repro.dram.soa``) that the controller writes for ACT, RD/WR and PRE
and the ranks (``repro.dram.rank``) change for refresh and power-down.
``TestDifferentialVerification`` replays every command the controller
issues through it.
"""

import pytest

from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, FGA, HALF_DRAM, HALF_DRAM_PRA, PRA
from repro.dram.geometry import FULL_MASK
from repro.dram.protocol import Cmd, CommandRecord, ProtocolChecker, ProtocolViolation
from repro.dram.timing import DDR3_1600
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.system import System
from repro.workloads.mixes import workload

T = DDR3_1600


def act(cycle, rank=0, bank=0, row=1, mask=FULL_MASK, granularity=8, masked=False):
    return CommandRecord(cycle=cycle, cmd=Cmd.ACT, rank=rank, bank=bank,
                         row=row, mask=mask, granularity=granularity, masked=masked)


def rd(cycle, rank=0, bank=0, needed=FULL_MASK, start=None, end=None):
    start = cycle + T.tcas if start is None else start
    end = start + T.tburst if end is None else end
    return CommandRecord(cycle=cycle, cmd=Cmd.RD, rank=rank, bank=bank,
                         burst_start=start, burst_end=end, needed_mask=needed)


def wr(cycle, rank=0, bank=0, needed=FULL_MASK):
    start = cycle + T.tcwl
    return CommandRecord(cycle=cycle, cmd=Cmd.WR, rank=rank, bank=bank,
                         burst_start=start, burst_end=start + T.tburst,
                         needed_mask=needed)


def pre(cycle, rank=0, bank=0, implicit=False):
    return CommandRecord(cycle=cycle, cmd=Cmd.PRE, rank=rank, bank=bank,
                         implicit=implicit)


class TestBasicRules:
    def test_legal_read_sequence(self):
        c = ProtocolChecker(T)
        c.observe(act(0))
        c.observe(rd(T.trcd))
        c.observe(pre(max(T.tras, T.trcd + T.trtp)))
        assert c.commands_checked == 3

    def test_trcd_violation(self):
        c = ProtocolChecker(T)
        c.observe(act(0))
        with pytest.raises(ProtocolViolation, match="tRCD"):
            c.observe(rd(T.trcd - 1))

    def test_pra_extra_cycle_enforced(self):
        c = ProtocolChecker(T)
        c.observe(act(0, mask=0b1, masked=True, granularity=1))
        with pytest.raises(ProtocolViolation, match="tRCD"):
            c.observe(wr(T.trcd, needed=0b1))

    def test_pra_extra_cycle_satisfied(self):
        c = ProtocolChecker(T)
        c.observe(act(0, mask=0b1, masked=True, granularity=1))
        c.observe(wr(T.trcd + 1, needed=0b1))

    def test_act_to_open_bank(self):
        c = ProtocolChecker(T)
        c.observe(act(0))
        with pytest.raises(ProtocolViolation, match="open-bank"):
            c.observe(act(T.trc, row=2))

    def test_tras_violation(self):
        c = ProtocolChecker(T)
        c.observe(act(0))
        with pytest.raises(ProtocolViolation, match="tRAS"):
            c.observe(pre(T.tras - 1))

    def test_trc_violation(self):
        c = ProtocolChecker(T)
        c.observe(act(0))
        c.observe(pre(T.tras))
        with pytest.raises(ProtocolViolation, match="tRC"):
            c.observe(act(T.trc - 1, row=2))

    def test_coverage_violation(self):
        # Serving a request from a non-covering partial row = bug.
        c = ProtocolChecker(T)
        c.observe(act(0, mask=0b1, masked=True, granularity=1))
        with pytest.raises(ProtocolViolation, match="coverage"):
            c.observe(wr(T.trcd + 1, needed=0b10))

    def test_twr_violation(self):
        c = ProtocolChecker(T)
        c.observe(act(0, mask=0xFF))
        record = wr(T.trcd)
        c.observe(record)
        with pytest.raises(ProtocolViolation, match="tWR"):
            c.observe(pre(record.burst_end + T.twr - 1))


class TestRankRules:
    def test_trrd_violation(self):
        c = ProtocolChecker(T)
        c.observe(act(0, bank=0))
        with pytest.raises(ProtocolViolation, match="tRRD"):
            c.observe(act(T.trrd - 1, bank=1))

    def test_relaxed_trrd_allows_partial_acts(self):
        c = ProtocolChecker(T, relax_act_constraints=True)
        c.observe(act(0, bank=0, mask=0b1, masked=True, granularity=1))
        c.observe(act(2, bank=1, mask=0b1, masked=True, granularity=1))

    def test_tfaw_violation(self):
        c = ProtocolChecker(T)
        for i in range(4):
            c.observe(act(i * T.trrd, bank=i))
        with pytest.raises(ProtocolViolation, match="tFAW"):
            c.observe(act(4 * T.trrd, bank=4))

    def test_weighted_tfaw_allows_eighth_acts(self):
        c = ProtocolChecker(T, relax_act_constraints=True)
        for i in range(8):
            c.observe(act(i * 2, bank=i, mask=0b1, masked=True, granularity=1))

    def test_twtr_violation(self):
        c = ProtocolChecker(T)
        c.observe(act(0, bank=0))
        c.observe(act(T.trrd, bank=1))
        record = wr(T.trcd, bank=0)
        c.observe(record)
        with pytest.raises(ProtocolViolation, match="tWTR"):
            c.observe(rd(record.burst_end + T.twtr - 1, bank=1,
                         start=record.burst_end + T.twtr - 1 + T.tcas))

    def test_tccd_violation(self):
        c = ProtocolChecker(T)
        c.observe(act(0, bank=0))
        c.observe(act(T.trrd, bank=1))
        first = rd(16, bank=0)
        c.observe(first)
        # Cycle 19: tRCD for bank 1 is satisfied (ACT at 5) but the
        # rank-level tCCD from the read at 16 is not.
        with pytest.raises(ProtocolViolation, match="tCCD"):
            c.observe(rd(19, bank=1, start=first.burst_end + 5))


class TestBusRules:
    def test_data_bus_overlap(self):
        c = ProtocolChecker(T)
        c.observe(act(0, bank=0))
        c.observe(act(T.trrd, bank=1))
        first = rd(16, bank=0)
        c.observe(first)
        with pytest.raises(ProtocolViolation, match="data-bus"):
            c.observe(rd(20, bank=1, start=first.burst_end - 1))

    def test_rank_switch_penalty(self):
        c = ProtocolChecker(T)
        c.observe(act(0, rank=0, bank=0))
        c.observe(act(T.trrd, rank=1, bank=0))
        first = rd(16, rank=0)
        c.observe(first)
        with pytest.raises(ProtocolViolation, match="tRTRS"):
            c.observe(rd(20, rank=1,
                         start=first.burst_end + T.trtrs - 1))

    def test_command_bus_exclusivity(self):
        c = ProtocolChecker(T)
        c.observe(act(5, bank=0))
        with pytest.raises(ProtocolViolation, match="command-bus"):
            c.observe(act(5, bank=1))

    def test_masked_act_owns_two_cycles(self):
        c = ProtocolChecker(T)
        c.observe(act(0, bank=0, mask=0b1, masked=True, granularity=1))
        with pytest.raises(ProtocolViolation, match="mask-transfer-cycle"):
            c.observe(pre(1, bank=1))

    def test_implicit_pre_exempt_from_cmd_bus(self):
        c = ProtocolChecker(T)
        c.observe(act(0, bank=0))
        c.observe(act(T.trrd, bank=1))
        c.observe(pre(T.tras, bank=0, implicit=True))  # same-ish window ok


class TestRefreshRules:
    def test_refresh_with_open_bank(self):
        c = ProtocolChecker(T)
        c.observe(act(0))
        with pytest.raises(ProtocolViolation, match="REFRESH"):
            c.observe(CommandRecord(cycle=T.tras, cmd=Cmd.REF, rank=0))

    def test_refresh_freezes_rank(self):
        c = ProtocolChecker(T)
        c.observe(CommandRecord(cycle=0, cmd=Cmd.REF, rank=0))
        with pytest.raises(ProtocolViolation, match="tRFC"):
            c.observe(act(T.trfc - 1))
        c2 = ProtocolChecker(T)
        c2.observe(CommandRecord(cycle=0, cmd=Cmd.REF, rank=0))
        c2.observe(act(T.trfc))


@pytest.mark.parametrize(
    "scheme", [BASELINE, FGA, HALF_DRAM, PRA, HALF_DRAM_PRA], ids=lambda s: s.name
)
@pytest.mark.parametrize(
    "policy",
    [RowPolicy.RELAXED_CLOSE, RowPolicy.RESTRICTED_CLOSE],
    ids=lambda p: p.value,
)
class TestDifferentialVerification:
    """Attach the checker to full-system runs: zero violations allowed."""

    def test_full_run_is_protocol_clean(self, scheme, policy):
        config = SystemConfig(
            scheme=scheme, policy=policy, cache=CacheConfig(llc_bytes=256 * 1024)
        )
        system = System(config, workload("MIX2"), 600, warmup_events_per_core=3000)
        for ctrl in system.controllers:
            ctrl.protocol_checker = ProtocolChecker(
                system.config.timing,
                relax_act_constraints=scheme.relax_act_constraints,
            )
        result = system.run()  # raises ProtocolViolation on any breach
        checked = sum(c.protocol_checker.commands_checked for c in system.controllers)
        assert checked > result.controller.total_served
