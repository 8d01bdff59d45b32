"""Extensions beyond the paper's baseline: FCFS ablation, DM-pin mask delivery."""

import pytest

from repro.controller.memctrl import ChannelController
from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE
from repro.dram.channel import Channel
from repro.dram.commands import Address, ReqKind, Request
from repro.dram.timing import DDR3_1600
from repro.power.accounting import PowerAccountant
from repro.power.params import DDR3_1600_POWER
from repro.sim.config import CacheConfig, ControllerConfig, SystemConfig
from repro.sim.system import simulate
from repro.workloads.mixes import workload

T = DDR3_1600


def make_controller(scheduler):
    channel = Channel(T, num_ranks=2)
    acct = PowerAccountant(DDR3_1600_POWER, T, chips_per_rank=8)
    return ChannelController(
        channel, BASELINE, T, RowPolicy.RELAXED_CLOSE, acct, scheduler=scheduler
    )


def req(row, col, bank=0):
    return Request(
        kind=ReqKind.READ,
        addr=Address(channel=0, rank=0, bank=bank, row=row, column=col),
        arrive_cycle=0,
    )


def drain(ctrl, max_cycles=100_000):
    cycle = 0
    while ctrl.pending and cycle < max_cycles:
        issued, hint = ctrl.step(cycle)
        cycle = cycle + 1 if issued else max(hint, cycle + 1)
    assert not ctrl.pending
    return cycle


class TestFCFSScheduler:
    def test_invalid_scheduler_rejected(self):
        with pytest.raises(ValueError):
            make_controller("priority")

    def test_frfcfs_reorders_for_hits(self):
        # Queue: [row5, row9, row5].  FR-FCFS serves the second row-5
        # request while row 5 is open; FCFS strictly follows order.
        ctrl = make_controller("frfcfs")
        for row, col in ((5, 0), (9, 0), (5, 1)):
            ctrl.enqueue(req(row, col))
        drain(ctrl)
        assert ctrl.stats.reads.row_hits == 1
        assert ctrl.stats.reads.activations == 2

    def test_fcfs_takes_no_hits_out_of_order(self):
        ctrl = make_controller("fcfs")
        for row, col in ((5, 0), (9, 0), (5, 1)):
            ctrl.enqueue(req(row, col))
        drain(ctrl)
        # Strict order: row5 -> row9 (conflict) -> row5 (conflict).
        assert ctrl.stats.reads.activations == 3
        assert ctrl.stats.reads.row_hits == 0

    def test_system_level_frfcfs_wins_on_locality(self):
        def run(sched):
            config = SystemConfig(
                cache=CacheConfig(llc_bytes=256 * 1024),
                controller=ControllerConfig(scheduler=sched),
            )
            return simulate(config, workload("libquantum"), 1200,
                            warmup_events_per_core=4000)

        frfcfs = run("frfcfs")
        fcfs = run("fcfs")
        assert frfcfs.controller.total_hit_rate >= fcfs.controller.total_hit_rate
        assert frfcfs.runtime_cycles <= fcfs.runtime_cycles * 1.05


class TestDMPinMaskDelivery:
    """Section 4.2 alternative: PRA mask over the DM pin."""

    def _run(self, scheme):
        from repro.workloads.mixes import workload as wl

        config = SystemConfig(scheme=scheme,
                              cache=CacheConfig(llc_bytes=256 * 1024))
        return simulate(config, wl("GUPS"), 1000, warmup_events_per_core=4000)

    @staticmethod
    def _activate_masked_write(scheme, t):
        """Issue one masked (1/8) write's ACT at cycle ``t``."""
        channel = Channel(T, num_ranks=2)
        acct = PowerAccountant(DDR3_1600_POWER, T, chips_per_rank=8)
        ctrl = ChannelController(channel, scheme, T, RowPolicy.RELAXED_CLOSE, acct)
        ctrl.enqueue(Request(
            kind=ReqKind.WRITE,
            addr=Address(channel=0, rank=0, bank=0, row=1, column=0),
            arrive_cycle=t,
            dirty_mask=0b1,
        ))
        assert ctrl.step(t)[0]
        assert ctrl.stats.writes.activations == 1
        return channel

    def test_dm_variant_has_no_extra_trcd(self):
        from repro.core.schemes import PRA, PRA_DM

        t = 100
        dm = self._activate_masked_write(PRA_DM, t)
        # The mask rides the DM pin: no +1 tRCD, one command-bus cycle,
        # and the rank's write buffer is held until the ACT completes.
        assert dm.core.col_ready[0] == t + T.trcd
        assert dm.core.next_write_ok[0] == t + T.trcd
        assert dm.cmd_bus_free == t + 1

        pra = self._activate_masked_write(PRA, t)
        # Address-bus delivery (Fig. 7a): +1 tRCD and a second cycle.
        assert pra.core.col_ready[0] == t + T.trcd + 1
        assert pra.core.next_write_ok[0] == 0
        assert pra.cmd_bus_free == t + 2

    def test_dm_variant_saves_power_like_pra(self):
        from repro.core.schemes import PRA, PRA_DM

        pra = self._run(PRA)
        dm = self._run(PRA_DM)
        # Same activation/IO savings mechanism.
        ratio = dm.avg_power_mw / pra.avg_power_mw
        assert 0.9 < ratio < 1.1

    def test_dm_variant_costs_data_bus_occupancy(self):
        from repro.core.schemes import PRA, PRA_DM

        pra = self._run(PRA)
        dm = self._run(PRA_DM)
        # The mask bursts consume data-bus cycles; under write-heavy
        # GUPS that shows as equal-or-worse runtime.
        assert dm.runtime_cycles >= pra.runtime_cycles * 0.98

    def test_protocol_clean(self):
        from repro.core.schemes import PRA_DM
        from repro.dram.protocol import ProtocolChecker
        from repro.sim.system import System
        from repro.workloads.mixes import workload as wl

        config = SystemConfig(scheme=PRA_DM,
                              cache=CacheConfig(llc_bytes=256 * 1024))
        system = System(config, wl("GUPS"), 600, warmup_events_per_core=3000)
        for ctrl in system.controllers:
            ctrl.protocol_checker = ProtocolChecker(
                config.timing, relax_act_constraints=True)
        system.run()
