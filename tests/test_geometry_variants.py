"""Robustness: non-default geometries run end to end.

The library should not be hard-wired to the paper's 2-channel/2-rank
configuration: single-channel systems, single-rank channels, DDR4-ish
bank counts and small chips must all simulate and account correctly.
Every run here is sanitized, so each geometry's DRAM commands replay
through the protocol checker and its result passes the sanitizer's
audit.
"""

import pytest

from repro.core.schemes import BASELINE, PRA
from repro.dram.geometry import ChipGeometry, SystemGeometry
from repro.dram.mapping import AddressMapper, Interleaving
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.system import simulate
from repro.workloads.mixes import Workload, workload
from repro.workloads.profiles import profile

SMALL_CACHE = CacheConfig(llc_bytes=128 * 1024)


@pytest.fixture(autouse=True)
def sanitized(monkeypatch):
    monkeypatch.setenv("REPRO_SANITIZE", "1")


def run(geometry, scheme=PRA, events=500, wl=None):
    config = SystemConfig(scheme=scheme, geometry=geometry, cache=SMALL_CACHE)
    wl = wl if wl is not None else workload("GUPS")
    return simulate(config, wl, events, warmup_events_per_core=1500)


class TestGeometryVariants:
    def test_single_channel(self):
        geo = SystemGeometry(channels=1)
        result = run(geo)
        assert result.controller.total_served > 0

    def test_single_rank_no_termination_partner(self):
        geo = SystemGeometry(ranks_per_channel=1)
        result = run(geo)
        # With one rank per channel there is no other-rank termination,
        # so I/O power is lower than the dual-rank default.
        dual = run(SystemGeometry())
        io_single = result.power.power_mw("rd_io") / max(1, result.controller.reads.served)
        io_dual = dual.power.power_mw("rd_io") / max(1, dual.controller.reads.served)
        assert io_single < io_dual

    def test_ddr4_style_sixteen_banks(self):
        geo = SystemGeometry(chip=ChipGeometry(banks=16, rows=16384))
        run(geo)

    def test_quad_channel(self):
        geo = SystemGeometry(channels=4)
        result = run(geo)
        # More channels => more parallelism => no slower than dual.
        dual = run(SystemGeometry())
        assert result.runtime_cycles <= dual.runtime_cycles * 1.2

    def test_small_chip_wraps_addresses(self):
        # 256Mb-class chip: tiny capacity; generator footprints wrap.
        geo = SystemGeometry(chip=ChipGeometry(rows=4096))
        run(geo)

    def test_mapper_roundtrip_on_variants(self):
        for geo in (
            SystemGeometry(channels=1),
            SystemGeometry(ranks_per_channel=1),
            SystemGeometry(chip=ChipGeometry(banks=16, rows=16384)),
            SystemGeometry(channels=4, ranks_per_channel=1),
        ):
            for interleaving in Interleaving:
                mapper = AddressMapper(geo, interleaving)
                for line in (0, 1, 12345, mapper.line_capacity - 1):
                    assert mapper.encode_line(mapper.decode_line(line)) == line

    def test_single_core_single_channel_pra_saves_power(self):
        geo = SystemGeometry(channels=1, ranks_per_channel=1)
        wl = Workload(name="solo", apps=(profile("GUPS"),))
        base = run(geo, scheme=BASELINE, wl=wl)
        pra = run(geo, scheme=PRA, wl=wl)
        assert pra.avg_power_mw < base.avg_power_mw
