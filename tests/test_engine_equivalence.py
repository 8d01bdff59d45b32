"""Event engine vs. strict-polling oracle: bit-identical results.

``System.run`` drives the simulation off a min-heap of controller
next-wake cycles (the hint contract); ``strict_polling=True`` selects
the reference loop that re-scans every channel each iteration.  The two
must agree *exactly* — same served counts, same runtime cycles, same
energy — on every scheme/workload/seed.  Any divergence means a hint
was later than a true ready cycle (a scheduling event was skipped).

The parallel sweep/runner engines carry the same obligation: a worker
pool must reproduce the serial rows bit for bit.  So does the front-end
fast path: precompiled trace blocks and warm-state snapshot restore
must yield results bit-identical to per-event generation plus replayed
warmup.

Both loops drive the same hot-path modules — the FR-FCFS controller
(``repro.controller.memctrl``), the array-backed cache
(``repro.cache.set_assoc``), the SoA timing core and the rank views —
so these tests double as the oracle pin for those modules' fast paths
(their ``ORACLE_TESTS`` declarations name this file).  Their results
are also pinned to the bit by the golden digests in
``tests/test_engine_identity.py``.
"""

import pytest

from repro.controller.policies import RowPolicy
from repro.core.schemes import BASELINE, DBI_PRA, PRA, SDS
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.runner import ExperimentRunner
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import Sweep
from repro.sim.system import System
from repro.workloads.mixes import workload

EVENTS = 600
WARMUP = 2000


def _build(scheme, workload_name, seed, **kwargs):
    config = SystemConfig(scheme=scheme, cache=CacheConfig(llc_bytes=256 * 1024))
    return System(
        config,
        workload(workload_name),
        EVENTS,
        seed=seed,
        warmup_events_per_core=WARMUP,
        **kwargs,
    )


def _fingerprint(result):
    """Everything a run reports, for bit-identity comparisons."""
    return (
        result.summary(),
        result.runtime_cycles,
        result.controller.total_served,
        [c.ipc for c in result.cores],
    )


@pytest.mark.parametrize("scheme", [BASELINE, PRA], ids=lambda s: s.name)
@pytest.mark.parametrize("workload_name", ["GUPS", "MIX2"])
@pytest.mark.parametrize("seed", [1, 42])
def test_event_engine_matches_polling_oracle(scheme, workload_name, seed):
    event = _build(scheme, workload_name, seed).run()
    polled = _build(scheme, workload_name, seed).run(strict_polling=True)
    assert event.summary() == polled.summary()
    assert event.controller.total_served == polled.controller.total_served
    assert event.runtime_cycles == polled.runtime_cycles
    assert [c.ipc for c in event.cores] == [c.ipc for c in polled.cores]


@pytest.mark.parametrize("seed", [1, 7])
def test_streak_heavy_workload_matches_polling_oracle(seed):
    """Burst-streak commits must be invisible to the oracle.

    libquantum's sequential read stream (mean run length 96 lines)
    piles row hits onto every open row, so the event engine serves
    nearly everything through multi-command streaks.  The strict
    polling loop must still see identical results: a streak is only a
    batched commit of commands the per-cycle scheduler would have
    issued at exactly the same cycles.
    """
    event = _build(PRA, "libquantum", seed).run()
    polled = _build(PRA, "libquantum", seed).run(strict_polling=True)
    assert event.summary() == polled.summary()
    assert event.runtime_cycles == polled.runtime_cycles
    stats = event.controller
    # The workload actually exercised the streak path.
    assert stats.streaks > 0
    assert stats.streak_commands >= 2 * stats.streaks
    assert stats.streak_commands == polled.controller.streak_commands


def test_polling_flag_keyword_only():
    """The oracle path is opt-in and must not swallow ``max_cycles``."""
    system = _build(BASELINE, "GUPS", 1)
    with pytest.raises(TypeError):
        system.run(None, True)  # noqa: intentional positional misuse


def _grid():
    sweep = Sweep(events_per_core=300, warmup_events_per_core=1000)
    sweep.add_axis("scheme", ["Baseline", "PRA"])
    sweep.add_axis("workload", ["GUPS", "MIX1"])
    return sweep


def test_parallel_sweep_matches_serial():
    serial = _grid().run()
    parallel = _grid().run(workers=2)
    assert parallel == serial


def test_run_many_parallel_matches_serial_and_dedups():
    specs = [
        ("MIX1", PRA, RowPolicy.RELAXED_CLOSE),
        ("MIX1", BASELINE, RowPolicy.RELAXED_CLOSE),
        ("MIX1", PRA, RowPolicy.RELAXED_CLOSE),  # duplicate spec
    ]
    serial = ExperimentRunner(
        events_per_core=300, warmup_events_per_core=1000
    ).run_many(specs)
    runner = ExperimentRunner(events_per_core=300, warmup_events_per_core=1000)
    parallel = runner.run_many(specs, workers=2)
    assert [r.summary() for r in parallel] == [r.summary() for r in serial]
    # The duplicate resolved to the same cached object, simulated once.
    assert parallel[0] is parallel[2]
    assert len(runner._results) == 2


@pytest.mark.parametrize(
    "scheme", [BASELINE, PRA, SDS, DBI_PRA], ids=lambda s: s.name
)
def test_fast_path_matches_reference_path(scheme):
    """Precompiled blocks + block warmup == iterators + replayed warmup.

    The reference path is exactly the pre-fast-path construction:
    per-event ``TraceGenerator`` iterators and ``_warm_caches``.
    DBI+PRA covers the DBI mirror inside ``warm_block`` (victim
    companions cleaned through the registry during warmup).
    """
    fast = _build(scheme, "MIX2", 1, use_snapshots=False).run()
    reference = _build(
        scheme, "MIX2", 1, precompiled_traces=False, use_snapshots=False
    ).run()
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.parametrize("scheme", [BASELINE, PRA, SDS], ids=lambda s: s.name)
@pytest.mark.parametrize("workload_name", ["GUPS", "MIX2"])
def test_snapshot_restore_matches_cold_warmup(scheme, workload_name):
    """Snapshot-restored runs are bit-identical to cold-warmup runs."""
    SNAPSHOTS.clear()
    cold = _build(scheme, workload_name, 1, use_snapshots=False).run()
    # Prime the snapshot cache, then build again: the second build must
    # restore instead of warming, and produce identical results.
    _build(scheme, workload_name, 1)
    restored_system = _build(scheme, workload_name, 1)
    assert restored_system.snapshot_restored
    assert _fingerprint(restored_system.run()) == _fingerprint(cold)


def test_schemes_share_warm_snapshot_unless_dbi():
    """Baseline and PRA share one fingerprint; DBI schemes get their own.

    Warm state only depends on the cache front end, so schemes that
    differ purely in DRAM behaviour must hit the same snapshot — that
    sharing is where the sweep speedup comes from.  A DBI scheme warms
    extra state (the dirty-row registry), so it must *not* share.
    """
    SNAPSHOTS.clear()
    _build(BASELINE, "GUPS", 1)
    assert SNAPSHOTS.misses == 1
    pra = _build(PRA, "GUPS", 1)
    assert pra.snapshot_restored
    assert SNAPSHOTS.hits == 1
    dbi = _build(DBI_PRA, "GUPS", 1)
    assert not dbi.snapshot_restored
    assert len(SNAPSHOTS) == 2


def test_snapshot_disk_layer_round_trip(tmp_path):
    """A second process (simulated by a cleared cache) restores from disk."""
    disk = str(tmp_path / "snaps")
    SNAPSHOTS.clear()
    cold = _build(PRA, "GUPS", 3, use_snapshots=False).run()
    _build(PRA, "GUPS", 3, snapshot_dir=disk)  # writes the snapshot
    SNAPSHOTS.clear()  # forget the memory layer, as a fresh worker would
    restored_system = _build(PRA, "GUPS", 3, snapshot_dir=disk)
    assert restored_system.snapshot_restored
    assert _fingerprint(restored_system.run()) == _fingerprint(cold)


def test_parallel_sweep_with_disk_snapshots_matches_serial(tmp_path):
    """Worker processes reusing disk snapshots keep rows bit-identical."""
    serial = _grid().run()
    sweep = _grid()
    sweep.snapshot_dir = str(tmp_path / "snaps")
    assert sweep.run(workers=2) == serial


def test_timing_core_arrays_mirror_bank_rank_views():
    """The SoA fast path and the Bank/Rank object oracle are one state.

    ``repro.dram.soa.TimingCore`` declares the Bank/Rank views as its
    oracle twin (``ORACLE_TWIN``); driving state changes through the
    object API must be observable, bit for bit, in the flat arrays the
    scheduler reads — and vice versa.
    """
    from repro.dram.channel import Channel
    from repro.dram.geometry import FULL_MASK
    from repro.dram.soa import TimingCore
    from repro.dram.timing import DDR3_1600

    channel = Channel(DDR3_1600, num_ranks=2, num_banks=8)
    core = channel.core
    assert isinstance(core, TimingCore)
    rank = channel.ranks[1]
    bank = rank.banks[3]
    g = 1 * core.num_banks + 3

    # Object-API activation lands in the arrays.
    bank.activate(100, row=42, mask=0x0F)
    assert core.open_row[g] == 42
    assert core.open_mask[g] == 0x0F
    assert core.last_act[g] == 100
    assert core.open_bits[1] == 1 << 3
    assert core.col_ready[g] == 100 + DDR3_1600.trcd + DDR3_1600.pra_extra
    assert core.act_ready[g] == 100 + DDR3_1600.trc

    # ... and the view properties read the very same cells back.
    assert bank.open_row == 42
    assert bank.open_mask == 0x0F
    assert bank.col_ready == core.col_ready[g]

    # Column + precharge round-trip keeps arrays and views coherent.
    bank.read(bank.col_ready)
    assert core.accesses[g] == 1
    bank.precharge(bank.pre_ready)
    assert core.open_row[g] == -1
    assert core.open_mask[g] == FULL_MASK
    assert core.open_bits[1] == 0
    assert bank.open_row is None

    # Array-side writes surface through the views (the scheduler's
    # direction): no shadow copies anywhere.
    core.next_act_ok[1] = 777
    assert rank.next_act_ok == 777
    core.open_row[g] = 9
    assert bank.open_row == 9
