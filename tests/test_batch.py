"""Oracle-parity tests for the batch kernel.

``repro.sim.batch`` is a registered fast path: every lane of a
:class:`BatchSystem` must produce a :class:`SimResult` bit-identical
to running that lane's (config, workload) through the scalar
``System.run`` on its own — values *and* structure, pinned here via
``to_dict()`` deep equality.  These tests cover batches mixing
snapshot-restored and cold lanes, lanes running one after another,
the ``Sweep.run(batch=N)`` integration layer (in-process and on a
``SimPool``), the CLI worker-budget guard, and a hypothesis property
test driving randomized lane counts/configs through the kernel.  It
also covers the column ops of ``repro.dram.soa_batch``
(``decay_timers`` / ``open_row_hits`` / ``refresh_due`` /
``next_wake_min`` / ``power_down_resident``) over plain
``TimingCore`` lists, plus ``batch="auto"`` lane sizing (one lane
group per pool worker).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import cli
from repro.core.schemes import by_name
from repro.dram.soa import TimingCore
from repro.dram.soa_batch import (
    decay_timers,
    next_wake_min,
    open_row_hits,
    power_down_resident,
    refresh_due,
)
from repro.sim.batch import BatchSystem, simulate_batch
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.pool import SimPool
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import Sweep, auto_batch_lanes, point_fingerprint
from repro.sim.system import System
from repro.workloads.mixes import workload as lookup_workload

SMALL_CACHE = CacheConfig(llc_bytes=128 * 1024)
EVENTS = 400
WARMUP = 1200


def _specs(schemes=("Baseline", "PRA", "SDS", "DBI+PRA"), workloads=("GUPS", "MIX1")):
    base = SystemConfig(cache=SMALL_CACHE)
    return [
        (base.with_scheme(by_name(scheme)), wl)
        for scheme in schemes
        for wl in workloads
    ]


def _serial(specs, events=EVENTS, warmup=WARMUP):
    """The scalar oracle: each lane run on its own, cold caches."""
    SNAPSHOTS.clear()
    out = []
    for config, wl in specs:
        system = System(
            config, lookup_workload(wl), events, warmup_events_per_core=warmup
        )
        out.append(system.run().to_dict())
    return out


def _small_sweep():
    sweep = Sweep(
        events_per_core=EVENTS,
        base_config=SystemConfig(cache=SMALL_CACHE),
        warmup_events_per_core=WARMUP,
    )
    sweep.add_axis("scheme", ["Baseline", "PRA", "SDS", "DBI+PRA"])
    sweep.add_axis("workload", ["GUPS", "MIX1"])
    return sweep


# ----------------------------------------------------------------------
class TestLaneBitIdentity:
    def test_every_lane_matches_its_serial_run(self):
        specs = _specs()
        serial = _serial(specs)
        SNAPSHOTS.clear()
        results = simulate_batch(specs, EVENTS, warmup_events_per_core=WARMUP)
        assert [r.to_dict() for r in results] == serial

    def test_mixed_cold_and_snapshot_restored_lanes(self):
        # With a cold snapshot cache, the first lane of each warm
        # fingerprint warms cold and stores; the other lanes of its
        # fingerprint restore copy-on-write — a genuinely mixed batch.
        specs = _specs()
        serial = _serial(specs)
        SNAPSHOTS.clear()
        batch = BatchSystem(specs, EVENTS, warmup_events_per_core=WARMUP)
        hits, misses = SNAPSHOTS.hits, SNAPSHOTS.misses
        results = batch.run()
        # 8 lanes over 4 fingerprints: {GUPS, MIX1} x {DBI, no DBI}.
        assert SNAPSHOTS.misses - misses == 4
        assert SNAPSHOTS.hits - hits == 4
        assert [r.to_dict() for r in results] == serial

    def test_all_lanes_snapshot_restored(self):
        specs = _specs()
        serial = _serial(specs)  # leaves SNAPSHOTS warm
        batch = BatchSystem(specs, EVENTS, warmup_events_per_core=WARMUP)
        hits, misses = SNAPSHOTS.hits, SNAPSHOTS.misses
        results = batch.run()
        assert SNAPSHOTS.misses - misses == 0
        assert SNAPSHOTS.hits - hits == len(specs)
        assert [r.to_dict() for r in results] == serial

    def test_lanes_build_and_finalize_one_after_another(self, monkeypatch):
        # Only one lane's System is alive at a time: run() finalizes a
        # lane before it builds the next one.
        events = []
        build, finalize = System.__init__, System._finalize

        def spy_build(self, *args, **kwargs):
            events.append("build")
            build(self, *args, **kwargs)

        def spy_finalize(self, cycle):
            events.append("finalize")
            return finalize(self, cycle)

        monkeypatch.setattr(System, "__init__", spy_build)
        monkeypatch.setattr(System, "_finalize", spy_finalize)
        specs = _specs(workloads=("GUPS",))
        results = BatchSystem(specs, EVENTS, warmup_events_per_core=WARMUP).run()
        assert len(results) == len(specs)
        assert events == ["build", "finalize"] * len(specs)

    def test_single_lane_batch(self):
        specs = _specs(schemes=("DBI+PRA",), workloads=("MIX1",))
        serial = _serial(specs)
        SNAPSHOTS.clear()
        results = simulate_batch(specs, EVENTS, warmup_events_per_core=WARMUP)
        assert [r.to_dict() for r in results] == serial

    def test_run_is_single_shot(self):
        specs = _specs(schemes=("Baseline",), workloads=("GUPS",))
        batch = BatchSystem(specs, 100, warmup_events_per_core=200)
        batch.run()
        with pytest.raises(RuntimeError, match="only be called once"):
            batch.run()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one lane"):
            BatchSystem([], 100)


# ----------------------------------------------------------------------
class TestSweepIntegration:
    def test_sweep_batched_identical_to_serial(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        batched = _small_sweep().run(batch=4)
        assert batched == serial  # values AND grid ordering

    def test_sweep_batched_on_pool_identical_to_serial(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        with SimPool(workers=1) as pool:
            batched = _small_sweep().run(pool=pool, batch=3)
        assert batched == serial

    def test_batch_size_larger_than_grid(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        batched = _small_sweep().run(batch=64)
        assert batched == serial

    def test_batch_of_one_falls_back_to_serial_path(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        assert _small_sweep().run(batch=1) == serial

    def test_invalid_batch_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            _small_sweep().run(batch=0)


# ----------------------------------------------------------------------
#: Randomized lane mixes for the batch/serial property test: schemes
#: and workloads sampled with repetition, so duplicate specs exercise
#: multi-lane fingerprint groups sharing one snapshot.
_SCHEME_NAMES = ["Baseline", "PRA", "SDS", "DBI+PRA"]
_WORKLOADS = ["GUPS", "MIX1"]

lane_choices = st.lists(
    st.tuples(
        st.sampled_from(_SCHEME_NAMES),
        st.sampled_from(_WORKLOADS),
    ),
    min_size=1,
    max_size=5,
)


class TestCohortKernelOps:
    """Column ops over a list of lanes' ``TimingCore``s: each op reads
    (``decay_timers``: clamps) exactly the cores it is given."""

    @staticmethod
    def _cores():
        cores = [TimingCore(2, 4) for _ in range(4)]
        cores[1].open_bits[0] = 0b0101
        cores[1].next_refresh[:] = [700, 640]
        cores[1].pd[:] = [1, 1]
        cores[3].open_bits[1] = 0b1000
        cores[3].next_refresh[:] = [500, 900]
        cores[3].pd[0] = 1
        return cores

    def test_open_row_hits(self):
        c = self._cores()
        assert open_row_hits([c[1], c[3], c[0]]) == [0b0101, 0b1000, 0]

    def test_refresh_due(self):
        c = self._cores()
        assert refresh_due([c[1], c[3], c[0]]) == [640, 500, 0]
        c[3].next_refresh[1] = 450
        assert refresh_due([c[3]]) == [450]

    def test_power_down_resident(self):
        c = self._cores()
        assert power_down_resident([c[1], c[3], c[0]]) == [True, False, False]
        c[3].pd[1] = 1
        assert power_down_resident([c[3]]) == [True]

    def test_decay_timers_clamps_in_place(self):
        cores = [TimingCore(2, 4) for _ in range(3)]
        core0, core2 = cores[0], cores[2]
        core0.next_act_ok[:] = [10, 900]  # one stale, one live
        core0.gate[:] = [0, 55]
        core2.next_write_ok[:] = [99, 100]
        decay_timers([core0, core2], 100)
        # Stale timers clamped to the cycle, live ones untouched.
        assert core0.next_act_ok == [100, 900]
        assert core0.gate == [100, 100]
        assert core2.next_write_ok == [100, 100]
        assert core2.next_col_ok == [100, 100]
        # Core 1 was not passed: untouched.
        assert cores[1].next_act_ok == [0, 0]
        # Non-timer columns are never decayed.
        assert core0.next_refresh == [0, 0]
        assert core0.last_act == [-1] * 8

    def test_next_wake_min(self):
        assert next_wake_min([[7, 3, 9], [4, 4, 4]]) == [3, 4]
        # Lanes may have different candidate counts.
        assert next_wake_min([[5], [2, 8], [6, 1, 7]]) == [5, 2, 1]


# ----------------------------------------------------------------------
class TestAutoBatch:
    """``batch="auto"``: one lane group per worker."""

    def test_auto_matches_serial(self):
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        SNAPSHOTS.clear()
        assert _small_sweep().run(batch="auto") == serial

    def test_auto_on_pool_ships_one_group_per_worker(self):
        # 8 points over 2 workers: two 4-lane groups, one task each,
        # rather than the whole grid as one group on one worker.
        SNAPSHOTS.clear()
        serial = _small_sweep().run()
        with SimPool(workers=2) as pool:
            rows = _small_sweep().run(pool=pool, batch="auto")
            assert pool.tasks_done == 2
        assert rows == serial

    def test_auto_on_pool_spreads_one_fingerprint_over_workers(self, monkeypatch):
        # Every lane group starts on the grid's one warm fingerprint;
        # the pool still plans one group per worker.
        plans = []
        assign = SimPool._assign

        def spy_assign(self, count, group_keys):
            plan = assign(self, count, group_keys)
            plans.append(plan)
            return plan

        monkeypatch.setattr(SimPool, "_assign", spy_assign)
        sweep = Sweep(
            events_per_core=100,
            base_config=SystemConfig(cache=SMALL_CACHE),
            warmup_events_per_core=WARMUP,
        )
        sweep.add_axis("scheme", ["Baseline", "PRA", "SDS", "FGA"])
        sweep.add_axis("workload", ["GUPS"])
        ctx = sweep._context()
        assert len({point_fingerprint(ctx, p) for p in sweep._tasks()}) == 1
        with SimPool(workers=2) as pool:
            sweep.run(pool=pool, batch="auto")
        assert plans == [[[0], [1]]]

    def test_unknown_memory_uses_grid_size(self):
        # In-process: the whole grid as one lane group.
        assert auto_batch_lanes(24) == 24
        assert auto_batch_lanes(3) == 3
        # One lane group per pool worker.
        assert auto_batch_lanes(24, 2) == 12
        assert auto_batch_lanes(25, 2) == 13
        with pytest.raises(ValueError, match="at least one grid point"):
            auto_batch_lanes(0)
        with pytest.raises(ValueError, match="workers"):
            auto_batch_lanes(24, 0)

    def test_bad_batch_string_rejected(self):
        with pytest.raises(ValueError, match="'auto'"):
            _small_sweep().run(batch="turbo")

    def test_cli_parses_auto_and_rejects_junk(self, capsys):
        common = ["sweep", "--out", "grid.csv", "--batch"]
        args = cli.build_parser().parse_args(common + ["auto"])
        assert args.batch == "auto"
        args = cli.build_parser().parse_args(common + ["6"])
        assert args.batch == 6
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(common + ["fast"])
        assert "--batch" in capsys.readouterr().err

    def test_cli_auto_sweep_matches_plain(self, tmp_path, monkeypatch):
        plain, auto = tmp_path / "plain.csv", tmp_path / "auto.csv"
        pooled = tmp_path / "pooled.csv"
        common = [
            "sweep", "--schemes", "Baseline", "PRA", "--workloads", "GUPS",
            "--events", "300",
        ]
        assert cli.main(common + ["--out", str(plain)]) == 0
        assert cli.main(common + ["--batch", "auto", "--out", str(auto)]) == 0
        assert auto.read_text() == plain.read_text()
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        assert cli.main(
            common + ["--pool", "2", "--batch", "auto", "--out", str(pooled)]
        ) == 0
        assert pooled.read_text() == plain.read_text()


# ----------------------------------------------------------------------
class TestWorkerBudgetGuard:
    def test_sweep_pool_over_cpu_budget_exits_nonzero(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        out = str(tmp_path / "grid.csv")
        rc = cli.main(["sweep", "--pool", "3", "--out", out])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--pool 3 exceeds the 2 available CPU" in err

    def test_bench_pool_over_cpu_budget_exits_nonzero(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 2)
        rc = cli.main(["bench", "--suite", "quick", "--pool", "16"])
        assert rc == 2
        assert "--pool 16 exceeds the 2 available CPU" in capsys.readouterr().err

    def test_bench_default_pool_respects_cpu_budget(self, monkeypatch):
        # The default (no explicit --pool) must resolve to a legal
        # worker count instead of tripping the guard on small machines.
        monkeypatch.setattr(cli, "_available_cpus", lambda: 1)
        args = cli.build_parser().parse_args(["bench", "--suite", "quick"])
        assert args.pool is None  # resolved inside cmd_bench, not argparse

    def test_within_budget_passes(self, monkeypatch):
        monkeypatch.setattr(cli, "_available_cpus", lambda: 4)
        cli._check_worker_budget("--pool", 4)  # no raise

    def test_invalid_batch_exits_nonzero(self, tmp_path, capsys):
        out = str(tmp_path / "grid.csv")
        rc = cli.main(["sweep", "--batch", "0", "--out", out])
        assert rc == 2
        assert "--batch" in capsys.readouterr().err

    def test_cli_batched_sweep_matches_plain(self, tmp_path):
        plain, batched = tmp_path / "plain.csv", tmp_path / "batched.csv"
        common = [
            "sweep", "--schemes", "Baseline", "PRA", "--workloads", "GUPS",
            "--events", "300",
        ]
        assert cli.main(common + ["--out", str(plain)]) == 0
        assert cli.main(common + ["--batch", "2", "--out", str(batched)]) == 0
        assert batched.read_text() == plain.read_text()


# ----------------------------------------------------------------------
# Property test: randomized lane counts and configurations, every lane
# bit-identical to its serial run.  DBI+PRA lanes are always in the mix
# (distinct warm fingerprint → snapshot-restored and cold lanes coexist
# in one batch), and duplicate specs exercise multi-lane fingerprint
# groups sharing one snapshot copy-on-write.
@given(lanes=lane_choices, events=st.integers(min_value=50, max_value=250))
@settings(max_examples=5, deadline=None)
def test_randomized_batches_match_serial(lanes, events):
    base = SystemConfig(cache=CacheConfig(llc_bytes=64 * 1024))
    # Always include a DBI+PRA lane so DBI state (separate fingerprint,
    # tuple-COW restore path) is exercised in every example.
    lanes = lanes + [("DBI+PRA", "MIX1")]
    specs = [(base.with_scheme(by_name(s)), wl) for s, wl in lanes]
    warmup = 600
    SNAPSHOTS.clear()
    serial = []
    for config, wl in specs:
        system = System(
            config, lookup_workload(wl), events, warmup_events_per_core=warmup
        )
        serial.append(system.run().to_dict())
    SNAPSHOTS.clear()
    results = simulate_batch(specs, events, warmup_events_per_core=warmup)
    assert [r.to_dict() for r in results] == serial
