"""Oracle-parity and lifecycle tests for the persistent sim pool.

``repro.sim.pool`` is a registered fast path: running a batch through
:class:`SimPool` must be bit-identical — values *and* row order — to
mapping the same task function serially in-process (the oracle twin).
These tests pin that across schemes (including DBI variants and the
on-disk snapshot layer), plus the pool's failure and lifecycle
contracts: a dead worker raises instead of hanging, task exceptions
carry the remote traceback, and one pool serves many batches.
"""

import os

import pytest

from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.pool import (
    SimPool,
    SimPoolBrokenError,
    SimPoolError,
    SimPoolTaskError,
)
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import Sweep, _run_point


SMALL_CACHE = CacheConfig(llc_bytes=128 * 1024)


def _small_sweep(snapshot_dir=None):
    sweep = Sweep(
        events_per_core=400,
        base_config=SystemConfig(cache=SMALL_CACHE),
        warmup_events_per_core=1200,
        snapshot_dir=snapshot_dir,
    )
    sweep.add_axis("scheme", ["Baseline", "PRA", "SDS", "DBI+PRA"])
    sweep.add_axis("workload", ["GUPS", "MIX1"])
    return sweep


# ----------------------------------------------------------------------
# Module-level task bodies (pickled by reference into the workers).
def _square(shared, payload):
    return shared["scale"] * payload * payload


def _boom(shared, payload):
    raise ValueError(f"payload {payload} rejected")


def _die(shared, payload):
    os._exit(3)


def _die_once(shared, payload):
    # Kill the hosting worker the first time each payload is seen
    # (marker file = cross-process memory), succeed on resubmission.
    marker = os.path.join(shared["dir"], f"died_{payload}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("x")
        os._exit(7)
    return payload * 10


def _echo(shared, payload):
    return (shared, payload)


# ----------------------------------------------------------------------
class TestOracleParity:
    def test_sweep_pooled_identical_to_serial(self):
        serial = _small_sweep().run()
        with SimPool(workers=2) as pool:
            pooled = _small_sweep().run(pool=pool)
        assert pooled == serial  # values AND ordering

    def test_sweep_pooled_identical_with_snapshot_dir(self, tmp_path):
        snap = str(tmp_path / "snaps")
        # Drop in-memory warm state so the disk layer actually engages
        # (the fingerprint is snapshot-dir-agnostic, so a hit from an
        # earlier test would skip the write).
        SNAPSHOTS.clear()
        serial = _small_sweep(snapshot_dir=snap).run()
        with SimPool(workers=2) as pool:
            pooled = _small_sweep(snapshot_dir=snap).run(pool=pool)
            again = _small_sweep(snapshot_dir=snap).run(pool=pool)
        assert pooled == serial
        assert again == serial  # disk-restored warm state, same rows
        assert os.listdir(snap)  # the round-trip actually hit the disk

    def test_pool_reused_across_sweeps(self):
        with SimPool(workers=2) as pool:
            first = _small_sweep().run(pool=pool)
            second = _small_sweep().run(pool=pool)
            assert pool.tasks_done == len(first) + len(second)
        assert first == second


# ----------------------------------------------------------------------
class TestStreamingOrder:
    def test_map_restores_submission_order(self):
        with SimPool(workers=3) as pool:
            out = pool.map(_square, list(range(20)), shared={"scale": 2})
        assert out == [2 * i * i for i in range(20)]

    def test_stream_yields_in_submission_order(self):
        with SimPool(workers=3) as pool:
            seen = list(pool.stream(_square, list(range(17)), shared={"scale": 1}))
        assert seen == [i * i for i in range(17)]

    def test_group_keys_preserve_order(self):
        payloads = list(range(12))
        keys = [i % 3 for i in payloads]  # interleaved fingerprints
        with SimPool(workers=2) as pool:
            out = pool.map(_square, payloads, shared={"scale": 1}, group_keys=keys)
        assert out == [i * i for i in payloads]

    def test_shared_context_reaches_every_task(self):
        with SimPool(workers=2) as pool:
            out = pool.map(_echo, ["a", "b", "c"], shared={"k": 1})
        assert out == [({"k": 1}, "a"), ({"k": 1}, "b"), ({"k": 1}, "c")]


# ----------------------------------------------------------------------
class TestFailureModes:
    def test_task_exception_surfaces_remote_traceback(self):
        pool = SimPool(workers=2)
        with pytest.raises(SimPoolTaskError) as excinfo:
            pool.map(_boom, [1, 2, 3])
        assert "payload" in excinfo.value.remote_traceback
        assert "ValueError" in excinfo.value.remote_traceback
        # A failed batch poisons determinism; the pool tears down.
        assert pool.closed

    def test_worker_death_raises_instead_of_hanging(self):
        pool = SimPool(workers=2, max_restarts=0)
        with pytest.raises(SimPoolBrokenError, match="died"):
            pool.map(_die, [1, 2, 3, 4])
        assert pool.closed

    def test_closed_pool_rejects_work(self):
        pool = SimPool(workers=1)
        pool.close()
        with pytest.raises(SimPoolError, match="closed"):
            pool.map(_square, [1], shared={"scale": 1})

    def test_close_is_idempotent(self):
        pool = SimPool(workers=1)
        pool.close()
        pool.close()
        assert pool.closed


# ----------------------------------------------------------------------
class TestWorkerRestart:
    def test_dead_worker_is_replaced_within_budget(self, tmp_path):
        with SimPool(workers=1, max_restarts=1) as pool:
            out = pool.map(_die_once, [5], shared={"dir": str(tmp_path)})
            assert out == [50]
            assert pool.worker_restarts == 1
            assert not pool.closed
            # The healed pool keeps serving later batches.
            assert pool.map(_square, [4], shared={"scale": 1}) == [16]

    def test_restart_resubmits_pending_and_preserves_order(self, tmp_path):
        payloads = list(range(6))
        # Every payload kills its worker once, so each 3-payload slot
        # needs 3 replacements before the batch drains.
        with SimPool(workers=2, max_restarts=3) as pool:
            out = pool.map(_die_once, payloads, shared={"dir": str(tmp_path)})
            assert out == [p * 10 for p in payloads]
            assert pool.worker_restarts >= 1

    def test_poison_task_exhausts_restart_budget(self):
        pool = SimPool(workers=1, max_restarts=1)
        with pytest.raises(SimPoolBrokenError, match="restart budget"):
            pool.map(_die, [1])
        assert pool.worker_restarts == 1
        assert pool.closed

    def test_stats_reports_lifetime_counters(self):
        with SimPool(workers=2, max_restarts=3) as pool:
            pool.map(_square, [1, 2], shared={"scale": 1})
            stats = pool.stats()
        assert stats == {
            "workers": 2,
            "tasks_done": 2,
            "worker_restarts": 0,
            "max_restarts": 3,
        }

    def test_negative_restart_budget_rejected(self):
        with pytest.raises(ValueError, match="max_restarts"):
            SimPool(workers=1, max_restarts=-1)


# ----------------------------------------------------------------------
class TestAssignmentPlan:
    def test_grouped_tasks_land_on_one_worker(self):
        pool = SimPool.__new__(SimPool)  # plan logic only, no processes
        pool.workers = 3
        plan = pool._assign(6, ["a", "b", "a", "b", "a", "c"])
        homes = {}
        for wid, members in enumerate(plan):
            for index in members:
                homes[index] = wid
        assert homes[0] == homes[2] == homes[4]  # all of group "a"
        assert homes[1] == homes[3]  # all of group "b"
        assert sorted(homes) == list(range(6))

    def test_plan_is_deterministic(self):
        pool = SimPool.__new__(SimPool)
        pool.workers = 4
        keys = [i % 5 for i in range(23)]
        assert pool._assign(23, keys) == pool._assign(23, keys)

    def test_contiguous_runs_without_keys(self):
        pool = SimPool.__new__(SimPool)
        pool.workers = 3
        plan = pool._assign(7, None)
        assert plan == [[0, 1, 2], [3, 4, 5], [6]]

    def test_key_count_mismatch_rejected(self):
        pool = SimPool.__new__(SimPool)
        pool.workers = 2
        with pytest.raises(ValueError, match="group key"):
            pool._assign(3, ["a"])


# ----------------------------------------------------------------------
class TestSharedPool:
    def test_pool_runs_sweep_task_fn_directly(self):
        # The oracle-twin pairing in miniature: the exact worker-side
        # task function, fed through the pool, matches calling it
        # in-process with the same context and point.
        sweep = _small_sweep()
        tasks = sweep._tasks()[:2]
        ctx = sweep._context()
        serial = [_run_point(ctx, point) for point in tasks]
        with SimPool(workers=2) as pool:
            pooled = pool.map(_run_point, tasks, shared=ctx)
        assert pooled == serial
