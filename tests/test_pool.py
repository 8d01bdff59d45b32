"""Oracle-parity and lifecycle tests for the persistent sim pool.

``repro.sim.pool`` is a registered fast path: running a batch through
:class:`SimPool` must be bit-identical — values *and* row order — to
mapping the same task function serially in-process (the oracle twin).
These tests pin that across schemes (including DBI variants and the
on-disk snapshot layer), plus the pool's wire protocol (one task
message per group, the unfinished tasks of a dead worker resent) and
its failure and lifecycle contracts: a dead worker raises instead of
hanging, task exceptions carry the remote traceback, and one pool
serves many batches.
"""

import os
import time

import pytest

from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.pool import (
    SimPool,
    SimPoolBrokenError,
    SimPoolError,
    SimPoolTaskError,
)
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import Sweep, _run_point, point_fingerprint


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


def _sleep_or_boom(shared, payload):
    if payload == "boom":
        raise ValueError("boom")
    time.sleep(payload)
    return payload


def _die_once(shared, payload):
    # Kill the hosting worker the first time each payload is seen
    # (marker file = cross-process memory), succeed on resubmission.
    marker = os.path.join(shared["dir"], f"died_{payload}")
    if not os.path.exists(marker):
        with open(marker, "w") as fh:
            fh.write("x")
        os._exit(7)
    return payload * 10


def _logged_die_once(shared, payload):
    # _die_once that first appends the payload to a run log, so a test
    # can see which tasks a replacement worker ran again.
    with open(os.path.join(shared["dir"], "runs.log"), "a") as fh:
        fh.write(f"{payload}\n")
    return _die_once(shared, payload)


def _echo(shared, payload):
    return (shared, payload)


def _record_messages(pool):
    """Wrap each worker queue's ``put``; returns the list it fills.

    Only messages sent after this call are recorded; a replacement
    worker's fresh queue is not wrapped.
    """
    sent = []
    for task_q in pool._task_qs:
        def put(msg, _put=task_q.put):
            sent.append(msg)
            _put(msg)

        task_q.put = put
    return sent


def _task_messages(sent):
    """The recorded messages that carry tasks (not headers or sentinels)."""
    return [msg for msg in sent if msg is not None and msg[0] not in ("shared", "forget")]


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
class TestGroupMessages:
    def test_pooled_sweep_sends_one_message_per_fingerprint_group(self):
        sweep = _small_sweep()
        serial = sweep.run()
        ctx, tasks = sweep._context(), sweep._tasks()
        groups = {}
        for index, point in enumerate(tasks):
            groups.setdefault(point_fingerprint(ctx, point), []).append(index)
        assert len(groups) == 4 < len(tasks)  # {GUPS, MIX1} x {DBI, no DBI}
        with SimPool(workers=2) as pool:
            sent = _record_messages(pool)
            pooled = _small_sweep().run(pool=pool)
        messages = _task_messages(sent)
        assert len(messages) == len(groups)
        assert sorted([index for index, _ in msg[2]] for msg in messages) == sorted(
            groups.values()
        )
        assert pooled == serial

    def test_keyless_map_sends_one_message_per_task(self):
        with SimPool(workers=2) as pool:
            sent = _record_messages(pool)
            out = pool.map(_square, list(range(5)), shared={"scale": 1})
        assert len(_task_messages(sent)) == 5
        assert out == [i * i for i in range(5)]


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

    def test_failed_task_does_not_wait_for_busy_workers(self):
        # Worker 0 holds a 60 s group; worker 1's task fails at once.
        # The failure tears the pool down without waiting for worker 0
        # to reach the shutdown sentinel behind its group.
        pool = SimPool(workers=2)
        start = time.monotonic()  # reprolint: allow[determinism-wallclock]
        with pytest.raises(SimPoolTaskError):
            pool.map(_sleep_or_boom, [30, 30, "boom"], group_keys=["s", "s", "b"])
        elapsed = time.monotonic() - start  # reprolint: allow[determinism-wallclock]
        assert elapsed < 4.0
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

    def test_restart_mid_group_resends_only_unfinished_tasks(self, tmp_path):
        # One key: all six tasks are one group on one worker, and every
        # task kills its worker once.  Each replacement must resume at
        # the task that killed its predecessor, so every payload runs
        # exactly twice (once dying, once finishing), in order.
        payloads = list(range(6))
        with SimPool(workers=2, max_restarts=6) as pool:
            stream = pool.stream(
                _logged_die_once,
                payloads,
                shared={"dir": str(tmp_path)},
                group_keys=["one"] * len(payloads),
            )
            assert list(stream) == [p * 10 for p in payloads]
            assert pool.worker_restarts == 6
        runs = (tmp_path / "runs.log").read_text().split()
        assert runs == [str(p) for p in payloads for _ in range(2)]

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
        # Per worker, its groups: "a" (largest) to worker 0, "b" to
        # worker 1, "c" to worker 2.
        assert plan == [[[0, 2, 4]], [[1, 3]], [[5]]]

    def test_groups_go_to_the_least_loaded_worker(self):
        pool = SimPool.__new__(SimPool)
        pool.workers = 2
        plan = pool._assign(7, ["a", "a", "a", "b", "b", "c", "d"])
        # "a" (3) to worker 0, "b" (2) to 1, "c" to 1 (load 2 < 3), then
        # "d" to the tie's lower worker, 0.
        assert plan == [[[0, 1, 2], [6]], [[3, 4], [5]]]

    def test_plan_is_deterministic(self):
        pool = SimPool.__new__(SimPool)
        pool.workers = 4
        keys = [i % 5 for i in range(23)]
        assert pool._assign(23, keys) == pool._assign(23, keys)

    def test_each_task_is_its_own_group_without_keys(self):
        pool = SimPool.__new__(SimPool)
        pool.workers = 3
        plan = pool._assign(7, None)
        assert plan == [[[0], [3], [6]], [[1], [4]], [[2], [5]]]

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
