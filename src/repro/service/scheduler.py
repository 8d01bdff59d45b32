"""Warm-affinity scheduling of grid points across several SimPools.

The single-host stand-in for multi-host sharding: the service owns
``pools`` independent :class:`~repro.sim.pool.SimPool` instances and
routes every grid point by its warm fingerprint
(:func:`~repro.sim.sweep.point_fingerprint`).  Placement is
**sticky**: the first point of a fingerprint picks the least-loaded
pool, and every later point of that fingerprint — from any job, any
client, any day of the service's life — lands on the same pool, so
each fingerprint's warm snapshot is built (and kept hot) in exactly
one pool's workers instead of being duplicated across all of them.

Each pool is drained by one ``asyncio`` worker task: it collects
whatever points are queued, groups them by sweep context (points of
different jobs can share a batch only if their grid-wide invariants
match), and runs each batch in a thread via
:meth:`SimPool.stream` — results resolve per-point futures as they
stream back, so a big job's early points unblock subscribers while
later points still compute.

A pool that breaks (task error tears it down, or its restart budget
is exhausted) is recreated lazily on its next batch; the affinity map
is kept, so the replacement pool re-warms the same fingerprints.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, List, Optional, Tuple

from repro.sim.pool import SimPool
from repro.sim.snapshot import fingerprint_digest
from repro.sim.sweep import _run_point
from repro.service.digest import SweepSpec

#: Batch-invariant identity: points whose key matches may share one
#: pool batch (and therefore one shipped SweepContext).
_CtxKey = Tuple[int, int, Optional[int], Optional[int]]


@dataclass
class _Item:
    """One queued grid point awaiting computation."""

    ctx_key: _CtxKey
    spec: SweepSpec
    point: Dict[str, Any]
    fp_key: tuple
    future: "asyncio.Future[Dict[str, Any]]" = field(repr=False)


class PoolScheduler:
    """Shards fingerprint groups across pools; sticky warm affinity."""

    def __init__(
        self,
        pools: int = 2,
        workers_per_pool: int = 1,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        if pools < 1:
            raise ValueError("pools must be a positive integer")
        self.pool_count = pools
        self.workers_per_pool = workers_per_pool
        self.snapshot_dir = snapshot_dir
        self._pools: List[Optional[SimPool]] = [None] * pools
        self._queues: List["asyncio.Queue[_Item]"] = []
        self._workers: List["asyncio.Task[None]"] = []
        #: fingerprint digest -> pool index (sticky placement).
        self.affinity: Dict[str, int] = {}
        #: Lifetime points routed to each pool (placement load proxy).
        self.assigned: List[int] = [0] * pools
        #: Points actually simulated by this scheduler (not cache hits).
        self.computed = 0
        #: Broken pools replaced over the scheduler's lifetime.
        self.pool_rebuilds = 0
        self._started = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Create the per-pool queues and drain tasks (idempotent)."""
        if self._started:
            return
        self._started = True
        for idx in range(self.pool_count):
            self._queues.append(asyncio.Queue())
            self._workers.append(
                asyncio.create_task(self._drain(idx), name=f"pool-{idx}")
            )

    async def close(self) -> None:
        """Cancel drain tasks and tear down the pools."""
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._workers = []
        pools = [pool for pool in self._pools if pool is not None]
        self._pools = [None] * self.pool_count
        for pool in pools:
            if not pool.closed:
                await asyncio.to_thread(pool.close)
        self._started = False
        self._queues = []

    # ------------------------------------------------------------------
    def _place(self, fp_digest: str) -> int:
        """Sticky pool index for a fingerprint; least-loaded for new."""
        idx = self.affinity.get(fp_digest)
        if idx is None:
            idx = min(range(self.pool_count), key=lambda i: (self.assigned[i], i))
            self.affinity[fp_digest] = idx
        return idx

    def _ensure_pool(self, idx: int) -> SimPool:
        pool = self._pools[idx]
        if pool is None or pool.closed:
            if pool is not None:
                self.pool_rebuilds += 1
            pool = SimPool(workers=self.workers_per_pool)
            self._pools[idx] = pool
        return pool

    # ------------------------------------------------------------------
    async def submit(
        self, spec: SweepSpec, point: Dict[str, Any]
    ) -> Dict[str, Any]:
        """Compute one grid point on its affinity pool; returns the row."""
        if not self._started:
            raise RuntimeError("scheduler not started")
        fp_key = spec.group_key(point)
        idx = self._place(fingerprint_digest(fp_key))
        self.assigned[idx] += 1
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[Dict[str, Any]]" = loop.create_future()
        ctx_key: _CtxKey = (
            spec.events_per_core,
            spec.seed,
            spec.warmup_events_per_core,
            spec.llc_bytes,
        )
        await self._queues[idx].put(_Item(ctx_key, spec, point, fp_key, future))
        return await future

    # ------------------------------------------------------------------
    async def _drain(self, idx: int) -> None:
        """Per-pool loop: batch queued points, run, resolve futures."""
        queue = self._queues[idx]
        while True:
            items = [await queue.get()]
            while not queue.empty():
                items.append(queue.get_nowait())
            batches: "OrderedDict[_CtxKey, List[_Item]]" = OrderedDict()
            for item in items:
                batches.setdefault(item.ctx_key, []).append(item)
            for batch in batches.values():
                await self._run_batch(idx, batch)

    async def _run_batch(self, idx: int, batch: List[_Item]) -> None:
        """One SimPool batch in a thread; per-row future resolution."""
        pool = self._ensure_pool(idx)
        loop = asyncio.get_running_loop()
        ctx = batch[0].spec.context(self.snapshot_dir)
        points = [item.point for item in batch]
        group_keys: List[Hashable] = [item.fp_key for item in batch]

        def resolve(item: _Item, row: Dict[str, Any]) -> None:
            # Counted here (on the loop thread, before any waiter can
            # observe the row) so stats never lag behind job completion.
            self.computed += 1
            if not item.future.done():
                item.future.set_result(row)

        def reject(item: _Item, exc: BaseException) -> None:
            if not item.future.done():
                item.future.set_exception(exc)

        def run() -> None:
            offset = 0
            try:
                for row in pool.stream(
                    _run_point, points, shared=ctx, group_keys=group_keys
                ):
                    loop.call_soon_threadsafe(resolve, batch[offset], row)
                    offset += 1
            except BaseException as exc:
                for item in batch[offset:]:
                    loop.call_soon_threadsafe(reject, item, exc)

        await asyncio.to_thread(run)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        """Placement and liveness counters for /stats and tests."""
        live = [pool for pool in self._pools if pool is not None and not pool.closed]
        return {
            "pools": self.pool_count,
            "workers_per_pool": self.workers_per_pool,
            "live_pools": len(live),
            "assigned": list(self.assigned),
            "fingerprints": len(self.affinity),
            "computed": self.computed,
            "pool_rebuilds": self.pool_rebuilds,
            "worker_restarts": sum(pool.worker_restarts for pool in live),
        }
