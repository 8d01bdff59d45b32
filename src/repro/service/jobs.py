"""Job manager: content-addressed dedup, journaling, kill/resume.

One :class:`JobManager` owns the service's state: the result store,
the journal, the pool scheduler, and the live job table.  Every grid
point a job needs goes through a three-way triage at submit time:

* **stored** — the point's digest already has a result file: served
  from cache, zero compute;
* **in flight** — another job is computing the digest right now: this
  job subscribes to the same completion instead of scheduling a
  duplicate (cross-job coalescing);
* **novel** — scheduled on the warm-affinity scheduler; on completion
  the row is written to the store *first*, then journaled, then every
  subscribed job is notified.

Jobs are content-addressed too (:meth:`SweepSpec.job_id`), so
re-submitting a spec — same client retrying, different client asking
the same question, or a client resuming after the service was
SIGKILLed and restarted — always lands on the one canonical job.  On
startup the manager replays the journal: finished jobs come back
queryable, unfinished jobs resume computing exactly the points whose
results are not yet on disk.

Per-job counters (``cached`` / ``coalesced`` / ``computed``) make the
dedup behavior observable — the benchmarks and the kill/resume test
assert on them rather than on timing alone.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    AsyncIterator,
    Dict,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.service.digest import SweepSpec
from repro.service.journal import Journal
from repro.service.scheduler import PoolScheduler
from repro.service.store import ResultStore

# Oracle-parity declaration enforced by reprolint: rows served by the
# service (computed via pools, cached, coalesced or resumed) must be
# bit-identical to running the same points serially in-process.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.sim.sweep._run_point"
ORACLE_TESTS = ("tests/test_service.py", "tests/test_service_resume.py")


@dataclass
class JobStatus:
    """Snapshot of one job, JSON-able for the HTTP API."""

    job_id: str
    state: str  # "running" | "done" | "failed"
    total: int
    completed: int
    cached: int
    coalesced: int
    computed: int
    points: List[str]
    error: Optional[str] = None

    def to_json(self) -> Dict[str, Any]:
        """Plain-dict form for HTTP responses and test assertions."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "total": self.total,
            "completed": self.completed,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "computed": self.computed,
            "points": self.points,
            "error": self.error,
        }


@dataclass
class _Job:
    """Internal live-job record."""

    job_id: str
    spec: SweepSpec
    digests: List[str]  # grid order
    pending: Set[str] = field(default_factory=set)
    cached: int = 0
    coalesced: int = 0
    computed: int = 0
    error: Optional[str] = None
    done: "asyncio.Event" = field(default_factory=asyncio.Event)
    #: Append-only event log for SSE subscribers: each entry is one
    #: completed point ({"digest", "index"}) or the terminal marker.
    events: List[Dict[str, Any]] = field(default_factory=list)
    changed: "asyncio.Condition" = field(default_factory=asyncio.Condition)

    @property
    def state(self) -> str:
        if self.error is not None:
            return "failed"
        return "done" if not self.pending else "running"

    def status(self) -> JobStatus:
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            total=len(self.digests),
            completed=len(self.digests) - len(self.pending),
            cached=self.cached,
            coalesced=self.coalesced,
            computed=self.computed,
            points=list(self.digests),
            error=self.error,
        )


class JobManager:
    """The service core: submit sweeps, dedup points, survive kills."""

    def __init__(
        self,
        root: str,
        pools: int = 2,
        workers_per_pool: int = 1,
        max_inflight: int = 2,
    ) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.store = ResultStore(os.path.join(root, "results"))
        self.journal = Journal(os.path.join(root, "journal.jsonl"))
        self.scheduler = PoolScheduler(
            pools=pools,
            workers_per_pool=workers_per_pool,
            max_inflight=max_inflight,
            snapshot_dir=os.path.join(root, "snapshots"),
        )
        self._jobs: Dict[str, _Job] = {}
        #: digest -> subscribers awaiting the in-flight computation:
        #: (job, index-within-job) pairs notified on completion.
        self._inflight: Dict[str, List[Tuple[_Job, int]]] = {}
        self._tasks: Set["asyncio.Task[None]"] = set()
        self._started = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the scheduler and resume unfinished journaled jobs."""
        if self._started:
            return
        self._started = True
        await self.scheduler.start()
        state = self.journal.replay()
        for spec_payload in state.jobs.values():
            # Resubmitting through the normal path re-derives digests,
            # serves journaled/stored points from cache, and schedules
            # only what is genuinely missing — resume *is* dedup.
            await self.submit(spec_payload)

    async def close(self) -> None:
        """Cancel in-flight computations and shut the scheduler down."""
        for task in list(self._tasks):
            task.cancel()
        for task in list(self._tasks):
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks.clear()
        await self.scheduler.close()
        self.journal.close()
        self._started = False

    # ------------------------------------------------------------------
    async def submit(
        self, payload: Union[Mapping[str, Any], SweepSpec]
    ) -> JobStatus:
        """Accept (or re-attach to) a sweep; returns its status."""
        if not self._started:
            raise RuntimeError("manager not started")
        spec = (
            payload
            if isinstance(payload, SweepSpec)
            else SweepSpec.from_payload(payload)
        )
        job_id = spec.job_id()
        existing = self._jobs.get(job_id)
        if existing is not None:
            return existing.status()
        points = spec.points()
        digests = [spec.point_digest(point) for point in points]
        job = _Job(job_id=job_id, spec=spec, digests=digests, pending=set(digests))
        self._jobs[job_id] = job
        self.journal.record_job(job_id, spec.canonical())
        for index, (point, digest) in enumerate(zip(points, digests)):
            if self.store.has(digest):
                job.cached += 1
                await self._complete_point(job, index, digest)
            elif digest in self._inflight:
                job.coalesced += 1
                self._inflight[digest].append((job, index))
            else:
                job.computed += 1
                self._inflight[digest] = [(job, index)]
                task = asyncio.create_task(self._compute(spec, point, digest))
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        if not job.pending:
            await self._finish(job)
        return job.status()

    # ------------------------------------------------------------------
    async def _compute(
        self, spec: SweepSpec, point: Dict[str, Any], digest: str
    ) -> None:
        """Compute one novel point and fan its completion out."""
        try:
            row = await self.scheduler.submit(spec, point)
            self.store.put(digest, row)
            self.journal.record_point(digest)
        except asyncio.CancelledError:
            self._inflight.pop(digest, None)
            raise
        except Exception as exc:  # noqa: BLE001 - fail the waiting jobs
            subscribers = self._inflight.pop(digest, [])
            for job, _index in subscribers:
                job.error = f"point {digest[:12]}: {exc}"
                await self._finish(job)
            return
        subscribers = self._inflight.pop(digest, [])
        for job, index in subscribers:
            await self._complete_point(job, index, digest)
            if not job.pending:
                await self._finish(job)

    async def _complete_point(self, job: _Job, index: int, digest: str) -> None:
        job.pending.discard(digest)
        async with job.changed:
            job.events.append({"kind": "point", "index": index, "digest": digest})
            job.changed.notify_all()

    async def _finish(self, job: _Job) -> None:
        if job.done.is_set():
            return
        job.done.set()
        if job.error is None:
            self.journal.record_done(job.job_id)
        async with job.changed:
            job.events.append(
                {"kind": "done", "job_id": job.job_id, "state": job.state}
            )
            job.changed.notify_all()

    # ------------------------------------------------------------------
    def status(self, job_id: str) -> Optional[JobStatus]:
        job = self._jobs.get(job_id)
        return None if job is None else job.status()

    def result(self, digest: str) -> Optional[Dict[str, Any]]:
        return self.store.get(digest)

    def rows(self, job_id: str) -> Optional[List[Dict[str, Any]]]:
        """The job's result rows in grid order (``None`` if unknown or
        not yet complete)."""
        job = self._jobs.get(job_id)
        if job is None or job.pending or job.error is not None:
            return None
        rows = [self.store.get(digest) for digest in job.digests]
        if any(row is None for row in rows):
            return None
        return [row for row in rows if row is not None]

    async def wait(self, job_id: str) -> JobStatus:
        """Block until the job finishes (or fails); returns final status."""
        job = self._jobs[job_id]
        await job.done.wait()
        return job.status()

    async def events(
        self, job_id: str, start: int = 0
    ) -> AsyncIterator[Dict[str, Any]]:
        """Async iterator over a job's completion events.

        Replays buffered events from ``start``, then live-follows until
        the terminal ``done`` event — the feed behind the SSE endpoint.
        """
        job = self._jobs[job_id]
        cursor = start
        while True:
            async with job.changed:
                while cursor >= len(job.events):
                    await job.changed.wait()
                batch = job.events[cursor:]
                cursor = len(job.events)
            for event in batch:
                yield event
                if event.get("kind") == "done":
                    return

    def stats(self) -> Dict[str, Any]:
        """Service-wide counters for ``/stats`` (jobs, store, dedup)."""
        return {
            "jobs": len(self._jobs),
            "stored": len(self.store),
            "inflight": len(self._inflight),
            "scheduler": self.scheduler.stats(),
        }
