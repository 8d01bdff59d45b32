"""The process fan-out: a pool of long-lived sim workers.

Every broad evaluation in this repo — the figure/sensitivity benchmark
suites, ``Sweep.run`` grids, ``ExperimentRunner.run_many`` batches,
the sweep service — fans simulations out over processes through
:class:`SimPool`, and only through it; the one alternative is running
serially in-process.  A fresh worker pays the full cold start:
interpreter boot and package import (under the spawn start method),
trace-block compilation per workload, and a cache warmup per warm
fingerprint.  A pool opened for one sweep (``with SimPool(workers=N)
as pool``) pays it once per worker and fingerprint, and a pool kept
open pays it once for its lifetime.  The pool's properties:

* **warm workers** — each worker process owns the ordinary in-process
  caches (:data:`repro.sim.snapshot.SNAPSHOTS`, the compiled
  trace-block LRU) and keeps them across tasks, batches and sweeps, so
  only the first task of a (workload, seed, warmup, cache-geometry)
  fingerprint ever replays warmup;
* **fingerprint-batched scheduling** — :meth:`SimPool.map` accepts one
  group key per task (the sweep layer passes
  :func:`repro.sim.sweep.point_fingerprint`); tasks of one group are
  assigned to one worker back to back, so consecutive tasks hit the
  worker's warm snapshot and block caches instead of spreading each
  fingerprint over every worker;
* **streaming, deterministic results** — workers stream results back
  as they finish; the parent restores submission order at the merge
  (:meth:`SimPool.stream` yields them in order as soon as the next
  index is available), so pooled output is row-for-row identical to a
  serial run no matter the worker count or completion order;
* **chunked submission with backpressure** — at most
  ``max_inflight`` tasks are enqueued per worker; further tasks are
  fed as results return, so a million-point grid never materializes in
  the task queues;
* **shared context per batch** — the per-batch invariants (base
  config, run length, seed, snapshot dir) cross the process boundary
  once per worker per batch, not once per task;
* **clean shutdown and reuse** — one pool serves any number of
  batches (the benchmark conftest passes one to all figure suites);
  ``close()`` / the context manager tears the workers down, and a
  worker death surfaces as :class:`SimPoolBrokenError` naming the
  worker instead of a hang.  Each caller opens and closes its own
  pool.

The serial in-process path (``SimPool(...)`` not involved at all) is
the oracle twin: pooled results must be bit-identical to it, which
``tests/test_pool.py`` pins across schemes, including DBI schemes and
the on-disk snapshot layer.
"""

from __future__ import annotations

import multiprocessing
import traceback
from multiprocessing import connection as mp_connection
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

# Oracle-parity declaration enforced by reprolint: running a batch
# through the pool is the fast path; mapping the same task function
# over the same payloads serially in-process is the oracle it must
# match bit-for-bit (see e.g. ``repro.sim.sweep.Sweep.run`` without
# ``pool=``).
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.sim.sweep._run_point"
ORACLE_TESTS = ("tests/test_pool.py",)

#: A pool task function: ``fn(shared, payload) -> result``.  Must be a
#: module-level callable (pickled by reference into the workers).
TaskFn = Callable[[Any, Any], Any]


class SimPoolError(RuntimeError):
    """Base class for pool failures."""


class SimPoolBrokenError(SimPoolError):
    """A worker died and its restart budget is exhausted."""


class SimPoolTaskError(SimPoolError):
    """A task raised inside a worker; carries the remote traceback."""

    def __init__(self, index: int, remote_traceback: str) -> None:
        super().__init__(
            f"task {index} failed in a pool worker:\n{remote_traceback}"
        )
        self.index = index
        self.remote_traceback = remote_traceback


def _worker_main(
    worker_id: int,
    task_q: "multiprocessing.Queue",
    result_conn: "mp_connection.Connection",
) -> None:
    """Worker loop: execute tasks until the ``None`` sentinel arrives.

    The process-wide caches (warm snapshots, compiled trace blocks)
    live in ordinary module globals, so simply *staying alive* between
    tasks is what makes the worker warm.  Batch headers carry the task
    function and the batch-shared context once; task messages then
    reference the batch by id.

    Results go back over a **per-worker pipe**, sent synchronously from
    this thread.  A shared ``multiprocessing.Queue`` would ship them
    through a background feeder thread holding a process-shared write
    lock — a worker crashing between tasks can then die mid-send *while
    holding that lock*, wedging every other worker's results forever.
    With one single-writer pipe per worker, a crash can corrupt only
    the crasher's own channel, which the parent simply replaces.
    """
    batches: Dict[int, Tuple[TaskFn, Any]] = {}
    while True:
        msg = task_q.get()
        if msg is None:
            break
        kind = msg[0]
        if kind == "shared":
            _, batch_id, fn, shared = msg
            batches[batch_id] = (fn, shared)
            continue
        if kind == "forget":
            batches.pop(msg[1], None)
            continue
        _, batch_id, index, payload = msg
        fn, shared = batches[batch_id]
        try:
            result = fn(shared, payload)
        except BaseException:
            result_conn.send(
                (batch_id, worker_id, index, False, traceback.format_exc())
            )
        else:
            result_conn.send((batch_id, worker_id, index, True, result))


class SimPool:
    """Persistent pool of warm simulation workers.

    ``start_method`` selects the multiprocessing start method for the
    workers (``None`` uses the platform default).  ``max_inflight``
    bounds how many tasks sit in each worker's queue at once; the rest
    are fed as results stream back (backpressure).

    ``max_restarts`` bounds self-healing: a worker that dies is
    replaced by a fresh process (its batch context re-shipped and its
    uncompleted tasks resubmitted) up to ``max_restarts`` times *per
    worker slot* before the pool declares itself broken with
    :class:`SimPoolBrokenError`.  A task that deterministically kills
    its worker therefore fails after a bounded number of retries
    instead of looping.  ``worker_restarts`` (also in :meth:`stats`)
    counts replacements over the pool's lifetime.
    """

    def __init__(
        self,
        workers: int = 2,
        max_inflight: int = 2,
        start_method: Optional[str] = None,
        max_restarts: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be a positive integer")
        if max_inflight < 1:
            raise ValueError("max_inflight must be a positive integer")
        if max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")
        self.workers = workers
        self.max_inflight = max_inflight
        self.max_restarts = max_restarts
        self._ctx = multiprocessing.get_context(start_method)
        self._task_qs: List["multiprocessing.Queue"] = []
        self._result_readers: List["mp_connection.Connection"] = []
        self._procs: List["multiprocessing.process.BaseProcess"] = []
        for wid in range(workers):
            task_q = self._ctx.Queue()
            self._task_qs.append(task_q)
            self._result_readers.append(None)  # type: ignore[arg-type]
            self._procs.append(self._spawn(wid, task_q))
        self._closed = False
        self._next_batch_id = 0
        #: Tasks completed over the pool's lifetime (observability).
        self.tasks_done = 0
        #: Dead workers replaced over the pool's lifetime.
        self.worker_restarts = 0
        self._restarts_by_worker = [0] * workers

    def _spawn(
        self, wid: int, task_q: "multiprocessing.Queue"
    ) -> "multiprocessing.process.BaseProcess":
        """Start one worker reading ``task_q``, with a fresh result pipe."""
        reader, writer = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(wid, task_q, writer),
            daemon=True,
        )
        proc.start()
        # Drop the parent's copy of the write end so only the worker
        # (and workers forked later, which inherit open fds) holds it.
        writer.close()
        self._result_readers[wid] = reader
        return proc

    def stats(self) -> Dict[str, int]:
        """Lifetime observability counters (cheap, side-effect free)."""
        return {
            "workers": self.workers,
            "tasks_done": self.tasks_done,
            "worker_restarts": self.worker_restarts,
            "max_restarts": self.max_restarts,
        }

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        """True once :meth:`close` has torn the workers down."""
        return self._closed

    def __enter__(self) -> "SimPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the workers down; idempotent."""
        if self._closed:
            return
        self._closed = True
        for task_q in self._task_qs:
            try:
                task_q.put(None)
            except (OSError, ValueError):
                pass
        for proc in self._procs:
            proc.join(timeout=5.0)
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for task_q in self._task_qs:
            task_q.close()
        for reader in self._result_readers:
            try:
                reader.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    def _assign(
        self,
        count: int,
        group_keys: Optional[Sequence[Hashable]],
    ) -> List[List[int]]:
        """Deterministic task-index plan, one ordered list per worker.

        With group keys, indices sharing a key form one group; groups
        go whole to the currently least-loaded worker (largest group
        first, ties broken by first appearance), so every fingerprint
        warms exactly one worker.  Each worker runs its groups in that
        same order, largest first, each group's tasks back to back.
        Without keys, indices are split into contiguous runs,
        preserving grid locality.
        """
        if count == 0:
            return [[] for _ in range(self.workers)]
        if group_keys is None:
            per = -(-count // self.workers)  # ceil division
            runs: List[List[int]] = [[] for _ in range(self.workers)]
            for wid in range(self.workers):
                start = wid * per
                if start >= count:
                    break
                runs[wid] = list(range(start, min(start + per, count)))
            return runs
        if len(group_keys) != count:
            raise ValueError("need exactly one group key per payload")
        groups: Dict[Hashable, List[int]] = {}
        for index, key in enumerate(group_keys):
            groups.setdefault(key, []).append(index)
        ordered = sorted(
            groups.values(), key=lambda members: (-len(members), members[0])
        )
        plan: List[List[int]] = [[] for _ in range(self.workers)]
        loads = [0] * self.workers
        for members in ordered:
            target = min(range(self.workers), key=lambda w: (loads[w], w))
            plan[target].extend(members)
            loads[target] += len(members)
        return plan

    # ------------------------------------------------------------------
    def _execute(
        self,
        fn: TaskFn,
        payloads: Sequence[Any],
        shared: Any,
        group_keys: Optional[Sequence[Hashable]],
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, result)`` pairs in completion order."""
        if self._closed:
            raise SimPoolError("pool is closed")
        count = len(payloads)
        if count == 0:
            return
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        plan = self._assign(count, group_keys)
        cursors = [0] * self.workers  # next plan position per worker
        #: Submitted-but-uncompleted indices per worker, submission
        #: order; ``len`` is the worker's inflight count, and it is the
        #: exact resubmission list when the worker has to be replaced.
        pending: List[List[int]] = [[] for _ in range(self.workers)]
        done = [False] * count
        outstanding = 0
        for wid in range(self.workers):
            if not plan[wid]:
                continue
            self._task_qs[wid].put(("shared", batch_id, fn, shared))
            while len(pending[wid]) < self.max_inflight and cursors[wid] < len(
                plan[wid]
            ):
                index = plan[wid][cursors[wid]]
                self._task_qs[wid].put(("task", batch_id, index, payloads[index]))
                cursors[wid] += 1
                pending[wid].append(index)
                outstanding += 1
        try:
            while outstanding:
                ready = mp_connection.wait(list(self._result_readers), timeout=1.0)
                if not ready:
                    self._heal_dead_workers(batch_id, fn, shared, payloads, pending)
                    continue
                for reader in ready:
                    try:
                        bid, wid, index, ok, result = reader.recv()
                    except (EOFError, OSError):
                        # The writer died with its pipe drained; the
                        # budget check replaces it (or raises).
                        self._heal_dead_workers(
                            batch_id, fn, shared, payloads, pending
                        )
                        continue
                    if bid != batch_id:
                        # Straggler from an abandoned earlier batch.
                        continue
                    if done[index]:
                        # Duplicate: a worker delivered this result just
                        # before dying and the replacement recomputed
                        # it.  Deterministic tasks make both copies
                        # identical; keep the first, drop this one.
                        continue
                    done[index] = True
                    if index in pending[wid]:
                        pending[wid].remove(index)
                    outstanding -= 1
                    self.tasks_done += 1
                    if cursors[wid] < len(plan[wid]):
                        nxt = plan[wid][cursors[wid]]
                        self._task_qs[wid].put(("task", batch_id, nxt, payloads[nxt]))
                        cursors[wid] += 1
                        pending[wid].append(nxt)
                        outstanding += 1
                    if not ok:
                        raise SimPoolTaskError(index, result)
                    yield index, result
        except SimPoolError:
            # Broken pool or failed task: the batch cannot complete
            # deterministically; tear the workers down so callers
            # cannot accidentally reuse half-poisoned queues.
            self.close()
            raise
        finally:
            if not self._closed:
                for wid in range(self.workers):
                    if plan[wid]:
                        self._task_qs[wid].put(("forget", batch_id))

    def _heal_dead_workers(
        self,
        batch_id: int,
        fn: TaskFn,
        shared: Any,
        payloads: Sequence[Any],
        pending: List[List[int]],
    ) -> None:
        """Replace dead workers within budget, else raise.

        A replacement gets a *fresh* task queue (the dead process may
        have half-consumed the old one, so its state is ambiguous), the
        current batch's context header, and every task the dead worker
        had been handed but never finished — in the original
        submission order, so fingerprint runs stay contiguous and the
        batch completes with the exact same result set.
        """
        for wid, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            if self._restarts_by_worker[wid] >= self.max_restarts:
                raise SimPoolBrokenError(
                    f"pool worker {wid} died (exit code {proc.exitcode}) "
                    f"with its restart budget exhausted "
                    f"({self.max_restarts} restarts); batch cannot complete"
                )
            self._restarts_by_worker[wid] += 1
            self.worker_restarts += 1
            old_q = self._task_qs[wid]
            try:
                old_q.close()
                old_q.cancel_join_thread()
            except (OSError, ValueError):
                pass
            try:
                self._result_readers[wid].close()
            except OSError:
                pass
            task_q = self._ctx.Queue()
            self._task_qs[wid] = task_q
            self._procs[wid] = self._spawn(wid, task_q)
            # Re-ship the batch context, then the unfinished tasks.  A
            # task the dead worker completed-but-delivered races as a
            # duplicate; _execute drops duplicates by index.
            task_q.put(("shared", batch_id, fn, shared))
            for index in pending[wid]:
                task_q.put(("task", batch_id, index, payloads[index]))

    # ------------------------------------------------------------------
    def stream(
        self,
        fn: TaskFn,
        payloads: Sequence[Any],
        shared: Any = None,
        group_keys: Optional[Sequence[Hashable]] = None,
    ) -> Iterator[Any]:
        """Yield results *in submission order* as they become ready.

        Workers stream completions back in arbitrary order; this
        buffers only the out-of-order prefix and releases each result
        the moment every earlier index has arrived — a deterministic
        merge with bounded latency, not a tail barrier.
        """
        ready: Dict[int, Any] = {}
        emit = 0
        for index, result in self._execute(fn, payloads, shared, group_keys):
            ready[index] = result
            while emit in ready:
                yield ready.pop(emit)
                emit += 1

    def map(
        self,
        fn: TaskFn,
        payloads: Sequence[Any],
        shared: Any = None,
        group_keys: Optional[Sequence[Hashable]] = None,
    ) -> List[Any]:
        """Run a batch and return all results in submission order."""
        results: List[Any] = [None] * len(payloads)
        for index, result in self._execute(fn, payloads, shared, group_keys):
            results[index] = result
        return results
