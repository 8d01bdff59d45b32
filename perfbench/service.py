"""``service``: ``repro serve`` as a subprocess, one closed-loop client.

Why: this workload covers pool spawn, IPC, sticky placement and disk
snapshot capture, and puts store writes (the cold job) beside store
reads (cached jobs) and the journal.  Its grid is read-leaning, which
makes it the counterpart of ``detailed``'s write-heavy MIX2: a
controller change that speeds writes by slowing reads shows up here.

Each cycle first launches and stops :data:`LAUNCHES` bare services,
then launches a fresh service with two simulation workers (two pools of
one); every launch is timed until ``/healthz`` answers (``setup_s``).
It submits the cold job and streams it over SSE (``first_row_s`` at the
first ``point`` event, the job time at ``done``), then submits distinct
fully cached jobs - proper axis subsets of the cold grid, so each is a
new job id whose points are all in the store - and stops the service.
Every cycle uses the run's seed: each cold job is cold because its
service is new.  The client holds at most two connections, one request
plus the SSE stream.  Every row is compared with
``repro.sim.sweep._run_point``, the service's declared oracle, run
in-process at the same seed after the traffic.  A launch that fails, a
call that errs or times out, and a row that differs are failed
operations; the run goes on with the next call or cycle.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceError
from repro.service.digest import SweepSpec
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.sweep import _run_point

from measure import (
    Checks, Outcome, SimTotals, captured_results, clock, median, peak_rss_mb,
    percentile, ratio,
)

SCHEMES = ("Baseline", "PRA", "SDS", "DBI+PRA")
WORKLOADS = ("mcf", "omnetpp", "libquantum", "MIX6")
LLC_BYTES = 512 * 1024
EVENTS = 1000
#: Fully cached jobs per cycle; with at least three cycles a run has the
#: 100 samples a p90 needs.
CACHED_JOBS = 40
MIN_CYCLES = 3
#: Bare launch-to-/healthz starts before each cycle's own launch: a
#: launch takes a fifth of a second, so one per cycle is too few
#: samples for a steady ``setup_s``.
LAUNCHES = 3
#: Two pools of one worker, never more workers than CPUs.
POOLS = max(1, min(2, os.cpu_count() or 1))
#: Seconds any one client call, start-up or shutdown may take.
TIMEOUT = 60.0
#: What a failed service operation raises on the client side.
CALL_ERRORS = (ServiceError, OSError, ValueError, KeyError)


def job_spec(seed: int, schemes: Tuple[str, ...] = SCHEMES,
             workloads: Tuple[str, ...] = WORKLOADS) -> Dict[str, Any]:
    return {
        "events_per_core": EVENTS,
        "seed": seed,
        "llc_bytes": LLC_BYTES,
        "axes": {"scheme": list(schemes), "workload": list(workloads)},
    }


def cached_specs(seed: int) -> List[Dict[str, Any]]:
    """Every proper axis subset of the cold grid, in a seeded order."""
    specs = []
    for s_mask in range(1, 1 << len(SCHEMES)):
        schemes = tuple(s for i, s in enumerate(SCHEMES) if s_mask >> i & 1)
        for w_mask in range(1, 1 << len(WORKLOADS)):
            loads = tuple(w for i, w in enumerate(WORKLOADS) if w_mask >> i & 1)
            if len(schemes) + len(loads) < len(SCHEMES) + len(WORKLOADS):
                specs.append(job_spec(seed, schemes, loads))
    random.Random(seed).shuffle(specs)
    return specs


class ServeProcess:
    """One ``repro serve`` in its own session and state directory."""

    def __init__(self, scratch: Path, src: Path) -> None:
        self.dir = tempfile.mkdtemp(prefix="service-", dir=scratch)
        self.port_file = os.path.join(self.dir, "port")
        self.log_path = os.path.join(self.dir, "serve.log")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            path for path in (str(src), env.get("PYTHONPATH")) if path
        )
        with open(self.log_path, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve",
                 "--dir", os.path.join(self.dir, "state"),
                 "--pools", str(POOLS), "--workers-per-pool", "1",
                 "--port-file", self.port_file],
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    def client(self) -> ServiceClient:
        """Wait until ``/healthz`` answers; return a client for it."""
        deadline = clock() + TIMEOUT
        while clock() < deadline:
            if self.proc.poll() is not None:
                with open(self.log_path, errors="replace") as log:
                    raise RuntimeError(
                        f"repro serve exited with code {self.proc.returncode}:\n"
                        + log.read()[-2000:]
                    )
            try:
                with open(self.port_file) as handle:
                    port = int(handle.read())
            except (OSError, ValueError):
                port = 0
            if port:
                client = ServiceClient(port=port, timeout=TIMEOUT)
                if client.healthy():
                    return client
            time.sleep(0.002)
        raise TimeoutError("repro serve did not answer /healthz")

    def stop(self) -> None:
        """SIGINT (the service joins its pools), then wait until nothing
        of its process group is left, and remove its directory."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=TIMEOUT)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        else:
            deadline = clock() + TIMEOUT
            while clock() < deadline:
                try:
                    os.killpg(self.proc.pid, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.01)
        shutil.rmtree(self.dir, ignore_errors=True)


class Service:
    """Service lifetimes: launch, cold job, cached jobs, shutdown."""

    name = "service"

    def __init__(self, seed: int, scratch: Path, src: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.src = src
        self.cold = job_spec(seed)
        self.cached = cached_specs(seed)[:CACHED_JOBS]
        self.points = len(SCHEMES) * len(WORKLOADS)
        #: (expected points, rows) JSON of every answered job -> times seen.
        self.seen: Counter = Counter()
        self.errors: List[str] = []
        self.job_points = 0
        self.store_points = 0
        #: Seconds from each launch to ``/healthz``.
        self.set_ups: List[float] = []
        #: Seconds from each cold job's submit to its first row and done.
        self.firsts: List[float] = []
        self.jobs: List[float] = []
        #: Round trips of the cached jobs.
        self.latencies: List[float] = []
        #: Work counts of the cold grid, from the oracle pass.
        self.grid = SimTotals()
        self._oracle: Optional[Dict[Tuple[str, str], dict]] = None

    # ------------------------------------------------------------------
    def launch(self) -> Tuple[ServeProcess, Optional[ServiceClient]]:
        """Start a service and wait for ``/healthz``; the client is None
        if it never answered (a failed operation)."""
        start = clock()
        serve = ServeProcess(self.scratch, self.src)
        try:
            client = serve.client()
        except (RuntimeError, TimeoutError) as exc:
            self.errors.append(f"launch: {exc!r}")
            return serve, None
        self.set_ups.append(clock() - start)
        return serve, client

    def cycle(self) -> Optional[Dict[str, int]]:
        """One service lifetime: cold job, cached jobs, shutdown.  Returns
        the ``/stats`` scheduler counters, or None if they were not read."""
        serve, client = self.launch()
        try:
            if client is None:
                return None
            self._cold(client)
            for spec in self.cached:
                self._cached(client, spec)
            try:
                stats: Dict[str, int] = client.stats()["scheduler"]
            except CALL_ERRORS as exc:
                self.errors.append(f"stats: {exc!r}")
                return None
            return stats
        finally:
            serve.stop()

    def _cold(self, client: ServiceClient) -> None:
        """Submit and stream the cold job."""
        first = done = None
        try:
            start = clock()
            status = client.submit(self.cold)
            for event in client.events(status["job_id"]):
                if event["kind"] == "point" and first is None:
                    first = clock() - start
                elif event["kind"] == "done":
                    done = clock() - start
                    if event["state"] != "done":
                        raise ValueError(f"cold job ended {event['state']}")
            if first is None or done is None:
                raise ValueError("event stream ended before the job was done")
            rows = client.rows(status["job_id"])
        except CALL_ERRORS as exc:
            self.errors.append(f"cold job: {exc!r}")
            return
        self.firsts.append(first)
        self.jobs.append(done)
        self._answered(self.cold, status, rows)

    def _cached(self, client: ServiceClient, spec: Dict[str, Any]) -> None:
        """One fully cached job, ``POST /sweeps`` plus ``GET /rows``."""
        try:
            start = clock()
            status = client.submit(spec)
            rows = client.rows(status["job_id"])
            elapsed = clock() - start
        except CALL_ERRORS as exc:
            self.errors.append(f"cached job: {exc!r}")
            return
        self.latencies.append(elapsed)
        self._answered(spec, status, rows)

    def _answered(self, spec: Dict[str, Any], status: Dict[str, Any],
                  rows: List[Dict[str, Any]]) -> None:
        self.job_points += status["total"]
        self.store_points += status["cached"]
        points = [[p["scheme"], p["workload"]]
                  for p in SweepSpec.from_payload(spec).points()]
        self.seen[json.dumps([points, rows], sort_keys=True)] += 1

    # ------------------------------------------------------------------
    def measure(self, seconds: float) -> Outcome:
        cycles = 0
        start = clock()
        while cycles < MIN_CYCLES or clock() - start < seconds:
            for _ in range(LAUNCHES):
                self.launch()[0].stop()
            self.cycle()
            cycles += 1
        rss = peak_rss_mb(children=True)
        checks = Checks()
        self.verify(checks)
        if not self.set_ups or not self.jobs or not self.latencies:
            raise RuntimeError(
                f"service answered too little to measure ({checks.failed} of "
                f"{checks.attempted} operations failed): " + "; ".join(checks.notes)
            )
        # Wall times as measured: a reference loop run in this process
        # between the calls did not track the service's own speed.
        setup = median(self.set_ups)
        job = median(self.jobs)
        metrics = {
            "setup_s": (setup, "s"),
            "points_per_s": (self.points / job, "points/s"),
            "peak_rss_mb": (rss, "MB"),
        }
        lines = [
            f"timed: {cycles} service lifetimes, {len(self.set_ups)} launches",
            f"job_s {job:.4f} s, first_row_s {median(self.firsts):.4f} s "
            f"(medians of {len(self.jobs)} cold jobs)",
            f"req_per_s {self.grid.served / job:.1f} req/s "
            "(the cold grid's DRAM requests per second of job time)",
            f"cached_p50_ms {1e3 * median(self.latencies):.3f} ms, "
            f"cached_p90_ms {1e3 * percentile(self.latencies, 90):.3f} ms "
            f"({len(self.latencies)} cached jobs)",
        ]
        return Outcome(metrics, checks, lines + self.report())

    def traced_work(self) -> Dict[str, int]:
        """Fixed work for a traced run: one service lifetime."""
        stats = self.cycle() or {}
        return {key: stats.get(key, 0)
                for key in ("computed", "pool_rebuilds", "worker_restarts")}

    # ------------------------------------------------------------------
    def oracle(self) -> Dict[Tuple[str, str], dict]:
        """``_run_point`` rows of the cold grid, keyed by point."""
        if self._oracle is None:
            spec = SweepSpec.from_payload(self.cold)
            ctx = spec.context()
            with captured_results() as results:
                rows = [_run_point(ctx, point) for point in spec.points()]
            for result in results:
                self.grid.add(result)
            self._oracle = {
                (row["scheme"], row["workload"]): json.loads(json.dumps(row))
                for row in rows
            }
        return self._oracle

    def verify(self, checks: Checks) -> None:
        """Every launch that answered counts as one operation; every
        answered job's rows are checked against the oracle, in grid order."""
        checks.record(True, "", len(self.set_ups))
        oracle = self.oracle()
        for output, count in self.seen.items():
            points, rows = json.loads(output)
            ok = [[row.get("scheme"), row.get("workload")] for row in rows] == points
            ok = ok and all(oracle.get((row["scheme"], row["workload"])) == row
                            for row in rows)
            checks.record(ok, "service rows differ from repro.sim.sweep._run_point", count)
        for error in self.errors:
            checks.record(False, error)

    def report(self) -> List[str]:
        self.oracle()
        spec = SweepSpec.from_payload(self.cold)
        fingerprints = len({spec.group_key(point) for point in spec.points()})
        return [
            f"traffic: DRAM write share {100 * self.grid.write_share:.1f}% "
            f"of the cold grid's {self.grid.served} requests",
            f"traffic: {fingerprints} warm fingerprints, "
            f"SNAPSHOTS.capacity {SNAPSHOTS.capacity}",
            f"traffic: 4 cores x {EVENTS} timed events per point",
            f"traffic: {100 * ratio(self.store_points, self.job_points):.1f}% of "
            f"{self.job_points} job points served from the store",
        ]
