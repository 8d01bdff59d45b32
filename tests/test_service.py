"""Sweep-service tests: digests, store, journal, scheduler, HTTP API.

The service's core promise is pinned here: rows served over HTTP —
computed on sharded pools, deduplicated against the content-addressed
store, coalesced across concurrent jobs — are **bit-identical** to
running the same grid serially in-process with
:class:`repro.sim.sweep.Sweep` (the declared oracle twin of
``repro.service.jobs``).  Around that sit unit tests for each layer:
canonical digests (the cache keys), the atomic result store, the
torn-tail-tolerant journal, and sticky warm-affinity placement.
"""

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import threading

import pytest

from repro.service.client import ServiceClient, ServiceError
from repro.service.digest import SweepSpec, canonical_json, spec_job_id
from repro.service.jobs import JobManager
from repro.service.journal import Journal
from repro.service.scheduler import PoolScheduler
from repro.service.server import ServiceServer
from repro.service.store import ResultStore
from repro.sim.sweep import Sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Small four-point grid (2 schemes x 2 workloads) used end-to-end.
EVENTS = 80
SEED = 3
SPEC = {
    "events_per_core": EVENTS,
    "seed": SEED,
    "axes": {"scheme": ["Baseline", "PRA"], "workload": ["GUPS", "mcf"]},
}


def serial_rows(spec_payload=None):
    """Oracle rows: the same grid via the in-process serial sweep."""
    payload = SPEC if spec_payload is None else spec_payload
    sweep = Sweep(events_per_core=payload["events_per_core"],
                  seed=payload["seed"])
    # Add axes in canonical (_KNOWN_AXES) order to match service grid
    # order: scheme before workload.
    for axis in ("scheme", "workload", "policy", "ecc_chips"):
        if axis in payload["axes"]:
            sweep.add_axis(axis, payload["axes"][axis])
    return sweep.run()


# ----------------------------------------------------------------------
# Digests: canonicalization, stability, validation.
# ----------------------------------------------------------------------
class TestDigests:
    def test_job_id_independent_of_key_order(self):
        shuffled = {
            "axes": {"workload": ["GUPS", "mcf"], "scheme": ["Baseline", "PRA"]},
            "seed": SEED,
            "events_per_core": EVENTS,
        }
        assert spec_job_id(SPEC) == spec_job_id(shuffled)

    def test_job_id_sensitive_to_content(self):
        other = dict(SPEC, seed=SEED + 1)
        assert spec_job_id(SPEC) != spec_job_id(other)

    def test_point_digests_are_stable_and_distinct(self):
        spec = SweepSpec.from_payload(SPEC)
        digests = [spec.point_digest(p) for p in spec.points()]
        assert len(set(digests)) == len(digests)
        again = SweepSpec.from_payload(SPEC)
        assert [again.point_digest(p) for p in again.points()] == digests
        for digest in digests:
            assert len(digest) == 64
            assert digest == digest.lower()

    def test_point_digest_shared_across_different_jobs(self):
        """Overlapping grids address identical points identically."""
        spec = SweepSpec.from_payload(SPEC)
        overlap = SweepSpec.from_payload(
            dict(SPEC, axes={"scheme": ["Baseline"], "workload": ["GUPS"]})
        )
        assert spec.job_id() != overlap.job_id()
        shared = {"scheme": "Baseline", "workload": "GUPS"}
        assert spec.point_digest(shared) == overlap.point_digest(shared)

    def test_canonical_json_is_canonical(self):
        assert canonical_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # no axes at all
            {"axes": {"scheme": ["Baseline"]}},  # workload axis missing
            {"axes": {"workload": ["GUPS", "GUPS"]}},  # duplicate value
            {"axes": {"workload": ["GUPS"], "voltage": [1]}},  # unknown axis
            {"axes": {"workload": ["no-such-workload"]}},
            {"axes": {"workload": ["GUPS"], "scheme": ["NotAScheme"]}},
            {"axes": {"workload": ["GUPS"]}, "events_per_core": 0},
            {"axes": {"workload": ["GUPS"]}, "frobnicate": 1},
            # Not a whole number of 8-way, 64 B sets.
            {"axes": {"workload": ["GUPS"]}, "llc_bytes": 1000},
            {"axes": {"workload": ["GUPS"], "ecc_chips": [-8]}},
            # Distinct by repr, but neither 0.5 nor "0" nor True is a
            # chip count: no coercion may fold them into ecc_chips=0.
            {"axes": {"workload": ["GUPS"], "ecc_chips": [0, 0.5, "0"]}},
            {"axes": {"workload": ["GUPS"], "ecc_chips": [True]}},
        ],
    )
    def test_invalid_specs_fail_at_submit(self, payload):
        with pytest.raises(ValueError):
            SweepSpec.from_payload(payload)

    def test_zero_warmup_round_trips(self):
        """0 skips warmup, as it does for System and Sweep; None is the
        per-workload default, so the two are different jobs."""
        spec = SweepSpec.from_payload(dict(SPEC, warmup_events_per_core=0))
        assert spec.warmup_events_per_core == 0
        assert spec.canonical()["warmup_events_per_core"] == 0
        again = SweepSpec.from_payload(spec.canonical())
        assert again == spec
        assert again.job_id() == spec.job_id()
        assert spec.job_id() != SweepSpec.from_payload(SPEC).job_id()
        for bad in (-1, True, 1.5, "0"):
            with pytest.raises(ValueError):
                SweepSpec.from_payload(dict(SPEC, warmup_events_per_core=bad))

    def test_grid_order_is_canonical_axis_order(self):
        spec = SweepSpec.from_payload(SPEC)
        points = spec.points()
        assert points[0] == {"scheme": "Baseline", "workload": "GUPS"}
        assert points[-1] == {"scheme": "PRA", "workload": "mcf"}

    def test_smoke_spec_cache_keys_are_pinned(self):
        """The CI smoke spec's job id and point digests, as literals.

        These are the service store's on-disk cache keys: a refactor of
        the sweep helpers that moves any of them orphans every stored
        row, so they must only change together with ``SPEC_FORMAT`` or
        ``POINT_FORMAT``.
        """
        spec = SweepSpec.from_payload({
            "events_per_core": 100,
            "warmup_events_per_core": 2000,
            "axes": {"scheme": ["Baseline", "PRA"], "workload": ["GUPS", "MIX1"]},
        })
        assert spec.job_id() == (
            "e9ad59725a20a7b60c00fe71bc9f8b8670d90513ea843c6c6729092585c95d28"
        )
        assert [spec.point_digest(p) for p in spec.points()] == [
            "42a84d4bbc4e936f449ca130ba9cd4cf41349fe16c199ee49659d1eacf844caa",
            "dfdf82652e5ca6b43bce355a65af738fd7020c17255281cd7baf63ef6803e628",
            "c39452ad39888a2739d9a669850cc6488ba5a84a8a7e6f339f0f532bd2c757c4",
            "34b25fbbb5daf0c46b1216e7ba489953f3a13c1e8e7dc04f080c11bbf448d2e6",
        ]


# ----------------------------------------------------------------------
# Result store: atomic, content-addressed, picky about keys.
# ----------------------------------------------------------------------
class TestResultStore:
    DIGEST = "ab" * 32

    def test_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "results"))
        assert not store.has(self.DIGEST)
        assert store.get(self.DIGEST) is None
        row = {"scheme": "PRA", "energy": 12.5}
        store.put(self.DIGEST, row)
        assert store.has(self.DIGEST)
        assert store.get(self.DIGEST) == row
        assert store.digests() == [self.DIGEST]
        assert len(store) == 1

    def test_malformed_digest_rejected(self, tmp_path):
        store = ResultStore(str(tmp_path))
        for bad in ("", "abc", "../../etc/passwd", "AB" * 32, "zz" * 32):
            with pytest.raises(ValueError):
                store.get(bad)

    def test_no_partial_files_linger(self, tmp_path):
        store = ResultStore(str(tmp_path))
        store.put(self.DIGEST, {"x": 1})
        assert os.listdir(str(tmp_path)) == [self.DIGEST + ".json"]

    def test_unserializable_row_leaves_no_trace(self, tmp_path):
        store = ResultStore(str(tmp_path))
        with pytest.raises(TypeError):
            store.put(self.DIGEST, {"bad": object()})
        assert not store.has(self.DIGEST)
        assert [n for n in os.listdir(str(tmp_path)) if n.endswith(".tmp")] == []


# ----------------------------------------------------------------------
# Journal: replay, torn tails, no timestamps.
# ----------------------------------------------------------------------
class TestJournal:
    def test_replay_roundtrip(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.record_job("job-a", {"axes": {"workload": ["GUPS"]}})
            journal.record_point("d1" * 32)
            journal.record_point("d2" * 32)
            journal.record_done("job-a")
        state = Journal(path).replay()
        assert list(state.jobs) == ["job-a"]
        assert state.jobs["job-a"] == {"axes": {"workload": ["GUPS"]}}
        assert state.completed == {"d1" * 32, "d2" * 32}
        assert state.done_jobs == {"job-a"}

    def test_missing_file_replays_empty(self, tmp_path):
        state = Journal(str(tmp_path / "absent.jsonl")).replay()
        assert state.jobs == {} and state.completed == set()

    def test_torn_tail_is_skipped(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.record_job("job-a", {})
            journal.record_point("d1" * 32)
        with open(path, "a") as handle:
            handle.write('{"kind": "point", "digest": "d2')  # SIGKILL here
        state = Journal(path).replay()
        assert state.completed == {"d1" * 32}
        assert list(state.jobs) == ["job-a"]

    def test_lines_carry_no_timestamps(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        with Journal(path) as journal:
            journal.record_job("job-a", {"seed": 1})
            journal.record_point("d1" * 32)
            journal.record_done("job-a")
        with open(path) as handle:
            for line in handle:
                entry = json.loads(line)
                assert set(entry) <= {"kind", "job_id", "spec", "digest"}


# ----------------------------------------------------------------------
# Scheduler placement: sticky warm affinity, least-loaded spill.
# ----------------------------------------------------------------------
class TestPlacement:
    def test_sticky_affinity(self):
        sched = PoolScheduler(pools=3)
        first = sched._place("fp-a")
        sched.assigned[first] += 1
        assert sched._place("fp-a") == first  # sticky forever
        second = sched._place("fp-b")
        assert second != first  # least-loaded gets the new fingerprint
        sched.assigned[second] += 1
        third = sched._place("fp-c")
        assert third not in (first, second)

    def test_single_pool_takes_everything(self):
        sched = PoolScheduler(pools=1)
        assert {sched._place(f"fp-{i}") for i in range(5)} == {0}

    def test_pools_must_be_positive(self):
        with pytest.raises(ValueError):
            PoolScheduler(pools=0)


# ----------------------------------------------------------------------
# JobManager: dedup triage (cached / coalesced / computed) and resume.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def manager_loop(root, **kwargs):
    """A started JobManager driven by a private event loop."""
    loop = asyncio.new_event_loop()
    manager = JobManager(str(root), **kwargs)
    loop.run_until_complete(manager.start())
    try:
        yield manager, loop
    finally:
        loop.run_until_complete(manager.close())
        loop.close()


class TestJobManager:
    def test_fresh_grid_is_all_computed(self, tmp_path):
        with manager_loop(tmp_path, pools=2) as (manager, loop):
            status = loop.run_until_complete(manager.submit(SPEC))
            assert (status.cached, status.coalesced, status.computed) == (0, 0, 4)
            final = loop.run_until_complete(manager.wait(status.job_id))
            assert final.state == "done"
            assert manager.rows(status.job_id) == serial_rows()
            assert manager.scheduler.computed == 4
            # Resubmitting lands on the same (finished) job object.
            again = loop.run_until_complete(manager.submit(SPEC))
            assert again.job_id == status.job_id
            assert again.state == "done"

    def test_restarted_manager_serves_from_store(self, tmp_path):
        """A new manager on the same root recomputes nothing."""
        with manager_loop(tmp_path) as (manager, loop):
            status = loop.run_until_complete(manager.submit(SPEC))
            loop.run_until_complete(manager.wait(status.job_id))
            rows_before = manager.rows(status.job_id)
        with manager_loop(tmp_path) as (manager, loop):
            # start() already replayed the journal and resumed the job.
            status = loop.run_until_complete(manager.submit(SPEC))
            assert status.state == "done"
            assert (status.cached, status.computed) == (4, 0)
            assert manager.scheduler.computed == 0
            assert manager.rows(status.job_id) == rows_before

    def test_overlapping_job_computes_only_novel_points(self, tmp_path):
        overlap = dict(
            SPEC,
            axes={"scheme": ["Baseline", "PRA"],
                  "workload": ["GUPS", "mcf", "MIX1"]},
        )
        with manager_loop(tmp_path, pools=2) as (manager, loop):
            first = loop.run_until_complete(manager.submit(SPEC))
            loop.run_until_complete(manager.wait(first.job_id))
            second = loop.run_until_complete(manager.submit(overlap))
            assert (second.cached, second.computed) == (4, 2)
            final = loop.run_until_complete(manager.wait(second.job_id))
            assert final.state == "done"
            assert manager.rows(second.job_id) == serial_rows(overlap)
            assert manager.scheduler.computed == 6  # 4 + 2 novel

    def test_concurrent_jobs_coalesce_inflight_points(self, tmp_path):
        """The second job subscribes to points the first is computing."""
        overlap = dict(
            SPEC,
            axes={"scheme": ["Baseline", "PRA"],
                  "workload": ["GUPS", "mcf", "MIX1"]},
        )

        async def race(manager):
            first = await manager.submit(SPEC)
            second = await manager.submit(overlap)
            await manager.wait(first.job_id)
            final = await manager.wait(second.job_id)
            return first, second, final

        with manager_loop(tmp_path, pools=2) as (manager, loop):
            first, second, final = loop.run_until_complete(race(manager))
            assert first.computed == 4
            # All four shared points were in flight when job two arrived.
            assert (second.coalesced, second.computed) == (4, 2)
            assert final.state == "done"
            assert manager.rows(second.job_id) == serial_rows(overlap)
            assert manager.scheduler.computed == 6  # nothing twice

    def test_events_feed_replays_and_terminates(self, tmp_path):
        async def collect(manager, job_id):
            events = []
            async for event in manager.events(job_id):
                events.append(event)
            return events

        with manager_loop(tmp_path) as (manager, loop):
            status = loop.run_until_complete(manager.submit(SPEC))
            loop.run_until_complete(manager.wait(status.job_id))
            events = loop.run_until_complete(collect(manager, status.job_id))
            assert [e["kind"] for e in events] == ["point"] * 4 + ["done"]
            assert sorted(e["index"] for e in events[:-1]) == [0, 1, 2, 3]
            assert {e["digest"] for e in events[:-1]} == set(status.points)

    def test_bad_spec_rejected_before_any_state(self, tmp_path):
        with manager_loop(tmp_path) as (manager, loop):
            with pytest.raises(ValueError):
                loop.run_until_complete(
                    manager.submit({"axes": {"workload": ["nope"]}})
                )
            assert manager.stats()["jobs"] == 0


# ----------------------------------------------------------------------
# HTTP end-to-end: the service behind a real socket.
# ----------------------------------------------------------------------
@contextlib.contextmanager
def running_service(root, pools=1, workers_per_pool=1):
    """A live ServiceServer on an ephemeral port, in a daemon thread."""
    loop = asyncio.new_event_loop()
    manager = JobManager(str(root), pools=pools,
                         workers_per_pool=workers_per_pool)
    server = ServiceServer(manager, port=0)
    started = threading.Event()

    def run():
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(30), "service failed to start"
    try:
        yield ServiceClient(port=server.port)
    finally:
        future = asyncio.run_coroutine_threadsafe(server.close(), loop)
        future.result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()


class TestHTTPService:
    def test_end_to_end_rows_match_serial_sweep(self, tmp_path):
        with running_service(tmp_path, pools=2) as client:
            assert client.healthy()
            status = client.submit(SPEC)
            assert status["state"] == "running"
            assert status["computed"] == 4
            final = client.wait(status["job_id"])
            assert final["state"] == "done"
            rows = client.rows(status["job_id"])
            assert rows == serial_rows()  # bit-identical to the oracle
            # Every point row is individually addressable by digest.
            for digest, row in zip(status["points"], rows):
                assert client.result(digest) == row
            # Resubmission is idempotent: same job, already done.
            again = client.submit(SPEC)
            assert again["job_id"] == status["job_id"]
            assert again["state"] == "done"
            stats = client.stats()
            assert stats["stored"] == 4
            assert stats["scheduler"]["computed"] == 4
            assert sum(stats["scheduler"]["assigned"]) == 4

    def test_sse_stream_carries_rows(self, tmp_path):
        with running_service(tmp_path) as client:
            status = client.submit(SPEC)
            events = list(client.events(status["job_id"]))
            assert events[-1]["kind"] == "done"
            points = [e for e in events if e["kind"] == "point"]
            assert len(points) == 4
            rows_by_index = {e["index"]: e["row"] for e in points}
            serial = serial_rows()
            for index, row in rows_by_index.items():
                assert row == serial[index]

    def test_error_surfaces(self, tmp_path):
        with running_service(tmp_path) as client:
            with pytest.raises(ServiceError) as excinfo:
                client.submit({"axes": {"workload": ["no-such-workload"]}})
            assert excinfo.value.status == 400
            with pytest.raises(ServiceError) as excinfo:
                client.status("not-a-job")
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client.result("ff" * 32)
            assert excinfo.value.status == 404
            with pytest.raises(ServiceError) as excinfo:
                client.result("not-a-digest")
            assert excinfo.value.status == 400

    def test_cli_submit_reports_a_rejected_spec(self, tmp_path):
        """``repro submit`` reports a spec the service rejects (400) as
        one ``error:`` line and a non-zero exit, not a traceback."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        with running_service(tmp_path) as client:
            result = subprocess.run(
                [sys.executable, "-m", "repro", "submit",
                 "--port", str(client.port), "--workloads", "GUPS",
                 "--llc-bytes", "1000"],
                capture_output=True, text=True, env=env, timeout=120,
            )
        assert result.returncode != 0
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr


# ----------------------------------------------------------------------
# Registry hygiene: the service's digest modules are lint-armed.
# ----------------------------------------------------------------------
def test_service_modules_are_registered_for_lint():
    from repro.analysis.registry import (
        DIGEST_MODULE_PATHS,
        FAST_PATH_MODULES,
        is_digest_module,
    )

    assert "src/repro/service/jobs.py" in FAST_PATH_MODULES
    assert "src/repro/service/digest.py" in DIGEST_MODULE_PATHS
    assert is_digest_module("src/repro/service/digest.py", "")
    assert is_digest_module("anything.py", "# reprolint: digest\n")
    assert not is_digest_module("src/repro/sim/pool.py", "")
