"""Kill/resume: SIGKILL the live service mid-sweep, restart, resume.

The scenario the journal + content-addressed store exist for:

1. a real ``repro serve`` subprocess accepts a 6-point sweep over HTTP;
2. the whole process group is SIGKILLed after at least one point's
   result landed (no atexit, no flush — exactly a crash or OOM-kill);
3. a fresh service on the same directory replays the journal, resumes
   the job, and **computes only the points whose results are missing**
   (asserted via the per-job ``cached``/``computed`` counters of
   :mod:`repro.service.jobs` and the scheduler's ``computed`` total —
   not timing);
4. the merged rows are bit-identical to a serial in-process sweep.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest

from repro.service.client import ServiceClient
from repro.sim.sweep import Sweep

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: 3 schemes x 2 workloads; each point is slow enough (~0.5-2 s) that
#: the kill reliably lands mid-sweep on one worker.
SPEC = {
    "events_per_core": 4000,
    "seed": 5,
    "axes": {
        "scheme": ["Baseline", "PRA", "SDS"],
        "workload": ["GUPS", "mcf"],
    },
}
TOTAL = 6


def _serial_rows():
    sweep = Sweep(events_per_core=SPEC["events_per_core"], seed=SPEC["seed"])
    sweep.add_axis("scheme", SPEC["axes"]["scheme"])
    sweep.add_axis("workload", SPEC["axes"]["workload"])
    return sweep.run()


def _start_service(root, port_file):
    """Launch ``repro serve`` in its own session (killable as a group)."""
    if os.path.exists(port_file):
        os.unlink(port_file)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--dir", str(root),
         "--port", "0", "--port-file", str(port_file)],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        start_new_session=True,  # workers join the group -> killpg reaps all
    )


def _wait_for_port(port_file, proc, polls=1200):
    for _ in range(polls):
        if proc.poll() is not None:
            stderr = proc.stderr.read().decode() if proc.stderr else ""
            raise RuntimeError(f"service exited early:\n{stderr}")
        try:
            with open(port_file) as handle:
                text = handle.read().strip()
            if text:
                return int(text)
        except FileNotFoundError:
            pass
        time.sleep(0.05)
    raise TimeoutError("service never wrote its port file")


def _killpg(proc):
    try:
        os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def _stored_digests(root):
    results = os.path.join(str(root), "results")
    if not os.path.isdir(results):
        return set()
    return {name[:-5] for name in os.listdir(results) if name.endswith(".json")}


@pytest.mark.slow
def test_sigkill_mid_sweep_resumes_with_zero_recompute(tmp_path):
    root = tmp_path / "service"
    port_file = str(tmp_path / "port")

    # -- phase 1: submit, then SIGKILL the whole group mid-sweep -------
    first = _start_service(root, port_file)
    try:
        client = ServiceClient(port=_wait_for_port(port_file, first))
        submitted = client.submit(SPEC)
        job_id = submitted["job_id"]
        assert submitted["total"] == TOTAL
        for _ in range(1200):  # wait for >=1 durable result, then kill
            if len(_stored_digests(root)) >= 1:
                break
            assert first.poll() is None, "service died before the kill"
            time.sleep(0.05)
        else:
            pytest.fail("no point completed before the kill window")
    finally:
        _killpg(first)

    stored_at_kill = _stored_digests(root)
    assert 1 <= len(stored_at_kill) < TOTAL, (
        f"kill landed outside the sweep: {len(stored_at_kill)}/{TOTAL} stored"
    )
    assert set(submitted["points"]) >= stored_at_kill

    # -- phase 2: restart on the same directory, resume, finish -------
    second = _start_service(root, port_file)
    try:
        client = ServiceClient(port=_wait_for_port(port_file, second))
        # start() already replayed the journal; submitting the same
        # spec attaches to the one resumed content-addressed job.
        resumed = client.submit(SPEC)
        assert resumed["job_id"] == job_id
        final = client.wait(resumed["job_id"])
        assert final["state"] == "done"

        # Zero recomputation: every surviving result file was served
        # from the store; only the missing points were simulated.
        assert final["cached"] == len(stored_at_kill)
        assert final["computed"] == TOTAL - len(stored_at_kill)
        assert final["coalesced"] == 0
        stats = client.stats()
        assert stats["scheduler"]["computed"] == TOTAL - len(stored_at_kill)

        # Merged rows (cache + resumed compute) == serial oracle.
        assert client.rows(job_id) == _serial_rows()

        # The journal now records the job as done, once; the restart
        # appended no second job line.  A third start would register
        # the job as done and append nothing (test_service.py's
        # TestJobManager::test_restarts_leave_the_journal_unchanged).
        with open(os.path.join(str(root), "journal.jsonl")) as handle:
            entries = [json.loads(line) for line in handle if line.strip()]
        assert entries.count({"kind": "done", "job_id": job_id}) == 1
        assert [e["kind"] for e in entries].count("job") == 1
    finally:
        _killpg(second)
