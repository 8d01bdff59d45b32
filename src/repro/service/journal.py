"""Append-only JSONL job journal: what was asked, what finished.

The journal makes the service killable: every accepted job and every
finished job appends one line, flushed immediately, so a service
SIGKILLed mid-sweep can replay the file on startup and resume each
incomplete job.  Which points remain is not journaled: the result
store is the record of finished points (a point's row is written
there atomically), so a resumed job computes exactly the points whose
result files are missing.  Two line kinds:

* ``{"kind": "job", "job_id": ..., "spec": {...}}`` — a job was
  accepted (spec is the canonical form, so replay re-derives the same
  point digests);
* ``{"kind": "done", "job_id": ...}`` — every point of the job was
  complete at write time.

Journals written before points were left to the store also hold
``{"kind": "point", "digest": ...}`` lines; replay skips them, as it
skips any kind it does not know.

Lines carry no timestamps or host identity: replaying a journal is a
pure function of its contents, and journals produced by identical
request sequences are byte-identical (modulo OS write interleaving of
concurrent jobs).  Truncated final lines (the SIGKILL case) are
skipped on replay.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Set, TextIO


@dataclass
class JournalState:
    """Replayed journal contents."""

    #: job_id -> canonical spec dict, in first-seen order.
    jobs: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Jobs that reached their "done" line.
    done_jobs: Set[str] = field(default_factory=set)


class Journal:
    """One append-only JSONL file; safe to replay after SIGKILL."""

    def __init__(self, path: str) -> None:
        self.path = path
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._handle: Optional[TextIO] = None

    # ------------------------------------------------------------------
    def replay(self) -> JournalState:
        """Parse the journal; tolerant of a torn final line."""
        state = JournalState()
        try:
            with open(self.path) as handle:
                lines = handle.readlines()
        except FileNotFoundError:
            return state
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail from a kill mid-append
            kind = entry.get("kind")
            if kind == "job":
                state.jobs[entry["job_id"]] = entry["spec"]
            elif kind == "done":
                state.done_jobs.add(entry["job_id"])
        return state

    # ------------------------------------------------------------------
    def _append(self, entry: Dict[str, Any]) -> None:
        if self._handle is None:
            self._handle = open(self.path, "a")
        self._handle.write(json.dumps(entry, sort_keys=True) + "\n")
        self._handle.flush()

    def record_job(self, job_id: str, spec: Dict[str, Any]) -> None:
        self._append({"kind": "job", "job_id": job_id, "spec": spec})

    def record_done(self, job_id: str) -> None:
        self._append({"kind": "done", "job_id": job_id})

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
