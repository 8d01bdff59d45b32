"""Warm-state snapshot cache: warm the hierarchy once, restore copy-on-write.

Every :class:`~repro.sim.system.System` replays roughly 4x the LLC
line count through the cache hierarchy before timing even starts, and
a sweep builds one System per grid point — so the second and every
later scheme of the same (workload, seed, cache geometry) repeats a
warmup whose outcome is already known.  This module snapshots the
post-warmup state into a compact picklable form and restores it
copy-on-write:

* **fingerprint** — :func:`warm_fingerprint` hashes exactly the
  configuration bits warmup depends on: the workload's profiles, the
  resolved seed, the warmup length, the cache geometry, and (only for
  DBI schemes) the address-mapping bits that shape the DBI's row keys.
  Everything else — scheme timing flags, policy, ECC chips — cannot
  influence warm state, so Baseline/PRA/SDS/... of one grid column all
  share a single snapshot;
* **payload** — :class:`WarmSnapshot` holds the array-backed caches'
  exported state (tag dicts + flat int arrays), plus the DBI registry.
  A restore copies the flat arrays and shares the per-set tag dicts
  and DBI row tuples with the snapshot until the restored System first
  writes each one (:func:`restore_warm_state`).  It is
  bit-identical to re-running warmup, which stays the oracle, because
  dict insertion order travels with the shared dicts;
* **layers** — an in-process LRU (:data:`SNAPSHOTS`) serves repeated
  Systems in one process; an opt-in disk layer (``snapshot_dir=`` or
  the ``REPRO_SNAPSHOT_DIR`` environment variable) lets sweep
  worker processes and repeated benchmark invocations reuse warm state
  across process boundaries.  Disk writes are atomic (temp file +
  rename), so racing workers at worst both compute the same snapshot.
  Each file is a short header, the sha256 of the pickled payload, then
  the payload; a file that fails the check (bit rot, truncation, the
  header of an older payload layout, or none) is never unpickled and
  counts as a miss under :attr:`SnapshotCache.corrupt`.

Trace position needs no snapshotting on the fast path: the precompiled
trace blocks (:mod:`repro.workloads.synthetic`) are indexable, so the
timed run simply starts at index ``warmup_events_per_core``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from collections import OrderedDict
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:
    from repro.cache.hierarchy import CacheHierarchy
    from repro.sim.config import SystemConfig
    from repro.workloads.mixes import Workload

#: Exported DBI registry: row id -> sorted dirty line tuple.
DbiRows = Optional[Dict[int, Tuple[int, ...]]]

#: Warm-state marker, hashed into every warm fingerprint and so into
#: every service point digest: bump it only when warmup semantics
#: change (one fingerprint would warm to a different state).  A new
#: payload layout alone bumps :data:`_DISK_MAGIC` instead.
#: v2: snapshots may carry a capture-time state digest (sanitizer).
_FORMAT = "warm-v2"

#: First bytes of an on-disk snapshot; the payload's raw sha256 follows.
#: Bump it whenever the pickled payload's layout changes (e.g. the
#: fields of a cache export), so an older file is a counted miss rather
#: than a payload that passes its digest check and then fails to
#: restore.  v2: a cache export no longer carries per-set free stacks.
#: v3: DBI rows are keyed by ``AddressMapper.line_row_id`` ints, not
#: ``(channel, rank, bank, row)`` tuples.
_DISK_MAGIC = b"repro-warmsnap-v3 sha256\n"
_DIGEST_BYTES = hashlib.sha256().digest_size

# Oracle-parity declaration enforced by reprolint: restoring a warm
# snapshot is the fast path; a cold warmup through the hierarchy
# (``System._warm_caches`` / ``CacheHierarchy.warm_block``) is the
# oracle it must match bit-for-bit.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.sim.system.System._warm_caches"
ORACLE_TESTS = ("tests/test_engine_equivalence.py",)


class WarmSnapshot:
    """Post-warmup hierarchy state in compact picklable form."""

    __slots__ = ("l2", "l1s", "dbi_rows", "digest")

    def __init__(
        self,
        l2: tuple,
        l1s: Optional[List[tuple]],
        dbi_rows: DbiRows,
        digest: Optional[str] = None,
    ) -> None:
        """Bundle exported cache states plus the DBI registry.

        ``digest`` is the optional capture-time state hash the runtime
        sanitizer (:mod:`repro.sim.sanitize`) verifies restores
        against; plain runs skip computing it.
        """
        self.l2 = l2
        self.l1s = l1s
        self.dbi_rows = dbi_rows
        self.digest = digest


def _export(hierarchy: "CacheHierarchy") -> tuple:
    """(l2, l1s, dbi_rows) export of a hierarchy's warm state."""
    l1s = None
    if hierarchy.l1s is not None:
        l1s = [l1.export_state() for l1 in hierarchy.l1s]
    dbi_rows = None
    if hierarchy.dbi is not None:
        dbi_rows = hierarchy.dbi.export_rows()
    return hierarchy.l2.export_state(), l1s, dbi_rows


def state_digest(hierarchy: "CacheHierarchy") -> str:
    """SHA-256 over a hierarchy's exported warm state.

    Pickle of the export is deterministic for identical state
    (insertion order of the tag dicts is part of the export), so equal
    digests mean bit-identical cache contents.
    """
    exported = _export(hierarchy)
    return hashlib.sha256(
        pickle.dumps(exported, protocol=pickle.HIGHEST_PROTOCOL)
    ).hexdigest()


def default_warmup(config: "SystemConfig", workload: "Workload") -> int:
    """Warmup length :class:`~repro.sim.system.System` uses by default.

    4x the LLC line count, split across the cores: random placement
    needs the extra margin to fill (nearly) every set to steady state.
    Centralized here so the sweep scheduler's fingerprint grouping
    resolves the same warmup length the System will.
    """
    llc_lines = config.cache.llc_bytes // 64
    return (4 * llc_lines) // max(1, workload.num_cores)


def warm_fingerprint(
    config: "SystemConfig",
    workload: "Workload",
    seed: int,
    warmup_events_per_core: int,
) -> tuple:
    """Hashable identity of everything that shapes warm cache state.

    Deliberately *excludes* scheme timing/power flags, row policy and
    ECC: warmup only exercises the cache hierarchy and the trace
    generators, so schemes differing only in DRAM behaviour share one
    snapshot.  The DBI is the exception — its row keys come from the
    address mapper — so DBI schemes key on geometry + interleaving too.
    """
    cache = config.cache
    cache_key = (
        cache.llc_bytes,
        cache.llc_ways,
        cache.use_l1,
        cache.l1_bytes if cache.use_l1 else 0,
        cache.l1_ways if cache.use_l1 else 0,
    )
    dbi_key = None
    if config.scheme.dbi:
        dbi_key = (
            cache.dbi_max_writebacks,
            config.geometry,
            config.effective_interleaving,
        )
    return (
        _FORMAT,
        workload.name,
        tuple(workload.apps),
        seed,
        warmup_events_per_core,
        cache_key,
        dbi_key,
    )


def resolve_fingerprint(
    config: "SystemConfig",
    workload: "Workload",
    seed: int,
    warmup_events_per_core: Optional[int] = None,
) -> tuple:
    """:func:`warm_fingerprint` with the default warmup resolved.

    The sweep scheduler, the pool and the sweep service all group
    work by warm fingerprint before a :class:`System` exists;
    this helper resolves ``warmup_events_per_core=None`` to the same
    default the System will use, so every layer lands on the identical
    grouping key.
    """
    if warmup_events_per_core is None:
        warmup_events_per_core = default_warmup(config, workload)
    return warm_fingerprint(config, workload, seed, warmup_events_per_core)


def fingerprint_digest(key: tuple) -> str:
    """Stable hex digest of a fingerprint key, identical across processes.

    ``repr`` of the key is deterministic (plain ints/strings/floats/
    frozen dataclasses; never ``hash()``, which varies per process under
    hash randomization), so the digest is a valid cross-process cache
    address.  Used for the snapshot disk layer's file names and as the
    warm-affinity component of the sweep service's point digests.
    """
    return hashlib.sha256(repr(key).encode()).hexdigest()


def capture_warm_state(
    hierarchy: "CacheHierarchy", with_digest: bool = False
) -> WarmSnapshot:
    """Export a just-warmed hierarchy into a :class:`WarmSnapshot`.

    ``with_digest`` also stamps the state hash that sanitized runs
    verify restores against (skipped by default: hashing the whole LLC
    export is pure overhead when nothing will check it).
    """
    l2, l1s, dbi_rows = _export(hierarchy)
    digest = None
    if with_digest:
        digest = hashlib.sha256(
            pickle.dumps((l2, l1s, dbi_rows), protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
    return WarmSnapshot(l2, l1s, dbi_rows, digest)


def restore_warm_state(hierarchy: "CacheHierarchy", snapshot: WarmSnapshot) -> None:
    """Restore a snapshot, copy-on-write, into a freshly built hierarchy.

    The flat cache arrays are copied; per-set tag dicts and DBI rows
    stay shared with the snapshot until the restored System first
    mutates each one, so every System restoring one
    snapshot pays the per-set copies only for the sets it touches.
    The snapshot is only read while shared, so it stays pristine in
    the cache, and the restored System evolves exactly as a cold
    warmup (the oracle) would.
    """
    hierarchy.l2.restore_state(snapshot.l2)
    if snapshot.l1s is not None:
        if hierarchy.l1s is None or len(hierarchy.l1s) != len(snapshot.l1s):
            raise ValueError("snapshot L1 layout does not match this hierarchy")
        for l1, state in zip(hierarchy.l1s, snapshot.l1s):
            l1.restore_state(state)
    if snapshot.dbi_rows is not None:
        if hierarchy.dbi is None:
            raise ValueError("snapshot carries DBI state but hierarchy has none")
        hierarchy.dbi.restore_rows(snapshot.dbi_rows)


#: Snapshots the in-process LRU holds before the least recently used
#: one is dropped (read as ``SNAPSHOTS.capacity``).
SNAPSHOT_CAPACITY = 8


class SnapshotCache:
    """Two-layer snapshot store: in-process LRU plus optional disk.

    The memory layer serves repeated Systems inside one process (the
    common sweep/benchmark case).  The disk layer — enabled per
    call by passing ``disk_dir`` — extends reuse across worker
    processes and interpreter invocations.  ``corrupt`` counts disk
    files that failed their digest check or could not be loaded; each
    is also a miss, and the next store of its key overwrites it.
    """

    capacity = SNAPSHOT_CAPACITY

    def __init__(self) -> None:
        self._mem: "OrderedDict[tuple, WarmSnapshot]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    # ------------------------------------------------------------------
    @staticmethod
    def _disk_path(disk_dir: str, key: tuple) -> str:
        """Stable per-fingerprint file path under ``disk_dir``.

        ``repr`` of the key is deterministic across processes (plain
        ints/strings/floats/frozen dataclasses), unlike ``hash()``.
        """
        return os.path.join(disk_dir, f"{fingerprint_digest(key)}.warmsnap")

    # ------------------------------------------------------------------
    def lookup(
        self, key: tuple, disk_dir: Optional[str] = None
    ) -> Optional[WarmSnapshot]:
        """Fetch a snapshot from memory, falling back to disk."""
        snapshot = self._mem.get(key)
        if snapshot is not None:
            self._mem.move_to_end(key)
            self.hits += 1
            return snapshot
        if disk_dir:
            snapshot = self._load(self._disk_path(disk_dir, key))
            if snapshot is not None:
                self._insert(key, snapshot)
                self.hits += 1
                return snapshot
        self.misses += 1
        return None

    def _load(self, path: str) -> Optional[WarmSnapshot]:
        """Read one disk snapshot; ``None`` if absent or corrupt.

        The payload is unpickled only once its digest matches, so a
        flipped bit or a truncated file can neither raise out of
        ``System()`` nor restore an altered state.
        """
        try:
            with open(path, "rb") as handle:
                blob = handle.read()
        except OSError:
            return None
        start = len(_DISK_MAGIC) + _DIGEST_BYTES
        payload = blob[start:]
        if (
            blob.startswith(_DISK_MAGIC)
            and hashlib.sha256(payload).digest() == blob[len(_DISK_MAGIC):start]
        ):
            try:
                snapshot = pickle.loads(payload)
            except Exception:  # noqa: BLE001 - any load error is a miss
                snapshot = None
            if isinstance(snapshot, WarmSnapshot):
                return snapshot
        self.corrupt += 1
        return None

    def store(
        self, key: tuple, snapshot: WarmSnapshot, disk_dir: Optional[str] = None
    ) -> None:
        """Insert a snapshot into memory and (optionally) onto disk."""
        self._insert(key, snapshot)
        if not disk_dir:
            return
        payload = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
        # The disk layer is best-effort: on any OSError the warm state
        # stays in memory, and no temp file is left behind.
        try:
            os.makedirs(disk_dir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=disk_dir, suffix=".tmp")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_DISK_MAGIC)
                handle.write(hashlib.sha256(payload).digest())
                handle.write(payload)
            os.replace(tmp, self._disk_path(disk_dir, key))
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def _insert(self, key: tuple, snapshot: WarmSnapshot) -> None:
        """LRU insert into the memory layer."""
        self._mem[key] = snapshot
        self._mem.move_to_end(key)
        while len(self._mem) > self.capacity:
            self._mem.popitem(last=False)

    def clear(self) -> None:
        """Drop the memory layer (tests; disk files are left alone)."""
        self._mem.clear()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def __len__(self) -> int:
        """Snapshots currently held in memory."""
        return len(self._mem)


#: Process-wide snapshot cache used by :class:`~repro.sim.system.System`.
SNAPSHOTS = SnapshotCache()


def snapshot_disk_dir(explicit: Optional[str]) -> Optional[str]:
    """Resolve the disk layer: explicit argument, else environment."""
    if explicit:
        return explicit
    return os.environ.get("REPRO_SNAPSHOT_DIR") or None
