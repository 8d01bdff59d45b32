"""Event engine vs. strict-polling oracle: bit-identical results.

``System.run`` drives the simulation off a min-heap of controller
next-wake cycles (the hint contract); ``strict_polling=True`` selects
the reference loop that re-scans every channel each iteration.  The two
must agree *exactly* — same served counts, same runtime cycles, same
energy — on every scheme/workload/seed.  Any divergence means a hint
was later than a true ready cycle (a scheduling event was skipped).

The pooled sweep path carries the same obligation: a
:class:`~repro.sim.pool.SimPool` must reproduce the serial rows bit
for bit.  So does the front-end fast path: precompiled trace blocks
and warm-state snapshot restore must yield results bit-identical to
per-event generation plus replayed warmup.

Both loops drive the same hot-path modules — the FR-FCFS controller
(``repro.controller.memctrl``), the array-backed cache
(``repro.cache.set_assoc``), the SoA timing core and the ranks — so
these tests double as the oracle pin for the controller's and the
cache's fast paths (their ``ORACLE_TESTS`` declarations name this
file).  Their results are also pinned to the bit by the golden digests
in ``tests/test_engine_identity.py``.
"""

import errno
import glob
import hashlib
import os
import pickle

import pytest

from repro.core.schemes import BASELINE, DBI_PRA, PRA, SDS
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.pool import SimPool
from repro.sim.snapshot import _DISK_MAGIC, SNAPSHOTS, WarmSnapshot
from repro.sim.sweep import Sweep
from repro.sim.system import System
from repro.workloads.mixes import workload

EVENTS = 600
WARMUP = 2000


def _build(scheme, workload_name, seed, **kwargs):
    config = SystemConfig(scheme=scheme, cache=CacheConfig(llc_bytes=256 * 1024))
    return System(
        config,
        workload(workload_name),
        EVENTS,
        seed=seed,
        warmup_events_per_core=WARMUP,
        **kwargs,
    )


def _fingerprint(result):
    """Everything a run reports, for bit-identity comparisons."""
    return (
        result.summary(),
        result.runtime_cycles,
        result.controller.total_served,
        [c.ipc for c in result.cores],
    )


@pytest.mark.parametrize("scheme", [BASELINE, PRA], ids=lambda s: s.name)
@pytest.mark.parametrize("workload_name", ["GUPS", "MIX2"])
@pytest.mark.parametrize("seed", [1, 42])
def test_event_engine_matches_polling_oracle(scheme, workload_name, seed):
    event = _build(scheme, workload_name, seed).run()
    polled = _build(scheme, workload_name, seed).run(strict_polling=True)
    assert event.summary() == polled.summary()
    assert event.controller.total_served == polled.controller.total_served
    assert event.runtime_cycles == polled.runtime_cycles
    assert [c.ipc for c in event.cores] == [c.ipc for c in polled.cores]


@pytest.mark.parametrize("seed", [1, 7])
def test_streak_heavy_workload_matches_polling_oracle(seed):
    """Burst-streak commits must be invisible to the oracle.

    libquantum's sequential read stream (mean run length 96 lines)
    piles row hits onto every open row, so the event engine serves
    nearly everything through multi-command streaks.  The strict
    polling loop must still see identical results: a streak is only a
    batched commit of commands the per-cycle scheduler would have
    issued at exactly the same cycles.
    """
    event = _build(PRA, "libquantum", seed).run()
    polled = _build(PRA, "libquantum", seed).run(strict_polling=True)
    assert event.summary() == polled.summary()
    assert event.runtime_cycles == polled.runtime_cycles
    stats = event.controller
    # The workload actually exercised the streak path.
    assert stats.streaks > 0
    assert stats.streak_commands >= 2 * stats.streaks
    assert stats.streak_commands == polled.controller.streak_commands


def test_polling_flag_keyword_only():
    """The oracle path is opt-in and must not swallow ``max_cycles``."""
    system = _build(BASELINE, "GUPS", 1)
    with pytest.raises(TypeError):
        system.run(None, True)  # noqa: intentional positional misuse


def _grid():
    sweep = Sweep(events_per_core=300, warmup_events_per_core=1000)
    sweep.add_axis("scheme", ["Baseline", "PRA"])
    sweep.add_axis("workload", ["GUPS", "MIX1"])
    return sweep


def test_parallel_sweep_matches_serial():
    serial = _grid().run()
    with SimPool(workers=2) as pool:
        parallel = _grid().run(pool=pool)
    assert parallel == serial


@pytest.mark.parametrize(
    "scheme", [BASELINE, PRA, SDS, DBI_PRA], ids=lambda s: s.name
)
def test_fast_path_matches_reference_path(scheme):
    """Precompiled blocks + block warmup == iterators + replayed warmup.

    The reference path is exactly the pre-fast-path construction:
    per-event ``TraceGenerator`` iterators and ``_warm_caches``.
    DBI+PRA covers the DBI mirror inside ``warm_block`` (victim
    companions cleaned through the registry during warmup).
    """
    fast = _build(scheme, "MIX2", 1, use_snapshots=False).run()
    reference = _build(
        scheme, "MIX2", 1, precompiled_traces=False, use_snapshots=False
    ).run()
    assert _fingerprint(fast) == _fingerprint(reference)


@pytest.mark.parametrize("scheme", [BASELINE, PRA, SDS], ids=lambda s: s.name)
@pytest.mark.parametrize("workload_name", ["GUPS", "MIX2"])
def test_snapshot_restore_matches_cold_warmup(scheme, workload_name):
    """Snapshot-restored runs are bit-identical to cold-warmup runs."""
    SNAPSHOTS.clear()
    cold = _build(scheme, workload_name, 1, use_snapshots=False).run()
    # Prime the snapshot cache, then build again: the second build must
    # restore instead of warming, and produce identical results.
    _build(scheme, workload_name, 1)
    restored_system = _build(scheme, workload_name, 1)
    assert restored_system.snapshot_restored
    assert _fingerprint(restored_system.run()) == _fingerprint(cold)


def test_schemes_share_warm_snapshot_unless_dbi():
    """Baseline and PRA share one fingerprint; DBI schemes get their own.

    Warm state only depends on the cache front end, so schemes that
    differ purely in DRAM behaviour must hit the same snapshot — that
    sharing is where the sweep speedup comes from.  A DBI scheme warms
    extra state (the dirty-row registry), so it must *not* share.
    """
    SNAPSHOTS.clear()
    _build(BASELINE, "GUPS", 1)
    assert SNAPSHOTS.misses == 1
    pra = _build(PRA, "GUPS", 1)
    assert pra.snapshot_restored
    assert SNAPSHOTS.hits == 1
    dbi = _build(DBI_PRA, "GUPS", 1)
    assert not dbi.snapshot_restored
    assert len(SNAPSHOTS) == 2


def test_snapshot_disk_layer_round_trip(tmp_path):
    """A second process (simulated by a cleared cache) restores from disk."""
    disk = str(tmp_path / "snaps")
    SNAPSHOTS.clear()
    cold = _build(PRA, "GUPS", 3, use_snapshots=False).run()
    _build(PRA, "GUPS", 3, snapshot_dir=disk)  # writes the snapshot
    SNAPSHOTS.clear()  # forget the memory layer, as a fresh worker would
    restored_system = _build(PRA, "GUPS", 3, snapshot_dir=disk)
    assert restored_system.snapshot_restored
    assert _fingerprint(restored_system.run()) == _fingerprint(cold)


def _damage(blob, how, snapshot, mapper):
    """A warm-snapshot file's bytes after one kind of damage."""
    magic, digest_end = len(_DISK_MAGIC), len(_DISK_MAGIC) + 32

    def flip(pos):
        return blob[:pos] + bytes([blob[pos] ^ 0x10]) + blob[pos + 1:]

    if how == "magic-bit":
        return flip(3)
    if how == "digest-bit":
        return flip(magic + 7)
    if how == "payload-bit":
        return flip((digest_end + len(blob)) // 2)
    if how == "truncated":
        return blob[: len(blob) // 2]
    if how == "header-less":  # the layout of older releases
        return pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    if how == "old-layout":
        # The previous header over a payload with a valid digest whose
        # LLC export has six fields: the per-set free stacks sat between
        # the stamps and the stamp counter.
        tags, addr, mask, stamps, counter = snapshot.l2
        ways = len(addr) // len(tags)
        free = [
            list(range((s + 1) * ways - 1, s * ways + len(t) - 1, -1))
            for s, t in enumerate(tags)
        ]
        old = WarmSnapshot(
            (tags, addr, mask, stamps, free, counter),
            snapshot.l1s, snapshot.dbi_rows, snapshot.digest,
        )
        payload = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
        return (
            b"repro-warmsnap sha256\n" + hashlib.sha256(payload).digest() + payload
        )
    if how == "v2-tuple-keys":
        # The previous header over a payload with a valid digest whose
        # DBI rows are keyed by (channel, rank, bank, row) tuples.
        rows = {
            mapper.row_key(mapper.decode_line(lines[0])): lines
            for lines in snapshot.dbi_rows.values()
        }
        old = WarmSnapshot(snapshot.l2, snapshot.l1s, rows, snapshot.digest)
        payload = pickle.dumps(old, protocol=pickle.HIGHEST_PROTOCOL)
        return (
            b"repro-warmsnap-v2 sha256\n" + hashlib.sha256(payload).digest() + payload
        )
    # "foreign": a well-formed file whose payload is not a snapshot.
    payload = pickle.dumps({"not": "a snapshot"})
    return _DISK_MAGIC + hashlib.sha256(payload).digest() + payload


@pytest.mark.parametrize(
    "how",
    [
        "magic-bit", "digest-bit", "payload-bit", "truncated", "header-less",
        "old-layout", "v2-tuple-keys", "foreign",
    ],
)
def test_damaged_disk_snapshot_is_a_counted_miss(tmp_path, how):
    """A damaged snapshot file is never restored: the System misses,
    counts the corruption, warms cold, and overwrites the file."""
    scheme = DBI_PRA if how == "v2-tuple-keys" else PRA
    disk = str(tmp_path / "snaps")
    SNAPSHOTS.clear()
    cold = _build(scheme, "GUPS", 3, use_snapshots=False).run()
    writer = _build(scheme, "GUPS", 3, snapshot_dir=disk)  # writes the snapshot
    (snapshot,) = SNAPSHOTS._mem.values()
    (path,) = glob.glob(os.path.join(disk, "*.warmsnap"))
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(_damage(blob, how, snapshot, writer.mapper))

    SNAPSHOTS.clear()  # a fresh worker: only the disk layer remains
    system = _build(scheme, "GUPS", 3, snapshot_dir=disk)
    assert not system.snapshot_restored
    assert (SNAPSHOTS.corrupt, SNAPSHOTS.misses, SNAPSHOTS.hits) == (1, 1, 0)
    assert _fingerprint(system.run()) == _fingerprint(cold)

    with open(path, "rb") as handle:
        assert handle.read() == blob  # the cold build rewrote the file
    SNAPSHOTS.clear()
    assert _build(scheme, "GUPS", 3, snapshot_dir=disk).snapshot_restored
    assert SNAPSHOTS.corrupt == 0


def test_failed_snapshot_write_leaves_no_temp_file(tmp_path, monkeypatch):
    """A disk write that fails at the rename (a full disk) leaves no
    ``*.tmp`` file; the snapshot is still served from memory, and the
    next store writes the file."""
    disk = str(tmp_path / "snaps")
    SNAPSHOTS.clear()

    def full_disk(src, dst):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", full_disk)
        _build(PRA, "GUPS", 3, snapshot_dir=disk)  # stores; the rename fails
    assert os.listdir(disk) == []
    assert _build(PRA, "GUPS", 3, snapshot_dir=disk).snapshot_restored
    assert (SNAPSHOTS.hits, SNAPSHOTS.misses) == (1, 1)

    SNAPSHOTS.clear()  # a fresh worker: the next build stores again
    assert not _build(PRA, "GUPS", 3, snapshot_dir=disk).snapshot_restored
    (name,) = os.listdir(disk)
    assert name.endswith(".warmsnap")
    SNAPSHOTS.clear()
    assert _build(PRA, "GUPS", 3, snapshot_dir=disk).snapshot_restored


def test_parallel_sweep_with_disk_snapshots_matches_serial(tmp_path):
    """Worker processes reusing disk snapshots keep rows bit-identical."""
    serial = _grid().run()
    sweep = _grid()
    sweep.snapshot_dir = str(tmp_path / "snaps")
    with SimPool(workers=2) as pool:
        assert sweep.run(pool=pool) == serial
