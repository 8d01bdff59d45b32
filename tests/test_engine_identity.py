"""Golden-digest pins of what the simulator computes.

The committed digests in ``tests/data/engine_digests.json`` pin every
scheme's results to the bit: same counters, same energy, same
protocol-checker command traces.  They are engine-independent — they
name no execution path, only results — so any change to the event
loop, the controller (``repro.controller.memctrl``), the timing core
(``repro.dram.soa``), the rank views (``repro.dram.rank``) or the cache
arrays (``repro.cache.set_assoc``) must reproduce every digest byte for
byte.  ``REPRO_REGEN_DIGESTS=1`` rewrites them; a regeneration is a
deliberate change of results and needs a reason.

Each digest hashes everything a run reports — the summary, raw
controller counters (including the profiling-only ``sched_passes``,
which pins scheduler control flow, not just end results), the power
breakdown, per-core IPCs, the activation histogram and the LLC
counters — plus, for the trace cases, the cycle-exact DRAM command
stream as seen by a :class:`~repro.dram.protocol.ProtocolChecker`
subclass.  Cold construction and warm-snapshot restore must both land
on the same digest, so the pin covers the snapshot machinery too.
"""

import copy
import hashlib
import json
import os

import pytest

from repro.core.schemes import ALL_SCHEMES, BASELINE, DBI_PRA, PRA, SDS
from repro.dram.protocol import ProtocolChecker
from repro.sim.config import CacheConfig, SystemConfig
from repro.sim.snapshot import SNAPSHOTS
from repro.sim.system import System
from repro.workloads.mixes import workload

EVENTS = 400
WARMUP = 1500

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST_PATH = os.path.join(REPO_ROOT, "tests", "data", "engine_digests.json")
REGEN = os.environ.get("REPRO_REGEN_DIGESTS", "") not in ("", "0")

#: Workload spread for the scheme subset (beyond the all-scheme MIX2
#: sweep): covers every MIX's access pattern on the paper's headline
#: schemes.
SPREAD_SCHEMES = (BASELINE, PRA, DBI_PRA)
SPREAD_WORKLOADS = ("MIX1", "MIX2", "MIX3", "MIX4", "MIX5", "MIX6")

#: Schemes whose full command trace is digest-pinned (cycle, command,
#: rank, bank, row, mask, granularity of every DRAM command issued).
TRACE_SCHEMES = (BASELINE, PRA, DBI_PRA, SDS)


def _build(scheme, workload_name, seed=1, sanitize=False, **kwargs):
    config = SystemConfig(
        scheme=scheme,
        sanitize=sanitize,
        cache=CacheConfig(llc_bytes=256 * 1024),
    )
    return System(
        config,
        workload(workload_name),
        EVENTS,
        seed=seed,
        warmup_events_per_core=WARMUP,
        **kwargs,
    )


def _digest(result):
    """sha256 over a canonical-JSON dump of everything a run reports."""
    ctrl = result.controller
    payload = {
        "summary": result.summary(),
        "runtime_cycles": result.runtime_cycles,
        "ipcs": result.ipcs,
        "reads": {
            "served": ctrl.reads.served,
            "row_hits": ctrl.reads.row_hits,
            "false_hits": ctrl.reads.false_hits,
            "activations": ctrl.reads.activations,
            "latency_sum": ctrl.reads.latency_sum,
            "latency_max": ctrl.reads.latency_max,
        },
        "writes": {
            "served": ctrl.writes.served,
            "row_hits": ctrl.writes.row_hits,
            "false_hits": ctrl.writes.false_hits,
            "activations": ctrl.writes.activations,
            "latency_sum": ctrl.writes.latency_sum,
            "latency_max": ctrl.writes.latency_max,
        },
        "refreshes": ctrl.refreshes,
        "precharges": ctrl.precharges,
        "drain_entries": ctrl.drain_entries,
        "power_down_entries": ctrl.power_down_entries,
        "false_hit_reactivations": ctrl.false_hit_reactivations,
        "streaks": ctrl.streaks,
        "streak_commands": ctrl.streak_commands,
        "sched_passes": ctrl.sched_passes,
        "power_mw": result.power.as_dict_mw(),
        "activation_histogram": {
            str(k): v for k, v in sorted(result.activation_histogram.items())
        },
        "llc": {
            "hits": result.llc.hits,
            "misses": result.llc.misses,
            "evictions": result.llc.evictions,
            "dirty_evictions": result.llc.dirty_evictions,
            "dirty_word_hist": {
                str(k): v for k, v in sorted(result.llc.dirty_word_hist.items())
            },
        },
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _load_goldens():
    if not os.path.isfile(DIGEST_PATH):
        return {}
    with open(DIGEST_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def _check_golden(key, digest):
    """Compare against (or, under REPRO_REGEN_DIGESTS=1, record) golden."""
    goldens = _load_goldens()
    if REGEN:
        goldens.setdefault("_note", (
            "Golden run digests; every change to the simulator must "
            "reproduce them bit for bit.  Regenerate with: "
            "REPRO_REGEN_DIGESTS=1 PYTHONPATH=src python -m pytest "
            "tests/test_engine_identity.py"
        ))
        runs = goldens.setdefault("runs", {})
        runs[key] = digest
        os.makedirs(os.path.dirname(DIGEST_PATH), exist_ok=True)
        with open(DIGEST_PATH, "w", encoding="utf-8") as handle:
            json.dump(goldens, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return
    runs = goldens.get("runs", {})
    assert key in runs, (
        f"no golden digest for {key!r}; regenerate with "
        f"REPRO_REGEN_DIGESTS=1"
    )
    assert runs[key] == digest, (
        f"digest mismatch for {key!r}: the simulator diverged from the "
        f"golden run ({digest[:12]} != {runs[key][:12]})"
    )


class DigestChecker(ProtocolChecker):
    """Protocol checker that also hashes the exact command stream.

    Subclasses (rather than wraps) :class:`ProtocolChecker`, the type
    the controller's ``protocol_checker`` attribute is declared with.
    """

    def __init__(self, timing, relax_act_constraints=False):
        super().__init__(timing, relax_act_constraints=relax_act_constraints)
        self.hasher = hashlib.sha256()

    def observe(self, record):
        super().observe(record)
        self.hasher.update(repr((
            record.cycle, record.cmd.value, record.rank, record.bank,
            record.row, record.mask, record.granularity, record.masked,
            record.burst_start, record.burst_end, record.implicit,
        )).encode("utf-8"))


# ----------------------------------------------------------------------
# Every scheme: cold == restored == golden on MIX2.
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "scheme_name", sorted(ALL_SCHEMES), ids=lambda n: n
)
def test_all_schemes_cold_restored_golden(scheme_name):
    scheme = ALL_SCHEMES[scheme_name]
    SNAPSHOTS.clear()
    cold = _build(scheme, "MIX2", use_snapshots=False).run()
    _build(scheme, "MIX2")  # prime the snapshot cache
    restored_system = _build(scheme, "MIX2")
    assert restored_system.snapshot_restored
    cold_digest = _digest(cold)
    assert cold_digest == _digest(restored_system.run()), (
        f"{scheme_name}: snapshot restore diverged from cold construction"
    )
    _check_golden(f"{scheme_name}/MIX2", cold_digest)


# ----------------------------------------------------------------------
# Headline schemes: every MIX workload against golden.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload_name", SPREAD_WORKLOADS)
@pytest.mark.parametrize("scheme", SPREAD_SCHEMES, ids=lambda s: s.name)
def test_workload_spread_golden(scheme, workload_name):
    result = _build(scheme, workload_name).run()
    _check_golden(f"{scheme.name}/{workload_name}", _digest(result))


# ----------------------------------------------------------------------
# Command-trace pinning: the simulator must issue the *same commands at
# the same cycles*, not merely converge on the same totals.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", TRACE_SCHEMES, ids=lambda s: s.name)
def test_command_trace_golden(scheme):
    system = _build(scheme, "MIX2")
    checkers = []
    for ctrl in system.controllers:
        checker = DigestChecker(
            system.config.timing,
            relax_act_constraints=scheme.relax_act_constraints,
        )
        ctrl.protocol_checker = checker
        checkers.append(checker)
    system.run()
    assert all(c.commands_checked > 0 for c in checkers)
    trace = hashlib.sha256()
    for checker in checkers:
        trace.update(checker.hasher.digest())
    _check_golden(f"trace/{scheme.name}/MIX2", trace.hexdigest())


# ----------------------------------------------------------------------
# Set-up pinning: the golden digests above see only results, so a
# change in warm state that happens to leave every counter equal would
# pass them.  These literals pin the cold-warmed hierarchy itself.
# ----------------------------------------------------------------------
#: sha256 of :func:`_warm_state_json` after a cold warmup of MIX2
#: (seed 1, 256 KB LLC, ``WARMUP`` events per core).
WARM_STATE_DIGESTS = {
    "Baseline": "8a5cf9927f6aae837ccc7fc49bcfdf1e70a92b5268e64907fd996812512caf55",
    "DBI+PRA": "0230c0f2c78efd63431a8d3c18a87d99227da2dc664490472bd6a331a1cbc998",
}


def _warm_state_json(hierarchy):
    """Canonical JSON of the LLC export and the DBI rows in key order.

    JSON rather than pickle bytes, so the pin does not depend on the
    pickle protocol: each set's tag -> slot items in dict order, the
    addr/mask/stamp arrays, the free stacks and the stamp counter.
    """
    tags, addr, mask, stamps, free, counter = hierarchy.l2.export_state()
    rows = hierarchy.dbi.export_rows() if hierarchy.dbi is not None else {}
    return json.dumps({
        "tags": [list(t.items()) for t in tags],
        "addr": addr.tolist(),
        "mask": mask.tolist(),
        "stamps": stamps.tolist(),
        "free": free,
        "counter": counter,
        "dbi": [[list(key), list(lines)] for key, lines in sorted(rows.items())],
    }, separators=(",", ":"))


@pytest.mark.parametrize("precompiled", [True, False], ids=["blocks", "iterators"])
@pytest.mark.parametrize("scheme", (BASELINE, DBI_PRA), ids=lambda s: s.name)
def test_cold_warm_state_golden(scheme, precompiled):
    system = _build(
        scheme, "MIX2", use_snapshots=False, precompiled_traces=precompiled
    )
    blob = _warm_state_json(system.hierarchy).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == WARM_STATE_DIGESTS[scheme.name]


def test_restore_shares_snapshot_until_written():
    """A restored System aliases its snapshot until it writes, and runs
    exactly as a cold-warmed one.

    Each miss privatizes at most one LLC set, so the owned sets are
    bounded by the misses; every other set, and every DBI row the run
    left untouched, is still the snapshot's own object.  The run leaves
    the snapshot as it found it.
    """
    SNAPSHOTS.clear()
    _build(DBI_PRA, "MIX2")  # cold warmup, captures the snapshot
    (snapshot,) = SNAPSHOTS._mem.values()
    before = copy.deepcopy((snapshot.l2, snapshot.l1s, snapshot.dbi_rows))
    system = _build(DBI_PRA, "MIX2")
    assert system.snapshot_restored
    result = system.run()

    l2 = system.hierarchy.l2
    assert isinstance(l2._cow_owned, set)
    assert len(l2._cow_owned) <= l2.stats.misses
    tags, _addr, _mask, _stamps, free, _counter = snapshot.l2
    for set_idx in range(l2.num_sets):
        if set_idx not in l2._cow_owned:
            assert l2._tags[set_idx] is tags[set_idx]
            assert l2._free[set_idx] is free[set_idx]
    rows = system.hierarchy.dbi._rows
    shared = [key for key, lines in rows.items() if isinstance(lines, tuple)]
    assert shared
    assert all(rows[key] is snapshot.dbi_rows[key] for key in shared)
    assert (snapshot.l2, snapshot.l1s, snapshot.dbi_rows) == before

    cold = _build(DBI_PRA, "MIX2", use_snapshots=False).run()
    assert _digest(result) == _digest(cold)


# ----------------------------------------------------------------------
# Property check: cold == restored under the sanitizer on random
# scheme/workload/seed points (no goldens; the invariant itself).
# ----------------------------------------------------------------------
try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is a test dep
    HAVE_HYPOTHESIS = False


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        scheme_name=st.sampled_from(sorted(ALL_SCHEMES)),
        workload_name=st.sampled_from(SPREAD_WORKLOADS),
        seed=st.integers(min_value=1, max_value=2**16),
    )
    def test_cold_equals_restored_sanitized(scheme_name, workload_name, seed):
        scheme = ALL_SCHEMES[scheme_name]
        SNAPSHOTS.clear()
        cold = _build(
            scheme, workload_name, seed=seed,
            sanitize=True, use_snapshots=False,
        ).run()
        _build(scheme, workload_name, seed=seed, sanitize=True)
        restored_system = _build(
            scheme, workload_name, seed=seed, sanitize=True
        )
        assert restored_system.snapshot_restored
        assert _digest(cold) == _digest(restored_system.run())
