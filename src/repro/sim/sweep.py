"""Parameter sweeps: run a grid of configurations, export CSV/JSON.

Lightweight harness used by the sensitivity benches and available to
users exploring the design space::

    from repro.sim.sweep import Sweep
    sweep = Sweep(events_per_core=4000)
    sweep.add_axis("scheme", ["Baseline", "PRA", "Half-DRAM"])
    sweep.add_axis("workload", ["GUPS", "MIX1"])
    rows = sweep.run()
    sweep.to_csv("results.csv")

Axes:

* ``scheme`` — scheme name (see :data:`repro.core.schemes.ALL_SCHEMES`),
* ``workload`` — any of the 14 evaluation workloads, or
  ``<app>-alone`` (one benchmark alone on one core, the single-app
  runs that Eq. 3 divides by),
* ``policy`` — ``relaxed`` / ``restricted`` / ``open``,
* ``ecc_chips`` — extra ECC chips per rank, a non-negative ``int``
  (0, or 1 for the paper's x72 DIMM).

Each grid point yields one flat result row (:func:`result_row`): the
point's axis values, the run's ``summary()`` and the further columns
the paper's figures read.  :mod:`repro.sim.metrics` computes the
paper's metrics from these rows.

Execution backends, all bit-identical row for row:

* serial in-process (the oracle the others must match),
* ``run(pool=...)`` — a :class:`repro.sim.pool.SimPool` the caller
  passes in.  The grid-wide invariants (base config, run length,
  seed, snapshot dir) cross to each worker once per sweep, so each
  task payload is just its point dict (the config *delta*).  Points
  are grouped by warm fingerprint (:func:`point_fingerprint`): each
  group ships to one worker as one task message, so each fingerprint
  warms exactly one worker, and a long-lived pool keeps those caches
  across sweeps.  A one-off fan-out over fresh processes is ``with
  SimPool(workers=N) as pool: sweep.run(pool=pool)``;
* ``run(batch=N)`` — in-process only, the batch kernel
  (:mod:`repro.sim.batch`): points run in lane groups of up to N, one
  plain ``System`` after another, which is exactly a serial sweep.
  ``batch="auto"`` runs the whole grid as one lane group.

Serially and in lane groups, points run in warm-fingerprint order
(:func:`_fingerprint_order`), so each fingerprint warms once even when
the grid has more fingerprints than ``SNAPSHOTS`` holds, and every
later point of a fingerprint restores its snapshot copy-on-write; rows
still come back in grid order.
"""

from __future__ import annotations

import csv
import itertools
import json
from dataclasses import replace
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

if TYPE_CHECKING:
    from repro.sim.pool import SimPool

from repro.controller.policies import RowPolicy
from repro.core.schemes import by_name
from repro.power.accounting import CATEGORIES
from repro.sim.config import SystemConfig
from repro.sim.results import SimResult
from repro.sim.snapshot import resolve_fingerprint
from repro.sim.system import simulate
from repro.workloads.mixes import workload as lookup_workload

#: Row-policy names accepted by the ``policy`` axis and the CLI.
POLICIES = {
    "relaxed": RowPolicy.RELAXED_CLOSE,
    "restricted": RowPolicy.RESTRICTED_CLOSE,
    "open": RowPolicy.OPEN_PAGE,
}

_KNOWN_AXES = ("scheme", "workload", "policy", "ecc_chips")

#: Grid-wide run invariants shipped to workers once per batch:
#: (base_config, events_per_core, seed, warmup, snapshot_dir).
SweepContext = Tuple[SystemConfig, int, int, Optional[int], Optional[str]]


def _apply_point(base_config: SystemConfig, point: Dict) -> SystemConfig:
    """Specialize ``base_config`` for one grid point."""
    config = base_config
    if "scheme" in point:
        config = config.with_scheme(by_name(point["scheme"]))
    if "policy" in point:
        config = config.with_policy(POLICIES[point["policy"]])
    if "ecc_chips" in point:
        config = replace(config, ecc_chips=point["ecc_chips"])
    return config


#: Row column names, built once rather than for every row.
_POWER_SHARE_COLUMNS = tuple((c, f"power_share_{c}") for c in CATEGORIES)
_GRANULARITY_COLUMNS = tuple((g, f"granularity_share_{g}") for g in range(1, 9))
_DIRTY_COLUMNS = tuple((n, f"dirty_words_{n}") for n in range(1, 9))


def result_row(point: Dict, result: SimResult) -> Dict:
    """One grid point's row: ``point``, ``result.summary()`` and the
    figures' columns.

    The figures' columns are per-core ``ipcs``, each power category's
    share of DRAM energy (``power_share_act_pre`` ..., Fig. 2), the
    share of activations per granularity (``granularity_share_1`` ..
    ``_8``, in eighths of a row, Fig. 11), dirty-word fractions of
    evicted lines (``dirty_words_1`` .. ``_8``, Fig. 3), the read and
    write shares of traffic and of activations (Table 1), false-hit
    re-activations, read-latency percentiles and DBI proactive
    writebacks.  Each is the result's own value, not recomputed.
    Every row has the same keys, and only str, int, float and lists of
    float, so a row survives a JSON round trip unchanged.
    """
    controller = result.controller
    latency = controller.reads.latency_hist
    row = {**point, **result.summary(), "ipcs": result.ipcs}
    power_shares = result.power.fractions()
    for category, column in _POWER_SHARE_COLUMNS:
        row[column] = power_shares[category]
    granularity_shares = result.granularity_fractions()
    for g, column in _GRANULARITY_COLUMNS:
        row[column] = granularity_shares[g]
    for n, column in _DIRTY_COLUMNS:
        row[column] = result.dirty_word_fractions[n]
    traffic = controller.traffic_split()
    activations = controller.activation_split()
    row["read_traffic_share"] = traffic["read"]
    row["write_traffic_share"] = traffic["write"]
    row["read_activation_share"] = activations["read"]
    row["write_activation_share"] = activations["write"]
    row["false_hit_reactivations"] = controller.false_hit_reactivations
    row["read_latency_min"] = latency.min_value
    row["read_latency_p50"] = latency.percentile(50)
    row["read_latency_p95"] = latency.percentile(95)
    row["read_latency_p99"] = latency.percentile(99)
    row["dbi_proactive_writebacks"] = result.dbi_proactive_writebacks
    return row


def _run_point(ctx: SweepContext, point: Dict) -> Dict:
    """Simulate one grid point; module-level so worker processes can
    unpickle it.  ``ctx`` carries the grid-wide invariants (shipped
    once per worker); ``point`` is only the config delta.  Returns the
    point's :func:`result_row` (small and picklable; the heavy
    ``System`` never crosses the process boundary)."""
    base_config, events, seed, warmup, snapshot_dir = ctx
    config = _apply_point(base_config, point)
    result = simulate(
        config,
        lookup_workload(point["workload"]),
        events,
        seed=seed,
        warmup_events_per_core=warmup,
        snapshot_dir=snapshot_dir,
    )
    return result_row(point, result)


def point_fingerprint(ctx: SweepContext, point: Dict) -> tuple:
    """Warm fingerprint of one grid point: its pool-affinity key.

    Resolves the same default warmup length the ``System`` will, so
    points that share post-warmup state (every non-DBI scheme of one
    (workload, seed) column) land on one warm worker back to back.
    The sweep service hashes it into each point's cache key.
    """
    base_config, _events, seed, warmup, _snapshot_dir = ctx
    return resolve_fingerprint(
        _apply_point(base_config, point),
        lookup_workload(point["workload"]),
        seed,
        warmup,
    )


def write_csv(rows: List[Dict], path: str) -> None:
    """Write result rows as CSV, columns in the first row's key order."""
    with open(path, "w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def write_json(rows: List[Dict], path: str) -> None:
    """Write result rows as pretty-printed JSON."""
    with open(path, "w") as handle:
        json.dump(rows, handle, indent=2)


def _fingerprint_order(ctx: SweepContext, tasks: List[Dict]) -> List[int]:
    """Task indices with same-fingerprint points back to back.

    Fingerprints keep the order of their first point, and points keep
    grid order within a fingerprint.  Run in this order, a fingerprint
    warms once and its other points restore its snapshot before another
    fingerprint can age it out of ``SNAPSHOTS``.
    """
    groups: Dict[tuple, List[int]] = {}
    for index, point in enumerate(tasks):
        groups.setdefault(point_fingerprint(ctx, point), []).append(index)
    return [index for members in groups.values() for index in members]


class Sweep:
    """Cartesian-product sweep over named configuration axes."""

    def __init__(
        self,
        events_per_core: int = 4000,
        base_config: Optional[SystemConfig] = None,
        seed: int = 1,
        warmup_events_per_core: Optional[int] = None,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        """Configure grid-wide run parameters.

        ``snapshot_dir`` opts the grid into the on-disk warm-state
        snapshot layer: every scheme/policy point of the same
        (workload, seed) restores one shared post-warmup state instead
        of replaying warmup — including across ``run(pool=...)``
        worker processes, which share no in-process cache.
        """
        self.events_per_core = events_per_core
        self.base_config = base_config if base_config is not None else SystemConfig()
        self.seed = seed
        self.warmup = warmup_events_per_core
        self.snapshot_dir = snapshot_dir
        self._axes: Dict[str, Sequence] = {}
        self.rows: List[Dict] = []

    def add_axis(self, name: str, values: Sequence) -> "Sweep":
        """Add one grid axis; returns self for chaining."""
        if name not in _KNOWN_AXES:
            raise ValueError(f"unknown axis {name!r}; known: {_KNOWN_AXES}")
        if not values:
            raise ValueError(f"axis {name!r} needs at least one value")
        self._axes[name] = list(values)
        return self

    # ------------------------------------------------------------------
    def _context(self) -> SweepContext:
        """The grid-wide invariants every execution backend shares."""
        return (
            self.base_config,
            self.events_per_core,
            self.seed,
            self.warmup,
            self.snapshot_dir,
        )

    def _tasks(self) -> List[Dict]:
        """Materialize the grid as per-point payloads, in grid order.

        Each payload is only the point dict (the config *delta*); the
        grid-wide invariants travel separately via :meth:`_context`,
        once per worker instead of once per point.
        """
        if not self._axes:
            raise ValueError("add at least one axis before running")
        if "workload" not in self._axes:
            raise ValueError("a 'workload' axis is required")
        names = list(self._axes)
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(self._axes[n] for n in names))
        ]

    def run(
        self,
        pool: "Optional[SimPool]" = None,
        batch: "Optional[Union[int, str]]" = None,
    ) -> List[Dict]:
        """Execute the grid; returns (and stores) one row per point.

        Without ``pool`` the points run serially in-process: the
        oracle every other backend must match.  ``pool`` runs them on
        the caller's :class:`repro.sim.pool.SimPool` instead (warm
        workers, one task message per warm-fingerprint group); the
        caller owns the pool and closes it.

        ``batch=N`` selects the batch kernel (:mod:`repro.sim.batch`),
        in-process only: points are cut into lane groups of up to N
        and each group runs as one :class:`~repro.sim.batch.BatchSystem`,
        lane after lane, each lane a plain ``System``, so it computes
        exactly what the serial path does.  ``batch="auto"`` runs the
        whole grid as one lane group.  ``batch`` with ``pool`` raises
        ``ValueError``: a pool already ships one message per group.

        Serial and batched runs take the points in warm-fingerprint
        order (:func:`_fingerprint_order`).  Every point carries the
        same deterministic seed on every backend and the rows are
        merged back in grid order, so pooled and batched sweeps are
        row-for-row identical to a serial one.
        """
        tasks = self._tasks()
        if batch is not None and pool is not None:
            raise ValueError(
                "batch runs in-process; a pool already ships one task "
                "message per warm-fingerprint group"
            )
        if batch == "auto":
            batch = len(tasks)
        elif isinstance(batch, str):
            raise ValueError(
                f"batch={batch!r}: expected a positive integer or 'auto'"
            )
        elif batch is not None and batch < 1:
            raise ValueError("batch must be a positive integer or 'auto'")
        ctx = self._context()
        if pool is not None:
            self.rows = pool.map(
                _run_point,
                tasks,
                shared=ctx,
                group_keys=[point_fingerprint(ctx, point) for point in tasks],
            )
            return self.rows
        order = _fingerprint_order(ctx, tasks)
        if batch is not None and batch > 1:
            flat = self._run_batched([tasks[index] for index in order], ctx, batch)
        else:
            flat = [_run_point(ctx, tasks[index]) for index in order]
        self.rows = [row for _, row in sorted(zip(order, flat), key=itemgetter(0))]
        return self.rows

    def _run_batched(
        self, points: List[Dict], ctx: SweepContext, batch: int
    ) -> List[Dict]:
        """Run ``points`` through the batch kernel in lane groups.

        ``points`` come in warm-fingerprint order and are cut into
        groups of up to ``batch`` lanes, so the lanes of one
        fingerprint restore from one warm snapshot back to back.
        Returns the rows in ``points`` order.
        """
        # Imported here: repro.sim.batch imports this module at top
        # level (for SweepContext/_apply_point), so the lazy import
        # breaks the cycle.
        from repro.sim.batch import _run_lane_group

        return [
            row
            for start in range(0, len(points), batch)
            for row in _run_lane_group(ctx, points[start : start + batch])
        ]

    # ------------------------------------------------------------------
    def to_csv(self, path: str) -> None:
        """Export the grid rows as CSV."""
        if not self.rows:
            raise ValueError("run() the sweep before exporting")
        write_csv(self.rows, path)

    def to_json(self, path: str) -> None:
        """Export the grid rows as pretty-printed JSON."""
        if not self.rows:
            raise ValueError("run() the sweep before exporting")
        write_json(self.rows, path)
