"""The layers a traced run sees, and the per-layer metrics they give.

Each layer is seen through the public calls listed in :data:`SPANS`.
:func:`traced` wraps every one of them before the workload builds
anything, runs the workload's fixed traced work, removes the wrappers
and repeats the same work untraced; the difference between the two
passes is the tracing overhead.  Inside a ``repro serve`` process
nothing is wrapped: the service is seen only through its client calls
and ``/stats``.  A layer a workload does not use reports zero.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List

# Imported before install() so the module-level functions these modules
# import by name are rebound in them too.
import repro.service.client  # noqa: F401
import repro.sim.batch  # noqa: F401
import repro.sim.system  # noqa: F401
from repro.sim.snapshot import SNAPSHOTS

from measure import Checks, Metrics, Outcome, SimTotals, clock, ratio
from spans import After, Tracer

#: (span name, public call); a span's layer is its name's first part.
SPANS = (
    ("controller.run_until", "repro.controller.memctrl:ChannelController.run_until"),
    ("system.run", "repro.sim.system:System.run"),
    ("system.build", "repro.sim.system:System.__init__"),
    ("cache.access", "repro.cache.hierarchy:CacheHierarchy.access"),
    ("cache.warm_block", "repro.cache.hierarchy:CacheHierarchy.warm_block"),
    ("cpu.try_advance", "repro.cpu.core_model:Core.try_advance"),
    ("dram.decode_line", "repro.dram.mapping:AddressMapper.decode_line"),
    ("power.on_activate", "repro.power.accounting:PowerAccountant.on_activate"),
    ("power.on_activate_fraction",
     "repro.power.accounting:PowerAccountant.on_activate_fraction"),
    ("power.on_read_burst", "repro.power.accounting:PowerAccountant.on_read_burst"),
    ("power.on_write_burst", "repro.power.accounting:PowerAccountant.on_write_burst"),
    ("power.on_refresh", "repro.power.accounting:PowerAccountant.on_refresh"),
    ("workloads.compiled_trace", "repro.workloads.synthetic:compiled_trace"),
    ("workloads.ensure", "repro.workloads.synthetic:TraceBlocks.ensure"),
    ("snapshot.lookup", "repro.sim.snapshot:SnapshotCache.lookup"),
    ("snapshot.restore", "repro.sim.snapshot:restore_warm_state"),
    ("snapshot.capture", "repro.sim.snapshot:capture_warm_state"),
    ("batch.build", "repro.sim.batch:BatchSystem.__init__"),
    ("batch.run", "repro.sim.batch:BatchSystem.run"),
    ("batch.open_row_hits", "repro.dram.soa_batch:open_row_hits"),
    ("batch.refresh_due", "repro.dram.soa_batch:refresh_due"),
    ("batch.power_down_resident", "repro.dram.soa_batch:power_down_resident"),
    ("batch.decay_timers", "repro.dram.soa_batch:decay_timers"),
    ("batch.next_wake_min", "repro.dram.soa_batch:next_wake_min"),
    ("service.submit", "repro.service.client:ServiceClient.submit"),
    ("service.rows", "repro.service.client:ServiceClient.rows"),
)
#: The SSE stream, as a span from opening it to its first event.
FIRST_EVENT = ("service.first_event", "repro.service.client:ServiceClient.events")
#: Scalar lane passes of the batch kernel, counted without a span.
LANE_PASSES = ("batch.lane_passes", "repro.sim.batch:_Lane.advance")
#: The traced pass itself: its self time is what no layer accounts for.
ROOT = "unattributed"
LAYERS = ("controller", "system", "cache", "cpu", "dram", "power",
          "workloads", "snapshot", "batch", "service")
POWER = tuple(name for name, _ in SPANS if name.startswith("power."))
COMPILE = ("workloads.compiled_trace", "workloads.ensure")
COLUMN_OPS = ("batch.open_row_hits", "batch.refresh_due",
              "batch.power_down_resident", "batch.decay_timers",
              "batch.next_wake_min")


class Probe:
    """What the wrappers see besides time: results, lookups, job triage."""

    def __init__(self) -> None:
        self.totals = SimTotals()
        self.lookups = 0
        self.hits = 0
        self.fingerprints: set = set()
        self.screened = 0
        self.points = 0
        self.cached = 0

    def hooks(self) -> Dict[str, After]:
        return {
            "system.run": self._ran,
            "batch.run": self._ran_batch,
            "snapshot.lookup": self._looked_up,
            "batch.next_wake_min": self._screened,
            "service.submit": self._submitted,
        }

    def _ran(self, args: tuple, result: Any) -> None:
        self.totals.add(result)

    def _ran_batch(self, args: tuple, results: Any) -> None:
        for result in results:
            self.totals.add(result)

    def _looked_up(self, args: tuple, snapshot: Any) -> None:
        self.lookups += 1
        self.hits += snapshot is not None
        self.fingerprints.add(args[1])

    def _screened(self, args: tuple, wakes: Any) -> None:
        # One wake-candidate row per lane re-keyed without a scalar pass.
        self.screened += len(args[0])

    def _submitted(self, args: tuple, status: Any) -> None:
        self.points += status["total"]
        self.cached += status["cached"]


def install(tracer: Tracer, probe: Probe) -> None:
    """Wrap every layer's public calls (undone by ``tracer.uninstall``)."""
    hooks = probe.hooks()
    for name, target in SPANS:
        tracer.patch(target, lambda fn, name=name: tracer.wrap(name, fn, hooks.get(name)))
    tracer.patch(FIRST_EVENT[1], lambda fn: tracer.wrap_first_item(FIRST_EVENT[0], fn))
    tracer.patch(LANE_PASSES[1], lambda fn: tracer.wrap_count(LANE_PASSES[0], fn))


def traced(workload: Any, scratch: Path) -> Outcome:
    """Traced pass and span dump, then the same work untraced."""
    tracer = Tracer()
    probe = Probe()
    install(tracer, probe)
    try:
        with tracer.span(ROOT):
            service = workload.traced_work()
    finally:
        tracer.uninstall()
    traced_s = tracer.total_s(ROOT)
    tracer.write(str(scratch / f"spans-{workload.name}-seed{workload.seed}.pickle"))
    start = clock()
    workload.traced_work()
    untraced_s = clock() - start
    checks = Checks()
    workload.verify(checks)
    metrics = layer_metrics(tracer, probe, service)
    metrics["trace.unattributed_share"] = (ratio(tracer.self_s(ROOT), traced_s), "fraction")
    metrics["trace.overhead_pct"] = (100.0 * (traced_s / untraced_s - 1.0), "%")
    lines = closing_the_books(tracer, traced_s, untraced_s)
    lines.append(
        f"snapshot: {len(probe.fingerprints)} warm fingerprints looked up, "
        f"SNAPSHOTS.capacity {SNAPSHOTS.capacity}"
    )
    return Outcome(metrics, checks, lines + workload.report())


def layer_metrics(t: Tracer, probe: Probe, service: Dict[str, int]) -> Metrics:
    """Every per-layer metric from one traced pass."""
    totals = probe.totals

    def self_sum(names: tuple) -> float:
        return sum(t.self_s(name) for name in names)

    def self_ns_per_call(name: str) -> float:
        return ratio(t.self_s(name) * 1e9, t.call_count(name))

    def ms_per_call(name: str) -> float:
        return ratio(t.total_s(name) * 1e3, t.call_count(name))

    controller = t.self_s("controller.run_until")
    lane_passes = t.counts.get(LANE_PASSES[0], 0)
    return {
        "controller.self_s": (controller, "s"),
        "controller.ns_per_req": (ratio(controller * 1e9, totals.served), "ns"),
        "controller.calls": (t.call_count("controller.run_until"), "count"),
        "controller.passes_per_req": (ratio(totals.sched_passes, totals.served), "ratio"),
        "controller.cmds_per_streak": (ratio(totals.streak_commands, totals.streaks), "ratio"),
        "controller.write_share": (totals.write_share, "fraction"),
        "system.loop_self_s": (t.self_s("system.run"), "s"),
        "cache.access_ns": (self_ns_per_call("cache.access"), "ns"),
        "cache.access_calls": (t.call_count("cache.access"), "count"),
        "cache.warm_s": (t.total_s("cache.warm_block"), "s"),
        "cache.llc_miss_ratio": (
            ratio(totals.llc_misses, totals.llc_hits + totals.llc_misses), "fraction"),
        "cache.dbi_writebacks": (totals.dbi_writebacks, "count"),
        "cpu.advance_ns": (self_ns_per_call("cpu.try_advance"), "ns"),
        "cpu.advance_calls": (t.call_count("cpu.try_advance"), "count"),
        "dram.decode_ns": (self_ns_per_call("dram.decode_line"), "ns"),
        "dram.decode_calls": (t.call_count("dram.decode_line"), "count"),
        "power.self_s": (self_sum(POWER), "s"),
        "power.calls": (sum(t.call_count(name) for name in POWER), "count"),
        "workloads.compile_s": (self_sum(COMPILE), "s"),
        "snapshot.restore_ms": (ms_per_call("snapshot.restore"), "ms"),
        "snapshot.capture_ms": (ms_per_call("snapshot.capture"), "ms"),
        "snapshot.hit_ratio": (ratio(probe.hits, probe.lookups), "fraction"),
        "snapshot.fingerprints": (len(probe.fingerprints), "count"),
        "batch.build_s": (t.total_s("batch.build"), "s"),
        "batch.run_self_s": (t.self_s("batch.run"), "s"),
        "batch.column_ops_s": (self_sum(COLUMN_OPS), "s"),
        "batch.screened_ratio": (
            ratio(probe.screened, probe.screened + lane_passes), "fraction"),
        "service.submit_ms": (ms_per_call("service.submit"), "ms"),
        "service.rows_ms": (ms_per_call("service.rows"), "ms"),
        "service.first_event_ms": (ms_per_call(FIRST_EVENT[0]), "ms"),
        "service.hit_ratio": (ratio(probe.cached, probe.points), "fraction"),
        "service.computed": (service.get("computed", 0), "count"),
        "service.pool_rebuilds": (service.get("pool_rebuilds", 0), "count"),
        "service.worker_restarts": (service.get("worker_restarts", 0), "count"),
    }


def closing_the_books(t: Tracer, traced_s: float, untraced_s: float) -> List[str]:
    """Layer self times plus the unattributed remainder, which together
    equal the traced wall time."""
    by_layer = dict.fromkeys(LAYERS, 0.0)
    for name, ns in zip(t.names, t.self_ns):
        layer = name.partition(".")[0]
        if layer in by_layer:
            by_layer[layer] += ns / 1e9
    rows = [*by_layer.items(), ("unattributed", t.self_s(ROOT))]
    total = sum(seconds for _, seconds in rows)
    lines = [
        f"closing the books: {len(t.start_col)} spans; traced wall {traced_s:.3f} s, "
        f"untraced {untraced_s:.3f} s"
    ]
    for layer, seconds in rows + [("sum", total)]:
        lines.append(f"  {layer:<13}{seconds:10.4f} s {100 * ratio(seconds, traced_s):6.1f}%")
    return lines
