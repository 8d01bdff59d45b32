"""Full-system simulator: cores + caches + controllers + DRAM + power.

This is the reproduction's equivalent of the paper's integrated
gem5 + DRAMSim2 platform.  The event loop ticks in DRAM command-clock
cycles and skips idle spans using hints from the controllers, the
cores and the pending read completions.

Flow of one memory instruction:

1. a core retires its instruction gap and issues the access,
2. the cache hierarchy filters it; LLC misses produce DRAM reads
   (fills) and dirty LLC victims produce DRAM writes carrying their
   FGD masks,
3. the address mapper routes each request to a channel controller,
4. the controller schedules DRAM commands (FR-FCFS with burst-streak
   commits over the array-backed timing core, PRA masking, refresh...),
5. completed demand fills unblock the issuing core.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from itertools import islice
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

if TYPE_CHECKING:
    from repro.sim.sampling import EpochSampler

from repro.cache.dbi import DirtyBlockIndex
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.controller.memctrl import ChannelController
from repro.controller.stats import ControllerStats
from repro.cpu.core_model import NEVER, Core
from repro.cpu.trace import TraceEvent, pack_events
from repro.dram.channel import Channel
from repro.dram.commands import ReqKind, Request
from repro.dram.geometry import FULL_MASK
from repro.dram.mapping import AddressMapper
from repro.power.accounting import PowerAccountant
from repro.sim.config import SystemConfig
from repro.sim.results import CoreResult, SimResult
from repro.sim.sanitize import (
    attach_checkers,
    check_finalize,
    sanitize_enabled,
    verify_restore,
)
from repro.sim.snapshot import (
    SNAPSHOTS,
    capture_warm_state,
    default_warmup,
    restore_warm_state,
    snapshot_disk_dir,
    warm_fingerprint,
)
from repro.workloads.mixes import Workload
from repro.workloads.synthetic import TraceGenerator, compiled_trace

#: Total overflow-buffer entries beyond which cores are held back.
OVERFLOW_STALL_THRESHOLD = 128

# Request kinds as constants: a member lookup through the Enum class
# costs a call on every request.
_READ = ReqKind.READ
_WRITE = ReqKind.WRITE

# Oracle-parity declaration enforced by reprolint: the event-driven
# ``System.run`` is the fast path; ``System._run_polling`` is the
# scan-everything oracle both loops must agree with bit-for-bit.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.sim.system.System._run_polling"
ORACLE_TESTS = ("tests/test_engine_equivalence.py",)


class System:
    """One simulatable platform instance."""

    def __init__(
        self,
        config: SystemConfig,
        workload: Workload,
        events_per_core: int,
        seed: Optional[int] = None,
        warmup_events_per_core: Optional[int] = None,
        sampler: "Optional[EpochSampler]" = None,
        trace_overrides: Optional[List] = None,
        *,
        precompiled_traces: bool = True,
        use_snapshots: bool = True,
        snapshot_dir: Optional[str] = None,
    ) -> None:
        """Build the platform.

        ``warmup_events_per_core`` events are first played through the
        cache hierarchy only (no timing), so the LLC reaches steady
        state — without warmup a short run would see almost no dirty
        evictions and therefore almost no DRAM write traffic.  The
        default replays 4x the LLC line count, split across the cores
        (:func:`~repro.sim.snapshot.default_warmup`); 0 skips warmup,
        and a negative length raises ``ValueError``.

        ``sampler`` may be an :class:`repro.sim.sampling.EpochSampler`
        to record power/queue time series during the run.

        ``trace_overrides`` replaces the synthetic generators with one
        event iterable per core (e.g. traces loaded from disk via
        :mod:`repro.workloads.trace_io`); the workload then only
        provides core names.

        The front-end fast path is on by default for synthetic traces:

        * ``precompiled_traces`` feeds warmup and cores from shared
          :class:`~repro.workloads.synthetic.TraceBlocks` arrays
          (``False`` restores the per-event ``TraceGenerator``
          reference path, which also disables snapshots);
        * ``use_snapshots`` reuses post-warmup cache state across
          Systems with the same warm fingerprint — restored
          copy-on-write (:func:`repro.sim.snapshot.restore_warm_state`)
          and bit-identical to a cold warmup, which ``False`` selects
          (:attr:`snapshot_restored` reports whether a restore
          happened);
        * ``snapshot_dir`` opts into the on-disk snapshot layer (the
          ``REPRO_SNAPSHOT_DIR`` environment variable does the same).
        """
        if events_per_core <= 0:
            raise ValueError("events_per_core must be positive")
        if warmup_events_per_core is None:
            warmup_events_per_core = default_warmup(config, workload)
        if warmup_events_per_core < 0:
            raise ValueError("warmup_events_per_core must be non-negative")
        self.config = config
        self.workload = workload
        self.events_per_core = events_per_core
        self.warmup_events_per_core = warmup_events_per_core
        seed = config.seed if seed is None else seed

        scheme = config.scheme
        geo = config.geometry
        self.mapper = AddressMapper(geo, config.effective_interleaving)
        self.accountant = PowerAccountant(
            config.power,
            config.timing,
            chips_per_rank=geo.chips_per_rank,
            ecc_chips=config.ecc_chips,
        )
        self.channels: List[Channel] = [
            Channel(
                config.timing,
                num_ranks=geo.ranks_per_channel,
                num_banks=geo.chip.banks,
                burst_cycles_multiplier=scheme.burst_multiplier,
            )
            for _ in range(geo.channels)
        ]
        ctrl_cfg = config.controller
        self.controllers: List[ChannelController] = [
            ChannelController(
                channel=channel,
                scheme=scheme,
                timing=config.timing,
                policy=config.policy,
                accountant=self.accountant,
                read_queue_size=ctrl_cfg.read_queue_size,
                write_queue_size=ctrl_cfg.write_queue_size,
                drain_high_watermark=ctrl_cfg.drain_high_watermark,
                drain_low_watermark=ctrl_cfg.drain_low_watermark,
                scan_depth=ctrl_cfg.scan_depth,
                row_hit_cap=ctrl_cfg.row_hit_cap,
                scheduler=ctrl_cfg.scheduler,
            )
            for channel in self.channels
        ]
        #: Runtime sanitizer (REPRO_SANITIZE=1): protocol checkers on
        #: every controller plus the restore and finalize audits.  Off
        #: by default — no checker is attached, so the scheduling hot
        #: path is unchanged.
        self._sanitize = sanitize_enabled()
        if self._sanitize:
            attach_checkers(self)

        if trace_overrides is not None and len(trace_overrides) != workload.num_cores:
            raise ValueError("need one trace override per core")

        # Probe the snapshot cache *before* building the hierarchy: with
        # a warm snapshot in hand, the caches skip allocating their
        # per-set containers (restore replaces them wholesale), which is
        # the dominant construction cost on large LLCs.
        fast_path = trace_overrides is None and precompiled_traces
        disk_dir = None
        key = None
        snapshot = None
        if fast_path and use_snapshots:
            disk_dir = snapshot_disk_dir(snapshot_dir)
            key = warm_fingerprint(config, workload, seed, warmup_events_per_core)
            snapshot = SNAPSHOTS.lookup(key, disk_dir)
        lazy_sets = snapshot is not None

        cache_cfg = config.cache
        l2 = SetAssociativeCache(
            cache_cfg.llc_bytes, cache_cfg.llc_ways, name="L2", lazy_sets=lazy_sets
        )
        l1s = None
        if cache_cfg.use_l1:
            l1s = [
                SetAssociativeCache(
                    cache_cfg.l1_bytes,
                    cache_cfg.l1_ways,
                    name=f"L1-{i}",
                    lazy_sets=lazy_sets,
                )
                for i in range(workload.num_cores)
            ]
        dbi = None
        if scheme.dbi:
            # A bound method of the mapper, not a closure over ``self``:
            # a closure would make a reference cycle, leaving every DBI
            # System and its LLC to the cyclic collector.
            dbi = DirtyBlockIndex(
                row_of=self.mapper.line_row_id,
                max_writebacks=cache_cfg.dbi_max_writebacks,
            )
        self.hierarchy = CacheHierarchy(l2, l1s=l1s, dbi=dbi)

        #: Whether this System skipped warmup via a snapshot restore.
        self.snapshot_restored = False
        core_cfg = config.core
        self.cores: List[Core] = []

        def _make_core(core_id: int, trace: tuple, start: int, end: int) -> Core:
            return Core(
                core_id,
                trace,
                start,
                end,
                cpu_per_mem_clock=core_cfg.cpu_per_mem_clock,
                nonmem_cpi=core_cfg.nonmem_cpi,
                max_outstanding_misses=core_cfg.max_outstanding_misses,
                rob_instructions=core_cfg.rob_instructions,
            )

        if fast_path:
            # Fast path: shared trace blocks + warm-state snapshots
            # (the snapshot itself was already looked up above).
            blocks_per_core = [
                compiled_trace(profile, seed=seed, core_id=core_id)
                for core_id, profile in enumerate(workload.apps)
            ]
            if snapshot is not None:
                restore_warm_state(self.hierarchy, snapshot)
                self.snapshot_restored = True
                if self._sanitize:
                    verify_restore(self.hierarchy, snapshot)
            if not self.snapshot_restored:
                for core_id, blocks in enumerate(blocks_per_core):
                    blocks.ensure(warmup_events_per_core)
                    self.hierarchy.warm_block(
                        core_id,
                        blocks.addrs,
                        blocks.masks,
                        0,
                        warmup_events_per_core,
                    )
                if use_snapshots:
                    SNAPSHOTS.store(
                        key,
                        capture_warm_state(
                            self.hierarchy, with_digest=self._sanitize
                        ),
                        disk_dir,
                    )
            # Each core reads its window of the shared arrays.
            end = warmup_events_per_core + events_per_core
            for core_id, blocks in enumerate(blocks_per_core):
                blocks.ensure(end)
                self.cores.append(
                    _make_core(
                        core_id,
                        (blocks.gaps, blocks.addrs, blocks.masks, blocks.flags),
                        warmup_events_per_core,
                        end,
                    )
                )
        else:
            # Reference path: per-event iterators, cold warmup; the
            # timed events are packed into arrays once.
            for core_id, profile in enumerate(workload.apps):
                if trace_overrides is not None:
                    stream = iter(trace_overrides[core_id])
                else:
                    stream = iter(
                        TraceGenerator(profile, seed=seed, core_id=core_id)
                    )
                self._warm_caches(core_id, stream, warmup_events_per_core)
                trace = pack_events(islice(stream, events_per_core))
                self.cores.append(_make_core(core_id, trace, 0, len(trace[0])))
        self._reset_cache_stats()

        self._demand_map: Dict[int, Core] = {}
        self._dirty_channels: int = 0
        self.sampler = sampler

    # ------------------------------------------------------------------
    def _warm_caches(
        self, core_id: int, stream: Iterator[TraceEvent], events: int
    ) -> None:
        """Play ``events`` through the hierarchy without timing."""
        access = self.hierarchy.access
        for _ in range(events):
            event = next(stream, None)
            if event is None:
                break
            access(
                core_id,
                event.line_addr,
                write_mask=event.write_mask,
                fill_on_miss=not event.no_fill,
            )

    def _reset_cache_stats(self) -> None:
        """Forget warmup statistics (content is kept)."""
        from repro.cache.set_assoc import CacheStats

        self.hierarchy.l2.stats = CacheStats()
        if self.hierarchy.l1s:
            for l1 in self.hierarchy.l1s:
                l1.stats = CacheStats()
        dbi = self.hierarchy.dbi
        if dbi is not None:
            dbi.proactive_writebacks = 0
            dbi.triggers = 0

    # ------------------------------------------------------------------
    def _process_access(self, core: Core, i: int, cycle: int) -> None:
        """Send access ``i`` of ``core``'s trace through the caches and
        submit the DRAM traffic it makes to the channels' controllers."""
        line_addr = core.addrs[i]
        store = core.masks[i]
        core_id = core.core_id
        traffic = self.hierarchy.access(core_id, line_addr, store, not core.flags[i])
        fills = traffic.fills
        writebacks = traffic.writebacks
        if not (fills or writebacks):
            return
        decode = self.mapper.decode_line
        controllers = self.controllers
        dirty = 0
        demand_miss = not store and not traffic.demand_hit
        for fill_addr in fills:
            addr = decode(fill_addr)
            req = Request(_READ, addr, cycle, FULL_MASK, core_id)
            if demand_miss and fill_addr == line_addr:
                core.note_demand_miss(req.req_id)
                self._demand_map[req.req_id] = core
            controllers[addr.channel].submit(req)
            dirty |= 1 << addr.channel
        for wb_addr, mask in writebacks:
            addr = decode(wb_addr)
            controllers[addr.channel].submit(Request(_WRITE, addr, cycle, mask, core_id))
            dirty |= 1 << addr.channel
        self._dirty_channels |= dirty

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: Optional[int] = None,
        *,
        strict_polling: bool = False,
    ) -> SimResult:
        """Simulate to completion (or ``max_cycles``) and summarize.

        Drains the event loop (:meth:`_passes`) and summarizes at the
        cycle of its last pass.

        ``strict_polling=True`` selects the reference scan-everything
        loop (:meth:`_run_polling`), kept as a debug oracle: both paths
        must produce bit-identical results (see
        ``tests/test_engine_equivalence.py``).
        """
        if strict_polling:
            return self._run_polling(max_cycles)
        cycle = 0
        for cycle in self._passes(max_cycles):
            pass
        return self._finalize(cycle)

    def _passes(self, max_cycles: Optional[int] = None) -> Iterator[int]:
        """The event loop, suspended after every pass.

        The loop is event-driven: each controller reports an exact
        next-wake cycle (the ``step`` hint contract), controllers sit in
        a min-heap keyed by that cycle, and the loop jumps straight to
        the earliest of {controller wake, read completion, core action}.
        A controller is stepped only when its wake cycle arrives or a
        new request dirties it, so the per-cycle Python overhead is paid
        only on cycles where something can actually change.

        Each pass runs at one cycle and yields the cycle of the next
        pass; the generator returns once the run is done (or has
        reached ``max_cycles``), so its last pass ran at the cycle it
        yielded last (0 if it yielded nothing).  :meth:`run` drains it,
        and so does the batch kernel (:mod:`repro.sim.batch`), one pass
        per ``_Lane.advance`` call.  The loop state lives in the
        generator's frame, so a pass reloads nothing.
        """
        cycle = 0
        cores = self.cores
        controllers = self.controllers
        demand_map = self._demand_map
        #: Authoritative next-wake cycle per controller; heap entries
        #: that disagree with it are stale and skipped on pop.
        wake = [0] * len(controllers)
        heap = [(0, idx) for idx in range(len(controllers))]
        heapify(heap)
        #: Lower bound on each core's next action cycle.  A core's
        #: timing only changes through ``try_advance`` (below) and
        #: ``on_fill_complete`` (which resets the bound), so the cached
        #: value stays valid between those points and saves two
        #: ``next_action_cycle`` calls per core per iteration.
        core_next = [0] * len(cores)
        sampler = self.sampler
        while True:
            if sampler is not None:
                sampler.maybe_sample(cycle, self)
            # 1. Deliver completed demand fills due by now.  Bursts
            # serialize on each channel's data bus, so completed_reads
            # is already sorted by done_cycle: pop a due prefix instead
            # of rebuilding the list while fills are in flight.
            next_completion = NEVER
            for ctrl in controllers:
                cr = ctrl.completed_reads
                if not cr:
                    continue
                if cr[0][0] <= cycle:
                    i = 0
                    n = len(cr)
                    while i < n and cr[i][0] <= cycle:
                        done_cycle, req = cr[i]
                        core = demand_map.pop(req.req_id, None)
                        if core is not None:
                            core.on_fill_complete(req.req_id, done_cycle)
                            core_next[core.core_id] = 0
                        i += 1
                    del cr[:i]
                    if not cr:
                        continue
                if cr[0][0] < next_completion:
                    next_completion = cr[0][0]

            # 2. Advance cores (held back under heavy backpressure).
            stalled = False
            for ctrl in controllers:
                if ctrl.overflow:
                    total_overflow = sum(len(c.overflow) for c in controllers)
                    stalled = total_overflow > OVERFLOW_STALL_THRESHOLD
                    break
            if not stalled:
                for idx, core in enumerate(cores):
                    if core_next[idx] > cycle:
                        continue
                    while True:
                        i = core.try_advance(cycle)
                        if i < 0:
                            break
                        self._process_access(core, i, cycle)
                    core_next[idx] = core.next_action_cycle(cycle)

            # 3. External-event horizon for controller batching.
            core_min = min(core_next, default=NEVER)
            limit = next_completion if next_completion < core_min else core_min
            if limit <= cycle:
                limit = cycle + 1

            # 4. Batch-run due (heap) and dirtied channels to the horizon.
            dirty = self._dirty_channels
            self._dirty_channels = 0
            while heap and heap[0][0] <= cycle:
                w, idx = heappop(heap)
                if w != wake[idx]:
                    continue  # stale entry superseded by a dirty re-run
                dirty &= ~(1 << idx)
                w = controllers[idx].run_until(cycle, limit)
                wake[idx] = w
                heappush(heap, (w, idx))
            while dirty:
                idx = (dirty & -dirty).bit_length() - 1
                dirty &= dirty - 1
                w = controllers[idx].run_until(cycle, limit)
                wake[idx] = w
                heappush(heap, (w, idx))

            # 5. Termination check — same ``core.done`` predicate the
            # polling oracle reads, so the two loops can never disagree
            # about when a core is finished.
            for core in cores:
                if not core.done:
                    break
            else:
                if not any(ctrl.pending for ctrl in controllers) and not any(
                    ctrl.completed_reads for ctrl in controllers
                ):
                    return
            if max_cycles is not None and cycle >= max_cycles:
                return

            # 6. Jump to the earliest future event.  core_next is still
            # exact here (fills land only in step 1, issue only in
            # step 2); completed_reads is sorted, so its head is the
            # earliest completion.
            while heap and heap[0][0] != wake[heap[0][1]]:
                heappop(heap)  # shed stale entries so the top is live
            nxt = heap[0][0] if heap else NEVER
            if core_min < nxt:
                nxt = core_min
            for ctrl in controllers:
                cr = ctrl.completed_reads
                if cr and cr[0][0] < nxt:
                    nxt = cr[0][0]
            cycle = nxt if nxt > cycle else cycle + 1
            yield cycle

    # ------------------------------------------------------------------
    def _run_polling(self, max_cycles: Optional[int] = None) -> SimResult:
        """Reference event loop: re-scan every channel each iteration.

        Functionally identical to :meth:`run` (same ``run_until``
        batching, same horizons) but tracks wake cycles in a plain array
        scanned linearly instead of the min-heap.  Kept as the oracle
        for the engine-equivalence regression test; not used on the
        performance path.
        """
        cycle = 0
        cores = self.cores
        controllers = self.controllers
        wake = [0] * len(controllers)
        sampler = self.sampler
        while True:
            if sampler is not None:
                sampler.maybe_sample(cycle, self)
            # 1. Deliver completed demand fills due by now.
            next_completion = NEVER
            for ctrl in controllers:
                if not ctrl.completed_reads:
                    continue
                remaining = []
                for done_cycle, req in ctrl.completed_reads:
                    if done_cycle <= cycle:
                        core = self._demand_map.pop(req.req_id, None)
                        if core is not None:
                            core.on_fill_complete(req.req_id, done_cycle)
                    else:
                        remaining.append((done_cycle, req))
                        if done_cycle < next_completion:
                            next_completion = done_cycle
                ctrl.completed_reads = remaining

            # 2. Advance cores (held back under heavy backpressure).
            total_overflow = sum(len(c.overflow) for c in controllers)
            if total_overflow <= OVERFLOW_STALL_THRESHOLD:
                for core in cores:
                    while True:
                        i = core.try_advance(cycle)
                        if i < 0:
                            break
                        self._process_access(core, i, cycle)

            # 3. External-event horizon for controller batching.
            limit = next_completion
            for core in cores:
                action = core.next_action_cycle(cycle)
                if action < limit:
                    limit = action
            if limit <= cycle:
                limit = cycle + 1

            # 4. Batch-run each due channel up to the horizon.
            dirty = self._dirty_channels
            self._dirty_channels = 0
            for idx, ctrl in enumerate(controllers):
                if wake[idx] <= cycle or dirty >> idx & 1:
                    wake[idx] = ctrl.run_until(cycle, limit)

            # 5. Termination check.
            if all(core.done for core in cores):
                if not any(ctrl.pending for ctrl in controllers) and not any(
                    ctrl.completed_reads for ctrl in controllers
                ):
                    break
            if max_cycles is not None and cycle >= max_cycles:
                break

            # 6. Advance to the next event.
            nxt = NEVER
            for w in wake:
                if w < nxt:
                    nxt = w
            for ctrl in controllers:
                for done_cycle, _ in ctrl.completed_reads:
                    if done_cycle < nxt:
                        nxt = done_cycle
            for core in cores:
                action = core.next_action_cycle(cycle)
                if action < nxt:
                    nxt = action
            cycle = nxt if nxt > cycle else cycle + 1

        return self._finalize(cycle)

    # ------------------------------------------------------------------
    def _finalize(self, cycle: int) -> SimResult:
        """Summarize a run whose event loop made its last pass at ``cycle``."""
        end_cycle = max([cycle] + [ctrl.local_clock for ctrl in self.controllers])
        if self.sampler is not None:
            self.sampler.finalize(end_cycle, self)
        for ctrl in self.controllers:
            ctrl.flush_background(end_cycle)
        merged = ControllerStats()
        for ctrl in self.controllers:
            merged.merge(ctrl.stats)
        core_results = []
        for core, profile in zip(self.cores, self.workload.apps):
            finish = core.finish_cycle if core.finish_cycle is not None else end_cycle
            core_results.append(
                CoreResult(
                    core_id=core.core_id,
                    app_name=profile.name,
                    retired_instructions=core.retired,
                    finish_cycle=finish,
                    ipc=core.ipc(finish),
                )
            )
        dbi = self.hierarchy.dbi
        result = SimResult(
            scheme_name=self.config.scheme.name,
            policy_name=self.config.policy.value,
            workload_name=self.workload.name,
            runtime_cycles=end_cycle,
            cores=core_results,
            controller=merged,
            power=self.accountant.breakdown(end_cycle),
            activation_histogram=dict(self.accountant.activations_by_granularity),
            llc=self.hierarchy.l2.stats,
            dirty_word_fractions=self.hierarchy.dirty_word_fractions(),
            dbi_proactive_writebacks=(
                dbi.proactive_writebacks if dbi is not None else 0
            ),
        )
        if self._sanitize:
            check_finalize(self, result)
        return result


def simulate(
    config: SystemConfig,
    workload: Workload,
    events_per_core: int,
    seed: Optional[int] = None,
    max_cycles: Optional[int] = None,
    warmup_events_per_core: Optional[int] = None,
    snapshot_dir: Optional[str] = None,
) -> SimResult:
    """Convenience one-shot: build a :class:`System` and run it."""
    system = System(
        config,
        workload,
        events_per_core,
        seed=seed,
        warmup_events_per_core=warmup_events_per_core,
        snapshot_dir=snapshot_dir,
    )
    return system.run(max_cycles)
