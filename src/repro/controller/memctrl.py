"""FR-FCFS memory controller with PRA support (one instance per channel).

Implements the paper's baseline controller (Section 5.1.2) plus the PRA
extensions (Section 4):

* FR-FCFS scheduling: ready row-buffer hits first, then oldest-first,
  with reads prioritized over writes;
* separate 64-entry read/write queues with 48/16 high/low watermarks
  driving write drains;
* relaxed close-page (close rows nothing can use; precharge power-down)
  or restricted close-page (auto-precharge after every access);
* a 4-access row-hit cap per activation to preserve fairness;
* PRA: masked write activations (mask = OR of queued same-row writes),
  +1 cycle mask transfer on the address bus, false-row-buffer-hit
  detection and recovery (PRE + re-ACT), relaxed tRRD/tFAW for partial
  activations, and partial write bursts (only dirty words driven);
* refresh every tREFI with open-bank force-precharge.

The controller is stepped by the system simulator; ``step`` issues at
most one *scheduling decision* and returns a *hint*: the next cycle at
which calling again could make progress (used for event skip-ahead).

Two structural optimizations define this controller's hot path:

**Array-backed timing state.**  All per-(rank, bank) and per-rank
timing state lives in the channel's :class:`repro.dram.soa.TimingCore`
flat integer arrays, indexed by ``g = rank * num_banks + bank``.  The
scheduling passes bind those arrays as locals and read/write them
directly; the ``Bank``/``Rank`` objects are views over the same arrays,
so the object API (unit tests, reference models) and the scheduler can
never disagree.

**Burst-streak scheduling.**  When a bank wins arbitration with N
queued column hits to its open row (mask-compatible under PRA), the
entire back-to-back streak is precomputed and committed in one pass:
issue cycles spaced ``max(tCCD, burst_cycles)`` apart (which by
construction also fits the data bus with no intra-streak tRTRS, since
all bursts come from one rank), completions, queue removals, stats and
power events recorded together, and the command bus reserved until the
last command.  This replaces N rounds of arbitration, timing checks
and wake-heap maintenance with one.  A streak is bounded by the
row-hit cap and never extends past any rank's refresh deadline.  Note
the streak is *atomic*: it is a deliberate scheduling-policy change
relative to per-command arbitration (other banks' ACT/PRE no longer
interleave between the hits), applied identically by the event engine
and the ``strict_polling`` oracle, which share this code.
"""

from __future__ import annotations

import math
from collections import deque
from typing import List, Optional, Tuple

from repro.controller.policies import ROW_HIT_CAP, RowPolicy
from repro.controller.queues import RequestQueue
from repro.controller.stats import ControllerStats
from repro.core import mask as mask_ops
from repro.core.schemes import Scheme
from repro.dram.channel import Channel
from repro.dram.geometry import FULL_MASK, WORDS_PER_LINE
from repro.dram.commands import Request
from repro.dram.protocol import Cmd, CommandRecord, ProtocolChecker
from repro.dram.timing import TimingParams, derived_timing
from repro.power.accounting import PowerAccountant

_NEVER = 1 << 62

# Oracle-parity declaration enforced by reprolint: the event-driven
# scheduler below is the fast path; ``repro.sim.system`` retains the
# ``strict_polling`` oracle that steps the very same controller cycle
# by cycle.  The golden digests in tests/test_engine_identity.py pin
# its command stream and results.
REPRO_FAST_PATH = True
ORACLE_TWIN = ("repro.sim.system",)
ORACLE_TESTS = (
    "tests/test_engine_equivalence.py",
    "tests/test_engine_identity.py",
)


class ChannelController:
    """Memory controller for a single channel."""

    def __init__(
        self,
        channel: Channel,
        scheme: Scheme,
        timing: TimingParams,
        policy: RowPolicy,
        accountant: PowerAccountant,
        read_queue_size: int = 64,
        write_queue_size: int = 64,
        drain_high_watermark: int = 48,
        drain_low_watermark: int = 16,
        scan_depth: int = 8,
        row_hit_cap: int = ROW_HIT_CAP,
        scheduler: str = "frfcfs",
    ) -> None:
        if not 0 <= drain_low_watermark < drain_high_watermark <= write_queue_size:
            raise ValueError("watermarks must satisfy 0 <= low < high <= capacity")
        if scheduler not in ("frfcfs", "fcfs"):
            raise ValueError(f"unknown scheduler {scheduler!r}")
        self.channel = channel
        self.scheme = scheme
        self.timing = timing
        self.policy = policy
        self.accountant = accountant
        self.read_q = RequestQueue(read_queue_size)
        self.write_q = RequestQueue(write_queue_size)
        self.hi_mark = drain_high_watermark
        self.lo_mark = drain_low_watermark
        self.scan_depth = scan_depth
        #: "frfcfs" (paper baseline: ready row hits first) or "fcfs"
        #: (pure oldest-first; ablation of the hit-first pass).
        self.scheduler = scheduler
        self.row_hit_cap = row_hit_cap if policy.allows_row_hits else 0
        self.stats = ControllerStats()
        self.draining = False
        #: (complete_cycle, request) pairs for reads whose data returned.
        self.completed_reads: List[Tuple[int, Request]] = []
        #: Requests that found their queue full; drained FIFO as space
        #: frees (models an admission buffer in front of the controller).
        self.overflow: "deque[Request]" = deque()
        #: Highest cycle at which this controller has issued a command
        #: (the last command of a streak included), plus one; batched
        #: simulation never reprocesses earlier cycles.
        self.local_clock: int = 0
        self._other_ranks = len(channel.ranks) - 1
        #: Whether writes need full coverage from an open (partial) row.
        self._write_needs_mask = scheme.write_uses_mask
        #: Optional differential verifier (repro.dram.protocol); every
        #: issued command is replayed through it when attached.
        self.protocol_checker: Optional[ProtocolChecker] = None
        # Hot-path caches (invariant after construction).
        d = derived_timing(timing)
        self._tcas = timing.tcas
        self._tcwl = timing.tcwl
        self._twr = timing.twr
        self._tccd = timing.tccd
        self._trtp = timing.trtp
        self._trp = timing.trp
        self._tras = timing.tras
        self._trc = timing.trc
        self._trcd = timing.trcd
        self._trcd_masked = d.trcd_masked
        self._trrd = timing.trrd
        self._trtrs = timing.trtrs
        self._frfcfs = scheduler == "frfcfs"
        self._relax = scheme.relax_act_constraints
        self._num_banks = channel.core.num_banks
        self._close_idle = policy.closes_idle_rows
        self._allows_hits = policy.allows_row_hits
        self._auto_pre = policy.auto_precharge
        self._uses_power_down = policy.uses_power_down
        #: Shared flat timing-state arrays (see module docstring).
        self._core = channel.core
        #: Data-bus occupancy of one line transfer (FGA-doubled).
        self._burst_cycles = timing.tburst * channel.burst_cycles_multiplier
        #: Issue-to-issue spacing of streak column commands: tCCD and
        #: back-to-back data-bus occupancy, whichever binds.
        self._spacing = max(d.col_spacing, self._burst_cycles)
        #: Streaks need the hit-first pass and a row-hit budget; the
        #: fcfs ablation and restricted close-page stay per-command.
        self._streaks = self._frfcfs and self._allows_hits
        #: Per-global-bank-index packed row-key base: OR-ing the open
        #: row in gives the queues' ``_by_row`` int key directly.
        self._keybase = [
            (r << 40) | (b << 32)
            for r in range(channel.core.num_ranks)
            for b in range(self._num_banks)
        ]
        #: Per-rank bitmask of open banks whose row is known useless
        #: (no live request in either queue can use it, or the row-hit
        #: cap is exhausted).  Useless is *sticky* between arrivals:
        #: serving requests only removes candidates, so the flag stays
        #: valid until a new request for that bank arrives (cleared in
        #: :meth:`enqueue`) or a new row opens (cleared on ACT).
        self._useless: List[int] = [0] * len(channel.ranks)
        #: Per-rank lower bound on the earliest cycle any *useless* open
        #: bank becomes closable (min pre_ready over those banks).  A
        #: useless bank receives no column commands, so its pre_ready is
        #: frozen until it closes; the step walk therefore skips all
        #: useless banks with one compare until this cycle arrives
        #: (stale-early values merely waste a probe, never delay one,
        #: which keeps the hint contract intact).
        self._idle_close_at: List[int] = [_NEVER] * len(channel.ranks)
        #: Precomputed activation plan for reads (coverage, fraction,
        #: masked, granularity, tRRD/tFAW weight) - reads never merge
        #: masks, so the plan is a constant of the scheme.
        _read_gran = max(1, math.ceil(scheme.read_fraction * 8 - 1e-9))
        self._read_plan = (
            FULL_MASK,
            scheme.read_fraction,
            False,
            _read_gran,
            _read_gran / 8.0 if self._relax else 1.0,
        )
        #: Everything :meth:`step` binds as locals that is identity-
        #: stable after construction (the core arrays mutate in place
        #: but are never reallocated).  One attribute load and a tuple
        #: unpack replace ~25 per-call attribute lookups on the hottest
        #: call in the simulator.
        core = channel.core
        self._hot = (
            core.open_row, core.open_mask, core.act_ready,
            core.pre_ready, core.accesses, core.autopre, core.gate,
            core.open_bits, core.col_ready, core.reserved,
            core.next_act_ok, core.next_col_ok, core.next_read_ok,
            core.next_write_ok, self._keybase, self._useless,
            self._idle_close_at, self._num_banks, self._trp,
            self._tcas, self._tcwl, self._trtrs, self.row_hit_cap,
            self._close_idle, self._auto_pre, self.stats,
            core.pd, core.next_refresh,
        )

    # ------------------------------------------------------------------
    # Queue interface (used by the CPU/cache side)
    # ------------------------------------------------------------------
    def can_accept(self, req: Request) -> bool:
        queue = self.read_q if req.is_read else self.write_q
        return not queue.is_full

    def enqueue(self, req: Request) -> bool:
        """Admit a request; returns False when the queue is full."""
        queue = self.read_q if req.is_read else self.write_q
        if queue.is_full:
            return False
        req._missed = False
        req._false = False
        # Reads always carry a full dirty mask, so this collapses to
        # FULL_MASK for them either way.
        req._needed = req.dirty_mask if self._write_needs_mask else FULL_MASK
        queue.append(req)
        # A new arrival can make this bank's open row useful again.
        self._useless[req.addr.rank] &= ~(1 << req.addr.bank)
        return True

    def submit(self, req: Request) -> None:
        """Admit a request, spilling to the admission buffer if full."""
        if self.overflow or not self.enqueue(req):
            self.overflow.append(req)

    def _drain_overflow(self) -> None:
        buf = self.overflow
        while buf and self.enqueue(buf[0]):
            buf.popleft()

    @property
    def pending(self) -> int:
        return len(self.read_q) + len(self.write_q) + len(self.overflow)

    def _observe(self, record: CommandRecord) -> None:
        if self.protocol_checker is not None:
            self.protocol_checker.observe(record)

    def _needed_mask(self, req: Request) -> int:
        """MAT-group coverage the request needs from an open row."""
        return req._needed

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def step(self, cycle: int) -> Tuple[bool, int]:
        """Try to issue one scheduling decision at ``cycle``.

        Returns ``(issued, hint)`` where ``hint`` is the next cycle at
        which progress may be possible (valid when nothing issued).  A
        decision is usually one command; a burst streak commits several
        column commands at once and reserves the command bus until its
        last one.

        The hint contract is load-bearing for the event engine in
        :meth:`repro.sim.system.System.run`: a returned hint must never
        be *later* than the true next cycle at which this controller
        could issue a command or fire a housekeeping action (stepping at
        the hint and finding nothing to do is merely wasted work;
        skipping past a ready cycle would change the schedule).  Every
        blocking condition below therefore contributes its exact ready
        cycle: command-bus free, per-bank ACT/column/PRE ready cycles,
        refresh deadlines and close-idle opportunities.
        """
        channel = self.channel
        if self.overflow:
            self._drain_overflow()
        if cycle < channel.cmd_bus_free:
            return (False, channel.cmd_bus_free)

        hint = _NEVER
        refresh_pending = 0  # bitmask of ranks due for refresh
        read_q, write_q = self.read_q, self.write_q
        no_checker = self.protocol_checker is None
        (open_row_a, open_mask_a, act_ready_a, pre_ready_a, accesses_a,
         autopre_a, gate_a, open_bits_a, col_ready_a, reserved_a,
         next_act_ok_a, next_col_ok_a, next_read_ok_a, next_write_ok_a,
         keybase, useless, idle_close_at, nb, trp, tcas, tcwl, trtrs,
         hit_cap, close_idle, auto_pre, stats, pd_a,
         next_refresh_a) = self._hot
        # One scheduling pass got past the command-bus gate (phase
        # profiling; deliberately excluded from result summaries so
        # engine/oracle equivalence checks stay step-count agnostic).
        stats.sched_passes += 1

        # --- Write drain hysteresis (48/16 watermarks) ---
        writes_pending = write_q._count
        if self.draining and writes_pending <= self.lo_mark:
            self.draining = False
        elif not self.draining and writes_pending >= self.hi_mark:
            self.draining = True
            stats.drain_entries += 1

        serve_writes = self.draining or (not read_q._count and writes_pending)
        primary = write_q if serve_writes else read_q
        primary_by_row = primary._by_row

        # --- Housekeeping + refresh + pass 1 candidate (one pass) ---
        # The FR-FCFS hit scan rides the same open-bank walk as
        # housekeeping so each bank's ``_by_row`` bucket is fetched at
        # most once per step.
        pass1 = hit_cap and self._frfcfs
        best = None
        best_rank = best_bank = best_g = 0
        for rank_idx, rank in enumerate(channel.ranks):
            refresh_due = cycle >= next_refresh_a[rank_idx]
            if refresh_due:
                refresh_pending |= 1 << rank_idx
                if pd_a[rank_idx]:
                    rank.exit_power_down(cycle)
                    if rank.pd_exit_ready < hint:
                        hint = rank.pd_exit_ready
                    continue
                gate = gate_a[rank_idx]
                if cycle < gate:
                    if gate < hint:
                        hint = gate
                    continue
            bits = open_bits_a[rank_idx]
            gbase = rank_idx * nb
            if close_idle and not refresh_due:
                # Known-useless open banks: frozen pre_ready, nothing to
                # probe.  Skip them all until the cached earliest-close
                # cycle, then close the due ones and re-derive the min.
                ubits = bits & useless[rank_idx]
                if ubits:
                    bits ^= ubits
                    ca = idle_close_at[rank_idx]
                    if cycle >= ca:
                        new_min = _NEVER
                        while ubits:
                            low = ubits & -ubits
                            ubits ^= low
                            g = gbase + low.bit_length() - 1
                            pr = pre_ready_a[g]
                            if cycle >= pr:
                                # Background state only changes when the
                                # rank's *last* open bank closes (or its
                                # first opens); spans between transitions
                                # accrue lazily at the next transition,
                                # charged to the same - unchanged - state.
                                if not (open_bits_a[rank_idx] & ~low):
                                    rank.accrue_background(cycle)
                                open_bits_a[rank_idx] &= ~low
                                open_row_a[g] = -1
                                open_mask_a[g] = FULL_MASK
                                act = cycle + trp
                                if act > act_ready_a[g]:
                                    act_ready_a[g] = act
                                stats.precharges += 1
                                if not no_checker:
                                    self._observe_pre(
                                        cycle, rank_idx,
                                        low.bit_length() - 1, implicit=True,
                                    )
                            elif pr < new_min:
                                new_min = pr
                        idle_close_at[rank_idx] = new_min
                        if new_min < hint:
                            hint = new_min
                    elif ca < hint:
                        hint = ca
            while bits:
                low = bits & -bits
                bits ^= low
                bank_idx = low.bit_length() - 1
                g = gbase + bank_idx
                # Auto-precharge (restricted policy) is command-free.
                if auto_pre and autopre_a[g]:
                    if cycle >= pre_ready_a[g]:
                        if not (open_bits_a[rank_idx] & ~low):
                            rank.accrue_background(cycle)
                        open_bits_a[rank_idx] &= ~low
                        open_row_a[g] = -1
                        open_mask_a[g] = FULL_MASK
                        act = cycle + trp
                        if act > act_ready_a[g]:
                            act_ready_a[g] = act
                        autopre_a[g] = False
                        stats.precharges += 1
                        if not no_checker:
                            self._observe_pre(cycle, rank_idx, bank_idx, implicit=True)
                    else:
                        if pre_ready_a[g] < hint:
                            hint = pre_ready_a[g]
                    continue
                if refresh_due:
                    # Force-close for refresh (consumes the command slot).
                    if cycle >= pre_ready_a[g]:
                        if not (open_bits_a[rank_idx] & ~low):
                            rank.accrue_background(cycle)
                        open_bits_a[rank_idx] &= ~low
                        open_row_a[g] = -1
                        open_mask_a[g] = FULL_MASK
                        act = cycle + trp
                        if act > act_ready_a[g]:
                            act_ready_a[g] = act
                        stats.precharges += 1
                        if not no_checker:
                            self._observe_pre(cycle, rank_idx, bank_idx)
                        channel.cmd_bus_free = cycle + 1
                        return (True, cycle + 1)
                    if pre_ready_a[g] < hint:
                        hint = pre_ready_a[g]
                    continue
                capped = hit_cap and accesses_a[g] >= hit_cap
                dq = None  # primary-queue bucket, if fetched below
                if close_idle:
                    # Banks already known useless were stripped from the
                    # walk above, so this bank needs a fresh probe.
                    useful = False
                    if not capped:
                        key = keybase[g] | open_row_a[g]
                        rdq = read_q._by_row.get(key)
                        if rdq is not None:
                            while rdq and rdq[0].served:
                                rdq.popleft()
                            if not rdq:
                                del read_q._by_row[key]
                        if rdq:
                            useful = True
                            if primary is read_q:
                                dq = rdq
                        else:
                            wdq = write_q._by_row.get(key)
                            if wdq is not None:
                                while wdq and wdq[0].served:
                                    wdq.popleft()
                                if not wdq:
                                    del write_q._by_row[key]
                            if wdq:
                                useful = True
                                if primary is write_q:
                                    dq = wdq
                    if not useful:
                        if cycle >= pre_ready_a[g]:
                            if not (open_bits_a[rank_idx] & ~low):
                                rank.accrue_background(cycle)
                            open_bits_a[rank_idx] &= ~low
                            open_row_a[g] = -1
                            open_mask_a[g] = FULL_MASK
                            act = cycle + trp
                            if act > act_ready_a[g]:
                                act_ready_a[g] = act
                            stats.precharges += 1
                            if not no_checker:
                                self._observe_pre(cycle, rank_idx, bank_idx, implicit=True)
                            continue
                        # Exact wake for the close-idle opportunity: the
                        # row is useless, it just cannot be closed
                        # before tRAS/tWR/tRTP expire.  Record it in the
                        # useless set and its pre_ready in the per-rank
                        # earliest-close cache.
                        useless[rank_idx] |= 1 << bank_idx
                        pr = pre_ready_a[g]
                        if pr < idle_close_at[rank_idx]:
                            idle_close_at[rank_idx] = pr
                        if pr < hint:
                            hint = pr
                        continue
                # Pass 1: oldest ready row-buffer hit (FR-FCFS).
                if pass1 and not capped:
                    if dq is None:
                        key = keybase[g] | open_row_a[g]
                        dq = primary_by_row.get(key)
                        if dq is not None:
                            while dq and dq[0].served:
                                dq.popleft()
                            if not dq:
                                del primary_by_row[key]
                    if dq:
                        cand = dq[0]
                        if not (cand._needed & ~open_mask_a[g]) and (
                            best is None
                            or cand.arrive_cycle < best.arrive_cycle
                            or (
                                cand.arrive_cycle == best.arrive_cycle
                                and cand.req_id < best.req_id
                            )
                        ):
                            best = cand
                            best_rank = rank_idx
                            best_bank = bank_idx
                            best_g = g
            if open_bits_a[rank_idx]:
                continue
            if refresh_due:
                if not pd_a[rank_idx] and cycle >= gate_a[rank_idx]:
                    rank.do_refresh(cycle)
                    self.accountant.on_refresh()
                    stats.refreshes += 1
                    if not no_checker:
                        self._observe(CommandRecord(cycle=cycle, cmd=Cmd.REF, rank=rank_idx))
                    channel.cmd_bus_free = cycle + 1
                    return (True, cycle + 1)
            elif (
                self._uses_power_down
                and not pd_a[rank_idx]
                and not read_q._per_rank.get(rank_idx)
                and not write_q._per_rank.get(rank_idx)
            ):
                rank.enter_power_down(cycle)
                stats.power_down_entries += 1

        # The data bus is only reserved by column issue, which ends the
        # step - so one read per step is safe.
        free = channel.data_bus_free
        last = channel.last_burst_rank

        # --- Pass 1 column attempt for the best ready hit ---
        skip_req = None
        skip_hint = 0
        if best is not None:
            ri = best_rank
            # Rank/bank column-readiness pre-check, including data-bus
            # fitting: the full attempt only matters once both the
            # command slot and the burst slot are legal.  Bus occupancy
            # never shrinks, so the bus-aware hint is never late.
            t = next_col_ok_a[ri]
            o = next_read_ok_a[ri] if best.is_read else next_write_ok_a[ri]
            if o > t:
                t = o
            cr = col_ready_a[best_g]
            if cr > t:
                t = cr
            if gate_a[ri] > t:
                t = gate_a[ri]
            if t < cycle:
                t = cycle
            dd = tcas if best.is_read else tcwl
            bs = t + dd
            if bs < free:
                bs = free
            if last != ri and last != -1:
                alt = free + trtrs
                if alt > bs:
                    bs = alt
            if bs > t + dd:
                t = bs - dd
            if t > cycle:
                h = t
            else:
                issued, h = self._try_column(cycle, best, best_rank, best_bank)
                if issued:
                    return (True, cycle + 1)
            if h < hint:
                hint = h
            # Pass 2 would retry the identical attempt for this
            # request; replay the outcome instead of recomputing it.
            skip_req = best
            skip_hint = h

        # --- Pass 2: oldest-first over the primary queue ---
        # Inlined into step() so both passes share one set of local
        # bindings; this scan is the hottest loop in the simulator.
        banks_seen = 0  # bitmask over (rank, bank) pairs
        ranks = channel.ranks
        allows_hits = self._allows_hits
        scan_left = self.scan_depth
        # Direct FIFO scan (hot path): equivalent to iter_oldest() but
        # without generator overhead.
        fifo = primary._fifo
        while fifo and fifo[0].served:
            fifo.popleft()
        for req in fifo:
            if req.served:
                continue
            addr = req.addr
            rank_idx = addr.rank
            if refresh_pending and refresh_pending >> rank_idx & 1:
                if scan_left <= 1:
                    break
                scan_left -= 1
                continue
            bank_idx = addr.bank
            g = rank_idx * nb + bank_idx
            bank_bit = 1 << g
            if banks_seen & bank_bit:
                # An older request to this bank already failed.
                if scan_left <= 1:
                    break
                scan_left -= 1
                continue
            banks_seen |= bank_bit
            rank = ranks[rank_idx]
            if pd_a[rank_idx]:
                rank.exit_power_down(cycle)
                if rank.pd_exit_ready < hint:
                    hint = rank.pd_exit_ready
                if scan_left <= 1:
                    break
                scan_left -= 1
                continue
            open_row = open_row_a[g]
            if open_row < 0:
                # Cheap ACT pre-check before the (mask-merging) full
                # attempt: the plan only matters once the slot is legal.
                t = next_act_ok_a[rank_idx]
                if act_ready_a[g] > t:
                    t = act_ready_a[g]
                if gate_a[rank_idx] > t:
                    t = gate_a[rank_idx]
                if t > cycle:
                    h = t
                else:
                    issued, h = self._try_activate(cycle, req, rank_idx, bank_idx)
                    if issued:
                        return (True, cycle + 1)
            elif open_row == addr.row and not (req._needed & ~open_mask_a[g]):
                # Restricted close-page permits exactly one column access
                # per activation: the one the ACT was issued for.
                may_access = (
                    accesses_a[g] < hit_cap
                    if allows_hits
                    else (accesses_a[g] == 0 and reserved_a[g] == req.req_id)
                )
                if may_access:
                    if req is skip_req:
                        # Pass 1 already made this exact attempt (same
                        # request, same cycle, no state change since);
                        # replay its failure instead of recomputing.
                        h = skip_hint
                    else:
                        t = next_col_ok_a[rank_idx]
                        o = (
                            next_read_ok_a[rank_idx]
                            if req.is_read
                            else next_write_ok_a[rank_idx]
                        )
                        if o > t:
                            t = o
                        cr = col_ready_a[g]
                        if cr > t:
                            t = cr
                        if gate_a[rank_idx] > t:
                            t = gate_a[rank_idx]
                        if t < cycle:
                            t = cycle
                        dd = tcas if req.is_read else tcwl
                        bs = t + dd
                        if bs < free:
                            bs = free
                        if last != rank_idx and last != -1:
                            alt = free + trtrs
                            if alt > bs:
                                bs = alt
                        if bs > t + dd:
                            t = bs - dd
                        if t > cycle:
                            h = t
                        else:
                            issued, h = self._try_column(cycle, req, rank_idx, bank_idx)
                            if issued:
                                return (True, cycle + 1)
                else:
                    # Row exhausted for this request: explicit PRE.
                    gate = gate_a[rank_idx]
                    pr = pre_ready_a[g]
                    if cycle < gate:
                        h = gate
                    elif cycle < pr:
                        h = pr
                    else:
                        bank_low = 1 << bank_idx
                        if not (open_bits_a[rank_idx] & ~bank_low):
                            rank.accrue_background(cycle)
                        open_bits_a[rank_idx] &= ~bank_low
                        open_row_a[g] = -1
                        open_mask_a[g] = FULL_MASK
                        act = cycle + trp
                        if act > act_ready_a[g]:
                            act_ready_a[g] = act
                        autopre_a[g] = False
                        stats.precharges += 1
                        if not no_checker:
                            self._observe_pre(cycle, rank_idx, bank_idx)
                        channel.cmd_bus_free = cycle + 1
                        return (True, cycle + 1)
            else:
                if open_row == addr.row and not req._false:
                    req._false = True
                    stats.false_hit_reactivations += 1
                if self._row_still_useful(rank_idx, bank_idx, g, primary):
                    if scan_left <= 1:
                        break
                    scan_left -= 1
                    continue  # let pending hits to the open row drain first
                # Conflicting row: explicit PRE.
                gate = gate_a[rank_idx]
                pr = pre_ready_a[g]
                if cycle < gate:
                    h = gate
                elif cycle < pr:
                    h = pr
                else:
                    bank_low = 1 << bank_idx
                    if not (open_bits_a[rank_idx] & ~bank_low):
                        rank.accrue_background(cycle)
                    open_bits_a[rank_idx] &= ~bank_low
                    open_row_a[g] = -1
                    open_mask_a[g] = FULL_MASK
                    act = cycle + trp
                    if act > act_ready_a[g]:
                        act_ready_a[g] = act
                    autopre_a[g] = False
                    stats.precharges += 1
                    if not no_checker:
                        self._observe_pre(cycle, rank_idx, bank_idx)
                    channel.cmd_bus_free = cycle + 1
                    return (True, cycle + 1)
            if h < hint:
                hint = h
            if scan_left <= 1:
                break
            scan_left -= 1

        # Idle: wake for the next refresh deadline.
        for nr in next_refresh_a:
            if nr < hint:
                hint = nr
        return (False, hint if hint > cycle else cycle + 1)

    def _observe_pre(
        self, cycle: int, rank_idx: int, bank_idx: int, implicit: bool = False
    ) -> None:
        if self.protocol_checker is not None:
            self.protocol_checker.observe(CommandRecord(
                cycle=cycle, cmd=Cmd.PRE, rank=rank_idx,
                bank=bank_idx, implicit=implicit))

    # ------------------------------------------------------------------
    def run_until(self, cycle: int, limit: int) -> int:
        """Issue commands from ``cycle`` until (exclusive) ``limit``.

        ``limit`` must be the next cycle at which the outside world can
        change the controller's inputs (a new request arrival or an
        already-pending completion).  If a read completes *earlier*
        than ``limit``, the batch stops there so the waiting core can
        react on time.  Returns the next cycle at which calling the
        controller could make progress.
        """
        local = max(cycle, self.local_clock)
        if local >= limit:
            return local
        step = self.step
        completed = self.completed_reads
        completions_seen = len(completed)
        while local < limit:
            issued, hint = step(local)
            if issued:
                n = len(completed)
                if n > completions_seen:
                    while completions_seen < n:
                        done_cycle = completed[completions_seen][0]
                        if done_cycle < limit:
                            limit = done_cycle
                        completions_seen += 1
                # Nothing can issue while the command bus is busy (a
                # masked ACT owns two cycles, a streak owns it through
                # its last column command), and ``step`` bails on a busy
                # bus before any housekeeping - so jump straight past it
                # instead of probing just to learn that.
                nxt = local + 1
                bus_free = self.channel.cmd_bus_free
                if bus_free > nxt:
                    nxt = bus_free
                self.local_clock = nxt
                if nxt >= limit:
                    return nxt
                local = nxt
                continue
            if hint >= limit:
                return hint
            if not (self.read_q._count or self.write_q._count or self.overflow):
                # Only refreshes remain; let the outer loop pace them so
                # an unbounded horizon cannot trap the batch here.
                return hint
            local = hint
        return limit

    # ------------------------------------------------------------------
    def _row_still_useful(
        self, rank_idx: int, bank_idx: int, g: int, primary: RequestQueue
    ) -> bool:
        """True if the open row has coverable requests in ``primary``.

        Only the queue currently being served may keep a row open:
        otherwise a read conflicting with a row that only queued writes
        could use would wait for writes that are themselves waiting for
        the read queue to empty (priority livelock).
        """
        if not self._allows_hits:
            return False
        if not self._frfcfs:
            # Strict order: the oldest request always wins the bank.
            return False
        if self._useless[rank_idx] >> bank_idx & 1:
            # Known-useless (empty buckets in both queues, or capped):
            # skip the bucket walk entirely.
            return False
        core = self._core
        if core.accesses[g] >= self.row_hit_cap:
            return False
        packed = self._keybase[g] | core.open_row[g]
        agg = primary._row_agg.get(packed)
        if agg is None:
            # No live request for the row (aggregates drop at live==0,
            # so this also covers buckets full of served stragglers).
            return False
        closed_groups = ~core.open_mask[g]
        if not (agg[0] & closed_groups):
            # The aggregate OR never understates the live union, so a
            # fully-covered OR proves every live member is coverable.
            return True
        dq = primary._by_row.get(packed)
        if not dq:
            return False
        for cand in dq:
            if not cand.served and not (cand._needed & closed_groups):
                return True
        return False

    # ------------------------------------------------------------------
    # Command issue helpers
    # ------------------------------------------------------------------
    def _activation_plan(self, req: Request) -> Tuple[int, float, bool]:
        """Coverage mask, activated fraction and masked? for an ACT."""
        scheme = self.scheme
        if req.is_write and scheme.write_uses_mask:
            # Queued writes carry ``_needed == dirty_mask`` under mask
            # schemes, so the queue's per-row OR aggregate *is* the
            # Section 5.2.1 merge — O(1) when fresh instead of a bucket
            # walk per ACT.  ``req`` is still queued here, but OR its
            # own mask anyway so the plan never depends on that.
            merged = req.dirty_mask | self.write_q.merged_needed(req._rowkey)
            fraction = (
                mask_ops.popcount(merged) / WORDS_PER_LINE
            ) * scheme.mask_scale
            masked = merged != FULL_MASK
            return (merged, fraction, masked)
        if req.is_write:
            return (FULL_MASK, scheme.write_fraction, False)
        return (FULL_MASK, scheme.read_fraction, False)

    def _try_activate(
        self, cycle: int, req: Request, rank_idx: int, bank_idx: int
    ) -> Tuple[bool, int]:
        core = self._core
        g = rank_idx * self._num_banks + bank_idx
        rank = self.channel.ranks[rank_idx]
        relax = self._relax
        if req.is_read:
            # Reads always activate the scheme's fixed read fraction;
            # the whole plan (and its tRRD/tFAW weight) is precomputed.
            coverage, fraction, masked, granularity, weight = self._read_plan
        else:
            coverage, fraction, masked = self._activation_plan(req)
            # Ceil, not round: a 2.5/8 activation must weigh at least
            # 3/8 in the tRRD/tFAW budget (conservative for peak power).
            granularity = max(1, math.ceil(fraction * 8 - 1e-9))
            weight = granularity / 8.0 if relax else 1.0
        t = cycle
        v = core.next_act_ok[rank_idx]
        if v > t:
            t = v
        v = core.act_ready[g]
        if v > t:
            t = v
        v = core.gate[rank_idx]
        if v > t:
            t = v
        faw_t = rank.faw.next_allowed(t, weight)
        if faw_t > t:
            t = faw_t
        if t > cycle:
            return (False, t)
        if masked and self.scheme.mask_via_dm_pin:
            # Section 4.2 alternative: the mask rides the DM pin, so no
            # +1 tRCD and no second command-bus cycle - but the chip's
            # write buffer is occupied until the partial activation
            # completes, blocking further writes to this rank (the
            # rank/bank-parallelism cost the paper warns about).
            until = cycle + self._trcd
            if until > core.next_write_ok[rank_idx]:
                core.next_write_ok[rank_idx] = until
        if not core.open_bits[rank_idx]:
            # First open bank on this rank: background state flips from
            # precharged standby to active standby, so settle the span
            # accrued under the old state before mutating.
            rank.accrue_background(cycle)
        act_mask = coverage if masked else FULL_MASK
        pays_mask_cycle = masked and self.scheme.masked_act_extra_cycle
        row = req.addr.row
        core.open_bits[rank_idx] |= 1 << bank_idx
        core.open_row[g] = row
        core.open_mask[g] = act_mask
        core.col_ready[g] = cycle + (self._trcd_masked if pays_mask_cycle else self._trcd)
        pre = cycle + self._tras
        if pre > core.pre_ready[g]:
            core.pre_ready[g] = pre
        core.act_ready[g] = cycle + self._trc
        core.last_act[g] = cycle
        core.accesses[g] = 0
        trrd = self._trrd
        if relax:
            trrd = max(2, math.ceil(trrd * weight))
        core.next_act_ok[rank_idx] = cycle + trrd
        rank.faw.record(cycle, weight)
        self._useless[rank_idx] &= ~(1 << bank_idx)
        core.reserved[g] = req.req_id if self._auto_pre else None
        if self.protocol_checker is not None:
            self._observe(CommandRecord(
                cycle=cycle, cmd=Cmd.ACT, rank=rank_idx, bank=bank_idx,
                row=row, mask=act_mask, granularity=granularity,
                masked=pays_mask_cycle))
        self.accountant.on_activate_fraction(fraction)
        kind_stats = self.stats.reads if req.is_read else self.stats.writes
        kind_stats.activations += 1
        req._missed = True
        self.channel.cmd_bus_free = cycle + (2 if pays_mask_cycle else 1)
        return (True, cycle + 1)

    def _try_column(
        self, cycle: int, req: Request, rank_idx: int, bank_idx: int
    ) -> Tuple[bool, int]:
        """Issue the column command for ``req`` at ``cycle`` and extend
        it into a burst streak when more mask-compatible hits are queued.

        Callers have already verified rank/bank column readiness, the
        command gate and data-bus fitting for the *first* command, so
        this method commits unconditionally.  Streak command *i* issues
        at ``cycle + i * spacing`` with ``spacing = max(tCCD,
        burst_cycles)``: tCCD-legal by construction, and the data bus
        fits because consecutive bursts from one rank are contiguous or
        gapped (no tRTRS within a rank).  The streak is bounded by the
        remaining row-hit budget and by every rank's refresh deadline
        (it issues no ACTs, so tRRD/tFAW are untouched).
        """
        channel = self.channel
        core = self._core
        g = rank_idx * self._num_banks + bank_idx
        is_read = req.is_read
        if is_read:
            dd = self._tcas
            queue = self.read_q
        else:
            dd = self._tcwl
            queue = self.write_q
        burst_cycles = self._burst_cycles
        spacing = self._spacing

        members = None
        n = 1
        if self._streaks:
            budget = self.row_hit_cap - core.accesses[g] - 1
            if budget > 0:
                dq = queue._by_row.get(self._keybase[g] | core.open_row[g])
                if dq is not None and len(dq) > 1:
                    # A streak owns the command bus until its last
                    # command; never extend past any rank's refresh
                    # deadline so refresh service is not starved.
                    horizon = _NEVER
                    for nr in core.next_refresh:
                        if nr < horizon:
                            horizon = nr
                    cap = (horizon - 1 - cycle) // spacing
                    if cap < budget:
                        budget = cap
                    if budget > 0:
                        open_mask = core.open_mask[g]
                        for cand in dq:
                            if cand.served or cand is req:
                                continue
                            if cand._needed & ~open_mask:
                                continue
                            if members is None:
                                members = [req, cand]
                            else:
                                members.append(cand)
                            budget -= 1
                            if not budget:
                                break
                        if members is not None:
                            n = len(members)

        t_last = cycle + (n - 1) * spacing
        last_burst_end = t_last + dd + burst_cycles

        # Net device/bus state after n back-to-back column commands.
        core.col_ready[g] = t_last + self._tccd
        core.accesses[g] += n
        core.next_col_ok[rank_idx] = t_last + self._tccd
        if is_read:
            pre = t_last + self._trtp
            if pre > core.pre_ready[g]:
                core.pre_ready[g] = pre
        else:
            pre = last_burst_end + self._twr
            if pre > core.pre_ready[g]:
                core.pre_ready[g] = pre
            read_ok = last_burst_end + self.timing.twtr
            if read_ok > core.next_read_ok[rank_idx]:
                core.next_read_ok[rank_idx] = read_ok
        channel.data_bus_free = last_burst_end
        channel.last_burst_rank = rank_idx
        channel.data_bus_busy_cycles += n * burst_cycles
        if self._auto_pre:
            core.autopre[g] = True
        channel.cmd_bus_free = t_last + 1

        other_ranks = self._other_ranks
        accountant = self.accountant
        if n == 1:
            burst_start = cycle + dd
            burst_end = last_burst_end
            if self.protocol_checker is not None:
                self._observe(CommandRecord(
                    cycle=cycle, cmd=Cmd.RD if is_read else Cmd.WR,
                    rank=rank_idx, bank=bank_idx,
                    burst_start=burst_start, burst_end=burst_end,
                    needed_mask=req._needed))
            was_hit = not req._missed
            if is_read:
                req.complete_cycle = burst_end
                self.stats.reads.record_service(
                    was_hit, req._false, burst_end - req.arrive_cycle
                )
                queue.remove(req)
                self.completed_reads.append((burst_end, req))
                accountant.on_read_burst(other_ranks=other_ranks)
            else:
                req.complete_cycle = cycle
                self.stats.writes.record_service(
                    was_hit, req._false, cycle - req.arrive_cycle
                )
                queue.remove(req)
                if self.scheme.scale_write_io:
                    driven = mask_ops.popcount(req.dirty_mask) / WORDS_PER_LINE
                else:
                    driven = 1.0
                accountant.on_write_burst(
                    driven_fraction=driven, other_ranks=other_ranks
                )
            return (True, cycle + 1)

        # --- Streak commit: per-request bookkeeping in issue order ---
        kind_stats = self.stats.reads if is_read else self.stats.writes
        completed = self.completed_reads
        checker = self.protocol_checker
        scale_io = (not is_read) and self.scheme.scale_write_io
        drive_counts = {} if scale_io else None
        latencies = []
        hits = falses = 0
        t = cycle
        for r in members:
            burst_start = t + dd
            burst_end = burst_start + burst_cycles
            if checker is not None:
                self._observe(CommandRecord(
                    cycle=t, cmd=Cmd.RD if is_read else Cmd.WR,
                    rank=rank_idx, bank=bank_idx,
                    burst_start=burst_start, burst_end=burst_end,
                    needed_mask=r._needed))
            if not r._missed:
                hits += 1
            if r._false:
                falses += 1
            if is_read:
                r.complete_cycle = burst_end
                latencies.append(burst_end - r.arrive_cycle)
                completed.append((burst_end, r))
            else:
                r.complete_cycle = t
                latencies.append(t - r.arrive_cycle)
                if drive_counts is not None:
                    drv = mask_ops.popcount(r.dirty_mask)
                    drive_counts[drv] = drive_counts.get(drv, 0) + 1
            queue.remove(r)
            t += spacing
        kind_stats.record_services(latencies, hits, falses)
        if is_read:
            accountant.on_read_burst(other_ranks=other_ranks, count=n)
        elif drive_counts is not None:
            for drv, cnt in drive_counts.items():
                accountant.on_write_burst(
                    driven_fraction=drv / WORDS_PER_LINE,
                    other_ranks=other_ranks,
                    count=cnt,
                )
        else:
            accountant.on_write_burst(other_ranks=other_ranks, count=n)
        self.stats.streaks += 1
        self.stats.streak_commands += n
        return (True, cycle + 1)

    # ------------------------------------------------------------------
    def flush_background(self, cycle: int) -> None:
        """Accrue background residency up to ``cycle`` (end of run)."""
        for rank in self.channel.ranks:
            rank.accrue_background(cycle)
            self.accountant.add_background(rank.bg_residency)
            rank.bg_residency = {"act_stby": 0, "pre_stby": 0, "pre_pdn": 0}
