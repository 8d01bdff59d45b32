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

Three structural optimizations define this controller's hot path:

**Array-backed timing state, one writer.**  All per-(rank, bank) and
per-rank timing state lives in the channel's
:class:`repro.dram.soa.TimingCore` flat integer arrays, indexed by
``g = rank * num_banks + bank``.  The scheduling passes bind those
arrays as locals and read them directly, and this controller is their
only writer: each command's state change is written once, ACT in
:meth:`ChannelController._try_activate`, RD/WR in
:meth:`ChannelController._try_column`, PRE (explicit or implicit) in
:meth:`ChannelController._precharge`, and REF and power-down entry and
exit in :class:`repro.dram.rank.Rank`.  No second device model
restates the rules; :class:`repro.dram.protocol.ProtocolChecker`
re-derives them from the command stream and is the oracle.

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

**Live-only queues and per-rank column floors.**  The request queues
hold live requests only (:mod:`repro.controller.queues`), so the
oldest-first scan, the open-bank probes, the mask merge and the streak
builder never step over served requests; ``enqueue`` stores each
request's channel-local rank, bank, row, bank index and bank bit in
``Request`` slots.  A column candidate's earliest cycle is
``max(col_ready[g], floor[rank])``, where the floor (command slot,
turnaround, gate and data-bus fit) is taken once per rank per step.
Neither moves a command or a step: the step schedule is part of the
model, since power-down entry and exit happen at whatever cycle a step
runs.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import islice
from typing import Dict, List, Optional, Tuple

from repro.controller.policies import ROW_HIT_CAP, SCAN_DEPTH, RowPolicy
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


class _BankWalk(dict):
    """One rank's open-bank walk: bank bitmask -> ``((bit, g), ...)``.

    Each entry lists the set bits of the mask, lowest bank first, with
    the bank's global index ``g = rank * num_banks + bank``, so
    :meth:`ChannelController.step` walks a rank's open banks with one
    subscript instead of a bit-scan per bank.  Entries are built on
    first use, so a 16-bank geometry builds only the masks it meets.
    """

    __slots__ = ("base",)

    def __init__(self, base: int) -> None:
        super().__init__()
        #: ``g`` of the rank's bank 0.
        self.base = base

    def __missing__(self, bits: int) -> Tuple[Tuple[int, int], ...]:
        walk = []
        rest = bits
        while rest:
            low = rest & -rest
            rest ^= low
            walk.append((low, self.base + low.bit_length() - 1))
        self[bits] = entry = tuple(walk)
        return entry


#: (ranks, banks) -> one :class:`_BankWalk` per rank.  Module-level, so
#: every controller of a geometry shares one set and building a
#: controller builds no table.
_BANK_WALKS: Dict[Tuple[int, int], Tuple[_BankWalk, ...]] = {}


def _bank_walks(num_ranks: int, num_banks: int) -> Tuple[_BankWalk, ...]:
    """The shared per-rank walk tables of a channel geometry."""
    walks = _BANK_WALKS.get((num_ranks, num_banks))
    if walks is None:
        walks = tuple(_BankWalk(r * num_banks) for r in range(num_ranks))
        _BANK_WALKS[(num_ranks, num_banks)] = walks
    return walks


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
        scan_depth: int = SCAN_DEPTH,
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
        #: Requests pass 2 visits per step (a depth below 1 visits one).
        self._scan = max(1, scan_depth)
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
        num_ranks = channel.core.num_ranks
        #: Per-rank open-bank walks, shared by every controller of this
        #: geometry (:func:`_bank_walks`).
        self._walks = _bank_walks(num_ranks, self._num_banks)
        #: Packed row key (``Request._rowkey``, the queues' ``_by_row``
        #: key) of each bank's open row, written at ACT and read only
        #: while the bank is open.
        self._row_key = [0] * (num_ranks * self._num_banks)
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
        #: Activation plans (coverage, fraction, masked, granularity,
        #: tRRD/tFAW weight, tRRD): reads and unmasked writes have one
        #: per scheme, masked writes one per merged mask, made on first
        #: use.
        self._read_plan = self._plan(FULL_MASK, scheme.read_fraction)
        self._write_plan = self._plan(FULL_MASK, scheme.write_fraction)
        self._write_plans: Dict[int, tuple] = {}
        #: The column turnaround floor and data delay of each kind.
        core = channel.core
        self._read_turn = (core.next_read_ok, self._tcas)
        self._write_turn = (core.next_write_ok, self._tcwl)
        #: Everything :meth:`step` binds as locals that is identity-
        #: stable after construction (the core arrays mutate in place
        #: but are never reallocated).  One attribute load and a tuple
        #: unpack replace the per-call attribute lookups on the hottest
        #: call in the simulator; what only a rare branch reads stays an
        #: attribute.
        hit_cap = self.row_hit_cap
        pass1 = bool(hit_cap and self._frfcfs)
        self._hot = (
            core.open_row, core.open_mask, core.act_ready, core.pre_ready,
            core.accesses, core.gate, core.open_bits, core.col_ready,
            core.next_act_ok, core.next_col_ok, core.pd, core.next_refresh,
            self._row_key, self._walks, self._useless, self._idle_close_at,
            hit_cap,
            # The walk's row-hit cap: none when rows take no hits.
            hit_cap or _NEVER,
            pass1,
            # Whether open banks need their buckets probed at all (not
            # under restricted close-page, whose rows serve one access
            # each).
            pass1 or self._close_idle,
            self._close_idle, self._auto_pre,
        )

    def _plan(self, coverage: int, fraction: float) -> tuple:
        """The activation plan of an ACT opening ``fraction`` of the row
        under ``coverage``: ``(coverage, fraction, masked, granularity,
        weight, trrd)``."""
        # Ceil, not round: a 2.5/8 activation must weigh at least 3/8
        # in the tRRD/tFAW budget (conservative for peak power).
        granularity = max(1, math.ceil(fraction * 8 - 1e-9))
        if self._relax:
            weight = granularity / 8.0
            trrd = max(2, math.ceil(self._trrd * weight))
        else:
            weight = 1.0
            trrd = self._trrd
        return (coverage, fraction, coverage != FULL_MASK, granularity, weight, trrd)

    # ------------------------------------------------------------------
    # Queue interface (used by the CPU/cache side)
    # ------------------------------------------------------------------
    def enqueue(self, req: Request) -> bool:
        """Admit a request; returns False when the queue is full."""
        queue = self.read_q if req.is_read else self.write_q
        if queue._count >= queue.capacity:
            return False
        req._missed = False
        req._false = False
        # Reads always carry a full dirty mask, so this collapses to
        # FULL_MASK for them either way.
        req._needed = req.dirty_mask if self._write_needs_mask else FULL_MASK
        # Channel-local coordinates, so the scheduler reads one slot
        # instead of an ``addr`` chain.
        addr = req.addr
        rank = req._rank = addr.rank
        bank = req._bank = addr.bank
        req._row = addr.row
        g = req._g = rank * self._num_banks + bank
        req._bit = 1 << g
        queue.append(req)
        # A new arrival can make this bank's open row useful again.
        self._useless[rank] &= ~(1 << bank)
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

        (open_row_a, open_mask_a, act_ready_a, pre_ready_a, accesses_a,
         gate_a, open_bits_a, col_ready_a, next_act_ok_a, next_col_ok_a,
         pd_a, next_refresh_a, row_key_a, walks, useless, idle_close_at,
         hit_cap, walk_cap, pass1, probe, close_idle, auto_pre) = self._hot
        # One scheduling pass got past the command-bus gate (phase
        # profiling; deliberately excluded from result summaries so
        # engine/oracle equivalence checks stay step-count agnostic).
        self.stats.sched_passes += 1

        # --- Write drain hysteresis (48/16 watermarks) ---
        read_q, write_q = self.read_q, self.write_q
        writes_pending = write_q._count
        draining = self.draining
        if draining:
            if writes_pending <= self.lo_mark:
                self.draining = draining = False
        elif writes_pending >= self.hi_mark:
            self.draining = draining = True
            self.stats.drain_entries += 1
        if draining or (writes_pending and not read_q._count):
            primary, other = write_q, read_q
        else:
            primary, other = read_q, write_q
        primary_by_row = primary._by_row
        other_by_row = other._by_row

        # --- Housekeeping + refresh + pass 1 candidate (one pass) ---
        # The FR-FCFS hit scan rides the same open-bank walk as
        # housekeeping so each bank's primary-queue bucket is fetched at
        # most once per step.
        hint = _NEVER
        refresh_pending = 0  # bitmask of ranks due for refresh
        powered_down = 0  # bitmask of ranks left in power-down
        best: Optional[Request] = None
        best_arrive = _NEVER
        for rank_idx, walk in enumerate(walks):
            refresh_due = cycle >= next_refresh_a[rank_idx]
            if refresh_due:
                refresh_pending |= 1 << rank_idx
                if pd_a[rank_idx]:
                    rank = channel.ranks[rank_idx]
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
                        for low, g in walk[ubits]:
                            pr = pre_ready_a[g]
                            if cycle >= pr:
                                self._precharge(cycle, rank_idx, g, low, True)
                            elif pr < new_min:
                                new_min = pr
                        idle_close_at[rank_idx] = new_min
                        if new_min < hint:
                            hint = new_min
                    elif ca < hint:
                        hint = ca
            # Banks that a pending auto-precharge or a due refresh
            # closes instead of probing.
            closing = auto_pre or refresh_due
            for low, g in walk[bits]:
                if closing:
                    # Auto-precharge (restricted policy) is command-free.
                    if auto_pre and self._core.autopre[g]:
                        pr = pre_ready_a[g]
                        if cycle >= pr:
                            self._precharge(cycle, rank_idx, g, low, True)
                        elif pr < hint:
                            hint = pr
                        continue
                    if refresh_due:
                        # Force-close for refresh (consumes the command
                        # slot).
                        pr = pre_ready_a[g]
                        if cycle >= pr:
                            self._precharge(cycle, rank_idx, g, low, False)
                            return (True, cycle + 1)
                        if pr < hint:
                            hint = pr
                        continue
                # Banks already known useless were stripped from the walk
                # above, so this bank needs a fresh probe.  Under
                # close-idle its row stays useful while either queue
                # holds a request for it and the row-hit cap allows one.
                if accesses_a[g] < walk_cap:
                    if not probe:
                        continue
                    key = row_key_a[g]
                    dq = primary_by_row.get(key)
                    if dq is not None:
                        # Pass 1: oldest ready row-buffer hit (FR-FCFS).
                        if pass1:
                            cand = dq[0]
                            if not (cand._needed & ~open_mask_a[g]):
                                arrive = cand.arrive_cycle
                                if arrive < best_arrive or (
                                    arrive == best_arrive
                                    and best is not None
                                    and cand.req_id < best.req_id
                                ):
                                    best = cand
                                    best_arrive = arrive
                        continue
                    if close_idle and key in other_by_row:
                        continue  # only the other queue can use the row
                if not close_idle:
                    continue
                pr = pre_ready_a[g]
                if cycle >= pr:
                    self._precharge(cycle, rank_idx, g, low, True)
                    continue
                # Exact wake for the close-idle opportunity: the row is
                # useless, it just cannot be closed before tRAS/tWR/tRTP
                # expire.  Record it in the useless set and its pre_ready
                # in the per-rank earliest-close cache.
                useless[rank_idx] |= low
                if pr < idle_close_at[rank_idx]:
                    idle_close_at[rank_idx] = pr
                if pr < hint:
                    hint = pr
            if open_bits_a[rank_idx]:
                continue
            if refresh_due:
                if not pd_a[rank_idx] and cycle >= gate_a[rank_idx]:
                    channel.ranks[rank_idx].do_refresh(cycle)
                    self.accountant.on_refresh()
                    self.stats.refreshes += 1
                    if self.protocol_checker is not None:
                        self._observe(CommandRecord(cycle=cycle, cmd=Cmd.REF, rank=rank_idx))
                    channel.cmd_bus_free = cycle + 1
                    return (True, cycle + 1)
            elif pd_a[rank_idx]:
                powered_down |= 1 << rank_idx
            elif (
                self._uses_power_down
                and not read_q._per_rank.get(rank_idx)
                and not write_q._per_rank.get(rank_idx)
            ):
                channel.ranks[rank_idx].enter_power_down(cycle)
                self.stats.power_down_entries += 1

        # A column candidate's earliest cycle is max(col_ready[g],
        # floor[rank]).  The floor is what every candidate of one rank
        # shares this step: the command slot (tCCD), the turnaround of
        # the step's request kind, the rank gate, ``cycle`` itself and
        # the data-bus fit (tRTRS after another rank's burst).  It is
        # taken once per rank, on first use, and nothing the step does
        # before returning moves its inputs: only column issue, which
        # ends the step, reserves the data bus, and a power-down exit
        # (which raises the gate) comes before any floor of its rank,
        # as a powered-down rank has no open bank.  Bus occupancy never
        # shrinks, so the bus-aware hint is never late.
        floors = [-1] * len(walks)
        turn_a, dd = self._read_turn if primary is read_q else self._write_turn

        # --- Pass 1 column attempt for the best ready hit ---
        if best is not None:
            ri = best._rank
            f = next_col_ok_a[ri]
            if turn_a[ri] > f:
                f = turn_a[ri]
            if gate_a[ri] > f:
                f = gate_a[ri]
            if cycle > f:
                f = cycle
            last = channel.last_burst_rank
            bus = channel.data_bus_free - dd
            if last != ri and last != -1:
                bus += self._trtrs
            if bus > f:
                f = bus
            floors[ri] = f
            t = col_ready_a[best._g]
            if f > t:
                t = f
            if t > cycle:
                if t < hint:
                    hint = t
            else:
                self._try_column(cycle, best)
                return (True, cycle + 1)

        # --- Pass 2: oldest-first over the primary queue ---
        # Inlined into step() so both passes share one set of local
        # bindings; this scan is the hottest loop in the simulator.
        banks_seen = 0  # bitmask over (rank, bank) pairs
        # Ranks pass 2 cannot serve as they stand: due for refresh
        # (skipped), or powered down (woken by their first request).
        blocked = refresh_pending | powered_down
        # The ``scan_depth`` oldest live requests (at least one), each
        # visited once: every path below either returns or moves on.
        for req in islice(primary._fifo, self._scan):
            bank_bit = req._bit
            if banks_seen & bank_bit:
                # An older request to this bank already failed.
                continue
            banks_seen |= bank_bit
            rank_idx = req._rank
            if blocked and blocked >> rank_idx & 1:
                if refresh_pending >> rank_idx & 1:
                    continue
                blocked ^= 1 << rank_idx
                rank = channel.ranks[rank_idx]
                rank.exit_power_down(cycle)
                if rank.pd_exit_ready < hint:
                    hint = rank.pd_exit_ready
                continue
            g = req._g
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
                    issued, h = self._try_activate(cycle, req)
                    if issued:
                        return (True, cycle + 1)
            elif open_row == req._row and not (req._needed & ~open_mask_a[g]):
                if auto_pre:
                    # Restricted close-page permits exactly one column
                    # access per activation: the one the ACT was issued
                    # for.
                    may_access = (
                        accesses_a[g] == 0 and self._core.reserved[g] == req.req_id
                    )
                else:
                    may_access = accesses_a[g] < hit_cap
                if may_access:
                    f = floors[rank_idx]
                    if f < 0:
                        f = next_col_ok_a[rank_idx]
                        if turn_a[rank_idx] > f:
                            f = turn_a[rank_idx]
                        if gate_a[rank_idx] > f:
                            f = gate_a[rank_idx]
                        if cycle > f:
                            f = cycle
                        last = channel.last_burst_rank
                        bus = channel.data_bus_free - dd
                        if last != rank_idx and last != -1:
                            bus += self._trtrs
                        if bus > f:
                            f = bus
                        floors[rank_idx] = f
                    t = col_ready_a[g]
                    if f > t:
                        t = f
                    if t > cycle:
                        h = t
                    else:
                        self._try_column(cycle, req)
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
                        self._precharge(cycle, rank_idx, g, 1 << req._bank, False)
                        return (True, cycle + 1)
            else:
                if open_row == req._row and not req._false:
                    req._false = True
                    self.stats.false_hit_reactivations += 1
                if (
                    pass1
                    and not useless[rank_idx] >> req._bank & 1
                    and accesses_a[g] < hit_cap
                    and self._row_still_useful(g, primary)
                ):
                    continue  # let pending hits to the open row drain first
                # Conflicting row: explicit PRE.
                gate = gate_a[rank_idx]
                pr = pre_ready_a[g]
                if cycle < gate:
                    h = gate
                elif cycle < pr:
                    h = pr
                else:
                    self._precharge(cycle, rank_idx, g, 1 << req._bank, False)
                    return (True, cycle + 1)
            if h < hint:
                hint = h

        # Idle: wake for the next refresh deadline.
        for nr in next_refresh_a:
            if nr < hint:
                hint = nr
        return (False, hint if hint > cycle else cycle + 1)

    def _precharge(
        self, cycle: int, rank_idx: int, g: int, bit: int, implicit: bool
    ) -> None:
        """Close bank ``g`` (bank bit ``bit`` of rank ``rank_idx``) at
        ``cycle``; its next ACT waits tRP.

        Every precharge goes through here: the explicit PREs (row
        conflict, exhausted row, force-close for refresh), which take
        the command slot, and the command-free ``implicit`` ones
        (auto-precharge, close-idle).  Callers have checked
        ``pre_ready`` and, for an explicit PRE, the rank gate.
        """
        core = self._core
        open_bits = core.open_bits
        if not (open_bits[rank_idx] & ~bit):
            # Background state only changes when the rank's *last* open
            # bank closes (or its first opens); spans between
            # transitions accrue lazily at the next transition, charged
            # to the same - unchanged - state.
            self.channel.ranks[rank_idx].accrue_background(cycle)
        open_bits[rank_idx] &= ~bit
        core.open_row[g] = -1
        core.open_mask[g] = FULL_MASK
        act = cycle + self._trp
        if act > core.act_ready[g]:
            core.act_ready[g] = act
        core.autopre[g] = False
        self.stats.precharges += 1
        if not implicit:
            self.channel.cmd_bus_free = cycle + 1
        if self.protocol_checker is not None:
            self.protocol_checker.observe(CommandRecord(
                cycle=cycle, cmd=Cmd.PRE, rank=rank_idx,
                bank=bit.bit_length() - 1, implicit=implicit))

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
        local = self.local_clock
        if cycle > local:
            local = cycle
        if local >= limit:
            return local
        step = self.step
        channel = self.channel
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
                bus_free = channel.cmd_bus_free
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
    def _row_still_useful(self, g: int, primary: RequestQueue) -> bool:
        """True if the open row of bank ``g`` has a coverable request in
        ``primary``.

        Only the queue currently being served may keep a row open:
        otherwise a read conflicting with a row that only queued writes
        could use would wait for writes that are themselves waiting for
        the read queue to empty (priority livelock).  The caller has
        already ruled out what makes any row useless: the fcfs ablation
        and restricted close-page (no row hits), a known-useless bank
        and an exhausted row-hit cap.
        """
        bucket = primary._by_row.get(self._row_key[g])
        if bucket is None:
            return False
        closed_groups = ~self._core.open_mask[g]
        for cand in bucket:
            if not (cand._needed & closed_groups):
                return True
        return False

    # ------------------------------------------------------------------
    # Command issue helpers
    # ------------------------------------------------------------------
    def _try_activate(self, cycle: int, req: Request) -> Tuple[bool, int]:
        rank_idx = req._rank
        rank = self.channel.ranks[rank_idx]
        if req.is_read:
            # Reads always activate the scheme's fixed read fraction.
            plan = self._read_plan
        elif self._write_needs_mask:
            # Queued writes carry ``_needed == dirty_mask`` under mask
            # schemes, so the OR over the row's bucket *is* the Section
            # 5.2.1 merge.  ``req`` is still queued here, but OR its own
            # mask anyway so the plan never depends on that.
            merged = req.dirty_mask | self.write_q.merged_needed(req._rowkey)
            plan = self._write_plans.get(merged)
            if plan is None:
                fraction = (
                    mask_ops.popcount(merged) / WORDS_PER_LINE
                ) * self.scheme.mask_scale
                plan = self._write_plans[merged] = self._plan(merged, fraction)
        else:
            plan = self._write_plan
        coverage, fraction, masked, granularity, weight, trrd = plan
        # The caller has checked act_ready (tRC/tRP), next_act_ok (tRRD)
        # and the rank gate against ``cycle``; the tFAW window depends
        # on this activation's weight, so it is checked here.
        t = rank.faw.next_allowed(cycle, weight)
        if t > cycle:
            return (False, t)
        core = self._core
        bank_idx = req._bank
        g = req._g
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
        pays_mask_cycle = masked and self.scheme.masked_act_extra_cycle
        row = req._row
        core.open_bits[rank_idx] |= 1 << bank_idx
        core.open_row[g] = row
        # An unmasked plan's coverage is the full row.
        core.open_mask[g] = coverage
        self._row_key[g] = req._rowkey
        core.col_ready[g] = cycle + (self._trcd_masked if pays_mask_cycle else self._trcd)
        pre = cycle + self._tras
        if pre > core.pre_ready[g]:
            core.pre_ready[g] = pre
        core.act_ready[g] = cycle + self._trc
        core.last_act[g] = cycle
        core.accesses[g] = 0
        core.next_act_ok[rank_idx] = cycle + trrd
        rank.faw.record(cycle, weight)
        self._useless[rank_idx] &= ~(1 << bank_idx)
        core.reserved[g] = req.req_id if self._auto_pre else None
        if self.protocol_checker is not None:
            self._observe(CommandRecord(
                cycle=cycle, cmd=Cmd.ACT, rank=rank_idx, bank=bank_idx,
                row=row, mask=coverage, granularity=granularity,
                masked=pays_mask_cycle))
        self.accountant.on_activate_fraction(fraction)
        kind_stats = self.stats.reads if req.is_read else self.stats.writes
        kind_stats.activations += 1
        req._missed = True
        self.channel.cmd_bus_free = cycle + (2 if pays_mask_cycle else 1)
        return (True, cycle + 1)

    def _try_column(self, cycle: int, req: Request) -> None:
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
        rank_idx = req._rank
        bank_idx = req._bank
        g = req._g
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
                # ``req`` targets the open row, so this is its bucket.
                dq = queue._by_row[req._rowkey]
                if len(dq) > 1:
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
                            if cand is req:
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
        core.col_ready[g] = core.next_col_ok[rank_idx] = t_last + self._tccd
        core.accesses[g] += n
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
            burst_end = last_burst_end
            if self.protocol_checker is not None:
                self._observe(CommandRecord(
                    cycle=cycle, cmd=Cmd.RD if is_read else Cmd.WR,
                    rank=rank_idx, bank=bank_idx,
                    burst_start=cycle + dd, burst_end=burst_end,
                    needed_mask=req._needed))
            if is_read:
                req.complete_cycle = burst_end
                self.stats.reads.record_service(
                    not req._missed, req._false, burst_end - req.arrive_cycle
                )
                queue.remove(req)
                self.completed_reads.append((burst_end, req))
                accountant.on_read_burst(other_ranks)
            else:
                req.complete_cycle = cycle
                self.stats.writes.record_service(
                    not req._missed, req._false, cycle - req.arrive_cycle
                )
                queue.remove(req)
                if self.scheme.scale_write_io:
                    driven = req.dirty_mask.bit_count() / WORDS_PER_LINE
                else:
                    driven = 1.0
                accountant.on_write_burst(driven, other_ranks)
            return

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
                    drv = r.dirty_mask.bit_count()
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

    # ------------------------------------------------------------------
    def flush_background(self, cycle: int) -> None:
        """Accrue background residency up to ``cycle`` (end of run)."""
        for rank in self.channel.ranks:
            rank.accrue_background(cycle)
            self.accountant.add_background(rank.bg_residency)
            rank.bg_residency = {"act_stby": 0, "pre_stby": 0, "pre_pdn": 0}
