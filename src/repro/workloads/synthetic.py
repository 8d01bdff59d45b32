"""Synthetic trace generation from benchmark profiles.

The generator maintains one sequential address stream per access kind
(loads, streaming stores, RMW updates).  A stream continues its current
run with geometric run lengths (row locality) and jumps uniformly
within the benchmark footprint otherwise.  RMW events emit a load
followed, a couple of instructions later, by a store to the same line
(the load fills the LLC, the store only dirties it — matching how
update-heavy kernels hit DRAM with a 1:1 read/write mix).

Everything is driven by a seeded ``random.Random``, so traces are
reproducible.  The helpers draw from it directly, with ``random()`` and
``getrandbits()`` in exactly the calls CPython's ``randrange``,
``random.sample`` and ``expovariate`` would make, without their Python
frames: the numbers, and so the traces, are the ones those calls give.

Two consumption paths exist:

* :class:`TraceGenerator` — the per-event iterator, kept as the
  reference/oracle;
* :class:`TraceBlocks` — the fast path: the same RNG decisions
  materialized in blocks into parallel arrays (gaps, line addresses,
  write masks, no-fill flags) and cached per (profile, seed, core) via
  :func:`compiled_trace`, so every scheme of a sweep replays the same
  arrays instead of regenerating an identical trace.  The block loop
  inlines ``__next__`` and its helpers, making the same draws in the
  same order, and leaves the generator's state where ``__next__``
  would — ``tests/test_trace_blocks.py`` holds the arrays and that
  state to the iterator's bit for bit.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from array import array
from collections import OrderedDict
from math import log
from typing import Iterator, List, Optional, Tuple

from repro.cpu.trace import TraceEvent
from repro.workloads.profiles import BenchmarkProfile

# Oracle-parity declaration enforced by reprolint: the precompiled
# ``TraceBlocks`` arrays are the fast path; the per-event
# ``TraceGenerator`` iterator in this module is the oracle.
REPRO_FAST_PATH = True
ORACLE_TWIN = "repro.workloads.synthetic.TraceGenerator"
ORACLE_TESTS = ("tests/test_trace_blocks.py",)

#: Line-address stride between per-core memory regions (1 GB).
REGION_LINES = 1 << 24

#: ``(8 - i).bit_length()``: the bits ``randrange(8 - i)`` draws for the
#: i-th word of a dirty mask.
_WORD_DRAW_BITS = tuple((8 - i).bit_length() for i in range(8))


class _Stream:
    """Sequential-run address stream within a footprint."""

    def __init__(
        self, rng: random.Random, base: int, footprint: int, mean_run: float
    ) -> None:
        self.rng = rng
        self.base = base
        self.footprint = footprint
        self.mean_run = mean_run
        self.pos = base
        self.run_left = 0
        #: Bits of one jump draw (profiles guarantee footprint >= 1).
        self._bits = footprint.bit_length()

    def next_line(self) -> int:
        if self.run_left > 0:
            self.run_left -= 1
            self.pos += 1
        else:
            rng = self.rng
            # ``rng.randrange(footprint)`` drawn directly, as CPython's
            # ``_randbelow`` draws it: ``getrandbits(footprint.bit_length())``
            # until the value falls below the footprint.
            offset = rng.getrandbits(self._bits)
            while offset >= self.footprint:
                offset = rng.getrandbits(self._bits)
            self.pos = self.base + offset
            if self.mean_run > 1.0:
                # Geometric run with the configured mean (>= 1).
                p = 1.0 / self.mean_run
                run = 1
                while rng.random() > p:
                    run += 1
                self.run_left = run - 1
            else:
                self.run_left = 0
        return self.pos


class TraceGenerator:
    """Infinite trace of :class:`TraceEvent` for one benchmark instance."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        seed: int = 0,
        core_id: int = 0,
    ) -> None:
        self.profile = profile
        # zlib.crc32 instead of hash(): str hashing is randomized per
        # process (PYTHONHASHSEED), which would break cross-process
        # reproducibility of every experiment.
        name_hash = zlib.crc32(profile.name.encode())
        self.rng = random.Random((seed << 8) ^ name_hash)
        base = core_id * REGION_LINES
        self.loads = _Stream(self.rng, base, profile.footprint_lines, profile.read_run)
        self.stores = _Stream(
            self.rng, base + REGION_LINES // 2, profile.footprint_lines, profile.write_run
        )
        self.rmw = _Stream(
            self.rng, base + REGION_LINES // 4, profile.footprint_lines, profile.rmw_run
        )
        self._pending_store: Optional[TraceEvent] = None
        # Cumulative stream-choice thresholds.
        self._load_cut = profile.load_fraction
        self._store_cut = profile.load_fraction + profile.store_fraction
        # Cumulative dirty-word thresholds, summed in histogram order.
        self._word_cuts: List[Tuple[float, int]] = []
        cumulative = 0.0
        for count, prob in profile.dirty_word_dist:
            cumulative += prob
            self._word_cuts.append((cumulative, count))
        # Exponential gap rate (None: no gaps) and cap.
        mean = profile.mean_gap
        self._gap_rate = 1.0 / mean if mean > 0 else None
        self._gap_cap = int(mean * 8) + 1

    # ------------------------------------------------------------------
    def _gap(self) -> int:
        rate = self._gap_rate
        if rate is None:
            return 0
        # ``rng.expovariate(rate)`` drawn directly: the same
        # ``-log(1 - random()) / rate``, without the call's overhead.
        return min(int(-log(1.0 - self.rng.random()) / rate), self._gap_cap)

    def _dirty_mask(self) -> int:
        roll = self.rng.random()
        # A roll past the last cut (the sum fell short of 1.0) keeps the
        # last count.
        for cut, words in self._word_cuts:
            if roll <= cut:
                break
        if words >= 8:
            return 0xFF
        # ``rng.sample(range(8), words)`` drawn directly: for a
        # population of 8, sample's pool swap takes ``randrange(8 - i)``
        # for the i-th pick, which CPython draws as
        # ``getrandbits((8 - i).bit_length())`` until the value falls
        # below ``8 - i``.  Only the OR of the picks is kept, so the pool
        # holds the bits' masks.
        getrandbits = self.rng.getrandbits
        pool = [1, 2, 4, 8, 16, 32, 64, 128]
        mask = 0
        for i in range(words):
            n = 8 - i
            bits = _WORD_DRAW_BITS[i]
            j = getrandbits(bits)
            while j >= n:
                j = getrandbits(bits)
            mask |= pool[j]
            pool[j] = pool[7 - i]
        return mask

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[TraceEvent]:
        return self

    def __next__(self) -> TraceEvent:
        if self._pending_store is not None:
            event, self._pending_store = self._pending_store, None
            return event
        roll = self.rng.random()
        if roll < self._load_cut:
            return TraceEvent(gap=self._gap(), line_addr=self.loads.next_line())
        if roll < self._store_cut:
            return TraceEvent(
                gap=self._gap(),
                line_addr=self.stores.next_line(),
                write_mask=self._dirty_mask(),
                no_fill=self.profile.store_no_fill,
            )
        # RMW: load now, store to the same line right after.
        line = self.rmw.next_line()
        self._pending_store = TraceEvent(
            gap=2, line_addr=line, write_mask=self._dirty_mask()
        )
        return TraceEvent(gap=self._gap(), line_addr=line)


def generate(
    profile: BenchmarkProfile,
    events: int,
    seed: int = 0,
    core_id: int = 0,
) -> List[TraceEvent]:
    """Materialize ``events`` trace events for tests and examples."""
    gen = TraceGenerator(profile, seed=seed, core_id=core_id)
    return [next(gen) for _ in range(events)]


class TraceBlocks:
    """Precompiled trace for one (profile, seed, core): parallel arrays.

    Events are materialized in blocks of at most :data:`BLOCK_EVENTS`
    into four parallel typed arrays — ``gaps``, ``addrs``, ``masks``,
    ``flags`` (``array('i'/'q'/'B'/'b')``, ~14 bytes per event instead
    of one ``TraceEvent`` object) — by one loop that makes the
    :class:`TraceGenerator`'s RNG draws in the same order with its
    helpers inlined, so the arrays are bit-identical to the iterator's
    output and the wrapped generator is left exactly where the iterator
    would be after as many events.  Cache warmup consumes the arrays
    directly (no :class:`TraceEvent` allocation at all), and so does
    each timed core (:class:`~repro.cpu.core_model.Core` reads its
    window of them by index).  One instance is shared by
    every scheme of the same (profile, seed, core) via
    :func:`compiled_trace`.
    """

    #: Most events one :meth:`_materialize_block` call appends.
    BLOCK_EVENTS = 4096

    __slots__ = ("gaps", "addrs", "masks", "flags", "_gen")

    def __init__(
        self,
        profile: BenchmarkProfile,
        seed: int = 0,
        core_id: int = 0,
    ) -> None:
        """Wrap a fresh reference generator; arrays start empty."""
        #: The generator advanced ``len(self)`` events: its RNG, stream
        #: positions and pending RMW store are the compile state.
        self._gen = TraceGenerator(profile, seed=seed, core_id=core_id)
        self.gaps = array("i")
        self.addrs = array("q")
        self.masks = array("B")
        self.flags = array("b")

    def __len__(self) -> int:
        """Events materialized so far."""
        return len(self.gaps)

    @property
    def profile(self) -> BenchmarkProfile:
        """The benchmark profile driving the trace."""
        return self._gen.profile

    def ensure(self, count: int) -> None:
        """Materialize events until at least ``count`` exist.

        Exactly ``count`` when fewer exist: the last block stops there,
        so no caller pays for events it did not ask for.
        """
        have = len(self.gaps)
        while have < count:
            n = min(self.BLOCK_EVENTS, count - have)
            self._materialize_block(n)
            have += n

    def _materialize_block(self, n: int) -> None:
        """Append ``n`` events to the parallel arrays.

        ``TraceGenerator.__next__`` in one loop: its gap draw, the three
        streams' :meth:`_Stream.next_line` and its dirty-mask draw are
        inlined, making the same RNG calls in the same order, with a
        short path for one-word masks.  The arrays grow by ``n`` zeroed
        slots and each event is written by index, so a load writes only
        its gap and address.  The streams' positions and run lengths and
        the pending RMW store live in locals and go back to the
        generator on return.
        """
        gen = self._gen
        random = gen.rng.random
        getrandbits = gen.rng.getrandbits
        gaps, addrs, masks, flags = self.gaps, self.addrs, self.masks, self.flags
        start = len(gaps)
        for arr in (gaps, addrs, masks, flags):
            arr.frombytes(bytes(arr.itemsize * n))
        load_cut, store_cut = gen._load_cut, gen._store_cut
        word_cuts = gen._word_cuts
        # ``_gap``: rate ``None`` (no gaps) leaves the zeroed gap.
        rate, cap = gen._gap_rate, gen._gap_cap
        no_fill = gen.profile.store_no_fill
        # Per stream: base, footprint, jump bits, geometric run
        # probability (0.0: no run draw), position and run left.
        loads, stores, rmw = gen.loads, gen.stores, gen.rmw
        l_base, l_fp, l_bits = loads.base, loads.footprint, loads._bits
        l_p = 1.0 / loads.mean_run if loads.mean_run > 1.0 else 0.0
        l_pos, l_left = loads.pos, loads.run_left
        s_base, s_fp, s_bits = stores.base, stores.footprint, stores._bits
        s_p = 1.0 / stores.mean_run if stores.mean_run > 1.0 else 0.0
        s_pos, s_left = stores.pos, stores.run_left
        r_base, r_fp, r_bits = rmw.base, rmw.footprint, rmw._bits
        r_p = 1.0 / rmw.mean_run if rmw.mean_run > 1.0 else 0.0
        r_pos, r_left = rmw.pos, rmw.run_left
        # The pending RMW store; mask 0 means none (a store dirties at
        # least one word).
        pending = gen._pending_store
        p_addr, p_mask = (
            (pending.line_addr, pending.write_mask) if pending else (0, 0)
        )
        for i in range(start, start + n):
            if p_mask:
                gaps[i] = 2
                addrs[i] = p_addr
                masks[i] = p_mask
                p_mask = 0
                continue
            roll = random()
            if roll < load_cut:
                if rate:
                    g = int(-log(1.0 - random()) / rate)
                    gaps[i] = g if g < cap else cap
                if l_left:
                    l_left -= 1
                    l_pos += 1
                else:
                    offset = getrandbits(l_bits)
                    while offset >= l_fp:
                        offset = getrandbits(l_bits)
                    l_pos = l_base + offset
                    if l_p:
                        while random() > l_p:
                            l_left += 1
                addrs[i] = l_pos
                continue
            if roll < store_cut:
                if rate:
                    g = int(-log(1.0 - random()) / rate)
                    gaps[i] = g if g < cap else cap
                if s_left:
                    s_left -= 1
                    s_pos += 1
                else:
                    offset = getrandbits(s_bits)
                    while offset >= s_fp:
                        offset = getrandbits(s_bits)
                    s_pos = s_base + offset
                    if s_p:
                        while random() > s_p:
                            s_left += 1
                line = s_pos
                if no_fill:
                    flags[i] = 1
            else:
                # RMW: load now, store to the same line right after; its
                # mask is drawn before the load's gap.
                if r_left:
                    r_left -= 1
                    r_pos += 1
                else:
                    offset = getrandbits(r_bits)
                    while offset >= r_fp:
                        offset = getrandbits(r_bits)
                    r_pos = r_base + offset
                    if r_p:
                        while random() > r_p:
                            r_left += 1
                line = r_pos
            pick = random()
            for cut, words in word_cuts:
                if pick <= cut:
                    break
            if words == 1:
                # One pick from the full pool: ``randrange(8)``.
                j = getrandbits(4)
                while j >= 8:
                    j = getrandbits(4)
                mask = 1 << j
            elif words >= 8:
                mask = 0xFF
            else:
                pool = [1, 2, 4, 8, 16, 32, 64, 128]
                mask = 0
                for k in range(words):
                    bits = _WORD_DRAW_BITS[k]
                    j = getrandbits(bits)
                    while j >= 8 - k:
                        j = getrandbits(bits)
                    mask |= pool[j]
                    pool[j] = pool[7 - k]
            addrs[i] = line
            if roll < store_cut:
                masks[i] = mask
            else:
                p_addr, p_mask = line, mask
                if rate:
                    g = int(-log(1.0 - random()) / rate)
                    gaps[i] = g if g < cap else cap
        loads.pos, loads.run_left = l_pos, l_left
        stores.pos, stores.run_left = s_pos, s_left
        rmw.pos, rmw.run_left = r_pos, r_left
        gen._pending_store = (
            TraceEvent(gap=2, line_addr=p_addr, write_mask=p_mask) if p_mask else None
        )

    def digest(self, count: int) -> str:
        """SHA-256 over the first ``count`` events' arrays.

        Determinism guard: the digest must be identical no matter which
        process (or platform) materialized the blocks.
        """
        self.ensure(count)
        h = hashlib.sha256()
        for arr in (self.gaps, self.addrs, self.masks, self.flags):
            h.update(arr[:count].tobytes())
        return h.hexdigest()


#: In-process LRU of shared :class:`TraceBlocks`, keyed by
#: (profile, seed, core_id).
_BLOCK_CACHE: "OrderedDict[tuple, TraceBlocks]" = OrderedDict()
_BLOCK_CACHE_CAPACITY = 64


def compiled_trace(
    profile: BenchmarkProfile,
    seed: int = 0,
    core_id: int = 0,
) -> TraceBlocks:
    """Shared :class:`TraceBlocks` for (profile, seed, core).

    Every scheme of a sweep re-simulates the same workload/seed pair;
    the block cache makes them all replay one materialization instead
    of regenerating identical traces.  Bounded LRU (the blocks of a
    finished grid point age out once :data:`_BLOCK_CACHE_CAPACITY`
    newer keys arrive).
    """
    key = (profile, seed, core_id)
    blocks = _BLOCK_CACHE.get(key)
    if blocks is None:
        blocks = TraceBlocks(profile, seed=seed, core_id=core_id)
        _BLOCK_CACHE[key] = blocks
        while len(_BLOCK_CACHE) > _BLOCK_CACHE_CAPACITY:
            _BLOCK_CACHE.popitem(last=False)
    else:
        _BLOCK_CACHE.move_to_end(key)
    return blocks


def blocks_digest(
    profile_name: str, seed: int, core_id: int, events: int
) -> str:
    """Digest of a freshly materialized block set (no cache involved).

    Module-level so spawned worker processes can import and call it —
    the cross-process determinism guard of ``tests/test_trace_blocks``
    compares these digests between spawn workers and the parent.
    """
    from repro.workloads.profiles import profile

    return TraceBlocks(profile(profile_name), seed=seed, core_id=core_id).digest(
        events
    )
