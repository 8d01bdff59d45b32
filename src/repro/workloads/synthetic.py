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
  materialized in chunks into parallel arrays (gaps, line addresses,
  write masks, no-fill flags) and cached per (profile, seed, core) via
  :func:`compiled_trace`, so every scheme of a sweep replays the same
  arrays instead of regenerating an identical trace.  The block
  materializer calls the *same* bound helpers in the *same* order as
  ``__next__``, so the two paths consume one RNG stream identically —
  ``tests/test_trace_blocks.py`` holds them to that bit for bit.
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

    Events are materialized in chunks of :data:`BLOCK_EVENTS` into four
    parallel typed arrays — ``gaps``, ``addrs``, ``masks``, ``flags``
    (``array('i'/'q'/'B'/'b')``, ~14 bytes per event instead of one
    ``TraceEvent`` object) — by an inlined copy of the
    :class:`TraceGenerator` dispatch loop that reuses the generator's
    own RNG helpers, so the arrays are bit-identical to the iterator's
    output.  Cache warmup consumes the arrays directly (no
    :class:`TraceEvent` allocation at all); the timed run consumes them
    through :meth:`events`.  One instance is shared by every scheme of
    the same (profile, seed, core) via :func:`compiled_trace`.
    """

    #: Events materialized per growth step.
    BLOCK_EVENTS = 4096

    __slots__ = ("gaps", "addrs", "masks", "flags", "_gen", "_pending")

    def __init__(
        self,
        profile: BenchmarkProfile,
        seed: int = 0,
        core_id: int = 0,
    ) -> None:
        """Wrap a fresh reference generator; arrays start empty."""
        self._gen = TraceGenerator(profile, seed=seed, core_id=core_id)
        self.gaps = array("i")
        self.addrs = array("q")
        self.masks = array("B")
        self.flags = array("b")
        #: Deferred RMW store carried across block boundaries.
        self._pending: Optional[Tuple[int, int, int]] = None

    def __len__(self) -> int:
        """Events materialized so far."""
        return len(self.gaps)

    @property
    def profile(self) -> BenchmarkProfile:
        """The benchmark profile driving the trace."""
        return self._gen.profile

    def ensure(self, count: int) -> None:
        """Materialize blocks until at least ``count`` events exist."""
        while len(self.gaps) < count:
            self._materialize_block()

    def _materialize_block(self) -> None:
        """Append one block of events to the parallel arrays.

        Mirrors ``TraceGenerator.__next__`` exactly — same RNG calls in
        the same order via the generator's own bound helpers — but
        appends plain ints instead of constructing ``TraceEvent``
        objects, and batches the loop over :data:`BLOCK_EVENTS` events.
        """
        gen = self._gen
        gaps, addrs = self.gaps, self.addrs
        masks, flags = self.masks, self.flags
        rng_random = gen.rng.random
        load_cut = gen._load_cut
        store_cut = gen._store_cut
        gap = gen._gap
        dirty_mask = gen._dirty_mask
        loads_next = gen.loads.next_line
        stores_next = gen.stores.next_line
        rmw_next = gen.rmw.next_line
        no_fill = gen.profile.store_no_fill
        pending = self._pending
        for _ in range(self.BLOCK_EVENTS):
            if pending is not None:
                g, a, m = pending
                pending = None
                gaps.append(g)
                addrs.append(a)
                masks.append(m)
                flags.append(0)
                continue
            roll = rng_random()
            if roll < load_cut:
                g = gap()
                a = loads_next()
                m = 0
                nf = 0
            elif roll < store_cut:
                g = gap()
                a = stores_next()
                m = dirty_mask()
                nf = 1 if no_fill else 0
            else:
                # RMW: load now, store to the same line right after.
                a = rmw_next()
                pending = (2, a, dirty_mask())
                g = gap()
                m = 0
                nf = 0
            gaps.append(g)
            addrs.append(a)
            masks.append(m)
            flags.append(nf)
        self._pending = pending

    def events(self, start: int, count: int) -> Iterator[TraceEvent]:
        """Yield ``count`` events from index ``start`` as trace events.

        The block twin of "skip ``start`` events, then islice
        ``count``" on the iterator; materialization happens lazily at
        the first pull.
        """
        self.ensure(start + count)
        gaps, addrs = self.gaps, self.addrs
        masks, flags = self.masks, self.flags
        for i in range(start, start + count):
            yield TraceEvent(
                gap=gaps[i],
                line_addr=addrs[i],
                write_mask=masks[i],
                no_fill=bool(flags[i]),
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
