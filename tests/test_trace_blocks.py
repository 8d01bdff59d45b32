"""Precompiled trace blocks vs. the per-event generator: bit for bit.

:class:`~repro.workloads.synthetic.TraceBlocks` materializes the same
RNG decision stream as :class:`~repro.workloads.synthetic.TraceGenerator`
into parallel arrays.  These tests hold the two to exact equality for
every benchmark profile, hold the generator state the blocks leave
after ``ensure(n)`` to the iterator's after ``n`` events (what a
compile resumed mid-trace starts from), check the slicing view, the
shared-block cache, and — because worker pools rely on it — that
spawned processes materialize byte-identical blocks.
"""

import itertools

import pytest

from repro.sim.pool import SimPool
from repro.workloads.profiles import BENCHMARKS, profile
from repro.workloads.synthetic import (
    TraceBlocks,
    TraceGenerator,
    blocks_digest,
    compiled_trace,
)

#: Past two block boundaries.
EVENTS = 2 * TraceBlocks.BLOCK_EVENTS + 808
#: Where ``ensure`` stops: blocks of 1 and 4,096 events, then 4,096 and
#: 807 in one call.
STOPS = (1, TraceBlocks.BLOCK_EVENTS + 1, EVENTS)

#: ``TraceBlocks(profile, seed=1).digest(8192)``.  The blocks inline the
#: iterator's draws, so these literals pin the RNG stream itself: bzip2
#: draws 1/2/3/4/8-word masks, lbm streams no-fill stores, mcf issues
#: read-modify-write pairs, GUPS and LinkedList draw one-word masks only.
BLOCK_DIGESTS = {
    "GUPS": "fc449ee38b49c5eaeab1566456d4c334cb0a46c48f081f85e34c79a8c79092b7",
    "LinkedList": "db86fd184c5ea0e2de822ce62444943dc9231d664c0d971bb590f381a7d14e80",
    "bzip2": "305fc59b20e8ed96296951d302a58b856e85da7231798524df32786c0e3de327",
    "em3d": "21af5714c4b8fe62fcddc765076e502f771965eb07b988c4b51265060a843943",
    "lbm": "b32c7f9dba44977f88394be211777065ef5e1e90fe233759a4113b18e1e952ee",
    "libquantum": "ceee2792be06afeb734e908b25adaaec9f51dc5c8684ea7f90e5aa55a0050e99",
    "mcf": "d183a6da1c5441505757a9fa56f1c62eb8b4c99f458f40237b84e86a4fdb51f8",
    "omnetpp": "04bfe48629ccd6eade1f1f505f0df2be25384b2be78f2931cabe84664dacdd8c",
}


def _state(gen):
    """What a compile resumed mid-trace needs: the RNG, the three
    streams' positions and run lengths, and the pending RMW store."""
    streams = (gen.loads, gen.stores, gen.rmw)
    return (
        gen.rng.getstate(),
        [(stream.pos, stream.run_left) for stream in streams],
        gen._pending_store,
    )


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_blocks_match_iterator(name):
    """For seeds 1 and 7 and cores 0 and 3, the arrays equal the
    iterator's events, and after every ``ensure`` stop the blocks'
    generator is in the iterator's state after as many events.  The
    last stop falls between an RMW load and its store."""
    prof = profile(name)
    for seed, core in itertools.product((1, 7), (0, 3)):
        gen = TraceGenerator(prof, seed=seed, core_id=core)
        events, states = [], {}
        # On to the first RMW load at or past EVENTS (every profile
        # issues RMW pairs; the bound only keeps a bad one finite).
        while len(events) < EVENTS or (
            gen._pending_store is None and len(events) < 2 * EVENTS
        ):
            events.append(next(gen))
            if len(events) in STOPS:
                states[len(events)] = _state(gen)
        states[len(events)] = straddle = _state(gen)
        assert straddle[2] is not None, "no RMW pair straddles a stop"
        events.append(next(gen))  # the store of that pair

        blocks = TraceBlocks(prof, seed=seed, core_id=core)
        for stop, state in states.items():
            blocks.ensure(stop)
            assert len(blocks) == stop
            assert _state(blocks._gen) == state
        blocks.ensure(len(events))
        for i, event in enumerate(events):
            assert blocks.gaps[i] == event.gap
            assert blocks.addrs[i] == event.line_addr
            assert blocks.masks[i] == event.write_mask
            assert bool(blocks.flags[i]) == event.no_fill


@pytest.mark.parametrize("name", sorted(BLOCK_DIGESTS))
def test_blocks_golden_digest(name):
    """The RNG stream itself is pinned, not only the two paths' agreement."""
    assert TraceBlocks(profile(name), seed=1).digest(8192) == BLOCK_DIGESTS[name]


def test_events_view_matches_slice():
    """A core's window ``[start, start + count)`` of the arrays equals
    skipping ``start`` events, then islicing ``count``, on the iterator."""
    from itertools import islice

    from repro.cpu.trace import pack_events

    prof = profile("GUPS")
    blocks = TraceBlocks(prof, seed=3)
    blocks.ensure(150)
    gen = TraceGenerator(prof, seed=3)
    for _ in range(100):
        next(gen)
    expected = pack_events(islice(gen, 50))
    window = (blocks.gaps, blocks.addrs, blocks.masks, blocks.flags)
    for arr, want in zip(window, expected):
        assert list(arr[100:150]) == list(want)


def test_compiled_trace_shares_blocks():
    """Same (profile, seed, core) key returns one shared instance."""
    prof = profile("lbm")
    first = compiled_trace(prof, seed=11, core_id=0)
    first.ensure(10)
    again = compiled_trace(prof, seed=11, core_id=0)
    assert again is first
    assert compiled_trace(prof, seed=11, core_id=1) is not first
    assert compiled_trace(prof, seed=12, core_id=0) is not first


def _job_digest(_shared, job):
    """Pool task body (module-level, so spawn workers can import it)."""
    return blocks_digest(*job)


def test_blocks_identical_across_spawned_processes():
    """Spawn workers (fresh interpreters) materialize identical bytes.

    Guards against any dependence on process state — hash
    randomization, import order, fork-inherited RNGs.  ``spawn`` is the
    strictest start method: nothing is inherited.
    """
    jobs = [("GUPS", 1, 0, 3000), ("mcf", 42, 2, 3000)]
    with SimPool(workers=2, start_method="spawn") as pool:
        worker_digests = pool.map(_job_digest, jobs)
    local_digests = [blocks_digest(*job) for job in jobs]
    assert worker_digests == local_digests
