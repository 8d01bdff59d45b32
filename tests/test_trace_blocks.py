"""Precompiled trace blocks vs. the per-event generator: bit for bit.

:class:`~repro.workloads.synthetic.TraceBlocks` materializes the same
RNG decision stream as :class:`~repro.workloads.synthetic.TraceGenerator`
into parallel arrays.  These tests hold the two to exact equality for
every benchmark profile, check the slicing view, the shared-block
cache, and — because worker pools rely on it — that spawned processes
materialize byte-identical blocks.
"""

import pytest

from repro.sim.pool import SimPool
from repro.workloads.profiles import BENCHMARKS, profile
from repro.workloads.synthetic import (
    TraceBlocks,
    TraceGenerator,
    blocks_digest,
    compiled_trace,
)

EVENTS = 5000  # > one BLOCK_EVENTS block, so block boundaries are crossed

#: ``TraceBlocks(profile, seed=1).digest(8192)``.  The iterator and
#: the blocks share the RNG helpers, so only literals see a stream shift:
#: bzip2 draws 1/2/3/4/8-word masks, lbm streams no-fill stores, mcf
#: issues read-modify-write pairs.
BLOCK_DIGESTS = {
    "bzip2": "305fc59b20e8ed96296951d302a58b856e85da7231798524df32786c0e3de327",
    "lbm": "b32c7f9dba44977f88394be211777065ef5e1e90fe233759a4113b18e1e952ee",
    "mcf": "d183a6da1c5441505757a9fa56f1c62eb8b4c99f458f40237b84e86a4fdb51f8",
}


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_blocks_match_iterator(name):
    """Arrays equal the iterator's events for every profile."""
    prof = profile(name)
    blocks = TraceBlocks(prof, seed=7, core_id=1)
    blocks.ensure(EVENTS)
    gen = TraceGenerator(prof, seed=7, core_id=1)
    for i in range(EVENTS):
        event = next(gen)
        assert blocks.gaps[i] == event.gap
        assert blocks.addrs[i] == event.line_addr
        assert blocks.masks[i] == event.write_mask
        assert bool(blocks.flags[i]) == event.no_fill


@pytest.mark.parametrize("name", sorted(BLOCK_DIGESTS))
def test_blocks_golden_digest(name):
    """The RNG stream itself is pinned, not only the two paths' agreement."""
    assert TraceBlocks(profile(name), seed=1).digest(8192) == BLOCK_DIGESTS[name]


def test_events_view_matches_slice():
    """``events(start, count)`` equals skipping then islicing the iterator."""
    from itertools import islice

    prof = profile("GUPS")
    blocks = TraceBlocks(prof, seed=3)
    gen = TraceGenerator(prof, seed=3)
    for _ in range(100):
        next(gen)
    expected = list(islice(gen, 50))
    assert list(blocks.events(100, 50)) == expected


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
