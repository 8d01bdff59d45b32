"""``SetAssociativeCache.replay`` against per-event ``access`` (the oracle).

Cold warmup plays each trace block through ``CacheHierarchy.warm_block``,
which in LLC-only mode is one ``replay`` loop handed the DBI's
``mark_dirty`` and ``on_writeback``; the timed run goes through
``CacheHierarchy.access`` one event at a time.  Both must leave the same
cache (``export_state()``, dict order included), the same stats and the
same DBI registry — from a privately owned cache and from one restored
copy-on-write, whose snapshot the replay must leave untouched.
"""

import copy
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.dbi import DirtyBlockIndex
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache

SETS, WAYS = 4, 2

#: 24 lines (three 8-line rows) over 4 sets of 2 ways; half the events
#: are loads, so clean and dirty victims and companion drains all occur,
#: and two lines of a row share each set, so a miss's victim can sit in
#: the stored line's row (which makes the mark-then-drain order count).
events = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=23),
        st.one_of(st.just(0), st.integers(min_value=1, max_value=0xFF)),
    ),
    max_size=40,
)


def _hierarchy(with_dbi, max_writebacks, state=None, rows=None):
    l2 = SetAssociativeCache(SETS * WAYS * 64, WAYS, name="L2", lazy_sets=state is not None)
    if state is not None:
        l2.restore_state(state)
    dbi = None
    if with_dbi:
        dbi = DirtyBlockIndex(row_of=lambda line: line // 8, max_writebacks=max_writebacks)
        if rows is not None:
            dbi.restore_rows(rows)
    return CacheHierarchy(l2, dbi=dbi)


def _cache_state(cache):
    """``export_state()`` with each set's tag dict in insertion order."""
    tags, addr, mask, stamps, counter = cache.export_state()
    return (
        [list(t.items()) for t in tags],
        addr.tolist(),
        mask.tolist(),
        stamps.tolist(),
        counter,
    )


@pytest.mark.parametrize("with_dbi", [True, False], ids=["dbi", "no-dbi"])
@given(
    prefix=events,
    block=events,
    bounds=st.tuples(st.integers(0, 40), st.integers(0, 40)),
    max_writebacks=st.sampled_from([1, 16]),
    restored=st.booleans(),
)
@settings(max_examples=100, deadline=None)
def test_replay_matches_per_event_access(
    with_dbi, prefix, block, bounds, max_writebacks, restored
):
    if restored:
        source = _hierarchy(with_dbi, max_writebacks)
        for line, mask in prefix:
            source.access(0, line, write_mask=mask)
        state = source.l2.export_state()
        rows = source.dbi.export_rows() if with_dbi else None
        pristine = copy.deepcopy((_cache_state(source.l2), rows))
        fast = _hierarchy(with_dbi, max_writebacks, state, rows)
        oracle = _hierarchy(with_dbi, max_writebacks, state, rows)
    else:
        fast = _hierarchy(with_dbi, max_writebacks)
        oracle = _hierarchy(with_dbi, max_writebacks)
        for line, mask in prefix:
            fast.access(0, line, write_mask=mask)
            oracle.access(0, line, write_mask=mask)

    addrs = array("q", [line for line, _ in block])
    masks = array("B", [mask for _, mask in block])
    start, end = (min(b, len(block)) for b in bounds)
    fast.warm_block(0, addrs, masks, start, end)
    for i in range(start, end):
        oracle.access(0, addrs[i], write_mask=masks[i])

    assert _cache_state(fast.l2) == _cache_state(oracle.l2)
    assert fast.l2.stats == oracle.l2.stats
    if with_dbi:
        assert list(fast.dbi.export_rows().items()) == list(oracle.dbi.export_rows().items())
        assert fast.dbi.proactive_writebacks == oracle.dbi.proactive_writebacks
        assert fast.dbi.triggers == oracle.dbi.triggers
    if restored:
        snapshot = SetAssociativeCache(SETS * WAYS * 64, WAYS, lazy_sets=True)
        snapshot.restore_state(state)
        assert (_cache_state(snapshot), rows) == pristine
