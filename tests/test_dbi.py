"""Dirty-Block Index: row-organized dirty tracking, DRAM-aware writeback."""

import itertools
from array import array

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cache.dbi import DirtyBlockIndex
from repro.cache.hierarchy import CacheHierarchy
from repro.cache.set_assoc import SetAssociativeCache
from repro.sim.snapshot import capture_warm_state, restore_warm_state

#: Toy row function: 4 lines per "row".
row_of = lambda line: line // 4  # noqa: E731


@pytest.fixture
def dbi():
    return DirtyBlockIndex(row_of=row_of, max_writebacks=16)


class TestTracking:
    def test_mark_and_query(self, dbi):
        dbi.mark_dirty(5)
        assert dbi.is_dirty(5)
        assert not dbi.is_dirty(6)
        assert len(dbi) == 1

    def test_companions_same_row_only(self, dbi):
        dbi.mark_dirty(4)
        dbi.mark_dirty(5)
        dbi.mark_dirty(6)
        dbi.mark_dirty(8)  # different row
        assert dbi.on_writeback(4) == [5, 6]
        assert dbi.is_dirty(8)


class TestWriteback:
    def test_writeback_drains_row(self, dbi):
        # When any dirty line of a row is written back, the other dirty
        # lines of that row go with it (Section 5.2.3).
        for line in (4, 5, 6):
            dbi.mark_dirty(line)
        companions = dbi.on_writeback(4)
        assert companions == [5, 6]
        assert len(dbi) == 0
        assert dbi.proactive_writebacks == 2
        assert dbi.triggers == 1

    def test_writeback_respects_cap(self):
        dbi = DirtyBlockIndex(row_of=lambda line: 0, max_writebacks=3)
        for line in range(10):
            dbi.mark_dirty(line)
        companions = dbi.on_writeback(0)
        assert len(companions) == 3
        # The trigger and the drained companions are cleaned.
        assert len(dbi) == 10 - 1 - 3

    def test_writeback_of_lonely_line(self, dbi):
        dbi.mark_dirty(4)
        assert dbi.on_writeback(4) == []
        assert len(dbi) == 0

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            DirtyBlockIndex(row_of=row_of, max_writebacks=0)

    def test_idempotent_mark(self, dbi):
        dbi.mark_dirty(4)
        dbi.mark_dirty(4)
        assert len(dbi) == 1


class TestCopyOnWriteRestore:
    """``on_writeback`` on a registry restored copy-on-write."""

    #: Rows (4 lines each): 1 -> {4, 5, 6, 7}, 2 -> {9, 10}, 3 -> {13}.
    DIRTY = (4, 5, 6, 7, 9, 10, 13)

    @pytest.mark.parametrize("cap", [16, 2])
    @pytest.mark.parametrize(
        "trigger",
        [5, 9, 13, 8, 21],
        ids=["full-row", "pair-row", "lonely", "trigger-clean", "absent-row"],
    )
    def test_matches_cold_registry(self, trigger, cap):
        source = DirtyBlockIndex(row_of=row_of)
        for line in self.DIRTY:
            source.mark_dirty(line)
        snapshot = source.export_rows()
        pristine = dict(snapshot)
        cold = DirtyBlockIndex(row_of=row_of, max_writebacks=cap)
        for line in self.DIRTY:
            cold.mark_dirty(line)
        restored = DirtyBlockIndex(row_of=row_of, max_writebacks=cap)
        restored.restore_rows(snapshot)

        assert restored.on_writeback(trigger) == cold.on_writeback(trigger)
        assert list(restored.export_rows().items()) == list(cold.export_rows().items())
        assert restored.proactive_writebacks == cold.proactive_writebacks
        # The snapshot's rows are still the very tuples it held.
        assert snapshot == pristine
        assert all(snapshot[key] is pristine[key] for key in pristine)
        assert all(type(lines) is tuple for lines in snapshot.values())


# ----------------------------------------------------------------------
# Differential: the DBI against a naive registry, op by op.
# ----------------------------------------------------------------------
class NaiveRegistry:
    """A dict of sets; a writeback's companions are its row's other
    lines, sorted and capped."""

    def __init__(self, max_writebacks):
        self.max_writebacks = max_writebacks
        self.rows = {}
        self.triggers = 0
        self.proactive_writebacks = 0

    def mark_dirty(self, line):
        self.rows.setdefault(row_of(line), set()).add(line)

    def on_writeback(self, line):
        self.triggers += 1
        lines = self.rows.get(row_of(line), set())
        companions = sorted(lines - {line})[: self.max_writebacks]
        lines -= {line, *companions}
        if not lines:
            self.rows.pop(row_of(line), None)
        self.proactive_writebacks += len(companions)
        return companions

    def export_rows(self):
        return {key: tuple(sorted(lines)) for key, lines in self.rows.items()}

    def restore_rows(self, rows):
        self.rows = {key: set(lines) for key, lines in rows.items()}


#: Lines 0..23 in 4-line rows: a trigger's row often holds only it,
#: only other lines, or nothing at all.
_DBI_LINE = st.integers(min_value=0, max_value=23)

dbi_programs = st.lists(
    st.one_of(
        st.tuples(st.just("mark"), _DBI_LINE),
        # A trigger drawn from any line, registered or not.
        st.tuples(st.just("writeback"), _DBI_LINE),
        # A trigger drawn from the registered lines (an index into them).
        st.tuples(st.just("writeback-dirty"), st.integers(0, 63)),
        # Export, then go on from a copy-on-write restore of the export.
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=60,
)


@pytest.mark.parametrize("max_writebacks", [1, 16])
@given(program=dbi_programs)
@example(program=[("mark", 13), ("writeback", 12)])
@settings(max_examples=200, deadline=None)
def test_dbi_matches_naive_registry(max_writebacks, program):
    """After every mark, writeback and restore, the return value,
    ``export_rows()`` (with its row order), ``triggers`` and
    ``proactive_writebacks`` equal the naive registry's, and no
    restored snapshot is mutated.  The example: a row holding one line
    that is not the trigger still drains it."""
    dbi = DirtyBlockIndex(row_of=row_of, max_writebacks=max_writebacks)
    naive = NaiveRegistry(max_writebacks)
    snapshots = []
    for op in program:
        if op[0] == "mark":
            assert dbi.mark_dirty(op[1]) is None
            naive.mark_dirty(op[1])
        elif op[0] == "restore":
            snapshot = dbi.export_rows()
            snapshots.append((snapshot, dict(snapshot)))
            dbi.restore_rows(snapshot)
            naive.restore_rows(snapshot)
        else:
            line = op[1]
            if op[0] == "writeback-dirty":
                dirty = sorted(itertools.chain(*naive.export_rows().values()))
                if not dirty:
                    continue
                line = dirty[line % len(dirty)]
            assert dbi.on_writeback(line) == naive.on_writeback(line)
        assert list(dbi.export_rows().items()) == list(naive.export_rows().items())
        assert dbi.triggers == naive.triggers
        assert dbi.proactive_writebacks == naive.proactive_writebacks
        assert len(dbi) == sum(len(lines) for lines in naive.rows.values())
    for snapshot, pristine in snapshots:
        assert snapshot == pristine
        assert all(snapshot[key] is pristine[key] for key in pristine)


# ----------------------------------------------------------------------
# The registry holds exactly the LLC's dirty resident lines, so a clean
# victim is never in it and evicting one needs no DBI call.
# ----------------------------------------------------------------------
_LINE = st.integers(min_value=0, max_value=23)
_STORE = st.integers(min_value=1, max_value=0xFF)

#: 24 lines over an 8-line LLC of 4 sets, in 8-line rows so that a
#: miss's victim can share the stored line's row: dirty evictions with
#: companions, companion drains and clean victims are all common.
hierarchy_programs = st.lists(
    st.one_of(
        st.tuples(st.just("load"), _LINE),
        st.tuples(st.just("store"), _LINE, _STORE),
        # A warmup block: loads (mask 0) and stores through warm_block.
        st.tuples(
            st.just("block"),
            st.lists(st.tuples(_LINE, st.integers(0, 0xFF)), max_size=12),
        ),
        # Capture the hierarchy and go on in one restored copy-on-write.
        st.tuples(st.just("restore")),
    ),
    min_size=1,
    max_size=60,
)


def _hierarchy(use_l1, max_writebacks, lazy_sets=False):
    l2 = SetAssociativeCache(4 * 2 * 64, ways=2, name="L2", lazy_sets=lazy_sets)
    l1s = None
    if use_l1:
        l1s = [SetAssociativeCache(2 * 64, ways=2, name="L1-0", lazy_sets=lazy_sets)]
    dbi = DirtyBlockIndex(row_of=lambda line: line // 8, max_writebacks=max_writebacks)
    return CacheHierarchy(l2, l1s=l1s, dbi=dbi)


@pytest.mark.parametrize("max_writebacks", [1, 16])
@pytest.mark.parametrize("use_l1", [False, True], ids=["llc-only", "l1"])
@given(program=hierarchy_programs)
@settings(max_examples=60, deadline=None)
def test_registry_is_the_llc_dirty_lines(use_l1, max_writebacks, program):
    """After every load, store, warmup block and restore, the DBI's
    lines are exactly the LLC's resident lines with a non-zero mask."""
    hierarchy = _hierarchy(use_l1, max_writebacks)
    for op in program:
        if op[0] == "load":
            hierarchy.access(0, op[1])
        elif op[0] == "store":
            hierarchy.access(0, op[1], write_mask=op[2])
        elif op[0] == "block":
            addrs = array("q", [line for line, _ in op[1]])
            masks = array("B", [mask for _, mask in op[1]])
            hierarchy.warm_block(0, addrs, masks, 0, len(addrs))
        else:
            snapshot = capture_warm_state(hierarchy)
            hierarchy = _hierarchy(use_l1, max_writebacks, lazy_sets=True)
            restore_warm_state(hierarchy, snapshot)
        registered = sorted(
            line for lines in hierarchy.dbi.export_rows().values() for line in lines
        )
        dirty = sorted(
            line for line, mask in hierarchy.l2.resident().items() if mask
        )
        assert registered == dirty
