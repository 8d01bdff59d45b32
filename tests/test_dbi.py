"""Dirty-Block Index: row-organized dirty tracking, DRAM-aware writeback."""

import pytest

from repro.cache.dbi import DirtyBlockIndex

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

    def test_mark_clean(self, dbi):
        dbi.mark_dirty(5)
        dbi.mark_clean(5)
        assert not dbi.is_dirty(5)
        assert len(dbi) == 0

    def test_clean_unknown_is_noop(self, dbi):
        dbi.mark_clean(42)
        assert len(dbi) == 0

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
    """``on_writeback`` on a registry restored with ``cow=True``."""

    #: Rows (4 lines each): 1 -> {4, 5, 6, 7}, 2 -> {9, 10}, 3 -> {13}.
    DIRTY = (4, 5, 6, 7, 9, 10, 13)

    @pytest.mark.parametrize("cap", [16, 2])
    @pytest.mark.parametrize(
        "trigger",
        [5, 9, 13, 8, 21],
        ids=["full-row", "pair-row", "lonely", "trigger-clean", "absent-row"],
    )
    def test_matches_eager_restore(self, trigger, cap):
        source = DirtyBlockIndex(row_of=row_of)
        for line in self.DIRTY:
            source.mark_dirty(line)
        snapshot = source.export_rows()
        pristine = dict(snapshot)
        eager = DirtyBlockIndex(row_of=row_of, max_writebacks=cap)
        eager.restore_rows(snapshot)
        cow = DirtyBlockIndex(row_of=row_of, max_writebacks=cap)
        cow.restore_rows(snapshot, cow=True)

        assert cow.on_writeback(trigger) == eager.on_writeback(trigger)
        assert list(cow.export_rows().items()) == list(eager.export_rows().items())
        assert cow.proactive_writebacks == eager.proactive_writebacks
        # The snapshot's rows are still the very tuples it held.
        assert snapshot == pristine
        assert all(snapshot[key] is pristine[key] for key in pristine)
        assert all(type(lines) is tuple for lines in snapshot.values())
