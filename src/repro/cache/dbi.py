"""Dirty-Block Index (DBI) for DRAM-aware writeback (Section 5.2.3).

The DBI separates dirty-bit tracking from the cache tag store and
organizes it by DRAM row: when any dirty line of a row is written back,
the other dirty lines of the same row are proactively written back too
(and left resident-clean in the cache), so the writes can share one row
activation.  The paper combines this with PRA to study the interaction:
DBI raises the write row-hit rate but also raises PRA's false-hit
pressure (the proactive burst arrives with heterogeneous masks).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Set, Tuple, Union

#: Line address -> an int naming its DRAM row.
RowOf = Callable[[int], int]

#: One row's dirty lines: a private mutable set, or — after a
#: copy-on-write restore — the snapshot's shared immutable tuple,
#: privatized to a set on first mutation.  All readers are
#: order-insensitive (membership, ``len``, sorted iteration), so the
#: two representations are observationally identical.
RowLines = Union[Set[int], Tuple[int, ...]]

# Copy-on-write invariant: after restore_rows the per-row values alias
# the snapshot's tuples, so a writer thaws a row to a private set
# (lines = set(lines)) before mutating it; a tuple has no in-place
# mutators, so a missed thaw raises at once.


class DirtyBlockIndex:
    """Row-organized registry of dirty line addresses.

    ``row_of`` maps a cache-line address to an int naming its DRAM row
    (the address mapper's ``line_row_id``).  ``max_writebacks`` bounds
    how many companion lines one trigger may drain (the paper drains
    the whole row; a bound keeps pathological rows from flooding the
    write queue).

    The registry holds exactly the LLC's dirty resident lines: a store
    marks its line, and a line leaves only when it is written back, as
    the trigger or as a drained companion that the caller cleans.  A
    clean victim is therefore never registered, and evicting one needs
    no call here (``tests/test_dbi.py`` checks this on random
    hierarchies; the sanitizer checks it after every run).
    """

    def __init__(self, row_of: RowOf, max_writebacks: int = 16) -> None:
        if max_writebacks < 1:
            raise ValueError("max_writebacks must be >= 1")
        self.row_of = row_of
        self.max_writebacks = max_writebacks
        self._rows: Dict[int, RowLines] = {}
        self.proactive_writebacks = 0
        self.triggers = 0

    def __len__(self) -> int:
        return sum(len(lines) for lines in self._rows.values())

    def mark_dirty(self, line_addr: int) -> None:
        """Record a line as dirty under its DRAM row."""
        key = self.row_of(line_addr)
        lines = self._rows.get(key)
        if lines is None:
            self._rows[key] = {line_addr}
            return
        if isinstance(lines, tuple):
            # A row shared with the snapshot: privatize on mutation.
            lines = set(lines)
            self._rows[key] = lines
        lines.add(line_addr)

    def is_dirty(self, line_addr: int) -> bool:
        lines = self._rows.get(self.row_of(line_addr))
        return bool(lines) and line_addr in lines

    def export_rows(self) -> Dict[int, Tuple[int, ...]]:
        """Snapshot the dirty registry as picklable sorted tuples."""
        return {key: tuple(sorted(lines)) for key, lines in self._rows.items()}

    def restore_rows(self, rows: Dict[int, Tuple[int, ...]]) -> None:
        """Restore, copy-on-write, a registry captured by :meth:`export_rows`.

        Copies only the top-level dict and keeps the snapshot's per-row
        tuples shared; ``mark_dirty`` privatizes a row to a set, and
        ``on_writeback`` drops it or stores what remains as a fresh
        set.  Every reader is order-insensitive, so the registry
        behaves as one replayed by ``mark_dirty`` (the cold oracle).
        """
        self._rows = dict(rows)

    def on_writeback(self, line_addr: int) -> List[int]:
        """A dirty line is being written back: pick companions to drain.

        Returns the companion line addresses (up to ``max_writebacks``,
        lowest first) and removes them and the trigger line from the
        index.  The caller is responsible for cleaning them in the
        cache and enqueueing the DRAM writes.  The row is looked up
        once and sorted at most once; a row holding only the trigger
        is dropped at once, and a shared snapshot row is never mutated
        (what remains of it is stored as a fresh set).
        """
        self.triggers += 1
        rows = self._rows
        key = self.row_of(line_addr)
        lines = rows.get(key)
        if lines is None:
            return []
        if len(lines) == 1 and line_addr in lines:
            del rows[key]
            return []
        others = sorted(lines)
        if line_addr in lines:
            others.remove(line_addr)
        cap = self.max_writebacks
        companions = others[:cap]
        if len(others) > cap:
            rows[key] = set(others[cap:])
        else:
            del rows[key]
        self.proactive_writebacks += len(companions)
        return companions
