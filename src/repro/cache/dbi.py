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

from typing import Callable, Dict, Hashable, List, Set, Tuple, Union

RowOf = Callable[[int], Hashable]

#: One row's dirty lines: a private mutable set, or — after a
#: copy-on-write restore — the snapshot's shared immutable tuple,
#: privatized to a set on first mutation.  All readers are
#: order-insensitive (membership, ``len``, sorted iteration), so the
#: two representations are observationally identical.
RowLines = Union[Set[int], Tuple[int, ...]]

# COW contract for the aliasing pass (repro.analysis.cowcheck): after
# restore_rows the per-row values are the snapshot's shared tuples;
# writers must thaw a row to a private set (lines = set(lines)) before
# mutating it in place.
REPRO_COW_PROTOCOL = {
    "shared_roots": ("_rows",),
    "privatizers": (),
}


class DirtyBlockIndex:
    """Row-organized registry of dirty line addresses.

    ``row_of`` maps a cache-line address to its DRAM-row identity (the
    address-mapper's ``line_row_key``).  ``max_writebacks`` bounds how
    many companion lines one trigger may drain (the paper drains the
    whole row; a bound keeps pathological rows from flooding the write
    queue).
    """

    def __init__(self, row_of: RowOf, max_writebacks: int = 16) -> None:
        if max_writebacks < 1:
            raise ValueError("max_writebacks must be >= 1")
        self.row_of = row_of
        self.max_writebacks = max_writebacks
        self._rows: Dict[Hashable, RowLines] = {}
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

    def mark_clean(self, line_addr: int) -> None:
        """Drop a line from the dirty registry (no-op if absent)."""
        key = self.row_of(line_addr)
        lines = self._rows.get(key)
        if lines is None:
            return
        if isinstance(lines, tuple):
            if line_addr not in lines:
                return
            lines = set(lines)
            self._rows[key] = lines
        lines.discard(line_addr)
        if not lines:
            del self._rows[key]

    def is_dirty(self, line_addr: int) -> bool:
        lines = self._rows.get(self.row_of(line_addr))
        return bool(lines) and line_addr in lines

    def export_rows(self) -> Dict[Hashable, Tuple[int, ...]]:
        """Snapshot the dirty registry as picklable sorted tuples."""
        return {key: tuple(sorted(lines)) for key, lines in self._rows.items()}

    def restore_rows(self, rows: Dict[Hashable, Tuple[int, ...]]) -> None:
        """Restore, copy-on-write, a registry captured by :meth:`export_rows`.

        Copies only the top-level dict and keeps the snapshot's per-row
        tuples shared; a row is privatized to a set on its first
        ``mark_dirty``/``mark_clean``/``on_writeback``.  Every reader is
        order-insensitive, so the registry behaves as one replayed by
        ``mark_dirty`` (the cold oracle).
        """
        self._rows = dict(rows)

    def on_writeback(self, line_addr: int) -> List[int]:
        """A dirty line is being written back: pick companions to drain.

        Returns the companion line addresses (up to ``max_writebacks``)
        and removes them and the trigger line from the index.  The
        caller is responsible for cleaning them in the cache and
        enqueueing the DRAM writes.  The row is looked up once, and a
        shared snapshot row is privatized at most once.
        """
        self.triggers += 1
        key = self.row_of(line_addr)
        lines = self._rows.get(key)
        if lines is None:
            return []
        companions = sorted(addr for addr in lines if addr != line_addr)[
            : self.max_writebacks
        ]
        if not companions and line_addr not in lines:
            return []
        if isinstance(lines, tuple):
            # A row shared with the snapshot: privatize on mutation.
            lines = set(lines)
            self._rows[key] = lines
        lines.discard(line_addr)
        lines.difference_update(companions)
        if not lines:
            del self._rows[key]
        self.proactive_writebacks += len(companions)
        return companions
