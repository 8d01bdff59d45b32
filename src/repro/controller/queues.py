"""Request queues with per-row indexing for FR-FCFS and PRA mask merging.

The controller needs three fast operations the paper's scheduler relies
on:

* oldest request overall (FCFS order),
* oldest request targeting a given open row (the "first-ready" part of
  FR-FCFS),
* all queued writes to a row (to OR their PRA masks at activation,
  Section 5.2.1).

Removal is eager: the FCFS order is an insertion-ordered dict of live
requests keyed by the request object itself (``req_id`` is caller-
settable, so it is not a safe key), and each row bucket is a list of
live requests in arrival order, dropped when its last member leaves.
Every structure therefore holds live requests only: the oldest-first
scan, the row probes and the mask merge never step over served ones.
"""

from __future__ import annotations

from itertools import islice
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dram.commands import Request

RowKey = Tuple[int, int, int]

def row_key(req: Request) -> RowKey:
    """Row identity within a channel: (rank, bank, row)."""
    addr = req.addr
    return (addr.rank, addr.bank, addr.row)


def pack_row_key(key: RowKey) -> int:
    """Pack a (rank, bank, row) tuple into the int the row index uses.

    The internal ``_by_row`` dict is keyed by this packed form
    (``Request._rowkey``): hashing one int beats hashing a 3-tuple on
    the controller's per-step bucket probes.  Public tuple-keyed methods
    convert on entry so callers never see the encoding.
    """
    return (key[0] << 40) | (key[1] << 32) | key[2]


class RequestQueue:
    """FCFS queue of live requests with a row index."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        #: Live requests in arrival order (dict keys; values unused).
        self._fifo: Dict[Request, None] = {}
        #: Row index keyed by the packed int form (``pack_row_key``):
        #: live requests oldest first; a key exists only while its list
        #: is non-empty, so ``get`` is also the emptiness test.
        self._by_row: Dict[int, List[Request]] = {}
        self._per_rank: Dict[int, int] = {}
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    def append(self, req: Request) -> None:
        """Admit a request at the tail; raises OverflowError when full."""
        if self._count >= self.capacity:
            raise OverflowError("queue full")
        self._fifo[req] = None
        bucket = self._by_row.get(req._rowkey)
        if bucket is None:
            self._by_row[req._rowkey] = [req]
        else:
            bucket.append(req)
        rank = req.addr.rank
        self._per_rank[rank] = self._per_rank.get(rank, 0) + 1
        self._count += 1

    def remove(self, req: Request) -> None:
        """Drop a served request; KeyError if it is not queued."""
        del self._fifo[req]
        self._count -= 1
        bucket = self._by_row[req._rowkey]
        if len(bucket) == 1:
            del self._by_row[req._rowkey]
        else:
            bucket.remove(req)
        rank = req.addr.rank
        left = self._per_rank[rank] - 1
        if left:
            self._per_rank[rank] = left
        else:
            del self._per_rank[rank]

    def oldest(self) -> Optional[Request]:
        return next(iter(self._fifo), None)

    def iter_oldest(self, limit: int) -> Iterator[Request]:
        """Up to ``limit`` live requests in FCFS order."""
        return islice(self._fifo, limit)

    def oldest_for_row(self, key: RowKey) -> Optional[Request]:
        """Oldest live request targeting the row, or None."""
        bucket = self._by_row.get(pack_row_key(key))
        return None if bucket is None else bucket[0]

    def has_row(self, key: RowKey) -> bool:
        return pack_row_key(key) in self._by_row

    def merged_needed(self, packed: int) -> int:
        """OR of ``_needed`` over the live requests of a packed row
        (0 for an empty row): the Section 5.2.1 mask merge."""
        merged = 0
        for req in self._by_row.get(packed, ()):
            merged |= req._needed
        return merged

    def requests_for_row(self, key: RowKey) -> List[Request]:
        """All live requests targeting the row, oldest first."""
        return list(self._by_row.get(pack_row_key(key), ()))

    def pending_for_rank(self, rank: int) -> int:
        return self._per_rank.get(rank, 0)
