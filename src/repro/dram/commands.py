"""Memory requests and decoded DRAM addresses.

``Request`` is the unit of work entering the memory controller: a 64 B
cache-line read or write.  Write requests carry the fine-grained dirty
mask (one bit per 8 B word) produced by the FGD cache hierarchy; the
controller turns that mask into the PRA mask of the activation.  The
device commands the controller issues for it are
:class:`repro.dram.protocol.Cmd` records.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Optional

from repro.dram.geometry import FULL_MASK


class ReqKind(enum.Enum):
    """Kind of memory request seen by the controller."""

    READ = "read"
    WRITE = "write"


_req_ids = itertools.count()

# Member lookups through an Enum class are attribute calls; the request
# constructor compares against these module constants instead.
_READ = ReqKind.READ
_WRITE = ReqKind.WRITE


@dataclass(slots=True)
class Address:
    """A fully decoded DRAM address."""

    channel: int
    rank: int
    bank: int
    row: int
    column: int

    def same_row(self, other: "Address") -> bool:
        """True when both addresses fall in the same DRAM row."""
        return (
            self.channel == other.channel
            and self.rank == other.rank
            and self.bank == other.bank
            and self.row == other.row
        )

    @property
    def bank_key(self) -> tuple:
        """Hashable identity of the bank this address maps to."""
        return (self.channel, self.rank, self.bank)


class Request:
    """A cache-line-sized memory request.

    ``dirty_mask`` is meaningful for writes only: bit *i* set means word
    *i* of the line is dirty and must be written to DRAM.  A full mask
    (0xFF) means the entire line is dirty.  Reads always carry a full
    mask because a read must return the whole line.

    The class is ``__slots__``-based with ``is_read`` / ``is_write``
    precomputed at construction: the scheduler touches these on every
    candidate scan, and attribute loads beat property calls by an order
    of magnitude on that path.
    """

    __slots__ = (
        "kind",
        "addr",
        "arrive_cycle",
        "dirty_mask",
        "core_id",
        "req_id",
        "complete_cycle",
        "is_read",
        "is_write",
        "_missed",
        "_false",
        "_needed",
        "_rowkey",
        "_rank",
        "_bank",
        "_row",
        "_g",
        "_bit",
    )

    #: Channel-local coordinates, set by the admitting controller
    #: (``ChannelController.enqueue``): rank, bank, row, bank index
    #: ``g`` within the channel, and ``1 << g``.
    _rank: int
    _bank: int
    _row: int
    _g: int
    _bit: int

    def __init__(
        self,
        kind: ReqKind,
        addr: Address,
        arrive_cycle: int,
        dirty_mask: int = FULL_MASK,
        core_id: int = 0,
        req_id: Optional[int] = None,
        complete_cycle: Optional[int] = None,
    ) -> None:
        self.kind = kind
        self.addr = addr
        self.arrive_cycle = arrive_cycle
        self.core_id = core_id
        self.req_id = next(_req_ids) if req_id is None else req_id
        #: Cycle at which the request finished (data returned / written).
        self.complete_cycle = complete_cycle
        self.is_read = kind is _READ
        self.is_write = kind is _WRITE
        if self.is_read:
            dirty_mask = FULL_MASK
        if not 0 < dirty_mask <= FULL_MASK:
            raise ValueError(
                f"dirty_mask must be in (0, {FULL_MASK:#x}], got {dirty_mask:#x}"
            )
        self.dirty_mask = dirty_mask
        # Scheduling scratch state, owned by the controller.
        self._missed = False
        self._false = False
        #: MAT-group coverage the request needs from an open row; set by
        #: the admitting controller (scheme-dependent for writes).
        self._needed = FULL_MASK
        #: Packed (rank, bank, row) identity within the channel; the
        #: controller's row index hashes this single int instead of a
        #: tuple on every queue/bucket probe (see controller.queues).
        self._rowkey = (addr.rank << 40) | (addr.bank << 32) | addr.row

    def __repr__(self) -> str:
        return (
            f"Request(kind={self.kind!r}, addr={self.addr!r}, "
            f"arrive_cycle={self.arrive_cycle}, dirty_mask={self.dirty_mask:#x}, "
            f"core_id={self.core_id}, req_id={self.req_id})"
        )
