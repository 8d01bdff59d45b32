"""Physical-address to DRAM-coordinate mapping, and line data mapping.

Two interleaving schemes from the paper's methodology (Section 5.1.2):

* **row-interleaved** — consecutive cache lines fill a DRAM row before
  moving to the next channel/bank.  Used with the relaxed close-page
  policy; preserves row-buffer locality of streaming accesses.
* **line-interleaved** — consecutive cache lines are spread over
  channels, then banks, then ranks.  Used with the restricted
  close-page policy; maximizes bank/channel parallelism.

Also implements the intra-line data mapping of Figure 1: word *i* of a
cache line is distributed one byte per chip, and within each chip the
byte's two nibbles occupy the two MATs of MAT group *i*.  This is what
lets one bit of the PRA mask gate exactly one word lane.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.dram.commands import Address
from repro.dram.geometry import LINE_BYTES, WORD_BYTES, SystemGeometry


class Interleaving(enum.Enum):
    ROW = "row-interleaved"
    LINE = "line-interleaved"


def _bits(value: int) -> int:
    """Number of address bits needed for ``value`` distinct items."""
    if value <= 0:
        raise ValueError("need a positive item count")
    return (value - 1).bit_length()


# Derived bit-slice attributes are attached in __post_init__ via
# object.__setattr__, which __slots__ would reject; one mapper exists
# per System, so the per-instance __dict__ is not a hot-path cost.
@dataclass(frozen=True)
class AddressMapper:  # reprolint: allow[hygiene-slots]
    """Decodes byte addresses into (channel, rank, bank, row, column).

    ``column`` in the produced :class:`Address` is the *line-level*
    column index (0 .. lines_per_row - 1); the device moves a whole
    64 B line per column access burst.
    """

    geometry: SystemGeometry = SystemGeometry()
    interleaving: Interleaving = Interleaving.ROW

    def __post_init__(self) -> None:
        geo = self.geometry
        object.__setattr__(self, "_ch_bits", _bits(geo.channels))
        object.__setattr__(self, "_rk_bits", _bits(geo.ranks_per_channel))
        object.__setattr__(self, "_ba_bits", _bits(geo.chip.banks))
        object.__setattr__(self, "_co_bits", _bits(geo.lines_per_row))
        object.__setattr__(self, "_ro_bits", _bits(geo.chip.rows))
        # decode_line runs once per DRAM request; cache every divisor as
        # a plain attribute so the hot path does no property calls and
        # no nested geometry lookups.
        object.__setattr__(self, "_channels", geo.channels)
        object.__setattr__(self, "_ranks", geo.ranks_per_channel)
        object.__setattr__(self, "_banks", geo.chip.banks)
        object.__setattr__(self, "_rows", geo.chip.rows)
        object.__setattr__(self, "_cols", geo.lines_per_row)
        object.__setattr__(self, "_capacity", geo.capacity_bytes // LINE_BYTES)
        # The interleaving as a flag (an Enum member lookup costs a
        # call), and line_row_id's constants: under line interleaving
        # the low (channel, bank, rank) digits, then the column digit,
        # sit below the row.
        lanes = geo.channels * geo.chip.banks * geo.ranks_per_channel
        object.__setattr__(self, "_row_interleaved", self.interleaving is Interleaving.ROW)
        object.__setattr__(self, "_row_lanes", lanes)
        object.__setattr__(self, "_row_span", lanes * geo.lines_per_row)

    @property
    def line_capacity(self) -> int:
        """Total number of cache lines the system can hold."""
        return self._capacity

    def decode_line(self, line_index: int) -> Address:
        """Decode a cache-line index into DRAM coordinates."""
        if line_index < 0:
            raise ValueError("line index must be non-negative")
        v = line_index % self._capacity
        if self._row_interleaved:
            # offset | column | channel | bank | rank | row
            v, column = divmod(v, self._cols)
            v, channel = divmod(v, self._channels)
            v, bank = divmod(v, self._banks)
            v, rank = divmod(v, self._ranks)
            row = v % self._rows
        else:
            # offset | channel | bank | rank | column | row
            v, channel = divmod(v, self._channels)
            v, bank = divmod(v, self._banks)
            v, rank = divmod(v, self._ranks)
            v, column = divmod(v, self._cols)
            row = v % self._rows
        return Address(channel=channel, rank=rank, bank=bank, row=row, column=column)

    def decode(self, byte_addr: int) -> Address:
        """Decode a physical byte address."""
        return self.decode_line(byte_addr // LINE_BYTES)

    def encode_line(self, addr: Address) -> int:
        """Inverse of :meth:`decode_line` (used by tests)."""
        geo = self.geometry
        if self.interleaving is Interleaving.ROW:
            v = addr.row
            v = v * geo.ranks_per_channel + addr.rank
            v = v * geo.chip.banks + addr.bank
            v = v * geo.channels + addr.channel
            v = v * geo.lines_per_row + addr.column
        else:
            v = addr.row
            v = v * geo.lines_per_row + addr.column
            v = v * geo.ranks_per_channel + addr.rank
            v = v * geo.chip.banks + addr.bank
            v = v * geo.channels + addr.channel
        return v

    def row_key(self, addr: Address) -> tuple:
        """Hashable identity of the DRAM row an address falls in."""
        return (addr.channel, addr.rank, addr.bank, addr.row)

    def line_row_id(self, line_index: int) -> int:
        """An int naming the DRAM row ``line_index`` falls in.

        Two lines get the same id iff they get the same
        ``row_key(decode_line(line))``: the id is the in-capacity line
        index with its column digit removed.  The DBI keys its
        registry by this on every dirty mark and writeback, which makes
        it the warmup replay's hottest mapping call: one division under
        row interleaving, two under line interleaving, and no
        :class:`Address` or tuple built (``tests/test_mapping.py``
        holds it to ``row_key``).
        """
        if line_index < 0:
            raise ValueError("line index must be non-negative")
        v = line_index % self._capacity
        if self._row_interleaved:
            # offset | column | channel | bank | rank | row
            return v // self._cols
        # offset | channel | bank | rank | column | row
        return v // self._row_span * self._row_lanes + v % self._row_lanes


def word_index_to_mat_group(word: int) -> int:
    """MAT group (within every chip of the rank) that stores ``word``.

    Per Figure 1, word *i* of a cache line maps to MAT group *i*: the
    identity map.  Kept as a function so alternative intra-line
    mappings can be studied.
    """
    if not 0 <= word < LINE_BYTES // WORD_BYTES:
        raise ValueError(f"word index out of range: {word}")
    return word


def dirty_words_to_mask(dirty_words: "list[int] | tuple[int, ...]") -> int:
    """Build a PRA mask from a collection of dirty word indices."""
    mask = 0
    for word in dirty_words:
        mask |= 1 << word_index_to_mat_group(word)
    return mask


def mats_activated(mask: int, mats_per_group: int = 2) -> int:
    """Number of MATs opened by an activation with ``mask``."""
    return bin(mask).count("1") * mats_per_group
