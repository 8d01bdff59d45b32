"""Request/Address value types."""

import pytest

from repro.dram.commands import Address, ReqKind, Request
from repro.dram.geometry import FULL_MASK


def addr(**kwargs):
    defaults = dict(channel=0, rank=0, bank=0, row=0, column=0)
    defaults.update(kwargs)
    return Address(**defaults)


class TestAddress:
    def test_same_row(self):
        a = addr(row=5, column=1)
        b = addr(row=5, column=9)
        c = addr(row=6, column=1)
        assert a.same_row(b)
        assert not a.same_row(c)

    def test_same_row_requires_same_bank(self):
        a = addr(row=5)
        b = addr(row=5, bank=1)
        assert not a.same_row(b)

    def test_bank_key(self):
        assert addr(channel=1, rank=0, bank=3).bank_key == (1, 0, 3)


class TestRequest:
    def test_read_forces_full_mask(self):
        r = Request(kind=ReqKind.READ, addr=addr(), arrive_cycle=0, dirty_mask=0b1)
        assert r.dirty_mask == FULL_MASK
        assert r.is_read and not r.is_write

    def test_write_keeps_mask(self):
        w = Request(kind=ReqKind.WRITE, addr=addr(), arrive_cycle=0, dirty_mask=0b101)
        assert w.dirty_mask == 0b101
        assert w.is_write

    def test_write_zero_mask_rejected(self):
        with pytest.raises(ValueError):
            Request(kind=ReqKind.WRITE, addr=addr(), arrive_cycle=0, dirty_mask=0)

    def test_oversized_mask_rejected(self):
        with pytest.raises(ValueError):
            Request(kind=ReqKind.WRITE, addr=addr(), arrive_cycle=0, dirty_mask=0x100)

    def test_unique_ids(self):
        a = Request(kind=ReqKind.READ, addr=addr(), arrive_cycle=0)
        b = Request(kind=ReqKind.READ, addr=addr(), arrive_cycle=0)
        assert a.req_id != b.req_id
