"""Request queues: FCFS order, row indexing, removal, rank counts."""

import pytest

from repro.controller.queues import RequestQueue, row_key
from repro.dram.commands import Address, ReqKind, Request


def make_req(kind=ReqKind.READ, rank=0, bank=0, row=0, column=0, cycle=0, mask=0xFF):
    return Request(
        kind=kind,
        addr=Address(channel=0, rank=rank, bank=bank, row=row, column=column),
        arrive_cycle=cycle,
        dirty_mask=mask,
    )


class TestBasics:
    def test_append_and_len(self):
        q = RequestQueue(4)
        q.append(make_req())
        assert len(q) == 1
        assert not q.is_full

    def test_capacity_enforced(self):
        q = RequestQueue(2)
        q.append(make_req())
        q.append(make_req())
        assert q.is_full
        with pytest.raises(OverflowError):
            q.append(make_req())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RequestQueue(0)

    def test_oldest_is_fifo(self):
        q = RequestQueue(4)
        first = make_req(row=1)
        second = make_req(row=2)
        q.append(first)
        q.append(second)
        assert q.oldest() is first

    def test_remove_then_oldest(self):
        q = RequestQueue(4)
        first, second = make_req(row=1), make_req(row=2)
        q.append(first)
        q.append(second)
        q.remove(first)
        assert len(q) == 1
        assert q.oldest() is second

    def test_double_remove_rejected(self):
        q = RequestQueue(4)
        req = make_req()
        q.append(req)
        q.remove(req)
        with pytest.raises(KeyError):
            q.remove(req)


class TestRowIndex:
    def test_oldest_for_row(self):
        q = RequestQueue(8)
        a = make_req(rank=0, bank=1, row=7)
        b = make_req(rank=0, bank=1, row=7)
        q.append(a)
        q.append(b)
        key = (0, 1, 7)
        assert q.oldest_for_row(key) is a
        q.remove(a)
        assert q.oldest_for_row(key) is b
        q.remove(b)
        assert q.oldest_for_row(key) is None
        assert not q.has_row(key)

    def test_requests_for_row_skips_served(self):
        q = RequestQueue(8)
        a = make_req(kind=ReqKind.WRITE, row=3, mask=0b1)
        b = make_req(kind=ReqKind.WRITE, row=3, mask=0b10)
        q.append(a)
        q.append(b)
        q.remove(a)
        remaining = q.requests_for_row((0, 0, 3))
        assert remaining == [b]

    def test_row_key_helper(self):
        req = make_req(rank=1, bank=5, row=99)
        assert row_key(req) == (1, 5, 99)


class TestRankAccounting:
    def test_pending_for_rank(self):
        q = RequestQueue(8)
        q.append(make_req(rank=0))
        q.append(make_req(rank=1))
        q.append(make_req(rank=1))
        assert q.pending_for_rank(0) == 1
        assert q.pending_for_rank(1) == 2
        assert q.pending_for_rank(2) == 0

    def test_rank_count_decrements(self):
        q = RequestQueue(8)
        req = make_req(rank=1)
        q.append(req)
        q.remove(req)
        assert q.pending_for_rank(1) == 0


class TestIterOldest:
    def test_limit(self):
        q = RequestQueue(8)
        reqs = [make_req(row=i) for i in range(5)]
        for r in reqs:
            q.append(r)
        assert list(q.iter_oldest(3)) == reqs[:3]

    def test_skips_served(self):
        q = RequestQueue(8)
        reqs = [make_req(row=i) for i in range(4)]
        for r in reqs:
            q.append(r)
        q.remove(reqs[1])
        assert list(q.iter_oldest(10)) == [reqs[0], reqs[2], reqs[3]]

    def test_zero_limit_yields_nothing(self):
        q = RequestQueue(8)
        q.append(make_req())
        assert list(q.iter_oldest(0)) == []
