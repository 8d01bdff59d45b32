"""Address mapping: interleavings, round trips, intra-line data mapping."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dram.geometry import ChipGeometry, SystemGeometry
from repro.dram.mapping import (
    AddressMapper,
    Interleaving,
    dirty_words_to_mask,
    mats_activated,
    word_index_to_mat_group,
)

ROW_MAPPER = AddressMapper(SystemGeometry(), Interleaving.ROW)
LINE_MAPPER = AddressMapper(SystemGeometry(), Interleaving.LINE)

line_indices = st.integers(min_value=0, max_value=ROW_MAPPER.line_capacity - 1)


class TestDecodeBounds:
    @given(line_indices)
    @settings(max_examples=200)
    def test_fields_in_range(self, line):
        for mapper in (ROW_MAPPER, LINE_MAPPER):
            addr = mapper.decode_line(line)
            geo = mapper.geometry
            assert 0 <= addr.channel < geo.channels
            assert 0 <= addr.rank < geo.ranks_per_channel
            assert 0 <= addr.bank < geo.chip.banks
            assert 0 <= addr.row < geo.chip.rows
            assert 0 <= addr.column < geo.lines_per_row

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ROW_MAPPER.decode_line(-1)

    def test_byte_decode_uses_line(self):
        a = ROW_MAPPER.decode(64 * 12345)
        b = ROW_MAPPER.decode_line(12345)
        assert a == b


class TestRoundTrip:
    @given(line_indices)
    @settings(max_examples=200)
    def test_row_interleaved_roundtrip(self, line):
        addr = ROW_MAPPER.decode_line(line)
        assert ROW_MAPPER.encode_line(addr) == line

    @given(line_indices)
    @settings(max_examples=200)
    def test_line_interleaved_roundtrip(self, line):
        addr = LINE_MAPPER.decode_line(line)
        assert LINE_MAPPER.encode_line(addr) == line


class TestInterleavingSemantics:
    def test_row_interleaved_keeps_lines_in_row(self):
        # Consecutive lines share (channel, rank, bank, row) until the
        # 128-line row is exhausted.
        base = ROW_MAPPER.decode_line(0)
        for i in range(1, 128):
            addr = ROW_MAPPER.decode_line(i)
            assert addr.same_row(base)
            assert addr.column == i

    def test_row_interleaved_switches_channel_after_row(self):
        a = ROW_MAPPER.decode_line(127)
        b = ROW_MAPPER.decode_line(128)
        assert not b.same_row(a)
        assert b.channel != a.channel

    def test_line_interleaved_spreads_consecutive_lines(self):
        a = LINE_MAPPER.decode_line(0)
        b = LINE_MAPPER.decode_line(1)
        assert b.channel != a.channel  # channel bit is lowest

    def test_line_interleaved_spreads_banks(self):
        # Lines 0, 2, 4, ... walk the banks of channel 0.
        banks = {LINE_MAPPER.decode_line(2 * i).bank for i in range(8)}
        assert len(banks) == 8

    def test_row_key(self):
        addr = ROW_MAPPER.decode_line(777)
        assert ROW_MAPPER.row_key(addr) == (
            addr.channel,
            addr.rank,
            addr.bank,
            addr.row,
        )

    @pytest.mark.parametrize("interleaving", list(Interleaving), ids=lambda i: i.name)
    @pytest.mark.parametrize("xor_bank_hash", [False, True], ids=["plain", "xor"])
    def test_line_row_id_is_a_bijection_of_row_key(self, interleaving, xor_bank_hash):
        """Two lines share a ``line_row_id`` iff they share
        ``row_key(decode_line())``: checked on every line of a small
        geometry three times over, so lines past capacity wrap the same
        way, and on a negative line, which both reject."""
        geometry = SystemGeometry(chip=ChipGeometry(banks=4, rows=4, columns=32))
        mapper = AddressMapper(geometry, interleaving, xor_bank_hash=xor_bank_hash)
        id_to_key, key_to_id = {}, {}
        for line in range(3 * mapper.line_capacity):
            row_id = mapper.line_row_id(line)
            key = mapper.row_key(mapper.decode_line(line))
            assert id_to_key.setdefault(row_id, key) == key
            assert key_to_id.setdefault(key, row_id) == row_id
        rows = geometry.channels * geometry.ranks_per_channel * geometry.banks * geometry.chip.rows
        assert len(id_to_key) == rows
        for bad in (mapper.decode_line, mapper.line_row_id):
            with pytest.raises(ValueError):
                bad(-1)

    @given(
        st.integers(min_value=0, max_value=3 * ROW_MAPPER.line_capacity),
        st.integers(min_value=-256, max_value=256),
        st.sampled_from([1, 32, ROW_MAPPER.line_capacity]),
    )
    @settings(max_examples=200)
    def test_line_row_id_matches_row_key_at_full_size(self, line, steps, stride):
        """The same on the paper's geometry, for pairs of lines that
        often share a row: ``steps`` lines, rank-bank-channel lanes
        (32) or whole capacities apart."""
        other = max(0, line + steps * stride)
        for interleaving in Interleaving:
            for xor_bank_hash in (False, True):
                mapper = AddressMapper(
                    SystemGeometry(), interleaving, xor_bank_hash=xor_bank_hash
                )
                same_id = mapper.line_row_id(line) == mapper.line_row_id(other)
                same_key = mapper.row_key(mapper.decode_line(line)) == mapper.row_key(
                    mapper.decode_line(other)
                )
                assert same_id == same_key

    def test_wraps_capacity(self):
        cap = ROW_MAPPER.line_capacity
        assert ROW_MAPPER.decode_line(cap + 5) == ROW_MAPPER.decode_line(5)


class TestDataMapping:
    def test_word_to_mat_group_identity(self):
        # Word i of a cache line lives in MAT group i (Figure 1/6).
        for w in range(8):
            assert word_index_to_mat_group(w) == w

    def test_word_out_of_range(self):
        with pytest.raises(ValueError):
            word_index_to_mat_group(8)

    def test_dirty_words_to_mask(self):
        assert dirty_words_to_mask([0, 1, 7]) == 0b10000011

    def test_mats_activated(self):
        # One mask bit gates a group of two MATs (Section 4.1.2).
        assert mats_activated(0b1) == 2
        assert mats_activated(0xFF) == 16
        assert mats_activated(0b10000001) == 4
