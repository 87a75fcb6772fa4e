"""``repro.flink.payload``: one length, one concat, one lift — held to what
each means on every input a call site can hand it: a payload's length is
its number of rows, a concatenation holds every part's rows in order (a
block only when every part is one), a lift is the rows stacked.  (Test names
that mention the retired helpers are kept from when those were the oracle.)
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.flink.payload import (concat, cut, is_block, real_len, rows_like,
                                 take, to_block, to_rows)
from repro.flink.shuffle import Exchange
from tests.flink.conftest import make_payload
from tests.flink.test_exchange_differential import fingerprint

# -- payloads ----------------------------------------------------------------

ints = st.integers(-9, 9)
pairs = st.lists(st.tuples(ints, ints.map(float)), max_size=6)
row_lists = st.one_of(st.lists(ints, max_size=6), pairs)
scalars = st.one_of(ints, ints.map(float), ints.map(np.float64))
zero_d = ints.map(lambda i: np.array(float(i)))


def blocks(rank):
    """Blocks that concatenate with each other, empty ones included."""
    if rank == 1:
        return st.lists(ints.map(float), max_size=6).map(np.array)
    return pairs.map(lambda rows: make_payload(
        "2d" if rank == 2 else "struct", rows))


ranks = st.sampled_from([1, 2, "struct"])


def same(a, b):
    return type(a) is type(b) and fingerprint(a) == fingerprint(b)


def rows_of(payload):
    """The rows a payload holds: none for ``None``, one for a scalar or a
    0-d array."""
    if payload is None:
        return []
    if isinstance(payload, np.ndarray) and payload.ndim == 0:
        return [payload[()]]
    return list(payload) if hasattr(payload, "__len__") else [payload]


def assert_concatenates(merged, parts):
    """``merged`` holds every part's rows in order — a block exactly when
    every part is a NumPy array; a part that is a bare scalar (``None``
    included) is one row."""
    if parts and all(isinstance(p, np.ndarray) for p in parts):
        assert is_block(merged)
    else:
        assert type(merged) is list
    assert fingerprint(rows_of(merged)) == fingerprint(
        [row for part in parts
         for row in ([None] if part is None else rows_of(part))])


class TestLength:
    @given(payload=st.one_of(st.none(), row_lists, pairs.map(tuple), zero_d,
                             ranks.flatmap(blocks)))
    @settings(max_examples=60, deadline=None)
    def test_equals_all_three_retired_lengths(self, payload):
        assert real_len(payload) == len(rows_of(payload))

    @given(result=scalars)
    def test_a_scalar_kernel_result_is_one_row(self, result):
        assert real_len(result) == 1


class TestConcat:
    @given(data=st.data(), rank=ranks)
    @settings(max_examples=80, deadline=None)
    def test_equals_plan_concat_on_parsed_hdfs_blocks(self, data, rank):
        # A parser hands back a row list, a tuple of rows or a block per
        # HDFS block — e.g. [] for an empty partition written beside blocks.
        parts = data.draw(st.lists(
            st.one_of(row_lists, pairs.map(tuple), blocks(rank)), max_size=5))
        assert_concatenates(concat(parts), parts)

    @given(data=st.data(), rank=ranks)
    @settings(max_examples=80, deadline=None)
    def test_equals_gstream_assemble_on_kernel_results(self, data, rank):
        # A kernel's "out" per block: a block (0-d for a lone partial), a
        # row list or tuple, a bare scalar, or nothing.  (The retired
        # helper could not iterate a 0-d array met beside non-arrays.)
        rank1 = st.one_of(blocks(1), zero_d) if rank == 1 else blocks(rank)
        parts = data.draw(st.one_of(
            st.lists(rank1, max_size=5),
            st.lists(st.one_of(blocks(rank), row_lists, pairs.map(tuple),
                               scalars, st.none()), max_size=5)))
        assert_concatenates(concat(parts), parts)

    @given(data=st.data(), rank=ranks)
    @settings(max_examples=80, deadline=None)
    def test_zero_copy_merge_equals_columnar_concat(self, data, rank):
        # What a zero-copy exchange merges: blocks, and the empty row
        # lists of producers that emitted nothing.
        parts = data.draw(st.lists(st.one_of(blocks(rank), st.just([])),
                                   max_size=5))
        # An empty input slot is no part of the block; nothing is [].
        chunks = [p for p in parts if len(p)]
        merged = Exchange._merge(parts, True)
        if chunks:
            assert_concatenates(merged, chunks)
        else:
            assert merged == []

    @given(data=st.data(), rank=ranks)
    @settings(max_examples=80, deadline=None)
    def test_per_row_merge_equals_the_inline_extend_loop(self, data, rank):
        parts = data.draw(st.lists(st.one_of(row_lists, blocks(rank)),
                                   max_size=5))
        merged = Exchange._merge(parts, False)
        assert type(merged) is list
        assert fingerprint(merged) == fingerprint(
            [row for part in parts for row in part])

    def test_all_empty(self):
        assert concat([]) == []
        assert concat([[], []]) == []
        empty = np.empty((0, 2))
        assert concat([empty]) is empty  # a block keeps its dtype and shape
        assert Exchange._merge([empty, []], True) == []  # an empty input slot
        assert Exchange._merge([empty, []], False) == []


stackable = st.one_of(
    st.lists(ints.map(float), min_size=1, max_size=6),
    st.lists(st.tuples(ints, ints.map(float)), min_size=1, max_size=6))


class TestLiftAndLower:
    @given(rows=st.one_of(stackable, ranks.flatmap(blocks)))
    @settings(max_examples=60, deadline=None)
    def test_to_block_equals_the_three_retired_lifts(self, rows):
        """A block is itself; rows are stacked (``np.asarray``)."""
        block = to_block(rows)
        assert same(block, rows if is_block(rows) else np.asarray(rows))

    @pytest.mark.parametrize("rows", [[(1, 2.0), (3,)], [(1, None)],
                                      [{"a": 1}]])
    def test_rows_that_do_not_stack(self, rows):
        with pytest.raises(TypeError, match="NumPy block"):
            to_block(rows)

    @given(data=st.data(), rank=ranks)
    @settings(max_examples=40, deadline=None)
    def test_to_rows_and_rows_like_round_trip(self, data, rank):
        block = data.draw(blocks(rank).filter(len))
        rows = to_rows(block)
        assert isinstance(rows, list) and len(rows) == len(block)
        assert to_rows(rows) is rows
        assert same(rows_like(block, rows), block)
        assert rows_like(rows, rows) is rows


class TestTakeAndSort:
    @given(data=st.data(), rank=ranks)
    @settings(max_examples=60, deadline=None)
    def test_take_picks_the_same_rows_from_either_format(self, data, rank):
        block = data.draw(blocks(rank))
        index = np.array(data.draw(st.lists(
            st.integers(0, max(len(block) - 1, 0)),
            max_size=8 if len(block) else 0)), dtype=np.intp)
        assert same(take(block, index), block[index])
        assert fingerprint(take(to_rows(block), index)) == fingerprint(
            to_rows(block[index]))

    @given(data=st.data(), rank=ranks, q=st.integers(1, 7))
    @settings(max_examples=60, deadline=None)
    def test_cut_deals_rows_out_in_order_from_either_format(self, data, rank,
                                                            q):
        block = data.draw(blocks(rank))
        ids = data.draw(st.lists(st.integers(0, q - 1), min_size=len(block),
                                 max_size=len(block)))
        expected = [[row for b, row in zip(ids, to_rows(block)) if b == j]
                    for j in range(q)]
        for bucket_ids in (ids, np.array(ids, dtype=np.int64)):
            from_rows = cut(to_rows(block), bucket_ids, q)
            from_block = cut(block, bucket_ids, q)
            assert [fingerprint(b) for b in from_rows] == [
                fingerprint(b) for b in expected]
            assert all(is_block(b) and b.dtype == block.dtype
                       for b in from_block)
            assert [fingerprint(to_rows(b)) for b in from_block] == [
                fingerprint(b) for b in expected]
