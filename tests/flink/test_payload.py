"""``repro.flink.payload``: one length, one concat, one lift — equal to each
helper they replaced on every input that helper's call site can hand it.

The retired helpers live on in ``tests/flink/retired.py`` as the oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.gdst import _kernel_operand
from repro.flink.payload import (concat, cut, is_block, real_len, rows_like,
                                 sort_rows, take, to_block, to_rows)
from repro.flink.shuffle import Exchange
from tests.flink import retired
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


class TestLength:
    @given(payload=st.one_of(st.none(), row_lists, pairs.map(tuple), zero_d,
                             ranks.flatmap(blocks)))
    @settings(max_examples=60, deadline=None)
    def test_equals_all_three_retired_lengths(self, payload):
        assert real_len(payload) == retired.partition_real_len(payload)
        assert real_len(payload) == retired.gstream_result_len(payload)
        assert (not real_len(payload)) == retired.iterators_is_empty(payload)

    @given(result=scalars)
    def test_a_scalar_kernel_result_is_one_row(self, result):
        assert real_len(result) == retired.gstream_result_len(result) == 1


class TestConcat:
    @given(data=st.data(), rank=ranks)
    @settings(max_examples=80, deadline=None)
    def test_equals_plan_concat_on_parsed_hdfs_blocks(self, data, rank):
        # A parser hands back a row list, a tuple of rows or a block per
        # HDFS block — e.g. [] for an empty partition written beside blocks.
        parts = data.draw(st.lists(
            st.one_of(row_lists, pairs.map(tuple), blocks(rank)), max_size=5))
        assert same(concat(parts), retired.plan_concat(parts))

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
        results = dict(enumerate(parts))
        assert same(concat([results[i] for i in sorted(results)]),
                    retired.gstream_assemble(results))

    @given(data=st.data(), rank=ranks)
    @settings(max_examples=80, deadline=None)
    def test_zero_copy_merge_equals_columnar_concat(self, data, rank):
        # What a zero-copy exchange merges: blocks, and the empty row
        # lists of producers that emitted nothing.
        parts = data.draw(st.lists(st.one_of(blocks(rank), st.just([])),
                                   max_size=5))
        assert same(Exchange._merge(parts, True),
                    retired.columnar_concat(parts))

    @given(data=st.data(), rank=ranks)
    @settings(max_examples=80, deadline=None)
    def test_per_row_merge_equals_the_inline_extend_loop(self, data, rank):
        parts = data.draw(st.lists(st.one_of(row_lists, blocks(rank)),
                                   max_size=5))
        assert same(Exchange._merge(parts, False), retired.row_merge(parts))

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
        block = to_block(rows)
        assert same(block, retired.as_block(rows))
        assert same(block, retired.gdst_as_array(rows))
        assert same(_kernel_operand(rows), retired.gdst_as_array(rows))
        if not is_block(rows):
            assert same(block, retired.rows_to_columnar(rows))

    @pytest.mark.parametrize("rows", [[(1, 2.0), (3,)], [(1, None)],
                                      [{"a": 1}]])
    def test_rows_that_do_not_stack(self, rows):
        with pytest.raises(TypeError, match="NumPy block"):
            to_block(rows)
        with pytest.raises(TypeError):
            retired.as_block(rows)
        # A GPU join keeps such operands the rows they were.
        assert _kernel_operand(rows) is rows

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

    @given(rows=pairs, rank=st.sampled_from([2, "struct"]),
           keyed=st.booleans(), reverse=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_sort_rows_is_sorted_whatever_the_format(self, rows, rank, keyed,
                                                     reverse):
        key_fn = (lambda row: int(row[0]) % 3) if keyed else None
        expected = sorted(rows, key=key_fn, reverse=reverse)
        assert sort_rows(rows, key_fn, reverse) == expected
        block = make_payload("2d" if rank == 2 else "struct", rows)
        out = sort_rows(block, key_fn, reverse)
        assert out.dtype == block.dtype
        assert [tuple(map(float, r)) for r in out] == [
            tuple(map(float, r)) for r in expected]
