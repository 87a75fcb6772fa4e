"""Direct unit tests for the UDF appliers and partition splitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigError
from repro.flink.iterators import (
    apply_map,
    apply_reduce,
    fold_by_key,
    is_vectorized,
    vectorized,
)
from repro.flink.partition import Partition, split_evenly
from repro.flink.payload import real_len


class TestAppliers:
    def test_apply_map_list_and_ndarray(self):
        assert apply_map([1, 2], lambda x: x * 2) == [2, 4]
        out = apply_map(np.array([1.0, 2.0]), lambda x: x + 1)
        assert isinstance(out, np.ndarray)
        assert out.tolist() == [2.0, 3.0]

    def test_vectorized_marker(self):
        f = vectorized(lambda arr: arr * 2)
        assert is_vectorized(f)
        assert not is_vectorized(lambda x: x)
        assert np.array_equal(apply_map(np.array([3.0]), f),
                              np.array([6.0]))

    def test_apply_reduce(self):
        assert apply_reduce([1, 2, 3], lambda a, b: a + b) == 6
        assert apply_reduce([7], lambda a, b: a + b) == 7
        assert apply_reduce([], lambda a, b: a + b) is None

    def test_group_elements_preserves_first_seen_order(self):
        # The element keyed fold groups as it goes: keys first-seen,
        # members in row order.
        folded = fold_by_key([("b", 1), ("a", 2), ("b", 3)],
                             lambda kv: kv[0], lambda a, b: a + b[1:])
        assert folded == [("b", 1, 3), ("a", 2)]

    @given(st.lists(st.integers(), max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_reduce_equals_builtin_sum(self, xs):
        expected = sum(xs) if xs else None
        assert apply_reduce(xs, lambda a, b: a + b) == expected


class TestPartition:
    def test_validation(self):
        with pytest.raises(ConfigError):
            Partition(0, [], element_nbytes=-1)
        with pytest.raises(ConfigError):
            Partition(0, [], element_nbytes=8, scale=-0.5)

    def test_nominal_accounting(self):
        part = Partition(0, list(range(10)), element_nbytes=4.0, scale=3.0)
        assert part.real_count == 10
        assert part.nominal_count == 30
        assert part.nominal_nbytes == 120

    def test_derive_keeps_metadata(self):
        part = Partition(2, [1, 2], element_nbytes=8.0, scale=5.0,
                         worker="w1")
        child = part.derive([9, 9, 9])
        assert child.index == 2
        assert child.worker == "w1"
        assert child.scale == 5.0
        assert child.real_count == 3

    def test_real_len_variants(self):
        assert real_len(None) == 0
        assert real_len([1, 2]) == 2
        assert real_len(np.zeros(5)) == 5
        assert real_len(np.array(3.0)) == 1  # 0-d array

    @given(st.integers(min_value=0, max_value=500),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=60, deadline=None)
    def test_split_evenly_property(self, total, n):
        parts = split_evenly(list(range(total)), n, element_nbytes=8.0)
        assert len(parts) == n
        assert sum(p.real_count for p in parts) == total
        sizes = [p.real_count for p in parts]
        assert max(sizes) - min(sizes) <= 1
        merged = [x for p in parts for x in p.elements]
        assert merged == list(range(total))

    def test_split_evenly_ndarray_views(self):
        data = np.arange(100)
        parts = split_evenly(data, 4, element_nbytes=8.0)
        # NumPy splits are views, not copies (HPC guide: avoid copies).
        assert all(p.elements.base is data for p in parts)

    def test_split_invalid_count(self):
        with pytest.raises(ConfigError):
            split_evenly([1], 0, element_nbytes=8.0)
