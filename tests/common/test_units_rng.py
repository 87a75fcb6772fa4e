"""Tests for the unit constants and deterministic RNG derivation."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common import units
from repro.common.rng import derive_seed, generator


class TestUnits:
    def test_size_constants(self):
        assert units.KiB == 1024
        assert units.MiB == 1024 ** 2
        assert units.GiB == 1024 ** 3
        assert units.GB == 10 ** 9


class TestRng:
    def test_same_path_same_seed(self):
        assert derive_seed(1, "a", "b") == derive_seed(1, "a", "b")

    def test_different_path_different_seed(self):
        assert derive_seed(1, "a") != derive_seed(1, "b")

    def test_different_root_different_seed(self):
        assert derive_seed(1, "a") != derive_seed(2, "a")

    def test_generator_streams_reproducible(self):
        g1 = generator(7, "worker", "0")
        g2 = generator(7, "worker", "0")
        assert np.array_equal(g1.random(16), g2.random(16))

    def test_generator_streams_independent(self):
        g1 = generator(7, "worker", "0")
        g2 = generator(7, "worker", "1")
        assert not np.array_equal(g1.random(16), g2.random(16))

    @given(st.integers(min_value=0, max_value=2**31),
           st.text(min_size=0, max_size=20))
    def test_seed_in_numpy_range(self, root, name):
        seed = derive_seed(root, name)
        assert 0 <= seed < 2 ** 63
        np.random.default_rng(seed)  # must not raise
