"""Tests for 64-bit mixers, canonical encoding and hash64."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hashing.mixers import canonical_bytes, derive_seed, hash64, mix64


class TestMix64:
    def test_range(self):
        for x in (0, 1, 2**63, 2**64 - 1):
            assert 0 <= mix64(x) <= 2**64 - 1

    def test_sequential_inputs_decorrelated(self):
        outputs = [mix64(i) for i in range(64)]
        assert len(set(outputs)) == 64
        # High bit should be roughly balanced even for tiny inputs.
        high_bits = sum(value >> 63 for value in outputs)
        assert 16 <= high_bits <= 48

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    @settings(max_examples=100, deadline=None)
    def test_masks_to_64_bits(self, x):
        assert mix64(x) == mix64(x + 2**64)

    def test_injective_on_sample(self):
        sample = list(range(10_000))
        assert len({mix64(x) for x in sample}) == len(sample)


class TestCanonicalBytes:
    def test_type_tags_distinguish_types(self):
        assert canonical_bytes(1) != canonical_bytes("1")
        assert canonical_bytes(1) != canonical_bytes(1.0)
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(b"a") != canonical_bytes("a")
        assert canonical_bytes(None) != canonical_bytes(0)

    def test_none_and_bools(self):
        assert canonical_bytes(None) == b"n"
        assert canonical_bytes(True) != canonical_bytes(False)

    def test_negative_integers(self):
        assert canonical_bytes(-1) != canonical_bytes(1)
        assert canonical_bytes(-1) != canonical_bytes(255)

    def test_large_integers(self):
        big = 2**200 + 17
        assert canonical_bytes(big) != canonical_bytes(big + 1)

    def test_tuple_nesting_unambiguous(self):
        assert canonical_bytes((1, (2, 3))) != canonical_bytes(((1, 2), 3))
        assert canonical_bytes(("ab", "c")) != canonical_bytes(("a", "bc"))

    def test_list_and_tuple_equivalent(self):
        assert canonical_bytes([1, 2]) == canonical_bytes((1, 2))

    def test_unsupported_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes({1: 2})

    @given(st.integers(min_value=-(2**70), max_value=2**70))
    @settings(max_examples=100, deadline=None)
    def test_integer_injectivity(self, x):
        assert canonical_bytes(x) != canonical_bytes(x + 1)

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=60, deadline=None)
    def test_string_injectivity(self, a, b):
        if a != b:
            assert canonical_bytes(a) != canonical_bytes(b)


class TestHash64:
    def test_deterministic(self):
        assert hash64("movie", 3) == hash64("movie", 3)
        assert hash64(42, 3) == hash64(42, 3)

    def test_seed_sensitivity(self):
        assert hash64("movie", 3) != hash64("movie", 4)
        assert hash64(42, 3) != hash64(42, 4)

    def test_bool_not_on_int_fast_path(self):
        # Bools are canonically encoded, not mixed as raw 0/1 integers.
        assert hash64(True, 0) != hash64(1, 0)
        assert hash64(False, 0) != hash64(0, 0)

    def test_int_distribution(self):
        buckets = [0] * 8
        for i in range(4096):
            buckets[hash64(i, 99) % 8] += 1
        expected = 4096 / 8
        for count in buckets:
            assert abs(count - expected) < expected * 0.25

    def test_numpy_scalars_hash_as_python_values(self):
        pairs = [
            (np.int64(-3), -3),
            (np.uint32(7), 7),
            (np.uint64(2**64 - 1), 2**64 - 1),
            (np.bool_(True), True),
            (np.bool_(False), False),
            (np.float32(1.5), 1.5),
            (np.float64(-0.0), -0.0),
            (np.str_("title"), "title"),
        ]
        for value, native in pairs:
            assert hash64(value, 5) == hash64(native, 5), value
        with pytest.raises(TypeError):
            hash64(np.longdouble(1.5), 5)

    def test_mixed_types_no_trivial_collisions(self):
        values = [0, 1, "0", "1", b"0", 0.0, None, (0,), (1,), ("0",)]
        hashes = [hash64(v, 5) for v in values]
        assert len(set(hashes)) == len(values)


class TestDeriveSeed:
    def test_distinct_purposes(self):
        assert derive_seed(7, "a") != derive_seed(7, "b")

    def test_distinct_indexes(self):
        assert derive_seed(7, "a", 0) != derive_seed(7, "a", 1)

    def test_distinct_base_seeds(self):
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_deterministic(self):
        assert derive_seed(7, "a", 2) == derive_seed(7, "a", 2)
