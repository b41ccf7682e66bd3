"""Tests for the standard Bloom filter."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sketches.bloom import BatchProbe, BloomFilter


class TestBasics:
    def test_membership_after_insert(self):
        bloom = BloomFilter(256, 3, seed=1)
        bloom.add("hello")
        assert "hello" in bloom
        assert bloom.contains("hello")

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(256, 3, seed=1)
        assert "hello" not in bloom
        assert bloom.fill_ratio() == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 2)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)

    def test_num_inserted_counter(self):
        bloom = BloomFilter(64, 2)
        for i in range(5):
            bloom.add(i)
        assert bloom.num_inserted == 5

    def test_size_in_bits(self):
        assert BloomFilter(128, 2).size_in_bits() == 128

    @given(st.lists(st.integers(), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_no_false_negatives(self, values):
        bloom = BloomFilter(512, 3, seed=7)
        for value in values:
            bloom.add(value)
        assert all(value in bloom for value in values)

    def test_mixed_value_types(self):
        bloom = BloomFilter(256, 2, seed=3)
        values = [1, "one", (1, "one"), b"one", 1.5, None]
        for value in values:
            bloom.add(value)
        assert all(value in bloom for value in values)


class TestFalsePositiveRate:
    def test_fpr_close_to_prediction(self):
        num_items, num_bits, num_hashes = 400, 4096, 4
        bloom = BloomFilter(num_bits, num_hashes, seed=5)
        for i in range(num_items):
            bloom.add(("member", i))
        predicted = bloom.expected_fpr()
        trials = 20_000
        false_positives = sum(
            1 for i in range(trials) if ("absent", i) in bloom
        )
        observed = false_positives / trials
        assert observed <= predicted * 2 + 0.01
        assert observed >= predicted / 4 - 0.01

    def test_expected_fpr_monotone_in_items(self):
        bloom = BloomFilter(128, 2)
        assert bloom.expected_fpr(10) < bloom.expected_fpr(100)

    def test_empirical_fpr_tracks_fill(self):
        bloom = BloomFilter(64, 2, seed=0)
        assert bloom.empirical_fpr() == 0.0
        for i in range(30):
            bloom.add(i)
        assert bloom.empirical_fpr() == pytest.approx(bloom.fill_ratio() ** 2)

    def test_saturated_filter_matches_everything(self):
        bloom = BloomFilter(8, 2, seed=0)
        for i in range(200):
            bloom.add(i)
        assert bloom.fill_ratio() == 1.0
        assert all(("absent", i) in bloom for i in range(20))


class TestOptimalParams:
    def test_textbook_sizing(self):
        num_bits, num_hashes = BloomFilter.optimal_params(1000, 0.01)
        # ~9.585 bits/item and ~6.6 hashes for 1% FPR.
        assert 9000 <= num_bits <= 10200
        assert num_hashes in (6, 7)

    def test_optimal_num_hashes(self):
        assert BloomFilter.optimal_num_hashes(1000, 100) == 7  # 10 ln2 ≈ 6.93

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BloomFilter.optimal_params(0, 0.01)
        with pytest.raises(ValueError):
            BloomFilter.optimal_params(10, 1.5)
        with pytest.raises(ValueError):
            BloomFilter.optimal_num_hashes(10, 0)

    def test_achieves_target_fpr(self):
        num_bits, num_hashes = BloomFilter.optimal_params(500, 0.02)
        bloom = BloomFilter(num_bits, num_hashes, seed=2)
        for i in range(500):
            bloom.add(i)
        trials = 10_000
        observed = sum(1 for i in range(10**6, 10**6 + trials) if i in bloom) / trials
        assert observed < 0.05


class TestUnionAndCopy:
    def test_union_is_superset(self):
        a = BloomFilter(256, 3, seed=9)
        b = BloomFilter(256, 3, seed=9)
        a.add("left")
        b.add("right")
        a.union_update(b)
        assert "left" in a and "right" in a
        assert a.num_inserted == 2

    def test_union_parameter_mismatch(self):
        with pytest.raises(ValueError):
            BloomFilter(256, 3, seed=9).union_update(BloomFilter(256, 3, seed=8))
        with pytest.raises(ValueError):
            BloomFilter(256, 3, seed=9).union_update(BloomFilter(128, 3, seed=9))

    def test_copy_independent(self):
        bloom = BloomFilter(128, 2, seed=4)
        bloom.add("x")
        clone = bloom.copy()
        clone.add("y")
        assert "y" in clone and "y" not in bloom
        assert "x" in clone


class TestBatchProbe:
    @settings(max_examples=40, deadline=None)
    @given(
        num_bits=st.sampled_from([1, 7, 8, 24, 64, 65, 100]),
        num_hashes=st.integers(min_value=1, max_value=4),
        stored=st.lists(st.lists(st.integers(min_value=0, max_value=30), max_size=6), max_size=8),
        alternatives=st.lists(
            st.lists(st.integers(min_value=0, max_value=30), max_size=4), max_size=3
        ),
    )
    def test_matches_scalar_membership(self, num_bits, num_hashes, stored, alternatives):
        """Live bits against precomputed masks, over one- and two-word
        filters: equal to testing each value with ``in``."""
        filters = []
        for values in stored:
            bloom = BloomFilter(num_bits, num_hashes, seed=5)
            for value in values:
                bloom.add(value)
            filters.append(bloom)
        probe = BatchProbe(num_bits, num_hashes, 5, alternatives)
        want = [all(any(v in f for v in values) for values in alternatives) for f in filters]
        assert probe.matches(filters).tolist() == want

    def test_sees_inserts_after_construction(self):
        bloom = BloomFilter(40, 3, seed=2)
        probe = BatchProbe(40, 3, 2, [["late"]])
        assert not probe.matches([bloom])[0]
        bloom.add("late")
        assert probe.matches([bloom])[0]
