"""Tests for the semi-sorted cuckoo filter (§4.2's referenced optimisation)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.semisort import decode_bucket, encoded_bucket_bits
from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter


def make_filter(**kwargs) -> SemiSortedCuckooFilter:
    defaults = dict(num_buckets=256, fingerprint_bits=12, seed=3)
    defaults.update(kwargs)
    return SemiSortedCuckooFilter(**defaults)


class TestBasics:
    def test_insert_contains(self):
        filter_ = make_filter()
        filter_.insert("movie-42")
        assert "movie-42" in filter_

    def test_fingerprints_never_zero(self):
        filter_ = make_filter()
        for key in range(2000):
            assert filter_.fingerprint_of(key) != 0

    @pytest.mark.parametrize("bits", [8, 16])
    def test_fingerprints_avoid_the_packed_sentinel(self, bits):
        """At dtype widths the all-ones value is the EMPTY sentinel: it
        folds to 1 like 0 does, identically on the scalar and batch paths."""
        filter_ = make_filter(fingerprint_bits=bits)
        keys = list(range(5000))
        fps = filter_.fingerprints_of_many(keys)
        assert fps.tolist() == [filter_.fingerprint_of(key) for key in keys]
        assert fps.min() >= 1 and fps.max() < (1 << bits) - 1

    def test_from_capacity_keeps_four_slot_buckets(self):
        filter_ = SemiSortedCuckooFilter.from_capacity(1000, fingerprint_bits=16, seed=3)
        assert filter_.buckets.bucket_size == 4
        assert filter_.fingerprint_bits == 16
        assert filter_.buckets.num_buckets == 512

    def test_fingerprint_bits_validation(self):
        with pytest.raises(ValueError):
            make_filter(fingerprint_bits=4)

    @given(st.sets(st.integers(), max_size=150))
    @settings(max_examples=30, deadline=None)
    def test_no_false_negatives(self, keys):
        filter_ = make_filter()
        for key in keys:
            filter_.insert(key)
        assert all(key in filter_ for key in keys)

    def test_fpr_reasonable(self):
        filter_ = make_filter(num_buckets=256)
        for key in range(700):
            filter_.insert(key)
        false_positives = sum(1 for key in range(10**6, 10**6 + 5000) if key in filter_)
        assert false_positives / 5000 < 0.02

    def test_delete(self):
        filter_ = make_filter()
        filter_.insert("k")
        assert filter_.delete("k")
        assert "k" not in filter_
        assert not filter_.delete("k")

    def test_load_factor_tracks_inserts(self):
        filter_ = make_filter(num_buckets=64)
        for key in range(100):
            filter_.insert(key)
        assert filter_.load_factor() == pytest.approx(100 / 256)

    def test_reaches_high_load(self):
        filter_ = make_filter(num_buckets=64)
        capacity = 64 * 4
        inserted = 0
        for key in range(capacity):
            if not filter_.insert(key):
                break
            inserted += 1
        assert inserted / capacity > 0.9


class TestCompression:
    def test_size_saves_one_bit_per_entry(self):
        """§4.2: semi-sorting turns f bits/slot into f - 1."""
        semisorted = make_filter(num_buckets=256, fingerprint_bits=12)
        plain = CuckooFilter(256, 4, 12, seed=3)
        assert semisorted.size_in_bits() == plain.size_in_bits() - 256 * 4

    def test_size_counts_the_stash(self):
        """Stashed fingerprints sit outside the coded buckets: f bits each."""
        filter_ = make_filter(num_buckets=2, fingerprint_bits=12, max_kicks=8)
        for key in range(50):
            filter_.insert(key)
        assert filter_.stash
        codes = 2 * encoded_bucket_bits(12)
        assert filter_.size_in_bits() == codes + len(filter_.stash) * 12

    def test_kicks_preserve_membership(self):
        """Re-encoding on every kick must not lose fingerprints."""
        filter_ = make_filter(num_buckets=32, max_kicks=100)
        keys = list(range(100))
        for key in keys:
            filter_.insert(key)
        assert all(key in filter_ for key in keys)

    def test_overflow_stash_preserves_membership(self):
        filter_ = make_filter(num_buckets=2, max_kicks=8)
        keys = list(range(30))
        for key in keys:
            filter_.insert(key)
        assert filter_.failed
        assert all(key in filter_ for key in keys)

    def test_duplicate_fingerprints_in_bucket(self):
        """Sorted codes must cope with repeated fingerprints."""
        filter_ = make_filter(num_buckets=2)
        for _ in range(4):
            filter_.insert("same-key")
        assert filter_.contains("same-key")
        for _ in range(4):
            assert filter_.delete("same-key")
        assert "same-key" not in filter_

    @pytest.mark.parametrize("bits", [5, 8, 12, 16, 20])
    def test_bucket_codes_encode_the_live_slots(self, bits):
        """Each code decodes to its bucket's sorted fingerprints (0 = empty)
        and fits in the codec's bucket width."""
        filter_ = make_filter(num_buckets=32, fingerprint_bits=bits)
        keys = list(range(110))
        filter_.insert_many(keys)
        filter_.delete_many(keys[::4])  # holes: the codes hold live slots only
        codes = filter_.bucket_codes()
        assert len(codes) == 32
        for bucket, code in enumerate(codes):
            live = filter_.buckets.bucket_fps(bucket)
            assert decode_bucket(code, bits) == sorted(live + [0] * (4 - len(live)))
            assert code.bit_length() <= encoded_bucket_bits(bits)
