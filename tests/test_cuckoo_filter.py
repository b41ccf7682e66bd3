"""Tests for the standard cuckoo filter (§4.2)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuckoo.filter import CuckooFilter


def make_filter(**kwargs) -> CuckooFilter:
    defaults = dict(num_buckets=1024, bucket_size=4, fingerprint_bits=12, seed=1)
    defaults.update(kwargs)
    return CuckooFilter(**defaults)


class TestBasics:
    def test_insert_then_contains(self):
        cuckoo = make_filter()
        assert cuckoo.insert("movie-1")
        assert "movie-1" in cuckoo

    def test_absent_key_mostly_absent(self):
        cuckoo = make_filter()
        for i in range(100):
            cuckoo.insert(i)
        false_positives = sum(1 for i in range(10_000, 11_000) if i in cuckoo)
        assert false_positives <= 10  # 12-bit fingerprints: FPR ~ 0.2%

    def test_fingerprint_bits_validation(self):
        with pytest.raises(ValueError):
            make_filter(fingerprint_bits=0)
        with pytest.raises(ValueError):
            make_filter(fingerprint_bits=63)

    def test_len_counts_items(self):
        cuckoo = make_filter()
        for i in range(10):
            cuckoo.insert(i)
        assert len(cuckoo) == 10

    @given(st.sets(st.integers(), max_size=200))
    @settings(max_examples=40, deadline=None)
    def test_no_false_negatives(self, keys):
        cuckoo = make_filter()
        for key in keys:
            cuckoo.insert(key)
        assert all(key in cuckoo for key in keys)


class TestGeometry:
    def test_alt_index_is_involution(self):
        cuckoo = make_filter()
        for key in range(200):
            fp = cuckoo.fingerprint_of(key)
            home = cuckoo.home_index(key)
            alt = cuckoo.alt_index(home, fp)
            assert cuckoo.alt_index(alt, fp) == home

    def test_indices_in_range(self):
        cuckoo = make_filter(num_buckets=64)
        for key in range(500):
            assert 0 <= cuckoo.home_index(key) < 64
            fp = cuckoo.fingerprint_of(key)
            assert 0 <= fp < (1 << 12)

    def test_from_capacity_sizes_power_of_two(self):
        cuckoo = CuckooFilter.from_capacity(10_000, bucket_size=4)
        num_buckets = cuckoo.buckets.num_buckets
        assert num_buckets & (num_buckets - 1) == 0
        assert num_buckets * 4 >= 10_000

    def test_from_capacity_validation(self):
        with pytest.raises(ValueError):
            CuckooFilter.from_capacity(0)
        with pytest.raises(ValueError):
            CuckooFilter.from_capacity(10, target_load=1.5)


class TestLoadAndFailure:
    def test_reaches_high_load_factor(self):
        """§4.2: b=4 with distinct keys loads to ~95%."""
        cuckoo = make_filter(num_buckets=256, bucket_size=4)
        capacity = 256 * 4
        inserted = 0
        for key in range(capacity):
            if not cuckoo.insert(key):
                break
            inserted += 1
        assert inserted / capacity > 0.9

    def test_failure_sets_flag_and_stashes(self):
        cuckoo = make_filter(num_buckets=2, bucket_size=2, max_kicks=8)
        keys = list(range(50))
        for key in keys:
            cuckoo.insert(key)
        assert cuckoo.failed
        assert cuckoo.stash
        # Stash preserves no-false-negatives even past overload.
        assert all(key in cuckoo for key in keys)

    def test_size_counts_the_stash(self):
        """Like every CCF, the filter's size counts its stashed fingerprints,
        which `dumps` ships beside the slots."""
        cuckoo = make_filter(num_buckets=2, bucket_size=2, max_kicks=8)
        cuckoo.insert_many(range(50))
        assert cuckoo.stash
        assert cuckoo.size_in_bits() == (cuckoo.buckets.capacity + len(cuckoo.stash)) * 12

    def test_expected_fpr_close_to_observed(self):
        cuckoo = make_filter(num_buckets=256, bucket_size=4, fingerprint_bits=8)
        for key in range(800):
            cuckoo.insert(key)
        predicted = cuckoo.expected_fpr()
        trials = 20_000
        observed = sum(1 for i in range(10**6, 10**6 + trials) if i in cuckoo) / trials
        assert observed <= predicted * 1.5 + 0.005
        assert observed >= predicted * 0.3

    def test_fpr_bound_formula(self):
        cuckoo = make_filter(bucket_size=4, fingerprint_bits=12)
        assert cuckoo.fpr_bound() == pytest.approx(8 / 4096)


class TestDelete:
    def test_delete_inserted_key(self):
        cuckoo = make_filter()
        cuckoo.insert("key")
        assert cuckoo.delete("key")
        assert len(cuckoo) == 0

    def test_delete_absent_key_returns_false(self):
        cuckoo = make_filter()
        cuckoo.insert("other")
        assert not cuckoo.delete("missing-key-123")

    def test_delete_one_copy_of_duplicate(self):
        cuckoo = make_filter()
        cuckoo.insert("dup")
        cuckoo.insert("dup")
        assert cuckoo.delete("dup")
        assert "dup" in cuckoo  # one copy remains
        assert cuckoo.delete("dup")

    def test_delete_from_stash(self):
        cuckoo = make_filter(num_buckets=2, bucket_size=2, max_kicks=4)
        for key in range(40):
            cuckoo.insert(key)
        assert cuckoo.stash
        stashed_fp, stashed_pair, _item = next(iter(cuckoo.stash))
        # Find a key of the stashed entry's fingerprint and pair and delete
        # it until the stash drains.
        before = len(cuckoo.stash)
        for key in range(40):
            fp, home = cuckoo.fingerprint_of(key), cuckoo.home_index(key)
            if (fp, min(home, cuckoo.alt_index(home, fp))) == (stashed_fp, stashed_pair):
                while cuckoo.delete(key):
                    pass
                break
        assert len(cuckoo.stash) < before

    @given(st.sets(st.integers(), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_delete_then_reinsert_property(self, keys):
        cuckoo = make_filter()
        for key in keys:
            cuckoo.insert(key)
        victim = next(iter(keys))
        assert cuckoo.delete(victim)
        cuckoo.insert(victim)
        assert all(key in cuckoo for key in keys)
