"""Tests for the multiset cuckoo filter baseline (§4.3)."""

import pytest

from repro.cuckoo.multiset import MultisetCuckooFilter


def make_filter(**kwargs) -> MultisetCuckooFilter:
    defaults = dict(num_buckets=256, bucket_size=4, fingerprint_bits=12, seed=2)
    defaults.update(kwargs)
    return MultisetCuckooFilter(**defaults)


class TestDuplicates:
    def test_each_insert_adds_a_copy(self):
        multiset = make_filter()
        for _ in range(5):
            assert multiset.insert("key")
        assert multiset.count("key") == 5

    def test_count_zero_for_absent(self):
        multiset = make_filter()
        assert multiset.count("never") == 0
        assert "never" not in multiset

    def test_delete_removes_one_copy(self):
        multiset = make_filter()
        for _ in range(3):
            multiset.insert("key")
        assert multiset.delete("key")
        assert multiset.count("key") == 2

    def test_delete_absent_returns_false(self):
        multiset = make_filter()
        assert not multiset.delete("never")

    def test_pair_capacity_caps_duplicates(self):
        """§4.3: at most 2b copies fit; the (2b+1)-th insertion fails."""
        bucket_size = 4
        multiset = make_filter(bucket_size=bucket_size, max_kicks=50)
        key = "hot-key"
        successes = 0
        for _ in range(2 * bucket_size + 4):
            if multiset.insert(key):
                successes += 1
            else:
                break
        assert successes == 2 * bucket_size
        assert multiset.failed

    def test_failure_preserves_membership(self):
        multiset = make_filter(num_buckets=2, bucket_size=2, max_kicks=8)
        keys = [f"k{i}" for i in range(40)]
        for key in keys:
            multiset.insert(key)
        assert multiset.failed
        assert all(key in multiset for key in keys)

    def test_load_factor_at_failure_below_one_with_duplicates(self):
        """Duplicate-heavy input fails well before the table is full."""
        multiset = make_filter(num_buckets=64, bucket_size=4, max_kicks=100)
        key_index = 0
        while not multiset.failed:
            for _ in range(12):  # 12 duplicates > 2b = 8
                if not multiset.insert(("key", key_index)):
                    break
            key_index += 1
            if key_index > 10_000:  # safety net
                break
        assert multiset.failed
        assert multiset.load_factor() < 0.9


class TestBasics:
    def test_no_false_negatives_mixed_duplicates(self):
        multiset = make_filter(num_buckets=512)
        rows = [(key, copy) for key in range(300) for copy in range(key % 3 + 1)]
        for key, _copy in rows:
            multiset.insert(key)
        assert all(key in multiset for key, _ in rows)

    def test_len_counts_insertions(self):
        multiset = make_filter()
        for _ in range(4):
            multiset.insert("a")
        assert len(multiset) == 4

    def test_size_in_bits(self):
        multiset = make_filter(num_buckets=256, bucket_size=4, fingerprint_bits=10)
        assert multiset.size_in_bits() == 256 * 4 * 10

    def test_count_includes_stash(self):
        multiset = make_filter(bucket_size=2, num_buckets=256, max_kicks=10)
        key = "dup"
        for _ in range(6):  # 2b = 4 fit; extras stash or fail
            multiset.insert(key)
        assert multiset.count(key) >= 4

    def test_size_counts_the_stash(self):
        multiset = make_filter(bucket_size=2, num_buckets=256, max_kicks=10)
        for _ in range(6):  # 2b = 4 copies fit in the pair; 2 stash
            multiset.insert("dup")
        assert len(multiset.stash) == 2
        assert multiset.size_in_bits() == (256 * 2 + 2) * 12


class TestConstruction:
    @pytest.mark.parametrize("bits", [0, 63, 64])
    def test_fingerprint_bits_validated_at_construction(self, bits):
        """Out-of-range widths fail at construction, before any insert: a
        64-bit fingerprint overflows the int64 matrix mid-insert (after
        ``num_items`` is bumped), and 0 bits give every key fingerprint 0."""
        with pytest.raises(ValueError, match=r"fingerprint_bits must be in \[1, 62\]"):
            make_filter(fingerprint_bits=bits, packed=False)

    @pytest.mark.parametrize("bits", [1, 62])
    def test_boundary_widths_accepted(self, bits):
        multiset = make_filter(fingerprint_bits=bits, packed=False)
        assert multiset.insert("key")
        assert multiset.count("key") >= 1
        assert len(multiset) == multiset.buckets.filled == 1
