"""Tests for the Bloom-attribute CCF (§5.2; Algorithms 1-2)."""

import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.bloom_ccf import BloomCCF
from repro.ccf.factory import build_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq

from tests.conftest import random_rows

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(
    bucket_size=4, max_dupes=3, key_bits=12, attr_bits=8, bloom_bits=24, bloom_hashes=2, seed=31
)


def build(rows, params=PARAMS):
    return build_ccf("bloom", SCHEMA, rows, params)


def _sketch_row(ccf: BloomCCF, key) -> int:
    """The sketch row id of ``key``'s one entry."""
    fingerprint, home = ccf.fingerprint_of(key), ccf.home_index(key)
    copies = ccf._fp_entries_in_pair(home, ccf.alt_index(home, fingerprint), fingerprint)
    [row] = ccf._copy_rows(*copies)
    return row


def _sketch_fill(ccf: BloomCCF, key) -> float:
    """The fraction of bits set in ``key``'s entry's sketch."""
    sketch = ccf._sketch_rows.row_bytes(_sketch_row(ccf, key))
    return int.from_bytes(sketch, "little").bit_count() / ccf._sketch_rows.num_bits


class TestNoFalseNegatives:
    def test_exact_row_queries(self):
        rows = random_rows(400, 6, seed=1)
        ccf = build(rows)
        for key, (color, size) in rows:
            assert ccf.query(key, And([Eq("color", color), Eq("size", size)]))

    def test_unlimited_duplicates_absorbed(self):
        """Rows merge into one entry per key: duplicates can never fail."""
        rows = [(3, ("x", i)) for i in range(1000)]
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS)
        assert not ccf.failed
        for _key, (x, i) in rows:
            assert ccf.query(3, And([Eq("color", x), Eq("size", i)]))

    def test_key_only(self):
        rows = random_rows(300, 3, seed=2)
        ccf = build(rows)
        assert all(ccf.contains_key(key) for key, _ in rows)


class TestEntrySharing:
    def test_one_entry_per_distinct_key(self):
        """§5.2: occupied entries equal those of a plain cuckoo filter."""
        rows = [(key, ("a", copy)) for key in range(500) for copy in range(4)]
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS)
        # Fingerprint collisions within a pair can merge two keys, so <=.
        assert ccf.num_entries <= 500
        assert ccf.num_entries >= 490

    def test_invariant_single_entry_per_pair_fingerprint(self):
        rows = random_rows(500, 5, seed=3)
        ccf = build(rows)
        ccf.check_invariants()

    def test_slot_bits(self):
        ccf = BloomCCF(SCHEMA, 64, PARAMS)
        assert ccf.slot_bits() == 12 + 24


class TestCoOccurrenceWeakness:
    def test_guaranteed_false_positive_on_mixed_attributes(self):
        """§5.2: rows (a1,a2) and (a1',a2') make A1=a1 AND A2=a2' a certain
        false positive — the Bloom sketch loses co-occurrence."""
        ccf = BloomCCF(SCHEMA, 64, PARAMS)
        ccf.insert(1, ("red", 10))
        ccf.insert(1, ("blue", 20))
        assert ccf.query(1, And([Eq("color", "red"), Eq("size", 20)]))
        assert ccf.query(1, And([Eq("color", "blue"), Eq("size", 10)]))

    def test_chained_ccf_does_not_share_this_weakness(self):
        """Vector entries preserve co-occurrence: the cross-pairing that is a
        guaranteed Bloom false positive almost never matches a chained CCF
        (only through 2^-|α| fingerprint collisions)."""
        from repro.ccf.chained import ChainedCCF

        cross = And([Eq("color", "red"), Eq("size", 20)])
        cross_matches = 0
        for seed in range(40):
            chained = ChainedCCF(SCHEMA, 64, PARAMS.with_seed(seed))
            chained.insert(1, ("red", 10))
            chained.insert(1, ("blue", 20))
            cross_matches += chained.query(1, cross)
        assert cross_matches <= 4  # ~2^-8 collision odds per seed

    def test_sketched_value_carries_its_attribute_index(self):
        """An entry's sketch holds (attribute index, raw value) pairs: the
        same value under another attribute is another item."""
        ccf = BloomCCF(SCHEMA, 64, PARAMS.replace(bloom_bits=256, bloom_hashes=3))
        ccf.insert(1, ("red", 7))
        row = _sketch_row(ccf, 1)
        assert ccf._sketch_has(row, (0, "red")) and ccf._sketch_has(row, (1, 7))
        assert int(ccf._sketch_rows.counts[row]) == 2
        assert not ccf._sketch_has(row, (1, "red"))
        assert ccf.query(1, Eq("color", "red")) and not ccf.query(1, Eq("size", "red"))
        assert ccf.query_many([1], Eq("size", "red")).tolist() == [False]

    def test_fpr_grows_with_entry_fill(self):
        sparse = BloomCCF(SCHEMA, 1024, PARAMS)
        sparse.insert(1, ("red", 10))
        dense = BloomCCF(SCHEMA, 1024, PARAMS)
        for i in range(200):
            dense.insert(1, ("color-%d" % i, i))
        assert _sketch_fill(dense, 1) > _sketch_fill(sparse, 1)


class TestPredicateFilterExtraction:
    def test_extracted_filter_equals_direct_queries(self):
        """Algorithm 2: the extracted key filter answers exactly like
        query(key, P) — same pair, same matching rule."""
        rows = random_rows(300, 4, seed=4)
        ccf = build(rows)
        predicate = Eq("color", "red")
        extracted = ccf.predicate_filter(predicate)
        for key in list(range(300)) + list(range(5000, 5200)):
            assert extracted.contains(key) == ccf.query(key, predicate)

    def test_extracted_filter_no_false_negatives(self):
        rows = random_rows(300, 4, seed=5)
        ccf = build(rows)
        predicate = Eq("color", "blue")
        extracted = ccf.predicate_filter(predicate)
        for key, (color, _size) in rows:
            if color == "blue":
                assert extracted.contains(key)

    def test_extracted_filter_smaller_payload(self):
        rows = random_rows(300, 4, seed=6)
        ccf = build(rows)
        extracted = ccf.predicate_filter(Eq("color", "red"))
        assert extracted.size_in_bits() < ccf.size_in_bits()
        assert len(extracted) <= ccf.num_entries
