"""Tests for the chained CCF (§6.2; Algorithms 4/5; Lemmas 1-2; Theorem 3)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf.chained import ChainedCCF
from repro.ccf.factory import build_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq, In

from tests.conftest import random_rows

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(bucket_size=6, max_dupes=3, key_bits=12, attr_bits=8, seed=17)


def build(rows, params=PARAMS):
    return build_ccf("chained", SCHEMA, rows, params)


class TestNoFalseNegatives:
    def test_exact_row_queries(self):
        rows = random_rows(500, 8, seed=1)
        ccf = build(rows)
        for key, (color, size) in rows:
            assert ccf.query(key, And([Eq("color", color), Eq("size", size)]))

    def test_single_attribute_queries(self):
        rows = random_rows(300, 6, seed=2)
        ccf = build(rows)
        for key, (color, _size) in rows:
            assert ccf.query(key, Eq("color", color))

    def test_key_only_queries(self):
        rows = random_rows(300, 6, seed=3)
        ccf = build(rows)
        for key, _attrs in rows:
            assert ccf.contains_key(key)

    def test_in_list_queries(self):
        rows = random_rows(200, 5, seed=4)
        ccf = build(rows)
        for key, (color, _size) in rows:
            assert ccf.query(key, In("color", [color, "not-a-color"]))

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=25, deadline=None)
    def test_no_false_negatives_property(self, num_keys, seed):
        rows = random_rows(num_keys, 10, seed=seed)
        ccf = build(rows)
        for key, (color, size) in rows:
            assert ccf.query(key, And([Eq("color", color), Eq("size", size)]))

    def test_heavy_duplication_single_key(self):
        """One key with hundreds of distinct attribute rows must chain."""
        rows = [(7, ("x", i)) for i in range(300)]
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        for _key, (x, i) in rows:
            assert ccf.query(7, And([Eq("color", x), Eq("size", i)]))
        assert ccf.chain_length(7) > 1


class TestLemma1Invariant:
    def test_pair_cap_after_random_workload(self):
        rows = random_rows(1000, 12, seed=5)
        ccf = build(rows)
        ccf.check_invariants()

    def test_pair_cap_under_extreme_skew(self):
        rows = [(1, ("a", i)) for i in range(500)] + random_rows(200, 3, seed=6)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        ccf.check_invariants()

    @given(st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_pair_cap_property(self, seed):
        rng = random.Random(seed)
        rows = [
            (rng.randrange(30), (rng.choice("abc"), rng.randrange(50)))
            for _ in range(400)
        ]
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        ccf.check_invariants()


class TestChaining:
    def test_chain_length_one_without_duplicates(self):
        rows = [(key, ("a", key)) for key in range(200)]
        ccf = build(rows)
        lengths = [ccf.chain_length(key) for key in range(200)]
        assert max(lengths) == 1

    def test_chain_grows_with_duplicates(self):
        rows = [(5, ("a", i)) for i in range(30)]
        # Generous headroom: a tiny table has too few distinct pairs for a
        # 10-pair chain, so give the walk room to spread.
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS, headroom=10.0)
        # 30 distinct vectors at d=3 per pair needs >= 10 pairs.
        assert ccf.chain_length(5) >= 10

    def test_key_only_query_probes_first_pair_only(self):
        """§7.1: the chain is irrelevant for key-only queries."""
        rows = [(5, ("a", i)) for i in range(50)]
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        fingerprint = ccf.fingerprint_of(5)
        home = ccf.home_index(5)
        right = ccf.alt_index(home, fingerprint)
        # The first pair holds d copies, so a single-pair probe suffices.
        slots, stashed = ccf._fp_entries_in_pair(home, right, fingerprint)
        assert len(slots) + len(stashed) == PARAMS.max_dupes
        assert ccf.contains_key(5)

    def test_discarded_rows_still_answer_true(self):
        """Theorem 3: rows past Lmax are discarded but never false-negative."""
        params = PARAMS.replace(max_chain=2)
        rows = [(9, ("a", i)) for i in range(40)]
        ccf = build_ccf("chained", SCHEMA, rows, params)
        assert ccf.num_rows_discarded > 0
        for _key, (a, i) in rows:
            assert ccf.query(9, And([Eq("color", a), Eq("size", i)]))

    def test_lmax_one_degenerates_to_plain_with_fallback(self):
        params = PARAMS.replace(max_chain=1)
        rows = [(9, ("a", i)) for i in range(10)]
        ccf = build_ccf("chained", SCHEMA, rows, params)
        assert ccf.num_rows_discarded == 10 - params.max_dupes
        assert ccf.query(9, Eq("size", 123456))  # d-full first pair -> True

    def test_duplicate_row_deduplicated(self):
        ccf = ChainedCCF(SCHEMA, 64, PARAMS)
        for _ in range(10):
            ccf.insert(1, ("red", 3))
        assert ccf.num_entries == 1


class TestFalsePositiveBehaviour:
    def test_absent_keys_rarely_match(self):
        rows = random_rows(400, 4, seed=7)
        ccf = build(rows)
        false_positives = sum(
            1 for key in range(10_000, 12_000) if ccf.contains_key(key)
        )
        assert false_positives < 2000 * 0.02

    def test_wrong_attribute_rarely_matches(self):
        rows = [(key, ("red", key % 40)) for key in range(400)]
        ccf = build(rows)
        false_positives = sum(
            1 for key in range(400) if ccf.query(key, Eq("size", 1000 + key))
        )
        # 8-bit attribute fingerprints: ~0.4% per entry.
        assert false_positives < 400 * 0.05

    def test_contradictory_predicate_never_matches_present_key(self):
        rows = [(key, ("red", 1)) for key in range(100)]
        ccf = build(rows)
        contradiction = And([Eq("color", "red"), Eq("color", "blue")])
        matches = sum(1 for key in range(100) if ccf.query(key, contradiction))
        assert matches == 0


class TestOverloadBehaviour:
    def test_failure_flag_and_stash_on_overload(self):
        params = PARAMS.replace(bucket_size=2, max_dupes=2, max_kicks=16)
        ccf = ChainedCCF(SCHEMA, 4, params)
        rows = [(key, ("c", key)) for key in range(200)]
        results = [ccf.insert(key, attrs) for key, attrs in rows]
        assert not all(results)  # a 4x2 table cannot hold 200 rows
        assert ccf.failed and ccf.stash
        # Regardless of failures, membership stays superset-correct.
        for key, (c, size) in rows:
            assert ccf.query(key, And([Eq("color", c), Eq("size", size)]))

    def test_load_factor_reaches_paper_range(self):
        """Figure 4: b=6, d=3 sustains ~85%+ load on duplicate-free keys."""
        params = PARAMS.replace(bucket_size=6)
        ccf = ChainedCCF(SCHEMA, 64, params)
        capacity = 64 * 6
        inserted = 0
        for key in range(capacity):
            if not ccf.insert(key, ("a", key % 50)):
                break
            inserted += 1
        assert inserted / capacity > 0.8


class TestSizing:
    def test_slot_bits(self):
        ccf = ChainedCCF(SCHEMA, 64, PARAMS)
        assert ccf.slot_bits() == 12 + 2 * 8 + 1

    def test_size_in_bits_scales_with_buckets(self):
        small = ChainedCCF(SCHEMA, 64, PARAMS)
        large = ChainedCCF(SCHEMA, 128, PARAMS)
        assert large.size_in_bits() == 2 * small.size_in_bits()
