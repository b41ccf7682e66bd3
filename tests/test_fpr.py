"""Tests for the §7 FPR estimators."""

import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import build_ccf
from repro.ccf.fpr import (
    bloom_attr_fpr,
    bloom_textbook_fpr,
    chained_attr_fpr_bound,
    estimate_query_fpr,
    key_only_fpr_bound,
    vector_attr_fpr,
)
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq

from tests.conftest import random_rows

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(bucket_size=6, max_dupes=3, key_bits=12, attr_bits=8, seed=61)


class TestFormulas:
    def test_key_only_bound(self):
        """Eq. (4): E[D] 2^-|κ|."""
        assert key_only_fpr_bound(8.0, 12) == pytest.approx(8 / 4096)
        assert key_only_fpr_bound(10_000, 2) == 1.0  # clamped

    def test_vector_attr_fpr(self):
        assert vector_attr_fpr(8, 0) == 1.0
        assert vector_attr_fpr(8, 1) == pytest.approx(2**-8)
        assert vector_attr_fpr(4, 2) == pytest.approx(2**-8)

    def test_chained_bound_caps_entries(self):
        """Eq. (7): at most d*Lmax entries contribute."""
        mismatches = [1] * 100
        capped = chained_attr_fpr_bound(8, mismatches, max_dupes=3, max_chain=2)
        assert capped == pytest.approx(6 * 2**-8)
        uncapped = chained_attr_fpr_bound(8, mismatches, max_dupes=3, max_chain=None)
        assert uncapped == pytest.approx(100 * 2**-8)

    def test_bloom_attr_fpr(self):
        """Eq. (6): ρ^v with ρ = fill^h."""
        assert bloom_attr_fpr(0.5, 2, 1) == pytest.approx(0.25)
        assert bloom_attr_fpr(0.5, 2, 2) == pytest.approx(0.0625)
        assert bloom_attr_fpr(0.5, 2, 0) == 1.0

    def test_bloom_textbook_fpr(self):
        value = bloom_textbook_fpr(100, 2, 20)
        assert 0.0 < value < 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            key_only_fpr_bound(-1, 8)
        with pytest.raises(ValueError):
            vector_attr_fpr(8, -1)
        with pytest.raises(ValueError):
            bloom_attr_fpr(1.5, 2, 1)
        with pytest.raises(ValueError):
            bloom_textbook_fpr(0, 2, 1)


class TestEstimatorAgainstReality:
    """Figure 2: the bounds are good predictors of the actual FPR."""

    def test_key_absent_estimate_bounds_reality(self):
        rows = random_rows(800, 3, seed=1)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        predicate = Eq("color", "red")
        # Average the per-query estimates and compare to the observed rate.
        trials = list(range(50_000, 54_000))
        estimates = [
            estimate_query_fpr(ccf, key, predicate, key_in_data=False).overall
            for key in trials[:200]
        ]
        mean_estimate = sum(estimates) / len(estimates)
        observed = sum(1 for key in trials if ccf.query(key, predicate)) / len(trials)
        assert observed <= mean_estimate * 2.0 + 0.01

    def test_key_present_attr_mismatch_estimate(self):
        rows = [(key, ("red", key % 30)) for key in range(500)]
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        # Query for sizes that never occur: FP only via attribute collision.
        queries = [(key, And([Eq("size", 500 + key)])) for key in range(500)]
        estimates = [
            estimate_query_fpr(ccf, key, predicate, key_in_data=True).overall
            for key, predicate in queries[:100]
        ]
        mean_estimate = sum(estimates) / len(estimates)
        observed = sum(1 for key, predicate in queries if ccf.query(key, predicate)) / len(
            queries
        )
        assert observed <= mean_estimate * 3.0 + 0.02
        # The estimate is itself in a sane range for 8-bit fingerprints.
        assert 0.0 < mean_estimate < 0.1

    def test_decomposition_attributes_cause(self):
        rows = [(key, ("red", 1)) for key in range(200)]
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        absent = estimate_query_fpr(ccf, 99_999, Eq("color", "blue"), key_in_data=False)
        assert absent.attr_part == 0.0
        assert absent.key_part > 0.0
        present = estimate_query_fpr(ccf, 7, Eq("color", "blue"), key_in_data=True)
        assert present.key_part == 0.0
        assert present.overall <= 1.0

    def test_key_part_counts_the_pairs_stashed_entries(self):
        """Eq. (4)'s ``D`` is every entry a query probes in the key's pair:
        its occupied slots and the pair's stashed entries (DESIGN.md §1)."""
        from repro.ccf.factory import make_ccf

        params = CCFParams(bucket_size=2, key_bits=8, attr_bits=8, seed=3)
        ccf = make_ccf("plain", SCHEMA, 4, params)
        for key in range(40):
            ccf.insert(key, ("red", key))
        assert len(ccf.stash) > 20
        checked = 0
        for key in range(10_000, 10_050):
            fp, home = ccf.fingerprint_of(key), ccf.home_index(key)
            alt = ccf.alt_index(home, fp)
            slots = ccf.buckets.count(home) + (ccf.buckets.count(alt) if alt != home else 0)
            stashed = int((ccf.stash.pairs == min(home, alt)).sum())
            estimate = estimate_query_fpr(ccf, key, Eq("color", "red"), key_in_data=False)
            assert estimate.key_part == pytest.approx(min(1.0, (slots + stashed) * 2.0**-8))
            checked += stashed > 0
        assert checked

    def test_overall_is_union_bound(self):
        rows = random_rows(100, 2, seed=2)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        estimate = estimate_query_fpr(ccf, 12345, Eq("color", "red"), key_in_data=False)
        assert estimate.overall == pytest.approx(
            min(1.0, estimate.key_part + estimate.attr_part)
        )

    def test_larger_attr_bits_lower_attr_fpr(self):
        rows = [(key, ("red", key % 10)) for key in range(300)]
        small = build_ccf("chained", SCHEMA, rows, PARAMS.replace(attr_bits=4))
        large = build_ccf("chained", SCHEMA, rows, PARAMS.replace(attr_bits=8))
        queries = range(300)
        small_fp = sum(1 for k in queries if small.query(k, Eq("size", 77 + k)))
        large_fp = sum(1 for k in queries if large.query(k, Eq("size", 77 + k)))
        assert large_fp <= small_fp


class TestEstimatorOtherVariants:
    def test_bloom_ccf_estimates_bounded(self):
        rows = [(key, ("red", key % 30)) for key in range(400)]
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS.replace(bloom_bits=24))
        present = estimate_query_fpr(ccf, 7, Eq("size", 999), key_in_data=True)
        assert 0.0 <= present.overall <= 1.0
        absent = estimate_query_fpr(ccf, 99_999, Eq("size", 999), key_in_data=False)
        assert 0.0 <= absent.overall <= 1.0
        assert absent.attr_part == 0.0

    def test_mixed_ccf_estimates_bounded_after_conversion(self):
        rows = [(7, ("red", value)) for value in range(40)]
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        estimate = estimate_query_fpr(ccf, 7, Eq("size", 999), key_in_data=True)
        assert 0.0 < estimate.overall <= 1.0

    def test_bloom_estimate_tracks_observed(self):
        rows = [(key, ("red", key % 20)) for key in range(500)]
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS.replace(bloom_bits=24))
        queries = [(key, Eq("size", 700 + key)) for key in range(500)]
        estimates = [
            estimate_query_fpr(ccf, key, predicate, key_in_data=True).overall
            for key, predicate in queries[:120]
        ]
        mean_estimate = sum(estimates) / len(estimates)
        observed = sum(
            1 for key, predicate in queries if ccf.query(key, predicate)
        ) / len(queries)
        assert observed <= mean_estimate * 3.0 + 0.05
