"""Tests for the plain (no chaining) CCF baseline (§4.3)."""

import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import build_ccf
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF
from repro.ccf.predicates import And, Eq

from tests.conftest import random_rows

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(bucket_size=4, max_dupes=3, key_bits=12, attr_bits=8, seed=23)


class TestBasics:
    def test_no_false_negatives_low_duplication(self):
        rows = random_rows(300, 2, seed=1)
        ccf = build_ccf("plain", SCHEMA, rows, PARAMS)
        for key, (color, size) in rows:
            assert ccf.query(key, And([Eq("color", color), Eq("size", size)]))

    def test_key_only(self):
        rows = [(key, ("a", key)) for key in range(200)]
        ccf = build_ccf("plain", SCHEMA, rows, PARAMS)
        assert all(ccf.contains_key(key) for key in range(200))

    def test_duplicate_row_deduplicated(self):
        ccf = PlainCCF(SCHEMA, 64, PARAMS)
        for _ in range(5):
            ccf.insert(1, ("red", 2))
        assert ccf.num_entries == 1
        # A row is its (fingerprint, vector): another vector is another
        # entry, and a new entry is stored matching.
        ccf.insert(1, ("red", 3))
        assert ccf.num_entries == 2
        assert ccf._flags[ccf.buckets.occupied_mask()].all()

    def test_slot_bits_no_flag(self):
        ccf = PlainCCF(SCHEMA, 64, PARAMS)
        assert ccf.slot_bits() == 12 + 2 * 8


class TestPairExhaustion:
    def test_fails_beyond_pair_capacity(self):
        """§4.3: a key's pair holds at most 2b entries; more duplicates fail."""
        ccf = PlainCCF(SCHEMA, 256, PARAMS.replace(max_kicks=64))
        key = 77
        results = [ccf.insert(key, ("x", i)) for i in range(2 * 4 + 4)]
        assert results[: 2 * 4] == [True] * 8
        assert not all(results)
        assert ccf.failed

    def test_no_cap_invariant_violation(self):
        """Plain filters have no d-cap; up to 2b copies per pair is legal."""
        ccf = PlainCCF(SCHEMA, 256, PARAMS.replace(max_kicks=64))
        for i in range(8):
            ccf.insert(77, ("x", i))
        ccf.check_invariants()  # cap is 2b, not d

    def test_fails_earlier_than_chained_under_skew(self):
        rows = [(key % 20, ("a", i)) for i, key in enumerate(range(400))]
        plain = PlainCCF(SCHEMA, 64, PARAMS.replace(max_kicks=64))
        plain_inserted = 0
        for key, attrs in rows:
            if not plain.insert(key, attrs):
                break
            plain_inserted += 1
        chained = build_ccf("chained", SCHEMA, rows, PARAMS.replace(bucket_size=6))
        assert not chained.failed
        assert plain_inserted < len(rows)

    def test_membership_superset_after_failure(self):
        ccf = PlainCCF(SCHEMA, 8, PARAMS.replace(max_kicks=8))
        rows = [(key, ("c", key)) for key in range(200)]
        for key, attrs in rows:
            ccf.insert(key, attrs)
        assert ccf.failed
        for key, (c, size) in rows:
            assert ccf.query(key, And([Eq("color", c), Eq("size", size)]))


class TestBuildHelper:
    def test_build_raises_on_heavy_duplicates(self):
        rows = [(1, ("a", i)) for i in range(50)]
        with pytest.raises(RuntimeError):
            build_ccf("plain", SCHEMA, rows, PARAMS)
