"""Tests for the Mixed CCF with Bloom conversion (§6.1; Algorithm 3)."""

import math

import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import build_ccf
from repro.ccf.mixed import MixedCCF, conversion_num_hashes, conversion_total_bits
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq

from tests.conftest import random_rows

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(bucket_size=6, max_dupes=3, key_bits=12, attr_bits=8, seed=41)


def pair_slots(ccf: MixedCCF, key) -> list[int]:
    """The sketch row ids of ``key``'s copies in its pair: -1 for a vector
    slot, the group's row for a converted group's slot."""
    fingerprint = ccf.fingerprint_of(key)
    home = ccf.home_index(key)
    copies = ccf._fp_entries_in_pair(home, ccf.alt_index(home, fingerprint), fingerprint)
    return ccf._copy_rows(*copies)


class TestConversionTrigger:
    def test_stays_vectors_up_to_d(self):
        ccf = MixedCCF(SCHEMA, 64, PARAMS)
        for i in range(PARAMS.max_dupes):
            ccf.insert(1, ("a", i))
        slots = pair_slots(ccf, 1)
        assert len(slots) == PARAMS.max_dupes
        assert all(row == -1 for row in slots)
        assert ccf.num_conversions == 0

    def test_converts_on_d_plus_one(self):
        ccf = MixedCCF(SCHEMA, 64, PARAMS)
        for i in range(PARAMS.max_dupes + 1):
            ccf.insert(1, ("a", i))
        slots = pair_slots(ccf, 1)
        assert len(slots) == PARAMS.max_dupes  # group occupies exactly d slots
        assert slots[0] >= 0 and slots == [slots[0]] * PARAMS.max_dupes
        assert ccf.num_conversions == 1

    def test_further_duplicates_absorbed_without_new_slots(self):
        ccf = MixedCCF(SCHEMA, 64, PARAMS)
        for i in range(50):
            ccf.insert(1, ("a", i))
        assert ccf.num_conversions == 1
        assert ccf.num_absorbed == 50 - PARAMS.max_dupes - 1
        assert len(pair_slots(ccf, 1)) == PARAMS.max_dupes

    def test_conversion_never_fails(self):
        """§6.1: 'This conversion operation ... can never fail.'"""
        ccf = MixedCCF(SCHEMA, 64, PARAMS)
        assert all(ccf.insert(1, ("a", i)) for i in range(2000))
        assert not ccf.failed


class TestNoFalseNegatives:
    def test_pre_and_post_conversion_rows(self):
        ccf = MixedCCF(SCHEMA, 256, PARAMS)
        rows = [(key, ("c", i)) for key in range(100) for i in range(key % 8 + 1)]
        for key, attrs in rows:
            ccf.insert(key, attrs)
        for key, (c, i) in rows:
            assert ccf.query(key, And([Eq("color", c), Eq("size", i)]))

    def test_random_workload(self):
        rows = random_rows(400, 10, seed=2)
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        for key, (color, size) in rows:
            assert ccf.query(key, And([Eq("color", color), Eq("size", size)]))

    def test_key_only(self):
        rows = random_rows(200, 8, seed=3)
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        assert all(ccf.contains_key(key) for key, _ in rows)


class TestInvariants:
    def test_no_vector_group_mixing(self):
        rows = random_rows(600, 12, seed=4)
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        ccf.check_invariants()

    def test_kicks_relocate_group_slots_safely(self):
        """Fill the table enough to force kicks across converted groups."""
        params = PARAMS.replace(bucket_size=4)
        ccf = MixedCCF(SCHEMA, 32, params)
        rows = [(key, ("c", i)) for key in range(40) for i in range(6)]
        for key, attrs in rows:
            ccf.insert(key, attrs)
        ccf.check_invariants()
        for key, (c, i) in rows:
            assert ccf.query(key, And([Eq("color", c), Eq("size", i)]))

    def test_group_slots_share_one_sketch_and_flag(self):
        """The d slots of a group hold the key's fingerprint and one sketch
        row: its bits hold each folded vector's (attribute index,
        fingerprint) components, and its one flag marks all d slots."""
        ccf = MixedCCF(SCHEMA, 64, PARAMS)
        for i in range(PARAMS.max_dupes + 1):
            ccf.insert(1, ("a", i))
        [group] = set(pair_slots(ccf, 1))
        for i in range(PARAMS.max_dupes + 1):
            avec = ccf.fingerprinter.vector(("a", i))
            assert all(ccf._sketch_has(group, item) for item in enumerate(avec))
        predicate = Eq("size", 2)
        assert ccf.query(1, predicate) and ccf.query_many([1], predicate)[0]
        ccf._sketch_rows.flags[group] = False
        assert not ccf.query(1, predicate) and not ccf.query_many([1], predicate)[0]
        assert not ccf.query(1, Eq("color", "a"))


class TestAlgorithm3Formulas:
    def test_conversion_hashes_formula(self):
        """Eq. (3): numHash = attr_bits * d/(d+1) * ln 2."""
        expected = max(1, round(8 * (3 / 4) * math.log(2)))
        assert conversion_num_hashes(8, 2, 3) == expected

    def test_conversion_hashes_override(self):
        params = PARAMS.replace(conversion_hashes=5)
        ccf = MixedCCF(SCHEMA, 64, params)
        assert ccf._conversion_hashes() == 5

    def test_conversion_bits_formula(self):
        """§6.1: totalBits = d*s - 2(|κ| + ceil(log2 d))."""
        slot_bits = 12 + 2 * 8 + 1  # the Mixed CCF slot layout
        expected = 3 * slot_bits - 2 * (12 + 2)  # ceil(log2 3) = 2
        assert conversion_total_bits(slot_bits, 12, 3) == expected

    def test_conversion_bits_clamped_positive(self):
        assert conversion_total_bits(4, 12, 1) >= 1

    def test_group_bloom_uses_formula_bits(self):
        ccf = MixedCCF(SCHEMA, 64, PARAMS)
        for i in range(PARAMS.max_dupes + 1):
            ccf.insert(1, ("a", i))
        assert pair_slots(ccf, 1)[0] >= 0
        assert ccf._sketch_rows.num_bits == ccf._conversion_bits()
        assert ccf._sketch_hashes == ccf._conversion_hashes()

class TestSizeAdvantages:
    def test_fewer_entries_than_chained_under_skew(self):
        rows = [(key % 20, ("a", i)) for i, key in enumerate(range(600))]
        chained = build_ccf("chained", SCHEMA, rows, PARAMS)
        mixed = build_ccf("mixed", SCHEMA, rows, PARAMS)
        assert mixed.num_entries < chained.num_entries

    def test_slot_bits_includes_flag(self):
        ccf = MixedCCF(SCHEMA, 64, PARAMS)
        assert ccf.slot_bits() == 12 + 2 * 8 + 1

    def test_predicate_filter_extraction(self):
        rows = random_rows(200, 6, seed=5)
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        predicate = Eq("color", "red")
        extracted = ccf.predicate_filter(predicate)
        for key, (color, _size) in rows:
            if color == "red":
                assert extracted.contains(key)
