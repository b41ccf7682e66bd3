"""Tests for what a CCF slot holds, read from its columns.

A vector slot is its row's key fingerprint, attribute fingerprint vector
and matching flag; a converted group's d slots each hold the key's
fingerprint and the group's one sketch row id, whose bits and flag the
slots share.
"""

from repro.ccf.attributes import AttributeSchema
from repro.ccf.chained import ChainedCCF
from repro.ccf.mixed import MixedCCF
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF
from repro.ccf.predicates import Eq

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(bucket_size=6, max_dupes=3, key_bits=12, attr_bits=8, seed=41)


def _copies(ccf, key) -> tuple[list[tuple[int, int]], list[int]]:
    """The ``(bucket, slot)`` and stash positions of ``key``'s copies."""
    fingerprint, home = ccf.fingerprint_of(key), ccf.home_index(key)
    return ccf._fp_entries_in_pair(home, ccf.alt_index(home, fingerprint), fingerprint)


def _converted(key, num_rows: int) -> MixedCCF:
    """A Mixed CCF whose ``key`` holds ``num_rows`` > d rows: a group."""
    ccf = MixedCCF(SCHEMA, 64, PARAMS)
    for i in range(num_rows):
        ccf.insert(key, ("a", i))
    assert ccf.num_conversions == 1
    return ccf


class TestVectorEntry:
    def test_same_row(self):
        """A row is its (fingerprint, attribute vector): the same pair again
        is the same slot; another vector or another fingerprint is not."""
        ccf = PlainCCF(SCHEMA, 64, PARAMS)
        ccf.insert(1, ("red", 7))
        ccf.insert(1, ("red", 7))
        assert ccf.num_entries == 1
        ccf.insert(1, ("red", 8))
        assert ccf.num_entries == 2
        vectors = {ccf.fingerprinter.vector(("red", size)) for size in (7, 8)}
        assert len(vectors) == 2
        assert set(ccf._copy_avecs(*_copies(ccf, 1))) == vectors
        other = next(k for k in range(2, 100) if ccf.fingerprint_of(k) != ccf.fingerprint_of(1))
        ccf.insert(other, ("red", 7))
        assert ccf.num_entries == 3

    def test_matching_default_true(self):
        """A new slot is stored matching; a cleared flag admits nothing."""
        ccf = ChainedCCF(SCHEMA, 64, PARAMS)
        ccf.insert(1, ("red", 7))
        [(bucket, slot)], stashed = _copies(ccf, 1)
        assert not stashed
        assert ccf._flags[bucket, slot]
        predicate = Eq("color", "red")
        assert ccf.query(1, predicate) and ccf.query_many([1], predicate)[0]
        ccf._flags[bucket, slot] = False
        assert not ccf.query(1, predicate) and not ccf.query_many([1], predicate)[0]
        assert ccf.contains_key(1)


class TestConvertedGroup:
    def test_add_vector_components(self):
        """A row absorbed into a group adds its vector's (attribute index,
        fingerprint) items to the group's sketch, and no slot."""
        ccf = _converted(1, PARAMS.max_dupes + 1)
        [row] = set(ccf._copy_rows(*_copies(ccf, 1)))
        count = int(ccf._sketch_rows.counts[row])
        ccf.insert(1, ("b", 12))
        assert ccf.num_absorbed == 1
        assert ccf._copy_rows(*_copies(ccf, 1)) == [row] * PARAMS.max_dupes
        avec = ccf.fingerprinter.vector(("b", 12))
        assert all(ccf._sketch_has(row, item) for item in enumerate(avec))
        assert int(ccf._sketch_rows.counts[row]) == count + len(avec)
        assert ccf.query(1, Eq("color", "b")) and ccf.query(1, Eq("size", 12))

    def test_matching_flag_shared_via_slots(self):
        """The group's one flag marks each of its d slots."""
        ccf = _converted(1, PARAMS.max_dupes + 1)
        slots, stashed = _copies(ccf, 1)
        assert len(slots) + len(stashed) == PARAMS.max_dupes
        [row] = set(ccf._copy_rows(slots, stashed))
        compiled = ccf.compile(Eq("size", 2))

        def admitted() -> list[bool]:
            return [
                ccf._admits(ccf._avecs[bucket, slot], ccf._flags[bucket, slot], row, compiled)
                for bucket, slot in slots
            ]

        assert ccf._sketch_rows.flags[row] and all(admitted())
        ccf._sketch_rows.flags[row] = False
        assert not any(admitted())


class TestGroupSlot:
    def test_fp_delegates_to_group(self):
        """Each group slot holds the key's fingerprint and the group's row
        id, and no attribute vector of its own."""
        key = 0x77
        ccf = _converted(key, PARAMS.max_dupes + 2)
        slots, stashed = _copies(ccf, key)
        fingerprint = ccf.fingerprint_of(key)
        assert all(int(ccf.buckets.fps[bucket, slot]) == fingerprint for bucket, slot in slots)
        rows = ccf._copy_rows(slots, stashed)
        assert len(rows) == PARAMS.max_dupes and len(set(rows)) == 1 and rows[0] >= 0
        fill = tuple(ccf._avec_fill.tolist())
        assert all(avec == fill for avec in ccf._copy_avecs(slots, stashed))
