"""The one overflow stash: a stashed entry is an off-table slot of its own pair.

Every cuckoo structure keeps the entries that exhaust ``max_kicks`` in a
:class:`~repro.cuckoo.stash.Stash` under their pair id, and every probe,
count, dedup, delete and chain walk reads a pair's stashed entries exactly
as its slots.  These tests pin the rule on each structure: a fingerprint
stashed for another pair answers for no key, per-pair copy counts
(Lemma 1) hold with the stash included, and the wire and segment formats
carry each entry's pair.
"""

from __future__ import annotations

import collections
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.mmapio import open_segment, write_segment
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF
from repro.ccf.predicates import Eq
from repro.ccf.serialize import SerializeError, dumps, loads
from repro.ccf.views import MarkedKeyFilter, extract_key_filter
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.cuckoo.stash import Stash
from repro.kernels import set_backend
from repro.store.compaction import merge_levels

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(key_bits=8, attr_bits=5, bucket_size=2, max_dupes=2, max_kicks=20, seed=4)


def _pair(structure, key) -> tuple[int, int, int, int]:
    """``(fingerprint, home, alt, pair id)`` of ``key`` in ``structure``."""
    fp, home = structure.fingerprint_of(key), structure.home_index(key)
    alt = structure.alt_index(home, fp)
    return fp, home, alt, min(home, alt)


def _other_pair(structure, pair: int) -> int:
    return (pair + 1) % structure.buckets.num_buckets or 1


def _stash_row(ccf, fp: int, pair: int, values: tuple) -> int:
    """Stash the row ``values`` as a copy of ``fp`` in ``pair``: in a new
    sketch row for a Bloom CCF (returned), else as its attribute vector."""
    if ccf.kind != "bloom":
        ccf.stash.append(fp, pair, avecs=ccf.fingerprinter.vector(values))
        return -1
    row = ccf._new_sketch()
    ccf._sketch_add(row, enumerate(values))
    ccf.stash.append(fp, pair, avecs=ccf._avec_fill, rows=row)
    return row


class TestStashColumns:
    def test_append_find_pop(self):
        stash = Stash(marks=np.False_)
        stash.append(7, 3, marks=True)
        stash.extend([7, 9, 7], [4, 3, 3], marks=[False, True, False])
        assert len(stash) == 4
        assert stash.find(7, 3, 8) == stash.find(7, 8, 3) == [0, 3]
        assert stash.find(7, 5, 5) == []
        stash.pop(0)
        assert list(stash) == [(7, 4, (False,)), (9, 3, (True,)), (7, 3, (False,))]
        twin = Stash(marks=np.False_)
        twin.extend([7, 9, 7], [4, 3, 3], marks=[False, True, False])
        assert stash == twin and stash != Stash()
        assert Stash().find(7, 3, 3) == []

    def test_companion_columns_are_typed_and_filled(self):
        """An entry stashed without a companion value takes the column's
        fill; a column the stash does not have is refused."""
        stash = Stash(avecs=np.full(2, 255, dtype=np.uint8), rows=np.int64(-1))
        stash.extend([5, 6], [1, 2], avecs=[(1, 2), (3, 4)])
        stash.append(7, 3, rows=9)
        assert stash.avecs.dtype == np.uint8
        assert stash.avecs.tolist() == [[1, 2], [3, 4], [255, 255]]
        assert stash.rows.tolist() == [-1, -1, 9]
        with pytest.raises(TypeError, match="no column"):
            stash.append(8, 3, marks=True)
        assert len(stash) == 3

    @settings(max_examples=60, deadline=None)
    @given(
        entries=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
        probes=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
    )
    def test_match_is_find_per_probe(self, entries, probes):
        stash = Stash()
        stash.extend([fp for fp, _ in entries], [pair for _, pair in entries])
        fps = np.array([fp for fp, _ in probes], dtype=np.int64)
        pairs = np.array([pair for _, pair in probes], dtype=np.int64)
        rows, at = stash.match(fps, pairs, pairs + 1)
        got = collections.defaultdict(list)
        for row, position in zip(rows.tolist(), at.tolist()):
            got[row].append(position)
        for row, (fp, pair) in enumerate(probes):
            assert got.get(row, []) == stash.find(fp, pair, pair + 1)


class TestAnotherPairsFingerprintDoesNotAnswer:
    """A fingerprint stashed for another pair answers for no key; stashed
    for the key's own pair, it answers like one more slot."""

    KEY = 12345

    def test_cuckoo_contains(self):
        cuckoo = CuckooFilter(16, 2, 8, seed=1)
        fp, _home, _alt, pair = _pair(cuckoo, self.KEY)
        cuckoo.stash.append(fp, _other_pair(cuckoo, pair))
        assert not cuckoo.contains(self.KEY)
        assert not cuckoo.contains_many([self.KEY]).any()
        assert not cuckoo.delete(self.KEY)
        cuckoo.stash.append(fp, pair)
        assert cuckoo.contains(self.KEY)
        assert cuckoo.contains_many([self.KEY]).all()
        assert cuckoo.delete(self.KEY)
        assert cuckoo.stash.find(fp, pair, pair) == []
        assert len(cuckoo.stash) == 1

    def test_multiset_count(self):
        multiset = MultisetCuckooFilter(16, 2, 8, seed=1)
        multiset.insert(self.KEY)
        fp, _home, _alt, pair = _pair(multiset, self.KEY)
        multiset.stash.extend([fp, fp], [_other_pair(multiset, pair), pair])
        assert multiset.count(self.KEY) == 2
        assert multiset.count_many([self.KEY]).tolist() == [2]

    @pytest.mark.parametrize("kind", ["plain", "chained", "bloom", "mixed"])
    def test_ccf_query(self, kind):
        ccf = make_ccf(kind, SCHEMA, 16, PARAMS)
        fp, _home, _alt, pair = _pair(ccf, self.KEY)
        _stash_row(ccf, fp, _other_pair(ccf, pair), ("red", 3))
        red = Eq("color", "red")
        for predicate in (None, red):
            assert not ccf.query(self.KEY, predicate)
            assert not ccf.query_many([self.KEY], predicate).any()
        _stash_row(ccf, fp, pair, ("red", 3))
        for predicate in (None, red):
            assert ccf.query(self.KEY, predicate)
            assert ccf.query_many([self.KEY], predicate).all()
        assert not ccf.query(self.KEY, Eq("color", "blue"))

    @pytest.mark.parametrize("kind", ["bloom", "mixed"])
    def test_extracted_key_filter(self, kind):
        ccf = make_ccf(kind, SCHEMA, 16, PARAMS)
        fp, _home, _alt, pair = _pair(ccf, self.KEY)
        _stash_row(ccf, fp, _other_pair(ccf, pair), ("red", 3))
        view = extract_key_filter(ccf, Eq("color", "red"))
        assert len(view.stash) == 1
        assert not view.contains(self.KEY)
        _stash_row(ccf, fp, pair, ("red", 3))
        view = extract_key_filter(ccf, Eq("color", "red"))
        assert view.contains(self.KEY) and view.contains_many([self.KEY]).all()

    def test_marked_view(self):
        ccf = make_ccf("chained", SCHEMA, 16, PARAMS)
        fp, _home, _alt, pair = _pair(ccf, self.KEY)
        _stash_row(ccf, fp, _other_pair(ccf, pair), ("red", 3))
        view = MarkedKeyFilter.from_ccf(ccf, Eq("color", "red"))
        assert not view.contains(self.KEY)
        assert not view.contains_many([self.KEY]).any()
        _stash_row(ccf, fp, pair, ("red", 3))
        view = MarkedKeyFilter.from_ccf(ccf, Eq("color", "red"))
        assert view.contains(self.KEY) and view.contains_many([self.KEY]).all()
        assert view.num_matching() == 2


class TestPairRulePolicies:
    def test_chained_walk_counts_stashed_copies_toward_d(self):
        """A first pair at d copies only with its stashed one still sends
        the walk on to the second pair, where the row lives."""
        ccf = make_ccf("chained", SCHEMA, 64, PARAMS)
        key = 77
        fp, home, alt, pair = _pair(ccf, key)
        ccf._place_in_pair(home, alt, fp, ccf.fingerprinter.vector(("blue", 1)))
        _stash_row(ccf, fp, pair, ("blue", 2))
        slots, stashed = ccf._fp_entries_in_pair(home, alt, fp)
        assert len(slots) + len(stashed) == PARAMS.max_dupes
        assert ccf.insert(key, ("red", 5))  # walks past the d-full first pair
        assert ccf.chain_length(key) == 2
        red = Eq("color", "red")
        assert ccf.query(key, red) and ccf.query_many([key], red).all()
        view = ccf.predicate_filter(red)
        assert view.contains(key) and view.contains_many([key]).all()

    def test_bloom_merges_into_its_own_pairs_stashed_entry_only(self):
        ccf = make_ccf("bloom", SCHEMA, 16, PARAMS)
        key = 5
        fp, _home, _alt, pair = _pair(ccf, key)
        row = _stash_row(ccf, fp, _other_pair(ccf, pair), ("red", 1))
        ccf.insert(key, ("green", 2))
        assert ccf.num_entries == 1  # a fresh entry, not a merge elsewhere
        assert not ccf._sketch_has(row, (0, "green"))
        ccf.stash.pop(0)
        ccf.stash.append(fp, pair, avecs=ccf._avec_fill, rows=row)
        ccf = loads(dumps(ccf))
        ccf.insert(key, ("blue", 3))  # the pair's entries absorb it
        assert ccf.num_entries == 1

    def test_mixed_conversion_takes_a_stashed_copy_into_the_group(self):
        ccf = make_ccf("mixed", SCHEMA, 64, PARAMS)
        key = 9
        fp, home, alt, pair = _pair(ccf, key)
        ccf.insert(key, ("red", 1))
        _stash_row(ccf, fp, pair, ("green", 2))
        assert ccf.insert(key, ("blue", 3))  # d = 2 copies: converts
        assert ccf.num_conversions == 1
        [group] = ccf.stash.rows.tolist()  # the stashed copy is a group slot
        assert group >= 0 and group in ccf._payload_rows
        for color, size in (("red", 1), ("green", 2), ("blue", 3)):
            predicate = Eq("size", size)
            assert ccf.query(key, predicate) and ccf.query_many([key], predicate).all()
        ccf.check_invariants()
        assert loads(dumps(ccf)).query(key, Eq("size", 2))

    def test_plain_saturated_pair_stashes_without_kicking(self):
        """Lemma 1 fast-fail: a pair whose every slot holds the row's
        fingerprint stashes the row at once."""
        ccf = PlainCCF(SCHEMA, 64, PARAMS)
        key = 31
        fp, _home, _alt, pair = _pair(ccf, key)
        sizes = iter(range(32))
        while ccf.num_entries < 2 * PARAMS.bucket_size:
            ccf.insert(key, ("red", next(sizes)))
        kicks = ccf.num_kicks
        assert not ccf.insert(key, ("blue", 99))
        assert ccf.num_kicks == kicks
        assert [(f, p) for f, p, _entry in ccf.stash] == [(fp, pair)]
        assert ccf.query(key, Eq("color", "blue"))
        assert ccf.delete(key, ("blue", 99)) and not ccf.stash


@pytest.mark.parametrize("backend", [None, "python"], ids=["active", "python"])
def test_wave_kick_stashes_each_item_under_its_own_pair(backend):
    """Lemma 1 with the stash included: after an overloaded batch build the
    (fingerprint, pair) multiset of slots and stash equals the keys', on
    the active backend (``REPRO_KERNEL_BACKEND``) and the sequential one."""
    set_backend(backend)
    try:
        cuckoo = CuckooFilter(16, 2, 8, max_kicks=20, seed=2)
        keys = np.arange(60, dtype=np.int64)
        results = cuckoo.insert_many(keys)
    finally:
        set_backend(None)
    assert len(cuckoo.stash) == np.count_nonzero(~results) > 0
    want = collections.Counter(_pair(cuckoo, int(key))[::3] for key in keys)
    have = collections.Counter((fp, pair) for fp, pair, _none in cuckoo.stash)
    for bucket, _slot, fp, _payload in cuckoo.buckets.iter_entries():
        have[fp, cuckoo.geometry.pair_id(bucket, fp)] += 1
    assert have == want
    assert cuckoo.contains_many(keys).all()


class TestFormatsCarryPairs:
    def test_marked_view_round_trips_its_stash(self):
        ccf = make_ccf("chained", SCHEMA, 4, PARAMS.replace(max_kicks=5))
        for key in range(60):
            ccf.insert(key, ("red" if key % 2 else "blue", key % 7))
        assert ccf.stash
        view = ccf.predicate_filter(Eq("color", "red"))
        restored = loads(dumps(view))
        assert restored.stash == view.stash
        probes = list(range(200))
        assert restored.contains_many(probes).tolist() == view.contains_many(probes).tolist()

    def test_merged_level_restores_stashed_rows_where_pairs_have_room(self):
        level = PlainCCF(SCHEMA, 16, PARAMS)
        keys = np.arange(60, dtype=np.int64)
        columns = [np.array(["red"] * 60, dtype=object), keys % 5]
        level.insert_many(keys, columns)
        assert level.stash
        merged = merge_levels(SCHEMA, PARAMS, [level], target_load=0.5)
        assert len(merged.stash) < len(level.stash)
        assert merged.query_many(keys).all()
        for key, size in zip(keys.tolist(), columns[1].tolist()):
            assert merged.query(key, Eq("size", size))

    def test_segment_v1_is_refused_by_name(self, tmp_path):
        path = write_segment(PlainCCF(SCHEMA, 16, PARAMS), tmp_path / "level.seg")
        with open(path, "r+b") as f:
            f.seek(4)
            f.write(struct.pack("<I", 1))
        with pytest.raises(SerializeError, match="version 1.*no bucket pair"):
            open_segment(path)
