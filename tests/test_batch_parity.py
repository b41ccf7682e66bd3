"""Batch/scalar equivalence: the batch layer's contracts (DESIGN.md §5).

For every structure with batch APIs, driving one instance through the scalar
loop and a twin through `insert_many`/`query_many`/`delete_many` must produce
identical membership answers, identical table and stash contents, and
identical statistics counters.  The one exception is fingerprint-filter
insertion: there a batch may place differently from a per-key loop, and only
the answers must agree, stashed copies included.  Tables are deliberately
undersized in some cases so the stash/failure paths are exercised too.
"""

import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf import base as ccf_base
from repro.ccf.base import compile_predicate, first_copies
from repro.ccf.factory import CCF_KINDS, make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq, In
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.ccf.serialize import dumps
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.hashtable import CuckooHashTable
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter

from tests.conftest import TINY_PREDICATES, ccf_state, tiny_chained_ccfs
from tests.test_bloom import fresh_bits

SCHEMA = AttributeSchema(["color", "size"])
COLORS = ("red", "green", "blue")

ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),  # key
        st.sampled_from(COLORS),
        st.integers(min_value=0, max_value=30),  # size
    ),
    max_size=120,
)
PREDICATES = (
    None,
    Eq("color", "red"),
    Eq("color", "missing"),
    In("size", (1, 3, 5)),
)


def _params(num_buckets_seed: int, max_chain=None) -> CCFParams:
    return CCFParams(
        bucket_size=4,
        max_dupes=2,
        key_bits=8,
        attr_bits=5,
        seed=num_buckets_seed,
        max_chain=max_chain,
    )


def _assert_ccf_twins_equal(scalar, batch):
    assert ccf_state(scalar) == ccf_state(batch)
    assert scalar.num_entries == batch.num_entries
    # The wire bytes must agree too.
    assert dumps(scalar) == dumps(batch)


@pytest.mark.parametrize("kind", sorted(CCF_KINDS))
@settings(max_examples=25, deadline=None)
@given(
    rows=ROWS,
    seed=st.integers(min_value=0, max_value=5),
    # 20-bit attribute fingerprints are past the lookup-table width.
    attr_bits=st.sampled_from((5, 20)),
)
def test_ccf_insert_and_query_parity(kind, rows, seed, attr_bits):
    # 32 buckets x 4 slots for up to 120 rows: overload (stash, failure,
    # chain-discard) paths are reachable and must also match.
    params = _params(seed, max_chain=4 if kind == "chained" else None).replace(
        attr_bits=attr_bits
    )
    scalar = make_ccf(kind, SCHEMA, 32, params)
    batch = make_ccf(kind, SCHEMA, 32, params)

    scalar_results = [scalar.insert(key, (color, size)) for key, color, size in rows]
    keys = np.array([key for key, _c, _s in rows], dtype=np.int64)
    colors = [color for _k, color, _s in rows]
    sizes = np.array([size for _k, _c, size in rows], dtype=np.int64)
    batch_results = batch.insert_many(keys, [colors, sizes])

    assert batch_results.tolist() == scalar_results
    _assert_ccf_twins_equal(scalar, batch)

    probes = np.arange(150, dtype=np.int64)
    for predicate in PREDICATES:
        compiled = scalar.compile(predicate) if predicate is not None else None
        want = [scalar.query(int(key), compiled) for key in probes.tolist()]
        assert batch.query_many(probes, predicate).tolist() == want
    assert batch.contains_key_many(probes).tolist() == [
        scalar.contains_key(int(key)) for key in probes.tolist()
    ]


#: Values Python's ``==`` merges in part but a Bloom sketch hashes apart.
REPEAT_VALUES = (1, True, 1.0, "1", "a", "a\0", 0.0, -0.0)

REPEATED_ROW = st.tuples(
    st.integers(min_value=0, max_value=5),  # key
    st.integers(min_value=0, max_value=3),  # index into the first column's domain
    st.integers(min_value=0, max_value=1),  # second attribute
)


@pytest.mark.parametrize("kind", sorted(CCF_KINDS))
@settings(max_examples=100, deadline=None)
@given(
    pre_rows=st.lists(REPEATED_ROW, max_size=12),
    rows=st.lists(REPEATED_ROW, min_size=20, max_size=120),
    domain=st.sampled_from((REPEAT_VALUES[:2], REPEAT_VALUES[:4], REPEAT_VALUES[2:6], (3, 5))),
    num_buckets=st.sampled_from((4, 8, 16, 32)),
    max_dupes=st.sampled_from((1, 2)),
    # 60-bit fingerprints do not pack with the home and values into an int64.
    key_bits=st.sampled_from((6, 60)),
    seed=st.integers(min_value=0, max_value=3),
)
def test_ccf_insert_many_parity_on_repeated_rows(
    kind, pre_rows, rows, domain, num_buckets, max_dupes, key_bits, seed
):
    """Heavily repeated rows: `insert_many` credits later copies of a row
    instead of inserting them, and must still equal the scalar loop byte for
    byte.  Few keys over 2-4 attribute values on 4-32 buckets with
    ``max_kicks`` 5 let a placement fail mid-batch (the stash keeps every
    entry in its pair, so later copies are still credited); ``max_chain`` 2
    discards chained rows; ``d`` of 1-2 converts Mixed
    pairs between a row and its copy; the Bloom column mixes ``1``,
    ``True``, ``1.0``, ``"1"``, ``"a"`` and ``"a\\0"``."""
    params = CCFParams(
        bucket_size=2,
        max_dupes=max_dupes,
        key_bits=key_bits,
        attr_bits=3,
        bloom_bits=16,
        max_kicks=5,
        seed=seed,
        max_chain=2 if kind == "chained" else None,
    )
    scalar = make_ccf(kind, SCHEMA, num_buckets, params)
    batch = make_ccf(kind, SCHEMA, num_buckets, params)
    for key, value, size in pre_rows:
        for ccf in (scalar, batch):
            ccf.insert(key, (domain[value % len(domain)], size))

    firsts = [domain[value % len(domain)] for _k, value, _s in rows]
    scalar_results = [
        scalar.insert(key, (first, size)) for (key, _v, size), first in zip(rows, firsts)
    ]
    keys = np.array([key for key, _v, _s in rows], dtype=np.int64)
    sizes = np.array([size for _k, _v, size in rows], dtype=np.int64)
    batch_results = batch.insert_many(keys, [firsts, sizes])

    assert batch_results.tolist() == scalar_results
    assert dumps(batch) == dumps(scalar)


#: Rows whose cells interact: a dozen keys under 3-4-bit key fingerprints
#: share (pair, fingerprint) cells, and their chains cross.
CELL_ROW = st.tuples(
    st.integers(min_value=0, max_value=11),  # key
    st.integers(min_value=0, max_value=5),  # first attribute
    st.integers(min_value=0, max_value=1),  # second attribute
)


@pytest.mark.parametrize("kind", ("chained", "bloom", "mixed"))
@settings(max_examples=60, deadline=None)
@given(
    pre_rows=st.lists(CELL_ROW, max_size=30),
    rows=st.lists(CELL_ROW, min_size=10, max_size=80),
    num_buckets=st.sampled_from((4, 8, 16)),
    max_dupes=st.sampled_from((1, 2, 3)),
    key_bits=st.sampled_from((3, 4)),
    max_chain=st.sampled_from((None, 3)),
    seed=st.integers(min_value=0, max_value=7),
)
def test_ccf_insert_many_parity_on_shared_cells(
    kind, pre_rows, rows, num_buckets, max_dupes, key_bits, max_chain, seed
):
    """`insert_many` decides each row against a batch-local index of cells
    (DESIGN.md §7) and must still equal the scalar loop byte for byte.
    Scalar pre-population of 4-16 buckets with ``max_kicks`` 5 stashes
    entries, so cells are seeded from slots and stash, and failures in the
    batch stash victims of other cells; 3-4-bit fingerprints let different
    keys share cells and cross chains; ``d`` of 1-3 converts Mixed pairs
    with stashed vectors and merges Bloom rows into stashed entries."""
    params = CCFParams(
        bucket_size=2,
        max_dupes=max_dupes,
        key_bits=key_bits,
        attr_bits=3,
        bloom_bits=16,
        max_kicks=5,
        seed=seed,
        max_chain=max_chain,
    )
    scalar = make_ccf(kind, SCHEMA, num_buckets, params)
    batch = make_ccf(kind, SCHEMA, num_buckets, params)
    for key, first, second in pre_rows:
        for ccf in (scalar, batch):
            ccf.insert(key, (first, second))

    scalar_results = [scalar.insert(key, (first, second)) for key, first, second in rows]
    keys, firsts, seconds = (np.array(column, dtype=np.int64) for column in zip(*rows))
    batch_results = batch.insert_many(keys, [firsts, seconds])

    assert batch_results.tolist() == scalar_results
    assert dumps(batch) == dumps(scalar)


def test_first_copies_packs_or_compares_rows():
    """Identities that fit 63 bits pack into one int64, wider ones are
    compared row by row; both give each row its first equal row."""
    narrow = [np.array([3, 1, 3, 3]), np.array([0, 0, 0, 1])]
    wide = [np.array([2**62, 1, 2**62, 2**62]), np.array([0, 0, 0, 1])]
    for columns in (narrow, wide):
        assert first_copies(columns).tolist() == [0, 1, 0, 3]
    assert first_copies([np.array([], dtype=np.int64)]).tolist() == []


@settings(max_examples=60, deadline=None)
@given(ccf=tiny_chained_ccfs())
def test_chained_walk_parity_on_tiny_tables(ccf):
    """The batch chain walk equals the scalar walk key by key: d-full
    pairs, cycle bumps on 2-16 buckets, the Lmax cap and stashed
    fingerprints (no early stop) all occur."""
    probes = np.arange(40, dtype=np.int64)
    for predicate in (None, *TINY_PREDICATES):
        compiled = ccf.compile(predicate)
        want = [ccf.query(key, compiled) for key in probes.tolist()]
        assert ccf.query_many(probes, predicate).tolist() == want


@settings(max_examples=15, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=60),
            st.sampled_from(COLORS),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=60,
    ),
    kind=st.sampled_from(("chained", "bloom", "mixed")),
)
def test_range_ccf_insert_and_query_parity(rows, kind):
    params = _params(3)
    scalar = DyadicRangeCCF(kind, SCHEMA, "size", (0, 63), 256, params)
    batch = DyadicRangeCCF(kind, SCHEMA, "size", (0, 63), 256, params)

    scalar_results = [scalar.insert(key, (color, size)) for key, color, size in rows]
    keys = np.array([key for key, _c, _s in rows], dtype=np.int64)
    colors = [color for _k, color, _s in rows]
    sizes = np.array([size for _k, _c, size in rows], dtype=np.int64)
    batch_results = batch.insert_many(keys, [colors, sizes])

    assert batch_results.tolist() == scalar_results
    _assert_ccf_twins_equal(scalar.inner, batch.inner)
    assert len(batch) == len(rows)

    from repro.ccf.predicates import Range

    probes = np.arange(80, dtype=np.int64)
    for predicate in (None, Range("size", 3, 17), Range("size", 100, 200), Eq("color", "red")):
        want = [scalar.query(int(key), predicate) for key in probes.tolist()]
        assert batch.query_many(probes, predicate).tolist() == want


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=150),
    seed=st.integers(min_value=0, max_value=5),
)
def test_cuckoo_filter_parity(keys, seed):
    _check_membership_filter_parity(lambda: CuckooFilter(16, 4, 10, seed=seed), keys)


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=150),
    seed=st.integers(min_value=0, max_value=5),
)
def test_semisorted_filter_parity(keys, seed):
    _check_membership_filter_parity(lambda: SemiSortedCuckooFilter(16, 10, seed=seed), keys)


def _check_membership_filter_parity(make, keys):
    # Inserts: one batch and a per-key loop may place differently, and stash
    # different keys' copies, but answer identically: a stashed copy stays a
    # slot of its pair (DESIGN.md §1, §5 rule 3).
    looped = make()
    looped_results = [looped.insert(k) for k in keys]
    scalar = make()
    batch = make()
    scalar.insert_many(keys)
    batch_results = batch.insert_many(keys).tolist()
    assert looped.num_items == batch.num_items == len(batch) == len(keys)
    probes = list(keys) + list(range(50))
    assert batch.contains_many(probes).tolist() == [looped.contains(k) for k in probes]
    if not (looped.stash or batch.stash):
        assert batch_results == looped_results

    # Queries and deletes on identically built twins: bit-identical.
    assert batch.contains_many(probes).tolist() == [scalar.contains(k) for k in probes]
    victims = keys[::2]
    assert batch.delete_many(victims).tolist() == [scalar.delete(k) for k in victims]
    assert scalar.buckets.state() == batch.buckets.state()
    assert scalar.stash == batch.stash
    assert scalar.num_items == batch.num_items
    assert batch.contains_many(probes).tolist() == [scalar.contains(k) for k in probes]


@settings(max_examples=25, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=40), max_size=120),
    seed=st.integers(min_value=0, max_value=5),
)
def test_multiset_parity(keys, seed):
    looped = MultisetCuckooFilter(16, 4, 10, seed=seed)
    for k in keys:
        looped.insert(k)
    scalar = MultisetCuckooFilter(16, 4, 10, seed=seed)
    batch = MultisetCuckooFilter(16, 4, 10, seed=seed)
    scalar.insert_many(keys)
    batch.insert_many(keys)
    probes = list(range(60))
    assert batch.count_many(probes).tolist() == [looped.count(k) for k in probes]

    assert batch.count_many(probes).tolist() == [scalar.count(k) for k in probes]
    assert batch.contains_many(probes).tolist() == [scalar.contains(k) for k in probes]
    victims = keys[::3]
    assert batch.delete_many(victims).tolist() == [scalar.delete(k) for k in victims]
    assert scalar.buckets.state() == batch.buckets.state()
    assert scalar.stash == batch.stash
    assert batch.count_many(probes).tolist() == [scalar.count(k) for k in probes]


@settings(max_examples=20, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=500), st.integers()),
        max_size=200,
    )
)
def test_hashtable_parity(pairs):
    scalar = CuckooHashTable(num_buckets=4, bucket_size=2, seed=1)
    batch = CuckooHashTable(num_buckets=4, bucket_size=2, seed=1)
    for key, value in pairs:
        scalar[key] = value
    batch.insert_many([k for k, _v in pairs], [v for _k, v in pairs])
    # Identical hashing and victim streams mean identical resize points and layout.
    assert scalar.num_resizes == batch.num_resizes
    assert len(scalar) == len(batch)
    assert scalar.buckets.state() == batch.buckets.state()

    probes = list(range(520))
    assert batch.get_many(probes) == [scalar.get(k) for k in probes]
    assert batch.contains_many(probes).tolist() == [k in scalar for k in probes]

    victims = [k for k, _v in pairs[::2]]
    want = []
    for key in victims:
        if key in scalar:
            del scalar[key]
            want.append(True)
        else:
            want.append(False)
    assert batch.delete_many(victims).tolist() == want
    assert scalar.buckets.state() == batch.buckets.state()


def test_hashtable_insert_many_accepts_ndarrays():
    """Regression: ndarray keys must be stored as native ints — stored keys
    are re-hashed by resizes, and hash64 rejects numpy scalars."""
    table = CuckooHashTable(num_buckets=4, bucket_size=2, seed=1)
    keys = np.arange(100)
    table.insert_many(keys, keys * 10)  # forces kicks and resizes
    assert table.num_resizes > 0
    assert table[50] == 500
    assert all(type(key) is int for key in table.keys())
    table[200] = 1  # post-batch scalar inserts keep hashing stored keys
    assert len(table) == 101


def test_query_many_accepts_uncompiled_and_compiled_predicates():
    params = _params(2)
    ccf = make_ccf("chained", SCHEMA, 64, params)
    rng = random.Random(0)
    rows = [(rng.randrange(40), rng.choice(COLORS), rng.randrange(20)) for _ in range(150)]
    ccf.insert_many(
        [k for k, _c, _s in rows],
        [[c for _k, c, _s in rows], [s for _k, _c, s in rows]],
    )
    predicate = Eq("color", "red")
    probes = np.arange(60)
    assert (
        ccf.query_many(probes, predicate).tolist()
        == ccf.query_many(probes, ccf.compile(predicate)).tolist()
    )


def test_bloom_batch_sees_in_place_attribute_merges():
    """Regression: Bloom dedup mutates an entry in place (no slot write);
    the cached match snapshot must still invalidate — a stale one would be a
    false negative, breaking both guarantees."""
    schema = AttributeSchema(["a"])
    ccf = make_ccf("bloom", schema, 16, CCFParams(bucket_size=4, key_bits=8, seed=0))
    compiled = ccf.compile(Eq("a", 7))
    ccf.insert(5, (1,))
    probes = np.arange(8)  # big enough batch to take the vectorised path
    assert not ccf.query_many(probes, compiled)[5]  # primes the cache
    ccf.insert(5, (7,))  # merges into the existing entry's Bloom in place
    assert ccf.query(5, compiled)
    assert ccf.query_many(probes, compiled)[5]


def test_mixed_batch_sees_in_place_group_absorption():
    """Regression: group absorption after conversion is also an in-place
    entry mutation and must invalidate the cached match snapshot."""
    schema = AttributeSchema(["a"])
    params = CCFParams(bucket_size=4, max_dupes=2, key_bits=8, attr_bits=8, seed=0)
    ccf = make_ccf("mixed", schema, 16, params)
    compiled = ccf.compile(Eq("a", 77))
    for value in (1, 2, 3):  # third distinct row converts the pair
        ccf.insert(5, (value,))
    assert ccf.num_conversions == 1
    probes = np.arange(8)  # big enough batch to take the vectorised path
    assert not ccf.query_many(probes, compiled)[5]  # primes the cache
    ccf.insert(5, (77,))  # absorbed into the converted group in place
    assert ccf.num_absorbed == 1
    assert ccf.query(5, compiled)
    assert ccf.query_many(probes, compiled)[5]


def _unmark_every_third_payload(ccf):
    """Clear the live ``matching`` flag of every third payload slot's
    sketch, in flat slot order."""
    rows = ccf._payload_rows.ravel()
    rows = rows[rows >= 0]
    ccf._sketch_rows.flags[rows[::3]] = False
    return len(rows)


SKETCH_PREDICATES = (
    Eq("color", "red"),
    In("size", tuple(range(0, 30, 4))),
    And([In("color", ("green", "blue")), In("size", (1, 2, 3, 5, 8, 13))]),
)


@pytest.mark.parametrize("bloom_bits", [1, 7, 24, 64, 100])
def test_bloom_sketch_batch_matches_scalar(bloom_bits):
    """Batched sketch matching over 1- and 2-word sketches, with entries
    whose live ``matching`` flag is False, under Eq, In and And."""
    params = _params(1).replace(bloom_bits=bloom_bits, bloom_hashes=3)
    ccf = make_ccf("bloom", SCHEMA, 64, params)
    rng = random.Random(bloom_bits)
    rows = [(rng.randrange(150), rng.choice(COLORS), rng.randrange(30)) for _ in range(400)]
    ccf.insert_many(
        [k for k, _c, _s in rows], [[c for _k, c, _s in rows], [s for _k, _c, s in rows]]
    )
    probes = np.arange(200)
    for unmark in (False, True):
        if unmark:
            assert _unmark_every_third_payload(ccf) > 0
        for predicate in SKETCH_PREDICATES:
            compiled = ccf.compile(predicate)
            want = [ccf.query(int(key), compiled) for key in probes.tolist()]
            assert ccf.query_many(probes, compiled).tolist() == want


@pytest.mark.parametrize("attr_bits,max_dupes", [(4, 2), (5, 3), (12, 3)])
def test_conversion_sketch_batch_matches_scalar(attr_bits, max_dupes):
    """Mixed CCFs: converted groups' Blooms of one and two words beside
    vector slots, including groups whose ``matching`` flag is False."""
    params = _params(2).replace(attr_bits=attr_bits, max_dupes=max_dupes)
    ccf = make_ccf("mixed", SCHEMA, 64, params)
    rng = random.Random(attr_bits)
    rows = [(rng.randrange(60), rng.choice(COLORS), rng.randrange(30)) for _ in range(400)]
    ccf.insert_many(
        [k for k, _c, _s in rows], [[c for _k, c, _s in rows], [s for _k, _c, s in rows]]
    )
    assert ccf.num_conversions > 0
    probes = np.arange(100)
    for unmark in (False, True):
        if unmark:
            _unmark_every_third_payload(ccf)
        for predicate in SKETCH_PREDICATES:
            compiled = ccf.compile(predicate)
            want = [ccf.query(int(key), compiled) for key in probes.tolist()]
            assert ccf.query_many(probes, compiled).tolist() == want


def test_matcher_cache_is_keyed_by_value():
    """An equal predicate compiled afresh reuses the cached matcher."""
    ccf = make_ccf("bloom", SCHEMA, 16, _params(0))
    ccf.insert(5, ("red", 1))
    for _ in range(3):
        assert ccf.query_many([5], ccf.compile(Eq("color", "red")))[0]
    assert len(ccf._predicates) == 1


def test_matcher_cache_tells_bool_from_int():
    """``1 == True`` in Python, but a Bloom sketch hashes them apart.

    At this seed and width the attribute fingerprints of ``1`` and ``True``
    coincide, so the compiled constraints of the two predicates are equal
    under Python equality; a cache keyed that way would answer
    ``Eq("flag", True)`` with the matcher of ``Eq("flag", 1)``.
    """
    schema = AttributeSchema(["flag"])
    params = CCFParams(bucket_size=4, key_bits=8, attr_bits=2, bloom_bits=24, seed=1)
    ccf = make_ccf("bloom", schema, 16, params)
    assert ccf.fingerprinter.fingerprint(0, True) == ccf.fingerprinter.fingerprint(0, 1)
    as_int, as_bool = ccf.compile(Eq("flag", 1)), ccf.compile(Eq("flag", True))
    assert as_int.constraints == as_bool.constraints
    ccf.insert(5, (True,))
    assert not ccf.query_many([5], as_int)[0]
    assert ccf.query_many([5], as_bool)[0]


def test_predicate_memo_keeps_equal_values_apart():
    """``1 == True == 1.0`` and ``0.0 == -0.0`` under Python equality, but
    each of these predicates gets its own memo entry, and compiling one
    again returns its entry's compiled query."""
    schema = AttributeSchema(["flag"])
    ccf = make_ccf("bloom", schema, 16, CCFParams(bucket_size=4, key_bits=8, attr_bits=2, seed=1))
    values = (1, True, 1.0, "1", 0.0, -0.0)
    compiled = [ccf.compile(Eq("flag", value)) for value in values]
    assert len(ccf._predicates) == len(values)
    assert len({id(c) for c in compiled}) == len(values)
    for value, first in zip(values, compiled):
        assert ccf.compile(Eq("flag", value)) is first
        assert ccf.compile(In("flag", [value])) is first
    for value in values:
        ccf.insert(5, (value,))
        answers = [ccf.query_many([5], c)[0] for c in compiled]
        assert answers == [ccf.query(5, c) for c in compiled]


def test_predicate_memo_is_bounded(monkeypatch):
    """The memo holds at most `PREDICATE_MEMO_LIMIT` predicates, oldest
    out first, and an evicted compiled query still probes right."""
    monkeypatch.setattr(ccf_base, "PREDICATE_MEMO_LIMIT", 6)
    ccf = make_ccf("chained", SCHEMA, 16, _params(2))
    ccf.insert_many(np.arange(40), [[COLORS[k % 3] for k in range(40)], np.arange(40) % 9])
    compiled = [ccf.compile(Eq("size", size)) for size in range(9)]
    assert len(ccf._predicates) == 6
    assert list(ccf._predicates) == [c.key for c in compiled[3:]]
    for c in compiled:
        want = [ccf.query(key, c) for key in range(45)]
        assert ccf.query_many(np.arange(45), c).tolist() == want
    assert len(ccf._predicates) == 6


def test_matcher_of_a_query_compiled_elsewhere():
    """A query compiled for the same fingerprinter (a FilterStore's) shares
    the memo's matcher; one compiled under other salts keeps its own
    fingerprints and answers as the scalar test does."""
    ccf = make_ccf("chained", SCHEMA, 16, _params(3))
    ccf.insert_many(np.arange(30), [[COLORS[k % 3] for k in range(30)], np.arange(30) % 7])
    predicate = In("color", ("red", "blue")) & In("size", (1, 2, 3))
    shared = compile_predicate(SCHEMA, ccf.fingerprinter, predicate)
    assert shared is not ccf.compile(predicate)
    assert ccf._matcher(shared) is ccf._matcher(ccf.compile(predicate))
    foreign = make_ccf("chained", SCHEMA, 16, _params(4)).compile(predicate)
    assert foreign.constraints[0][2] != ccf.compile(predicate).constraints[0][2]
    assert ccf._matcher(foreign) is not ccf._matcher(shared)
    want = [ccf.query(key, foreign) for key in range(35)]
    assert ccf.query_many(np.arange(35), foreign).tolist() == want


def test_predicate_memo_serves_concurrent_readers(monkeypatch):
    """Threads compiling and matching more predicates than the memo holds
    never see an error: a hit is one dict read, and eviction happens under
    the memo's lock."""
    monkeypatch.setattr(ccf_base, "PREDICATE_MEMO_LIMIT", 8, raising=False)
    ccf = make_ccf("bloom", SCHEMA, 64, _params(5))
    ccf.insert_many(np.arange(100), [[COLORS[k % 3] for k in range(100)], np.arange(100) % 30])
    predicates = [Eq("size", size) for size in range(40)]
    compiled = [ccf.compile(p) for p in predicates]
    errors = []

    def work(seed):
        picks = np.random.default_rng(seed).integers(0, len(predicates), 3000).tolist()
        try:
            for i in picks:
                ccf._matcher(compiled[i])
                ccf.compile(predicates[i])
        except Exception as exc:  # noqa: BLE001 - any error fails the test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(ccf._predicates) <= 8
    for c in compiled[::7]:
        assert ccf.query_many(np.arange(110), c).tolist() == [ccf.query(k, c) for k in range(110)]


def test_numpy_scalars_query_and_insert_as_python_values():
    """A key or attribute value read out of an int array answers and
    stores as its Python value, as the batch paths read it."""
    keys = np.arange(20, dtype=np.int64) * 7
    sizes = np.arange(20, dtype=np.int64) % 9
    colors = [COLORS[k % 3] for k in range(20)]
    for kind in sorted(CCF_KINDS):
        batch = make_ccf(kind, SCHEMA, 16, _params(6))
        batch.insert_many(keys, [colors, sizes])
        scalar = make_ccf(kind, SCHEMA, 16, _params(6))
        # A Bloom sketch keys raw values by their canonical encoding, which
        # takes Python values only.
        values = sizes.tolist() if kind == "bloom" else sizes
        for key, color, size in zip(keys, colors, values):
            scalar.insert(key, (color, size))
        _assert_ccf_twins_equal(scalar, batch)
        compiled = batch.compile(Eq("size", 3))
        assert [batch.query(key, compiled) for key in keys] == batch.query_many(keys, compiled).tolist()
        assert batch.query(keys[0]) and batch.query(np.uint32(keys[1]))


def test_insert_many_validates_columns():
    ccf = make_ccf("plain", SCHEMA, 16, _params(0))
    with pytest.raises(ValueError):
        ccf.insert_many([1, 2], [["red", "blue"]])  # missing a column
    with pytest.raises(ValueError):
        ccf.insert_many([1, 2], [["red"], [3, 4]])  # ragged column


def _payload_rows_agree(ccf):
    """Every payload slot's row id names a sketch row, every other slot's
    is -1, and each sketch is held by its entry's one slot (Bloom) or its
    group's ``d`` slots (Mixed), stashed ones included."""
    rows, occupied = ccf._payload_rows, ccf.buckets.occupied_mask()
    assert (rows[~occupied] == -1).all()
    assert (rows < ccf._sketch_rows.size).all()
    if ccf.kind == "bloom":
        assert (rows[occupied] >= 0).all()
    held = np.concatenate((rows[rows >= 0], ccf.stash.rows[ccf.stash.rows >= 0]))
    _, slots_per_sketch = np.unique(held, return_counts=True)
    assert (slots_per_sketch == (1 if ccf.kind == "bloom" else ccf.params.max_dupes)).all()
    return rows


@pytest.mark.parametrize("kind", ["bloom", "mixed"])
def test_payload_rows_survive_the_wire_and_stashing(kind):
    """Overloaded tables stash Bloom entries and group slots; their
    sketches keep their bits, a reload rebuilds every row id, the bytes
    round-trip unchanged, and batch probes equal the scalar loop on the
    original and the reloaded filter."""
    from repro.ccf.serialize import loads

    params = _params(4).replace(bloom_bits=40, bloom_hashes=2, max_kicks=8)
    ccf = make_ccf(kind, SCHEMA, 8, params)
    rng = random.Random(5)
    rows = [(rng.randrange(90), rng.choice(COLORS), rng.randrange(30)) for _ in range(300)]
    ccf.insert_many(
        [k for k, _c, _s in rows], [[c for _k, c, _s in rows], [s for _k, _c, s in rows]]
    )
    stash = ccf.stash
    assert (stash.rows >= 0).any()
    if kind == "bloom":
        # Each stashed entry's bits are its (fingerprint, pair)'s rows, hashed
        # afresh.
        values: dict[tuple[int, int], list] = {}
        for key, color, size in rows:
            fp, home = ccf.fingerprint_of(key), ccf.home_index(key)
            pair = ccf.geometry.pair_id(home, fp)
            values.setdefault((fp, pair), []).extend([(0, color), (1, size)])
        for fp, pair, row in zip(stash.fps.tolist(), stash.pairs.tolist(), stash.rows.tolist()):
            want = fresh_bits(params.bloom_bits, params.bloom_hashes, ccf._bloom_salt, values[fp, pair])
            assert ccf._sketch_rows.row_bytes(row) == want.to_bytes()
    reloaded = loads(dumps(ccf))
    assert dumps(reloaded) == dumps(ccf)
    probes = np.arange(100)
    for twin in (ccf, reloaded):
        _payload_rows_agree(twin)
        for predicate in SKETCH_PREDICATES:
            compiled = twin.compile(predicate)
            want = [twin.query(int(key), compiled) for key in probes.tolist()]
            assert twin.query_many(probes, compiled).tolist() == want


@pytest.mark.parametrize("kind", ["bloom", "mixed"])
def test_sketch_rows_grow_between_batch_probes(kind):
    """Rows are added one insert at a time between batch probes, so the
    sketch rows grow while earlier entries hold rows and after the probe
    has gathered from them; answers follow the scalar loop throughout."""
    params = _params(3).replace(max_dupes=1)
    ccf = make_ccf(kind, SCHEMA, 128, params)
    rng = random.Random(11)
    probes = np.arange(80)
    compiled = ccf.compile(In("size", (2, 3, 5, 7)))
    sizes = []
    for step in range(240):
        ccf.insert(rng.randrange(80), (rng.choice(COLORS), rng.randrange(12)))
        if step % 20 == 19:
            sizes.append(len(ccf._sketch_rows.buf))
            want = [ccf.query(int(key), compiled) for key in probes.tolist()]
            assert ccf.query_many(probes, compiled).tolist() == want
    assert len(set(sizes)) > 2  # the buffer grew several times
    _payload_rows_agree(ccf)
