"""Batch hashing primitives must be bit-identical to the scalar functions."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccf.chain import CYCLE_BUMP_LIMIT, PairGeometry
from repro.hashing.mixers import hash64, hash64_many, mix64, mix64_many

INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
SEEDS = st.integers(min_value=0, max_value=2**64 - 1)


@settings(max_examples=50, deadline=None)
@given(st.lists(INT64, max_size=50), SEEDS)
def test_hash64_many_matches_scalar_on_ints(values, seed):
    batch = hash64_many(np.array(values, dtype=np.int64), seed)
    assert batch.dtype == np.uint64
    assert batch.tolist() == [hash64(v, seed) for v in values]


@settings(max_examples=50, deadline=None)
@given(st.lists(INT64, max_size=50))
def test_mix64_many_matches_scalar(values):
    assert mix64_many(np.array(values, dtype=np.int64)).tolist() == [
        mix64(v) for v in values
    ]


def test_hash64_many_uint64_edge_values():
    values = np.array([0, 1, 2**62, 2**63, 2**64 - 1], dtype=np.uint64)
    assert hash64_many(values, 9).tolist() == [hash64(v, 9) for v in values.tolist()]


def test_hash64_many_small_int_dtypes():
    values = np.array([-3, -1, 0, 5, 127], dtype=np.int8)
    assert hash64_many(values, 2).tolist() == [hash64(v, 2) for v in values.tolist()]


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.text(max_size=10),
            st.floats(allow_nan=False),
            st.booleans(),
            INT64,
            st.tuples(st.integers(min_value=0, max_value=99), st.text(max_size=4)),
        ),
        max_size=20,
    ),
    SEEDS,
)
def test_hash64_many_mixed_type_fallback(values, seed):
    assert hash64_many(values, seed).tolist() == [hash64(v, seed) for v in values]


def test_hash64_many_plain_int_list_takes_vector_path():
    values = list(range(-50, 50))
    assert hash64_many(values, 5).tolist() == [hash64(v, 5) for v in values]


def test_hash64_many_numpy_bools_are_bools():
    """A numpy bool in a list hashes as a bool, as a Python one does,
    not as the integer it would coerce to."""
    values = [np.True_, 2, np.False_]
    assert hash64_many(values, 5).tolist() == [hash64(True, 5), hash64(2, 5), hash64(False, 5)]
    assert hash64_many(values, 5).tolist() == hash64_many([True, 2, False], 5).tolist()


def test_hash64_many_huge_ints_fall_back():
    values = [2**80, -(2**70), 3]
    assert hash64_many(values, 1).tolist() == [hash64(v, 1) for v in values]


def test_hash64_many_empty():
    assert hash64_many([], 3).shape == (0,)
    assert hash64_many(np.array([], dtype=np.int64), 3).shape == (0,)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=62),
    SEEDS,
    st.lists(
        st.tuples(st.integers(min_value=0), st.integers(min_value=0)), min_size=1, max_size=30
    ),
)
def test_chain_step_many_matches_scalar(log_buckets, key_bits, seed, pairs):
    geometry = PairGeometry(1 << log_buckets, key_bits, seed)
    pair_ids = np.array([p % geometry.num_buckets for p, _fp in pairs], dtype=np.int64)
    fps = np.array([fp % (1 << key_bits) for _p, fp in pairs], dtype=np.int64)
    for bump in range(CYCLE_BUMP_LIMIT + 2):
        want = [
            geometry.chain_step(p, fp, bump) for p, fp in zip(pair_ids.tolist(), fps.tolist())
        ]
        assert geometry.chain_step_many(pair_ids, fps, bump).tolist() == want
