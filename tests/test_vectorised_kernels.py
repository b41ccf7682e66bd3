"""Targeted edge cases for the loop-free kernels (DESIGN.md §5, §7, §9).

`test_batch_parity.py` pins the broad batch contracts; these tests force
the specific corners the vectorised kernels special-case: duplicate keys
racing for the same slot (rank deduping), stash interplay in batch order,
pairs probed from both ends (the scalar-fallback group), the first wave's
hole handling, and wave-eviction overload.  The one-insert-path property
(`test_one_insert_path_contract`) runs on every importable kernel backend.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter
from repro.kernels import set_backend

#: Backends every machine can run; numba joins when importable.
BACKENDS = ["numpy", "python"]
try:  # pragma: no cover - exercised on the CI numba leg
    import numba  # noqa: F401

    BACKENDS.append("numba")
except Exception:
    pass


#: Every fingerprint-per-slot filter; they share one insert path.
FINGERPRINT_FILTERS = [CuckooFilter, MultisetCuckooFilter, SemiSortedCuckooFilter]


def _twins(cls, **kwargs):
    return cls(**kwargs), cls(**kwargs)


def test_delete_many_rank_dedupes_duplicate_keys():
    """N copies inserted, N+2 deletes of the same key in one batch: exactly
    N succeed, matching a scalar loop, and no slot is double-cleared."""
    batch, scalar = _twins(MultisetCuckooFilter, num_buckets=16, bucket_size=4, seed=3)
    for twin in (batch, scalar):
        twin.insert_many([7] * 5)
    victims = [7] * 7
    want = [scalar.delete(7) for _ in victims]
    got = batch.delete_many(victims)
    assert got.tolist() == want == [True] * 5 + [False] * 2
    assert batch.buckets.state() == scalar.buckets.state()
    assert batch.num_items == scalar.num_items == 0


def test_delete_many_mixed_batch_of_duplicates_and_misses():
    batch, scalar = _twins(CuckooFilter, num_buckets=32, bucket_size=4, seed=5)
    keys = list(range(40)) * 2  # duplicate fingerprints within the batch
    for twin in (batch, scalar):
        twin.insert_many(keys)
    victims = [0, 0, 0, 1, 99, 1, 2, 100, 0, 2]
    want = [scalar.delete(k) for k in victims]
    assert batch.delete_many(victims).tolist() == want
    assert batch.buckets.state() == scalar.buckets.state()
    assert batch.num_items == scalar.num_items


def test_delete_many_consumes_stash_in_batch_order():
    """Overloaded filter with stashed fingerprints: batch deletes drain the
    table first, then the stash, exactly as the scalar loop would."""
    batch, scalar = _twins(CuckooFilter, num_buckets=2, bucket_size=2, max_kicks=3, seed=1)
    keys = list(range(20))
    for twin in (batch, scalar):
        twin.insert_many(keys)
        assert twin.failed and twin.stash  # overload reached the stash
    victims = keys + keys  # second round overdraws into misses
    want = [scalar.delete(k) for k in victims]
    assert batch.delete_many(victims).tolist() == want
    assert batch.stash == scalar.stash
    assert batch.buckets.state() == scalar.buckets.state()


def test_delete_many_pair_probed_from_both_ends():
    """Two keys sharing one bucket pair from opposite orientations form the
    mixed-home group that must take the scalar fallback; state still
    matches the scalar loop."""
    batch, scalar = _twins(CuckooFilter, num_buckets=8, bucket_size=2, seed=2)
    # Find two keys with equal fingerprints whose homes are each other's
    # alternates (home_a ^ jump == home_b).
    found = None
    for a in range(4000):
        fp_a, home_a = scalar.fingerprint_of(a), scalar.home_index(a)
        alt_a = scalar.alt_index(home_a, fp_a)
        if alt_a == home_a:
            continue
        for b in range(a + 1, 4000):
            if (
                scalar.fingerprint_of(b) == fp_a
                and scalar.home_index(b) == alt_a
            ):
                found = (a, b)
                break
        if found:
            break
    assert found, "no opposite-orientation pair in the probe range"
    a, b = found
    for twin in (batch, scalar):
        twin.insert_many([a, b])
    victims = [a, b, a]
    want = [scalar.delete(k) for k in victims]
    assert batch.delete_many(victims).tolist() == want
    assert batch.buckets.state() == scalar.buckets.state()


def test_wave_eviction_bounded_kicks_and_no_false_negatives():
    """Past-capacity build: wave eviction stashes over-budget chains,
    latches failure, and keeps every inserted key answering True."""
    cuckoo = CuckooFilter(4, 2, 10, max_kicks=6, seed=9)
    keys = np.arange(40)
    results = cuckoo.insert_many(keys)
    assert cuckoo.failed
    assert not results.all()
    assert len(cuckoo.stash) == np.count_nonzero(~results) >= 1
    assert cuckoo.contains_many(keys).all()
    assert cuckoo.num_items == len(keys)
    # Occupancy bookkeeping survived the eviction waves.
    assert cuckoo.buckets.counts.sum() == cuckoo.buckets.occupied_mask().sum()
    assert cuckoo.buckets.filled == cuckoo.buckets.occupied_mask().sum()


def test_wave_eviction_is_deterministic_per_seed():
    keys = np.arange(3000)
    runs = []
    for _ in range(2):
        cuckoo = CuckooFilter.from_capacity(3000, bucket_size=4, fingerprint_bits=12, seed=4)
        cuckoo.insert_many(keys)
        runs.append((cuckoo.buckets.state(), list(cuckoo.stash), cuckoo.num_items))
    assert runs[0] == runs[1]


def test_wave_eviction_matches_membership_of_sequential_build_at_high_load():
    """~95% load forces real multi-round waves; per-pair fingerprint
    multisets (hence all answers) must match a per-key insert loop."""
    n = 4000
    keys = np.arange(n)
    batch = CuckooFilter.from_capacity(n, bucket_size=4, fingerprint_bits=12, seed=8)
    looped = CuckooFilter.from_capacity(n, bucket_size=4, fingerprint_bits=12, seed=8)
    batch.insert_many(keys)
    for key in keys.tolist():
        looped.insert(key)
    assert not (batch.stash or looped.stash)
    probes = np.arange(2 * n)
    assert batch.contains_many(probes).tolist() == looped.contains_many(probes).tolist()
    assert batch.buckets.filled == looped.buckets.filled


def test_first_wave_draws_no_victims():
    """Conflict-free keys are scattered without consuming the victim stream."""
    cuckoo = CuckooFilter(256, 4, 12, seed=1)
    keys = np.arange(200)  # ~0.2 load: almost surely no bucket overflows
    results = cuckoo.insert_many(keys)
    assert results.all()
    assert cuckoo.num_items == 200
    # The counts column agrees with the matrix after the vectorised scatter.
    assert cuckoo.buckets.counts.sum() == cuckoo.buckets.occupied_mask().sum()
    if not cuckoo.failed and cuckoo.buckets.filled == 200:
        assert cuckoo._wave_victim_counter == 0


def test_insert_many_respects_holes():
    """The first wave targets real free slots, not just count arithmetic."""
    cuckoo = CuckooFilter(4, 4, 12, seed=2)
    keys = list(range(10))
    cuckoo.insert_many(keys)
    victims = keys[::2]
    cuckoo.delete_many(victims)  # leaves holes mid-bucket
    survivors = keys[1::2]
    refill = [100 + k for k in range(8)]
    cuckoo.insert_many(refill)
    assert not (cuckoo.buckets.counts > cuckoo.buckets.bucket_size).any()
    assert cuckoo.buckets.counts.sum() == cuckoo.buckets.occupied_mask().sum()
    for key in survivors + refill:
        assert key in cuckoo


def test_insert_many_empty_batch():
    cuckoo = CuckooFilter(16, 4, 12, seed=0)
    assert cuckoo.insert_many([]).tolist() == []
    assert cuckoo.num_items == 0


def test_insert_many_overload_stashes_not_drops():
    """Past capacity the kick loop stashes victims (DESIGN.md §1)."""
    cuckoo = CuckooFilter(2, 2, 10, max_kicks=4, seed=3)
    keys = list(range(30))
    cuckoo.insert_many(keys)
    assert cuckoo.failed
    assert cuckoo.stash
    for key in keys:  # no false negatives even after overload
        assert key in cuckoo


# ---------------------------------------------------------------------------
# One insert path (DESIGN.md §5 rule 3)
# ---------------------------------------------------------------------------


def _full_state(filt) -> tuple:
    return (
        filt.buckets.state(),
        list(filt.stash),
        filt.num_items,
        filt.failed,
        filt._wave_victim_counter,
    )


def _answers(filt, probes) -> list:
    if isinstance(filt, MultisetCuckooFilter):
        return filt.count_many(probes).tolist()
    return filt.contains_many(probes).tolist()


def _check_one_insert_path(backend, cls, keys, seed):
    """The contract: ``insert(k)`` == ``insert_many([k])`` bit for bit; any
    batching answers identically, stash included; ``delete_many`` == a
    ``delete`` loop bit for bit."""
    def make():
        return cls(16, fingerprint_bits=10, max_kicks=16, seed=seed)

    set_backend(backend)
    try:
        looped, singles, batched = make(), make(), make()
        looped_results = [looped.insert(key) for key in keys]
        single_results = [bool(singles.insert_many([key])[0]) for key in keys]
        batched.insert_many(keys)
        assert single_results == looped_results
        assert _full_state(singles) == _full_state(looped)
        assert batched.num_items == looped.num_items == len(keys)

        probes = list(range(-5, 260))
        assert _answers(batched, probes) == _answers(looped, probes)

        # Identically built twins: one batch delete vs a per-key loop.
        twin = make()
        twin.insert_many(keys)
        victims = keys[::2] + keys[:3]
        want = [twin.delete(key) for key in victims]
        assert batched.delete_many(victims).tolist() == want
        assert _full_state(batched) == _full_state(twin)
        assert _answers(batched, probes) == _answers(twin, probes)
    finally:
        set_backend(None)


@pytest.mark.parametrize("cls", FINGERPRINT_FILTERS)
@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=20, deadline=None)
@given(
    # 32-96 keys into 64 slots: 50% to 150% load, so chains kick and stash.
    keys=st.lists(st.integers(min_value=0, max_value=250), min_size=32, max_size=96),
    seed=st.integers(min_value=0, max_value=5),
)
def test_one_insert_path_contract(backend, cls, keys, seed):
    _check_one_insert_path(backend, cls, keys, seed)


@pytest.mark.parametrize("cls", FINGERPRINT_FILTERS)
@pytest.mark.parametrize("backend", BACKENDS)
def test_one_insert_path_contract_at_150_percent_load(backend, cls):
    """96 distinct keys into 64 slots: chains exhaust, the stash fills, and
    the scalar and batch-of-one paths must still agree bit for bit."""
    keys = list(range(96))
    _check_one_insert_path(backend, cls, keys, seed=3)
    overloaded = cls(16, fingerprint_bits=10, max_kicks=16, seed=3)
    overloaded.insert_many(keys)
    assert overloaded.failed and overloaded.stash
