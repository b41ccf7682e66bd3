"""The unified bounded-LRU fingerprint→jump memo (`JumpCache`).

Every fingerprint structure's scalar XOR-jump memo lives in its one
`BucketGeometry` — the cuckoo filters' own, and the `PairGeometry` of every
CCF and view — so a single bound governs them all; batch paths compute
jumps vectorised and bypass it entirely.
"""

import pytest

from repro.ccf.chain import PairGeometry
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter
from repro.hashing.mixers import JUMP_CACHE_LIMIT, JumpCache, hash64


def test_jump_values_match_direct_hash():
    cache = JumpCache(salt=1234, mask=63)
    for fp in (0, 1, 17, 4095):
        assert cache.jump(fp) == hash64(fp, 1234) & 63
        assert cache.jump(fp) == hash64(fp, 1234) & 63  # memoised hit


def test_cache_never_exceeds_its_bound():
    cache = JumpCache(salt=7, mask=1023, limit=16)
    for fp in range(1000):
        cache.jump(fp)
        assert len(cache) <= 16


def test_eviction_is_least_recently_used():
    cache = JumpCache(salt=7, mask=1023, limit=4)
    for fp in range(4):
        cache.jump(fp)
    cache.jump(0)  # refresh: 0 becomes most-recently-used
    cache.jump(99)  # evicts 1 (the LRU entry), not 0
    assert 0 in cache._map
    assert 1 not in cache._map
    assert len(cache) == 4


def test_scalar_structures_share_the_bounded_memo():
    """The scalar jump path of every structure is bounded per instance."""
    structures = [
        CuckooFilter(16, 4, 20, seed=0),
        MultisetCuckooFilter(16, 4, 20, seed=0),
        SemiSortedCuckooFilter(16, 20, seed=0),
    ]
    geometries = [structure.geometry for structure in structures]
    geometries.append(PairGeometry(16, 20, seed=0))
    for geometry in geometries:
        assert isinstance(geometry._jump_cache, JumpCache)
        assert geometry._jump_cache.limit == JUMP_CACHE_LIMIT
        geometry._jump_cache.limit = 64  # exercise the bound cheaply
        for fp in range(500):
            geometry.fp_jump(fp)
        assert len(geometry._jump_cache) <= 64


def test_limit_validated():
    with pytest.raises(ValueError):
        JumpCache(salt=0, mask=1, limit=0)
