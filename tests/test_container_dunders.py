"""Container protocol (`__len__`/`__contains__`) and the bounded jump cache."""

import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import CCF_KINDS, make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.hashing.mixers import JUMP_CACHE_LIMIT
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter

SCHEMA = AttributeSchema(["color"])
PARAMS = CCFParams(bucket_size=4, max_dupes=2, key_bits=8, attr_bits=4, seed=1)


@pytest.mark.parametrize("kind", sorted(CCF_KINDS))
def test_ccf_len_and_contains(kind):
    ccf = make_ccf(kind, SCHEMA, 64, PARAMS)
    assert len(ccf) == 0
    for key in range(25):
        ccf.insert(key, ("red",))
    assert len(ccf) == 25  # rows represented, including any dedupes
    assert 7 in ccf
    assert (7 in ccf) == ccf.contains_key(7)
    # A missing key answers like contains_key (may rarely be a false positive).
    assert (100_000 in ccf) == ccf.contains_key(100_000)


def test_ccf_len_counts_duplicate_rows():
    ccf = make_ccf("bloom", SCHEMA, 64, PARAMS)
    for _ in range(5):
        ccf.insert(1, ("red",))
    assert len(ccf) == 5
    assert ccf.num_entries == 1  # rows merged into one entry, len still logical


def test_range_ccf_len_and_contains():
    ccf = DyadicRangeCCF("chained", AttributeSchema(["v"]), "v", (0, 63), 256, PARAMS)
    for key in range(10):
        ccf.insert(key, (key,))
    assert len(ccf) == 10  # input rows, not the eta-fold interval fan-out
    assert ccf.inner.num_rows_inserted == 10 * ccf.num_levels
    assert 3 in ccf
    assert (999 in ccf) == ccf.contains_key(999)


def test_cuckoo_filter_len_and_contains():
    cuckoo = CuckooFilter(64, 4, 12, seed=2)
    for key in range(30):
        cuckoo.insert(key)
    assert len(cuckoo) == 30
    assert 11 in cuckoo
    cuckoo.delete(11)
    assert len(cuckoo) == 29


def test_multiset_len_tracks_copies():
    multiset = MultisetCuckooFilter(64, 4, 12, seed=2)
    for _ in range(3):
        multiset.insert(5)
    assert len(multiset) == 3
    assert 5 in multiset


def test_jump_cache_stays_bounded():
    cuckoo = CuckooFilter(64, 4, 32, seed=0)  # 32-bit fingerprints: huge fp space
    geometry = cuckoo.geometry
    for key in range(3 * JUMP_CACHE_LIMIT // 2):
        geometry.fp_jump(key)
    assert len(geometry._jump_cache) <= JUMP_CACHE_LIMIT
    # Evicted entries recompute to the same value.
    assert geometry.fp_jump(1) == geometry.fp_jump(1)


def test_geometry_jump_cache_stays_bounded():
    ccf = make_ccf("plain", SCHEMA, 64, PARAMS.replace(key_bits=32))
    geometry = ccf.geometry
    for fingerprint in range(JUMP_CACHE_LIMIT + 100):
        geometry.fp_jump(fingerprint)
    assert len(geometry._jump_cache) <= JUMP_CACHE_LIMIT
