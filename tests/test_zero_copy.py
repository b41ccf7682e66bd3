"""Zero-copy hashing ingress: integer ndarrays never become Python lists.

Every ``*_many`` entry point must feed an integer-dtype ndarray straight
into the vectorised SplitMix64 path — no ``as_native_list`` round-trip and
no ``.tolist()`` materialisation on the hashing fast path.  (Scalar
placement residues may unwrap *individual* elements; what is banned is
materialising the whole batch.)
"""

import numpy as np
import pytest

import repro.ccf.attributes as attributes_module
import repro.ccf.base as base_module
import repro.hashing.mixers as mixers_module
from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.hashtable import CuckooHashTable
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.hashing.mixers import hash64, hash64_many
from repro.store.config import StoreConfig
from repro.store.store import FilterStore


@pytest.fixture
def forbid_native_lists(monkeypatch):
    """Make any whole-batch native-list materialisation fail loudly."""

    def boom(values):
        raise AssertionError("integer fast path materialised a Python list")

    for module in (mixers_module, attributes_module, base_module):
        monkeypatch.setattr(module, "as_native_list", boom)


class _NoToList(np.ndarray):
    """An int64 array that refuses wholesale .tolist() materialisation."""

    def tolist(self):
        raise AssertionError(".tolist() called on the integer fast path")


def _guarded(values: np.ndarray) -> np.ndarray:
    return values.view(_NoToList)


def test_hash64_many_takes_ndarrays_without_tolist(forbid_native_lists):
    keys = _guarded(np.arange(1000, dtype=np.int64))
    hashed = hash64_many(keys, seed=7)
    assert int(hashed[3]) == hash64(3, seed=7)
    # Signed negatives two's-complement identically, still zero-copy.
    signed = _guarded(np.arange(-50, 50, dtype=np.int64))
    assert int(hash64_many(signed, 1)[0]) == hash64(-50, 1)


def test_cuckoo_filter_batch_ops_zero_copy(forbid_native_lists):
    cuckoo = CuckooFilter(64, 4, 12, seed=0)
    keys = np.arange(200, dtype=np.int64)
    cuckoo.insert_many(keys)
    # Probe/delete kernels are fully vectorised: even a tolist-hostile
    # ndarray flows through them.
    assert cuckoo.contains_many(_guarded(keys)).all()
    assert cuckoo.delete_many(_guarded(keys[::2])).all()
    multiset = MultisetCuckooFilter(64, 4, 12, seed=0)
    multiset.insert_many(keys % 40)
    assert (multiset.count_many(_guarded(np.arange(40, dtype=np.int64))) == 5).all()


def test_ccf_batch_ops_zero_copy(forbid_native_lists):
    schema = AttributeSchema(["a", "b"])
    ccf = make_ccf("plain", schema, 64, CCFParams(bucket_size=4, key_bits=12, attr_bits=6, seed=1))
    keys = np.arange(150, dtype=np.int64)
    cols = [keys % 17, keys % 5]
    assert ccf.insert_many(keys, cols).all()
    assert ccf.query_many(_guarded(keys)).all()
    assert ccf.delete_many(keys[::3], [c[::3] for c in cols]).all()


def test_filter_store_batch_ops_zero_copy(forbid_native_lists):
    schema = AttributeSchema(["a"])
    store = FilterStore(
        schema,
        CCFParams(bucket_size=4, key_bits=12, attr_bits=6, seed=1),
        StoreConfig(num_shards=2, level_buckets=64),
    )
    keys = np.arange(200, dtype=np.int64)
    assert store.insert_many(keys, [keys % 9]).all()
    assert store.query_many(_guarded(keys)).all()
    assert store.delete_many(keys[::2], [keys[::2] % 9]).all()


def test_hashtable_batch_ops_hash_ndarrays_directly(forbid_native_lists):
    table = CuckooHashTable(num_buckets=16, bucket_size=4, seed=1)
    keys = np.arange(100, dtype=np.int64)
    table.insert_many(keys, keys * 2)
    assert table.get_many(keys[:10]) == [k * 2 for k in range(10)]
    assert table.contains_many(keys).all()
    assert table.delete_many(keys[::2]).all()
    # Stored keys were unwrapped element-wise: scalar rehash still works.
    assert all(type(key) is int for key in table.keys())
