"""One occupancy API across every slotted container.

The FilterStore's saturation check (`shard.py`) reads ``load_factor()`` off
its levels; the same method — a float in [0, 1] — and an occupancy-reporting
``repr`` (``load=``) must exist on every slotted container so introspection
code never special-cases a structure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.chained_table import ChainedCuckooHashTable
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.hashtable import CuckooHashTable
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter
from repro.store import FilterStore, StoreConfig

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(key_bits=12, attr_bits=8, bucket_size=4, seed=5)


def _filled_ccf(kind):
    ccf = make_ccf(kind, SCHEMA, 64, PARAMS)
    keys = np.arange(100, dtype=np.int64)
    ccf.insert_many(keys, [keys % 3, keys % 5])
    return ccf


def _filled_range():
    wrapper = DyadicRangeCCF("chained", SCHEMA, "size", (0, 63), 64, PARAMS)
    for key in range(50):
        wrapper.insert(key, (key % 3, key % 60))
    return wrapper


def _filled_view():
    # Bloom and Mixed extraction returns a CuckooFilter, covered above; the
    # chained CCF's marked view is a container of its own.
    return _filled_ccf("chained").predicate_filter(Eq("color", 1))


def _filled_store():
    store = FilterStore(SCHEMA, PARAMS, StoreConfig(num_shards=2, level_buckets=32))
    keys = np.arange(300, dtype=np.int64)
    store.insert_many(keys, [keys % 3, keys % 5])
    return store


def all_containers():
    cuckoo = CuckooFilter(64)
    cuckoo.insert_many(np.arange(100))
    multiset = MultisetCuckooFilter(64)
    multiset.insert_many(np.arange(100))
    semisort = SemiSortedCuckooFilter(64)
    for key in range(100):
        semisort.insert(key)
    table = CuckooHashTable(16)
    table.insert_many(list(range(100)), list(range(100)))
    chained_table = ChainedCuckooHashTable(16)
    for key in range(50):
        chained_table.add(key, key % 7)
    matrix = SlotMatrix(8, 4)
    matrix.try_add(0, 1)
    return (
        [cuckoo, multiset, semisort, table, chained_table, matrix]
        + [_filled_ccf(kind) for kind in ("plain", "chained", "bloom", "mixed")]
        + [_filled_range(), _filled_view()]
        + [_filled_store()]
    )


@pytest.mark.parametrize(
    "container", all_containers(), ids=lambda c: type(c).__name__
)
def test_load_factor_and_repr(container):
    load = container.load_factor()
    assert isinstance(load, float)
    assert 0.0 <= load <= 1.0
    assert load > 0.0, "fixtures fill every container"
    assert "load=" in repr(container), f"{type(container).__name__} repr lacks occupancy"
