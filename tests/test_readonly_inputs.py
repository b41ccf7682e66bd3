"""Read-only inputs: probe kernels never write keys or storage columns.

The mapped-segment engine serves queries over ``writeable=False`` memmapped
columns, so every batch read kernel must be write-free on both its inputs
(key arrays) and the filter's typed storage.  This suite freezes both and
checks bit-identical answers against heap twins — across all five CCF
variants (plain, chained, bloom, mixed, dyadic range wrapper), the plain
cuckoo filter and the multiset — in `test_packed_parity.py` style.

Two freezing modes:

* ``writeable=False`` heap arrays — any in-place write raises immediately;
* real ``np.memmap`` columns loaded from .npy files — the exact storage the
  segment open path produces (for payload variants the typed columns map
  while the sketch rows and row ids stay on the heap, the hybrid the
  kernels must handle).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq, In, Range
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter

SCHEMA = AttributeSchema(["color", "size"])
COLORS = ("red", "green", "blue")
PREDICATES = (None, Eq("color", "red"), In("size", (1, 3, 5)))
KINDS = ("plain", "chained", "bloom", "mixed")

PARAMS = CCFParams(key_bits=12, attr_bits=8, bucket_size=4, max_dupes=2, seed=11)


def _frozen(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.setflags(write=False)
    return view


def _freeze_columns(ccf) -> None:
    """Mark every typed storage column of a CCF read-only, in place."""
    for column in (ccf.buckets.fps, ccf.buckets.counts, ccf._avecs, ccf._flags):
        column.setflags(write=False)


def _map_columns(ccf, tmp_path, tag: str) -> None:
    """Swap a CCF's typed columns for read-only memmaps of themselves."""
    loaded = {}
    for label, array in (
        ("fps", ccf.buckets.fps),
        ("counts", ccf.buckets.counts),
        ("avecs", ccf._avecs),
        ("flags", ccf._flags),
    ):
        path = tmp_path / f"{tag}-{label}.npy"
        np.save(path, np.asarray(array))
        loaded[label] = np.load(path, mmap_mode="r")
    ccf.buckets = SlotMatrix.from_columns(
        loaded["fps"],
        loaded["counts"],
        fp_bits=ccf.params.key_bits if ccf.params.packed else None,
    )
    ccf._avecs = loaded["avecs"]
    ccf._flags = loaded["flags"]


def _build(kind: str, rows) -> object:
    params = PARAMS.replace(max_chain=4 if kind == "chained" else None)
    ccf = make_ccf(kind, SCHEMA, 128, params)
    for key, color, size in rows:
        ccf.insert(key, (color, size))
    return ccf


ROWS = [(k % 90, COLORS[k % 3], k % 9) for k in range(300)]
PROBES = np.arange(200, dtype=np.int64)


class TestReadonlyKeyArrays:
    @pytest.mark.parametrize("kind", KINDS)
    def test_query_many_accepts_frozen_keys(self, kind):
        ccf = _build(kind, ROWS)
        frozen = _frozen(PROBES)
        for predicate in PREDICATES:
            assert (
                ccf.query_many(frozen, predicate).tolist()
                == ccf.query_many(PROBES, predicate).tolist()
            )
        assert (
            ccf.contains_key_many(frozen).tolist()
            == ccf.contains_key_many(PROBES).tolist()
        )

    def test_cuckoo_and_multiset_accept_frozen_keys(self):
        cuckoo = CuckooFilter(64, 4, 12, seed=2)
        multiset = MultisetCuckooFilter(64, 4, 12, seed=2)
        keys = np.arange(150, dtype=np.int64) % 60
        cuckoo.insert_many(keys)
        multiset.insert_many(keys)
        frozen = _frozen(PROBES)
        assert (
            cuckoo.contains_many(frozen).tolist()
            == cuckoo.contains_many(PROBES).tolist()
        )
        assert (
            multiset.count_many(frozen).tolist()
            == multiset.count_many(PROBES).tolist()
        )
        assert (
            multiset.contains_many(frozen).tolist()
            == multiset.contains_many(PROBES).tolist()
        )


class TestReadonlyStorageColumns:
    @pytest.mark.parametrize("kind", KINDS)
    def test_query_many_over_frozen_columns(self, kind):
        heap = _build(kind, ROWS)
        frozen = _build(kind, ROWS)
        _freeze_columns(frozen)
        for predicate in PREDICATES:
            assert (
                frozen.query_many(PROBES, predicate).tolist()
                == heap.query_many(PROBES, predicate).tolist()
            )
        for key in range(0, 120, 7):
            assert frozen.query(key) == heap.query(key)

    def test_range_wrapper_over_frozen_columns(self):
        rows = [(k % 50, COLORS[k % 3], k % 40) for k in range(200)]
        heap = DyadicRangeCCF("chained", SCHEMA, "size", (0, 63), 128, PARAMS)
        frozen = DyadicRangeCCF("chained", SCHEMA, "size", (0, 63), 128, PARAMS)
        for key, color, size in rows:
            heap.insert(key, (color, size))
            frozen.insert(key, (color, size))
        _freeze_columns(frozen.inner)
        for predicate in (None, Range("size", 3, 17), Eq("color", "red")):
            assert (
                frozen.query_many(PROBES, predicate).tolist()
                == heap.query_many(PROBES, predicate).tolist()
            )


class TestMemmappedStorageColumns:
    @pytest.mark.parametrize("kind", KINDS)
    def test_query_many_over_mapped_columns(self, kind, tmp_path):
        heap = _build(kind, ROWS)
        mapped = _build(kind, ROWS)
        _map_columns(mapped, tmp_path, kind)
        assert isinstance(mapped.buckets.fps, np.memmap)
        assert not mapped.buckets.fps.flags.writeable
        for predicate in PREDICATES:
            assert (
                mapped.query_many(PROBES, predicate).tolist()
                == heap.query_many(PROBES, predicate).tolist()
            )

    def test_range_wrapper_over_mapped_columns(self, tmp_path):
        rows = [(k % 50, COLORS[k % 3], k % 40) for k in range(200)]
        heap = DyadicRangeCCF("chained", SCHEMA, "size", (0, 63), 128, PARAMS)
        mapped = DyadicRangeCCF("chained", SCHEMA, "size", (0, 63), 128, PARAMS)
        for key, color, size in rows:
            heap.insert(key, (color, size))
            mapped.insert(key, (color, size))
        _map_columns(mapped.inner, tmp_path, "range")
        for predicate in (None, Range("size", 3, 17), Eq("color", "red")):
            assert (
                mapped.query_many(PROBES, predicate).tolist()
                == heap.query_many(PROBES, predicate).tolist()
            )

    def test_cuckoo_and_multiset_over_mapped_columns(self, tmp_path):
        keys = np.arange(150, dtype=np.int64) % 60
        heap_cuckoo = CuckooFilter(64, 4, 12, seed=2)
        mapped_cuckoo = CuckooFilter(64, 4, 12, seed=2)
        heap_multi = MultisetCuckooFilter(64, 4, 12, seed=2)
        mapped_multi = MultisetCuckooFilter(64, 4, 12, seed=2)
        for heap, mapped, tag in (
            (heap_cuckoo, mapped_cuckoo, "ckf"),
            (heap_multi, mapped_multi, "mset"),
        ):
            heap.insert_many(keys)
            mapped.insert_many(keys)
            fps_path = tmp_path / f"{tag}-fps.npy"
            counts_path = tmp_path / f"{tag}-counts.npy"
            np.save(fps_path, np.asarray(mapped.buckets.fps))
            np.save(counts_path, np.asarray(mapped.buckets.counts))
            mapped.buckets = SlotMatrix.from_columns(
                np.load(fps_path, mmap_mode="r"),
                np.load(counts_path, mmap_mode="r"),
                fp_bits=mapped.buckets.fp_bits,
            )
        assert (
            mapped_cuckoo.contains_many(PROBES).tolist()
            == heap_cuckoo.contains_many(PROBES).tolist()
        )
        assert (
            mapped_multi.count_many(PROBES).tolist()
            == heap_multi.count_many(PROBES).tolist()
        )
        assert (
            mapped_multi.contains_many(PROBES).tolist()
            == heap_multi.contains_many(PROBES).tolist()
        )


@settings(max_examples=8, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=150),
            st.sampled_from(COLORS),
            st.integers(min_value=0, max_value=30),
        ),
        max_size=100,
    ),
    kind=st.sampled_from(KINDS),
)
def test_mapped_columns_match_heap_property(tmp_path_factory, rows, kind):
    """Property: frozen+mapped twins answer every probe like the heap build."""
    tmp_path = tmp_path_factory.mktemp("mapped")
    heap = _build(kind, rows)
    mapped = _build(kind, rows)
    _map_columns(mapped, tmp_path, kind)
    frozen = _build(kind, rows)
    _freeze_columns(frozen)
    probes = np.arange(180, dtype=np.int64)
    frozen_probes = _frozen(probes)
    for predicate in PREDICATES:
        expected = heap.query_many(probes, predicate).tolist()
        assert mapped.query_many(frozen_probes, predicate).tolist() == expected
        assert frozen.query_many(frozen_probes, predicate).tolist() == expected
