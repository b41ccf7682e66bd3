"""Packed (width-adaptive) vs legacy int64 storage: bit-identical behaviour.

DESIGN.md §9's contract: the storage dtype is invisible to every caller.
A filter built with packed uint8/16/32 columns must answer membership,
predicate queries, counts and FPR accounting exactly like its int64
reference twin — across all five CCF variants (plain, chained, bloom,
mixed, and the dyadic range wrapper), through serialize→load round-trips,
and through FilterStore snapshot/open.  Only the storage bytes differ.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import CCF_KINDS, make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq, In, Range
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.ccf.serialize import dumps, loads
from repro.ccf.views import MarkedKeyFilter
from repro.cuckoo.buckets import SlotMatrix, dtype_for_bits, fingerprint_fold
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.store.config import StoreConfig
from repro.store.store import FilterStore

SCHEMA = AttributeSchema(["color", "size"])
COLORS = ("red", "green", "blue")

ROWS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=150),
        st.sampled_from(COLORS),
        st.integers(min_value=0, max_value=30),
    ),
    max_size=100,
)

PREDICATES = (None, Eq("color", "red"), In("size", (1, 3, 5)))


def _twin_params(key_bits: int, seed: int, max_chain=None) -> tuple[CCFParams, CCFParams]:
    base = CCFParams(
        bucket_size=4,
        max_dupes=2,
        key_bits=key_bits,
        attr_bits=5,
        seed=seed,
        max_chain=max_chain,
    )
    return base, base.replace(packed=False)


class TestDtypeSelection:
    def test_minimal_dtype_per_width(self):
        assert SlotMatrix(8, 4, fp_bits=7).fps.dtype == np.uint8
        assert SlotMatrix(8, 4, fp_bits=8).fps.dtype == np.uint8
        assert SlotMatrix(8, 4, fp_bits=12).fps.dtype == np.uint16
        assert SlotMatrix(8, 4, fp_bits=16).fps.dtype == np.uint16
        assert SlotMatrix(8, 4, fp_bits=31).fps.dtype == np.uint32
        assert SlotMatrix(8, 4, fp_bits=63).fps.dtype == np.uint64
        assert SlotMatrix(8, 4).fps.dtype == np.int64  # legacy reference

    def test_in_band_sentinel_and_occupancy_dtype(self):
        packed = SlotMatrix(8, 4, fp_bits=12)
        assert packed.empty == np.iinfo(np.uint16).max
        assert packed.counts.dtype == np.uint8
        legacy = SlotMatrix(8, 4)
        assert legacy.empty == -1

    def test_sentinel_collision_rejected(self):
        packed = SlotMatrix(8, 4, fp_bits=8)
        with pytest.raises(ValueError):
            packed.try_add(0, 255)  # the reserved all-ones fingerprint
        with pytest.raises(ValueError):
            packed.set_slot(0, 0, 256)  # wider than the storage

    @pytest.mark.parametrize("fbits", [7, 8, 12, 16])
    def test_packed_fingerprint_bytes_at_most_quarter_of_int64(self, fbits):
        packed = CuckooFilter(64, 4, fbits, seed=0)
        legacy = CuckooFilter(64, 4, fbits, seed=0, packed=False)
        assert packed.buckets.fingerprint_bytes() * 4 <= legacy.buckets.fingerprint_bytes()
        assert packed.buckets.bytes_per_slot <= 2

    def test_fingerprint_fold_boundary_widths_only(self):
        assert fingerprint_fold(8) == 255
        assert fingerprint_fold(16) == (1 << 16) - 1
        assert fingerprint_fold(32) == (1 << 32) - 1
        assert fingerprint_fold(7) is None
        assert fingerprint_fold(12) is None
        assert fingerprint_fold(62) is None

    def test_boundary_width_never_emits_the_sentinel(self):
        cuckoo = CuckooFilter(64, 4, 8, seed=1)
        keys = np.arange(20000)
        fps = cuckoo.fingerprints_of_many(keys)
        assert fps.max() < 255
        assert fps[:500].tolist() == [cuckoo.fingerprint_of(int(k)) for k in keys[:500]]
        assert dtype_for_bits(8) == np.uint8


@pytest.mark.parametrize("fbits", [7, 8, 12])
@settings(max_examples=15, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=120),
    seed=st.integers(min_value=0, max_value=4),
)
def test_cuckoo_filter_packed_matches_int64(fbits, keys, seed):
    packed = CuckooFilter(32, 4, fbits, seed=seed)
    legacy = CuckooFilter(32, 4, fbits, seed=seed, packed=False)
    assert packed.insert_many(keys).tolist() == legacy.insert_many(keys).tolist()
    probes = list(keys) + list(range(80))
    assert packed.contains_many(probes).tolist() == legacy.contains_many(probes).tolist()
    assert packed.num_items == legacy.num_items
    assert packed.stash == legacy.stash
    assert packed.failed == legacy.failed
    assert packed.expected_fpr() == legacy.expected_fpr()
    assert packed.size_in_bits() == legacy.size_in_bits()  # paper accounting
    victims = keys[::2]
    assert packed.delete_many(victims).tolist() == legacy.delete_many(victims).tolist()
    assert packed.contains_many(probes).tolist() == legacy.contains_many(probes).tolist()
    # The typed matrices hold the same logical content at different widths.
    assert (
        np.where(packed.buckets.occupied_mask(), packed.buckets.fps.astype(np.int64), -1).tolist()
        == np.where(legacy.buckets.occupied_mask(), legacy.buckets.fps.astype(np.int64), -1).tolist()
    )


@settings(max_examples=15, deadline=None)
@given(
    keys=st.lists(st.integers(min_value=0, max_value=40), max_size=100),
    seed=st.integers(min_value=0, max_value=4),
)
def test_multiset_packed_matches_int64(keys, seed):
    packed = MultisetCuckooFilter(16, 4, 10, seed=seed)
    legacy = MultisetCuckooFilter(16, 4, 10, seed=seed, packed=False)
    assert packed.insert_many(keys).tolist() == legacy.insert_many(keys).tolist()
    probes = list(range(60))
    assert packed.count_many(probes).tolist() == legacy.count_many(probes).tolist()
    victims = keys[::3]
    assert packed.delete_many(victims).tolist() == legacy.delete_many(victims).tolist()
    assert packed.count_many(probes).tolist() == legacy.count_many(probes).tolist()


@pytest.mark.parametrize("kind", sorted(CCF_KINDS))
@pytest.mark.parametrize("key_bits", [8, 12])
@settings(max_examples=10, deadline=None)
@given(rows=ROWS, seed=st.integers(min_value=0, max_value=3))
def test_ccf_packed_matches_int64(kind, key_bits, rows, seed):
    """Packed uint8/uint16 CCFs are bit-identical to the int64 reference.

    key_bits=8 exercises the boundary-width sentinel fold; the undersized
    table exercises stash/failure/chain-discard states too.
    """
    packed_params, legacy_params = _twin_params(
        key_bits, seed, max_chain=4 if kind == "chained" else None
    )
    packed = make_ccf(kind, SCHEMA, 32, packed_params)
    legacy = make_ccf(kind, SCHEMA, 32, legacy_params)

    keys = np.array([k for k, _c, _s in rows], dtype=np.int64)
    colors = [c for _k, c, _s in rows]
    sizes = np.array([s for _k, _c, s in rows], dtype=np.int64)
    assert (
        packed.insert_many(keys, [colors, sizes]).tolist()
        == legacy.insert_many(keys, [colors, sizes]).tolist()
    )
    assert packed.num_rows_inserted == legacy.num_rows_inserted
    assert packed.num_rows_discarded == legacy.num_rows_discarded
    assert packed.num_entries == legacy.num_entries
    assert packed.failed == legacy.failed
    assert packed.size_in_bits() == legacy.size_in_bits()

    probes = np.arange(200, dtype=np.int64)
    for predicate in PREDICATES:
        assert (
            packed.query_many(probes, predicate).tolist()
            == legacy.query_many(probes, predicate).tolist()
        )

    # Serialisation: the packed payload round-trips to identical answers,
    # and both storage modes round-trip their own dtype tag.
    for original in (packed, legacy):
        clone = loads(dumps(original))
        assert clone.params.packed == original.params.packed
        assert clone.buckets.fps.dtype == original.buckets.fps.dtype
        for predicate in PREDICATES:
            assert (
                clone.query_many(probes, predicate).tolist()
                == original.query_many(probes, predicate).tolist()
            )

    # Deletion parity where supported (plain CCFs).
    if packed.supports_deletion:
        victims = rows[::2]
        for key, color, size in victims:
            assert packed.delete(key, (color, size)) == legacy.delete(key, (color, size))
        for predicate in PREDICATES:
            assert (
                packed.query_many(probes, predicate).tolist()
                == legacy.query_many(probes, predicate).tolist()
            )


@settings(max_examples=8, deadline=None)
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
def test_range_ccf_packed_matches_int64(rows, kind):
    packed_params, legacy_params = _twin_params(12, 3)
    packed = DyadicRangeCCF(kind, SCHEMA, "size", (0, 63), 256, packed_params)
    legacy = DyadicRangeCCF(kind, SCHEMA, "size", (0, 63), 256, legacy_params)
    for key, color, size in rows:
        assert packed.insert(key, (color, size)) == legacy.insert(key, (color, size))
    probes = np.arange(80, dtype=np.int64)
    for predicate in (None, Range("size", 3, 17), Eq("color", "red")):
        assert (
            packed.query_many(probes, predicate).tolist()
            == legacy.query_many(probes, predicate).tolist()
        )
    clone = loads(dumps(packed))
    for predicate in (None, Range("size", 3, 17)):
        assert (
            clone.query_many(probes, predicate).tolist()
            == packed.query_many(probes, predicate).tolist()
        )


@pytest.mark.parametrize("kind,view_cls", [("mixed", CuckooFilter), ("chained", MarkedKeyFilter)])
def test_views_packed_matches_int64(kind, view_cls):
    packed_params, legacy_params = _twin_params(8, 5, max_chain=4 if kind == "chained" else None)
    rows = [(k % 40, COLORS[k % 3], k % 9) for k in range(160)]
    packed = make_ccf(kind, SCHEMA, 32, packed_params)
    legacy = make_ccf(kind, SCHEMA, 32, legacy_params)
    for key, color, size in rows:
        packed.insert(key, (color, size))
        legacy.insert(key, (color, size))
    predicate = Eq("color", "red")
    packed_view = packed.predicate_filter(predicate)
    legacy_view = legacy.predicate_filter(predicate)
    assert type(packed_view) is view_cls and type(legacy_view) is view_cls
    assert packed_view.buckets.fps.dtype == np.uint8
    assert legacy_view.buckets.fps.dtype == np.int64
    probes = np.arange(120)
    assert packed_view.contains_many(probes).tolist() == legacy_view.contains_many(probes).tolist()
    # Views round-trip through the tagged wire format at their own dtype.
    clone = loads(dumps(packed_view))
    assert clone.buckets.fps.dtype == np.uint8
    assert clone.contains_many(probes).tolist() == packed_view.contains_many(probes).tolist()


@pytest.mark.parametrize("packed", [True, False])
def test_filter_store_packed_parity_and_snapshot(tmp_path, packed):
    """The FilterStore answers identically under packed and int64 levels,
    and snapshot/open preserves the packed storage mode."""
    params = CCFParams(bucket_size=4, max_dupes=2, key_bits=10, attr_bits=5, seed=2, packed=packed)
    config = StoreConfig(num_shards=2, level_buckets=64, target_load=0.8, seed=9)
    store = FilterStore(SCHEMA, params, config)
    rng = np.random.default_rng(4)
    keys = rng.integers(0, 500, 600)
    colors = [COLORS[int(k) % 3] for k in keys]
    sizes = (keys % 20).astype(np.int64)
    store.insert_many(keys, [colors, sizes])
    store.delete_many(keys[::5], [colors[::5], sizes[::5]])

    probes = np.arange(700)
    want_plain = store.query_many(probes).tolist()
    want_pred = store.query_many(probes, Eq("color", "red")).tolist()

    stats = store.stats()
    assert stats["bytes_per_slot"] == (2 if packed else 8)
    assert stats["fingerprint_dtype"] == ("uint16" if packed else "int64")

    store.snapshot(tmp_path / "snap")
    reopened = FilterStore.open(tmp_path / "snap")
    assert reopened.params.packed == packed
    assert reopened.query_many(probes).tolist() == want_plain
    assert reopened.query_many(probes, Eq("color", "red")).tolist() == want_pred


def test_filter_store_packed_vs_int64_answers_equal():
    params = CCFParams(bucket_size=4, max_dupes=2, key_bits=10, attr_bits=5, seed=2)
    config = StoreConfig(num_shards=2, level_buckets=64, target_load=0.8, compact_at=3, seed=9)
    twins = [
        FilterStore(SCHEMA, params.replace(packed=flag), config) for flag in (True, False)
    ]
    rng = np.random.default_rng(11)
    keys = rng.integers(0, 400, 500)
    colors = [COLORS[int(k) % 3] for k in keys]
    sizes = (keys % 20).astype(np.int64)
    for store in twins:
        store.insert_many(keys, [colors, sizes])
        store.delete_many(keys[1::4], [colors[1::4], sizes[1::4]])
        store.compact()
    probes = np.arange(600)
    packed_store, legacy_store = twins
    assert (
        packed_store.query_many(probes).tolist() == legacy_store.query_many(probes).tolist()
    )
    assert (
        packed_store.query_many(probes, In("size", (1, 3, 5))).tolist()
        == legacy_store.query_many(probes, In("size", (1, 3, 5))).tolist()
    )
