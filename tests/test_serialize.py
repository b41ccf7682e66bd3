"""Round-trip tests for filter serialisation (the §2 'precompute and store'
deployment model)."""

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import build_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq
from repro.ccf.serialize import SerializeError, dumps, loads
from repro.cuckoo.filter import CuckooFilter
from repro.sketches.bitpack import BitWriter

from tests.conftest import ccf_state, random_rows

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(bucket_size=6, max_dupes=3, key_bits=12, attr_bits=8, seed=101)


def assert_same_answers(original, restored, rows, probe_range=range(50_000, 50_500)):
    for key, (color, size) in rows:
        predicate = And([Eq("color", color), Eq("size", size)])
        assert restored.query(key, predicate) == original.query(key, predicate)
    for key in probe_range:
        assert restored.query(key, Eq("color", "red")) == original.query(key, Eq("color", "red"))
        assert restored.contains_key(key) == original.contains_key(key)


class TestCCFRoundTrips:
    @pytest.mark.parametrize("kind", ["chained", "bloom", "mixed"])
    def test_behavioural_equality(self, kind):
        rows = random_rows(300, 8, seed=1)
        ccf = build_ccf(kind, SCHEMA, rows, PARAMS)
        restored = loads(dumps(ccf))
        assert type(restored) is type(ccf)
        assert restored.num_entries == ccf.num_entries
        assert restored.size_in_bits() == ccf.size_in_bits()
        assert_same_answers(ccf, restored, rows)

    @pytest.mark.parametrize("kind", ["chained", "bloom", "mixed"])
    def test_deterministic_reserialisation(self, kind):
        rows = random_rows(150, 5, seed=2)
        ccf = build_ccf(kind, SCHEMA, rows, PARAMS)
        payload = dumps(ccf)
        assert dumps(loads(payload)) == payload

    def test_counters_preserved(self):
        rows = random_rows(200, 6, seed=3)
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        restored = loads(dumps(ccf))
        assert restored.num_rows_inserted == ccf.num_rows_inserted
        assert restored.num_conversions == ccf.num_conversions
        assert restored.num_absorbed == ccf.num_absorbed
        assert restored.failed == ccf.failed

    def test_mixed_groups_shared_after_restore(self):
        """A converted group's slots must point at one shared payload."""
        ccf = build_ccf("mixed", SCHEMA, [(1, ("a", i)) for i in range(20)], PARAMS)
        restored = loads(dumps(ccf))
        groups = restored._payload_rows[restored._payload_rows >= 0]
        assert len(set(groups.tolist())) == 1 and len(groups) == PARAMS.max_dupes
        restored.check_invariants()
        # Inserts into the restored filter keep absorbing into the group.
        restored.insert(1, ("a", 999))
        assert restored.query(1, Eq("size", 999))

    def test_overloaded_filter_with_stash(self):
        params = PARAMS.replace(bucket_size=2, max_dupes=2, max_kicks=8)
        from repro.ccf.chained import ChainedCCF

        ccf = ChainedCCF(SCHEMA, 4, params)
        rows = [(key, ("c", key)) for key in range(120)]
        for key, attrs in rows:
            ccf.insert(key, attrs)
        assert ccf.stash
        restored = loads(dumps(ccf))
        assert len(restored.stash) == len(ccf.stash)
        assert_same_answers(ccf, restored, rows)

    @pytest.mark.parametrize("kind", ["plain", "chained", "bloom", "mixed"])
    def test_overload_round_trip_every_variant(self, kind):
        """Columnar round-trip after overload: non-empty stash, failed flag.

        Every variant is driven past capacity so the wire format carries a
        populated stash (vector, Bloom, or group entries) alongside the
        packed slot columns, and both the behavioural and byte-determinism
        contracts must still hold.
        """
        from repro.ccf.factory import make_ccf

        params = PARAMS.replace(bucket_size=2, max_dupes=2, max_kicks=6)
        ccf = make_ccf(kind, SCHEMA, 4, params)
        rows = [(key, ("c", key % 40)) for key in range(150)]
        for key, attrs in rows:
            ccf.insert(key, attrs)
        assert ccf.failed and ccf.stash, f"{kind} did not overload as intended"
        payload = dumps(ccf)
        restored = loads(payload)
        assert len(restored.stash) == len(ccf.stash)
        assert restored.failed
        assert restored.num_entries == ccf.num_entries
        assert_same_answers(ccf, restored, rows)
        assert dumps(restored) == payload

    @pytest.mark.parametrize("kind", ["plain", "chained", "bloom", "mixed"])
    def test_round_trip_preserves_columnar_state(self, kind):
        """The typed columns themselves survive the wire, not just answers."""
        import numpy as np

        rows = random_rows(120, 6, seed=11)
        ccf = build_ccf(kind, SCHEMA, rows, PARAMS)
        restored = loads(dumps(ccf))
        assert np.array_equal(restored.buckets.fps, ccf.buckets.fps)
        assert np.array_equal(restored._avecs, ccf._avecs)
        assert np.array_equal(restored._flags, ccf._flags)
        assert restored.buckets.counts.tolist() == ccf.buckets.counts.tolist()
        assert ccf_state(restored)["sketches"] == ccf_state(ccf)["sketches"]

    @pytest.mark.parametrize(
        "kind, num_keys", [("plain", 65), ("chained", 65), ("bloom", 135), ("mixed", 80)]
    )
    def test_reloaded_filter_kicks_like_the_original(self, kind, num_keys):
        """CCF4 carries `num_kicks`, the victim stream's position, so a
        reloaded filter fed the original's next rows ends bit-identical."""
        from repro.ccf.factory import make_ccf

        params = PARAMS.replace(bucket_size=4, max_dupes=2, max_kicks=40)
        ccf = make_ccf(kind, SCHEMA, 32, params)
        rows = random_rows(num_keys, 3, seed=7)
        split = len(rows) * 2 // 3
        for key, attrs in rows[:split]:
            ccf.insert(key, attrs)
        assert ccf.num_kicks > 0
        restored = loads(dumps(ccf))
        for key, attrs in rows[split:]:
            assert restored.insert(key, attrs) == ccf.insert(key, attrs)
        assert ccf.stash, f"{kind} did not overload as intended"
        assert ccf_state(restored) == ccf_state(ccf)

    def test_group_stashed_whole_round_trips(self):
        """Kicks can stash every slot of a converted group; the group must
        still reach the wire."""
        ccf = build_ccf("mixed", SCHEMA, [(1, ("a", i)) for i in range(20)], PARAMS)
        for bucket, slot in zip(*np.nonzero(ccf._payload_rows >= 0)):
            fp, row = int(ccf.buckets.fps[bucket, slot]), int(ccf._payload_rows[bucket, slot])
            ccf._clear_entry(bucket, slot)
            pair = ccf.geometry.pair_id(int(bucket), fp)
            ccf.stash.append(fp, pair, avecs=ccf._avec_fill, rows=row)
        assert ccf.stash
        restored = loads(dumps(ccf))
        assert ccf_state(restored) == ccf_state(ccf)
        assert restored.query(1, Eq("size", 7))

    def test_size_on_wire_tracks_size_in_bits(self):
        rows = random_rows(400, 4, seed=4)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        payload = dumps(ccf)
        # Occupancy tags cost 2 bits/slot beyond the logical size; headers
        # are small.  The wire format must not balloon.
        logical = ccf.size_in_bits()
        assert len(payload) * 8 < logical + 2 * ccf.buckets.capacity + 1024

    def test_restored_filter_accepts_new_inserts(self):
        rows = random_rows(100, 3, seed=5)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        restored = loads(dumps(ccf))
        restored.insert(99_999, ("new", 1))
        assert restored.query(99_999, Eq("color", "new"))
        restored.check_invariants()


class TestViewRoundTrips:
    def test_marked_view(self):
        rows = random_rows(200, 6, seed=6)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        view = ccf.predicate_filter(Eq("color", "red"))
        restored = loads(dumps(view))
        for key in list(range(200)) + list(range(9_000, 9_300)):
            assert restored.contains(key) == view.contains(key)
        assert restored.size_in_bits() == view.size_in_bits()

    def test_extracted_view(self):
        rows = random_rows(200, 4, seed=7)
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS)
        view = ccf.predicate_filter(Eq("color", "blue"))
        restored = loads(dumps(view))
        for key in list(range(200)) + list(range(9_000, 9_300)):
            assert restored.contains(key) == view.contains(key)

    def test_view_wire_size_much_smaller_than_source(self):
        rows = random_rows(400, 5, seed=8)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        view_payload = dumps(ccf.predicate_filter(Eq("color", "red")))
        ccf_payload = dumps(ccf)
        assert len(view_payload) < len(ccf_payload)


class TestRangeCCFRoundTrip:
    """The fifth variant: the dyadic range wrapper round-trips whole."""

    @pytest.mark.parametrize("kind", ["chained", "bloom", "mixed"])
    def test_behavioural_equality(self, kind):
        from repro.ccf.predicates import Range
        from repro.ccf.range_ccf import DyadicRangeCCF

        rows = [(key, ("c", key % 64)) for key in range(200)]
        wrapper = DyadicRangeCCF(kind, SCHEMA, "size", (0, 63), 512, PARAMS)
        for key, attrs in rows:
            wrapper.insert(key, attrs)
        payload = dumps(wrapper)
        restored = loads(payload)
        assert type(restored) is DyadicRangeCCF
        assert restored.inner.kind == kind
        assert restored.num_rows_inserted == wrapper.num_rows_inserted
        assert restored.num_levels == wrapper.num_levels
        probes = list(range(250))
        for predicate in (None, Range("size", 5, 20), Eq("color", "c")):
            for key in probes:
                assert restored.query(key, predicate) == wrapper.query(key, predicate)
        assert dumps(restored) == payload

    def test_overloaded_wrapper_round_trips(self):
        from repro.ccf.range_ccf import DyadicRangeCCF

        params = PARAMS.replace(bucket_size=2, max_dupes=2, max_kicks=6)
        wrapper = DyadicRangeCCF("chained", SCHEMA, "size", (0, 63), 4, params)
        for key in range(80):
            wrapper.insert(key, ("c", key % 64))
        assert wrapper.inner.stash
        restored = loads(dumps(wrapper))
        for key in range(120):
            assert restored.contains_key(key) == wrapper.contains_key(key)


class TestCuckooFilterRoundTrip:
    def test_behavioural_equality(self):
        cuckoo = CuckooFilter(256, 4, 12, seed=9)
        for key in range(700):
            cuckoo.insert(key)
        restored = loads(dumps(cuckoo))
        for key in range(2000):
            assert restored.contains(key) == cuckoo.contains(key)
        assert restored.num_items == cuckoo.num_items
        assert restored.load_factor() == cuckoo.load_factor()

    def test_restored_supports_delete(self):
        cuckoo = CuckooFilter(64, 4, 12, seed=10)
        cuckoo.insert("key")
        restored = loads(dumps(cuckoo))
        assert restored.delete("key")
        assert "key" not in restored

    def test_round_trip_after_delete_induced_holes(self):
        """Holes from deletions survive the columnar occupancy bitmap.

        Deletions leave mid-bucket gaps in the slot matrix; the packed
        occupancy column must reproduce exactly those gaps (slot positions,
        not just counts), byte-deterministically.
        """
        import numpy as np

        cuckoo = CuckooFilter(32, 4, 12, seed=11)
        keys = list(range(90))
        cuckoo.insert_many(keys)
        cuckoo.delete_many(keys[::3])  # punch holes throughout
        payload = dumps(cuckoo)
        restored = loads(payload)
        assert np.array_equal(restored.buckets.fps, cuckoo.buckets.fps)
        assert restored.buckets.counts.tolist() == cuckoo.buckets.counts.tolist()
        assert restored.num_items == cuckoo.num_items
        for key in range(150):
            assert restored.contains(key) == cuckoo.contains(key)
        assert dumps(restored) == payload

    def test_reloaded_filter_kicks_like_the_original(self):
        """CKF6 carries the victim stream's position, so a reloaded filter
        fed the original's next keys ends bit-identical."""
        cuckoo = CuckooFilter(256, 4, 12, seed=3)
        cuckoo.insert_many(range(900))
        assert cuckoo._wave_victim_counter > 0
        restored = loads(dumps(cuckoo))
        more = range(900, 1010)
        assert restored.insert_many(more).tolist() == cuckoo.insert_many(more).tolist()
        assert cuckoo.stash, "the filter did not overload as intended"
        assert restored.buckets.state() == cuckoo.buckets.state()
        assert restored.stash == cuckoo.stash
        assert restored._wave_victim_counter == cuckoo._wave_victim_counter

    def test_semisorted_filter_is_refused(self):
        """The semi-sorted filter folds fingerprint 0 to 1: shipped as a
        plain CKF6 payload it would reload probing for 0 and miss the
        stored 1, a false negative."""
        from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter

        with pytest.raises(TypeError):
            dumps(SemiSortedCuckooFilter(16))

    def test_round_trip_after_overload_with_stash(self):
        cuckoo = CuckooFilter(2, 2, 10, max_kicks=4, seed=12)
        keys = list(range(25))
        cuckoo.insert_many(keys)
        assert cuckoo.failed and cuckoo.stash
        restored = loads(dumps(cuckoo))
        assert restored.stash == cuckoo.stash
        assert restored.failed
        for key in keys:
            assert key in restored


class TestErrors:
    """Every decode failure is a typed SerializeError with context — never a
    raw EOFError/struct.error/KeyError out of the bit-packing layer."""

    def _payload(self):
        return dumps(build_ccf("plain", SCHEMA, random_rows(60, 4, seed=4), PARAMS))

    # The pre-dtype-tag wire formats (CCF2/CKF2/CCV2/CRF1), CKF3, which
    # dropped the cuckoo filter's victim-stream position, and CKF4, which
    # hashed under salts of its own, are retired and refused like any other
    # unknown magic.
    @pytest.mark.parametrize(
        "magic", ["XXXX", "CCF2", "CKF2", "CKF3", "CKF4", "CCV2", "CRF1"]
    )
    def test_unknown_magic(self, magic):
        with pytest.raises(SerializeError, match="magic"):
            loads(magic.encode() + b"\x00\x00")

    def test_extracted_view_payload_is_refused(self):
        """An extracted key filter ships as a CKF6 cuckoo filter; CCV3,
        whose extracted-view type is retired too, is refused by name."""
        writer = BitWriter()
        writer.write_bytes(b"CCV3")
        writer.write(0, 8)  # the extracted-view type
        writer.write(2, 8)  # uint16 storage for 12-bit fingerprints
        writer.write(4, 32)  # buckets
        writer.write(12, 8)  # key bits
        writer.write(0, 64)  # seed
        writer.write(4, 8)  # bucket size
        writer.write_bool_array(np.zeros(16, dtype=bool))
        writer.write(0, 16)  # empty stash
        with pytest.raises(SerializeError, match="CCV3"):
            loads(writer.getvalue(), source="view.bin")

    @pytest.mark.parametrize(
        "magic, successor", [("CCF3", "CCF4"), ("CCV3", "CCV4"), ("CKF5", "CKF6")]
    )
    def test_formats_without_stash_pairs_are_refused_by_name(self, magic, successor):
        """A stash entry without its bucket pair can answer for no key, so
        the formats that recorded none are refused with their names."""
        with pytest.raises(SerializeError, match=f"{magic}.*no bucket pair.*{successor}"):
            loads(magic.encode() + b"\x00" * 64, source="old.bin")

    def test_unknown_magic_is_still_a_value_error(self):
        # Backward compatibility: SerializeError subclasses ValueError.
        with pytest.raises(ValueError):
            loads(b"XXXX\x00\x00")

    def test_unsupported_type(self):
        with pytest.raises(TypeError):
            dumps({"not": "a filter"})

    def test_too_short_for_magic(self):
        with pytest.raises(SerializeError, match="too short"):
            loads(b"CC")

    @pytest.mark.parametrize("keep", [5, 12, 40, 200])
    def test_truncated_ccf_payload(self, keep):
        payload = self._payload()
        assert keep < len(payload)
        with pytest.raises(SerializeError, match="truncated or corrupt"):
            loads(payload[:keep])

    def test_truncated_cuckoo_payload(self):
        cuckoo = CuckooFilter(64, 4, 12, seed=9)
        cuckoo.insert_many(list(range(100)))
        payload = dumps(cuckoo)
        with pytest.raises(SerializeError, match="truncated or corrupt"):
            loads(payload[: len(payload) // 2])

    def test_corrupt_kind_byte(self):
        payload = bytearray(self._payload())
        payload[4] = 0xEE  # kind code: no such variant
        with pytest.raises(SerializeError, match="truncated or corrupt"):
            loads(bytes(payload))

    def test_error_carries_source_and_offset(self):
        payload = self._payload()
        with pytest.raises(SerializeError) as excinfo:
            loads(payload[:40], source="levels/shard-0.ccf")
        err = excinfo.value
        assert err.source == "levels/shard-0.ccf"
        assert err.offset is not None and err.offset > 0
        assert err.offset_unit == "bits"
        assert "levels/shard-0.ccf" in str(err)
        assert "offset" in str(err)

    def test_intact_payload_still_loads_with_source(self):
        payload = self._payload()
        restored = loads(payload, source="anywhere")
        assert dumps(restored) == payload
