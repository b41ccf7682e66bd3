"""SEG1 segment files: zero-copy round trips, CoW promotion, corruption.

The mapped-segment contract (DESIGN.md §10): a level written with
`write_segment` and reopened with `open_segment` answers every delete-free
read bit-identically to the in-memory filter, its columns are read-only
``np.memmap`` views (no slot data deserialised at open), the first mutation
promotes the filter to private heap copies without ever writing the file,
and every structural defect in a file surfaces as a typed
:class:`SerializeError` carrying file/offset context.
"""

from __future__ import annotations

import hashlib
import json
import struct

import numpy as np
import numpy.lib.format as npy_format
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.mmapio import (
    COLUMN_NAMES,
    PAGE_SIZE,
    map_column,
    open_segment,
    read_segment_meta,
    segment_nbytes,
    write_segment,
)
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq, In
from repro.ccf.serialize import SerializeError

from tests.conftest import ccf_state

SCHEMA = AttributeSchema(["color", "size"])
COLORS = ("red", "green", "blue")

PREDICATES = (None, Eq("color", "red"), In("size", (1, 3, 5)))


def _filled(kind: str, params: CCFParams, num_buckets: int = 256, n: int = 500):
    ccf = make_ccf(kind, SCHEMA, num_buckets, params)
    keys = np.arange(n, dtype=np.int64)
    columns = [np.array(COLORS, dtype=object)[keys % 3], keys % 7]
    ccf.insert_many(keys, columns)
    return ccf


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _replace_meta(path, payload: bytes) -> None:
    """Swap a segment's metadata tail for ``payload``; restamp the prelude."""
    raw = path.read_bytes()
    meta_offset = struct.unpack_from("<Q", raw, 8)[0]
    data = bytearray(raw[:meta_offset] + payload)
    struct.pack_into("<QQ", data, 8, meta_offset, len(payload))
    path.write_bytes(bytes(data))


def _rewrite_meta(path, mutate) -> None:
    """Apply ``mutate`` to the parsed JSON tail and restamp the prelude."""
    raw = path.read_bytes()
    meta_offset, meta_length = struct.unpack_from("<QQ", raw, 8)
    meta = json.loads(raw[meta_offset : meta_offset + meta_length].decode())
    mutate(meta)
    _replace_meta(path, json.dumps(meta, sort_keys=True).encode())


PARAMS = CCFParams(key_bits=12, attr_bits=8, bucket_size=4, seed=3)


class TestRoundTrip:
    @pytest.mark.parametrize("kind", ["plain", "chained"])
    @pytest.mark.parametrize("packed", [True, False])
    def test_query_parity_all_predicates(self, tmp_path, kind, packed):
        params = PARAMS.replace(packed=packed, max_chain=4 if kind == "chained" else None)
        ccf = _filled(kind, params)
        mapped = open_segment(write_segment(ccf, tmp_path / "level.seg"))
        probes = np.arange(1200, dtype=np.int64)
        for predicate in PREDICATES:
            assert (
                mapped.query_many(probes, predicate).tolist()
                == ccf.query_many(probes, predicate).tolist()
            )
        assert (
            mapped.contains_key_many(probes).tolist()
            == ccf.contains_key_many(probes).tolist()
        )
        for key in (0, 3, 499, 10**6):
            assert mapped.query(key) == ccf.query(key)

    def test_counters_stash_and_geometry_round_trip(self, tmp_path):
        ccf = _filled("plain", PARAMS)
        pair = ccf.geometry.pair_id(3, 7)
        ccf.stash.append(7, pair, avecs=(1, 2), flags=True)
        ccf.num_rows_discarded = 5
        ccf.num_kicks = 42
        mapped = open_segment(write_segment(ccf, tmp_path / "level.seg"))
        assert mapped.num_rows_inserted == ccf.num_rows_inserted
        assert mapped.num_rows_discarded == 5
        assert mapped.num_kicks == 42
        assert mapped.failed == ccf.failed
        [(fp, stashed_pair, (avec, matching, row))] = list(mapped.stash)
        assert (fp, stashed_pair) == (7, pair)
        assert (fp, tuple(avec), matching, row) == (7, (1, 2), True, -1)
        assert mapped.buckets.num_buckets == ccf.buckets.num_buckets
        assert mapped.num_entries == ccf.num_entries
        assert mapped.load_factor() == ccf.load_factor()
        # A stashed entry still answers for its own pair through the mapped
        # filter, scalar and batch alike.
        assert mapped._query_hashed(7, pair, None)
        assert mapped._single_pair_query_many(np.array([7]), np.array([pair]), None).all()

    @pytest.mark.parametrize("kind", ["plain", "chained"])
    def test_reopened_level_kicks_like_the_original(self, tmp_path, kind):
        """The segment meta carries `num_kicks`, the victim stream's
        position, so a reopened filter fed the original's next rows ends
        bit-identical to it."""
        ccf = make_ccf(kind, SCHEMA, 32, PARAMS.replace(max_kicks=40))
        keys = np.arange(140, dtype=np.int64)
        columns = [np.array(COLORS, dtype=object)[keys % 3], keys % 7]
        ccf.insert_many(keys[:100], [column[:100] for column in columns])
        assert ccf.num_kicks > 0
        mapped = open_segment(write_segment(ccf, tmp_path / "level.seg"))
        tail = [column[100:] for column in columns]
        assert (
            mapped.insert_many(keys[100:], tail).tolist()
            == ccf.insert_many(keys[100:], tail).tolist()
        )
        assert ccf.stash
        assert ccf_state(mapped) == ccf_state(ccf)

    def test_payload_variants_are_rejected(self, tmp_path):
        bloom = _filled("bloom", PARAMS.replace(max_dupes=2))
        with pytest.raises(TypeError, match="payload"):
            write_segment(bloom, tmp_path / "level.seg")


class TestZeroCopy:
    def test_columns_are_readonly_memmaps(self, tmp_path):
        ccf = _filled("plain", PARAMS)
        mapped = open_segment(write_segment(ccf, tmp_path / "level.seg"))
        for column in (mapped.buckets.fps, mapped.buckets.counts, mapped._avecs, mapped._flags):
            assert isinstance(column, np.memmap)
            assert not column.flags.writeable
        assert mapped._readonly
        assert mapped.buckets.payloads is None
        mapped_bytes, resident_bytes = mapped.storage_nbytes()
        assert resident_bytes == 0
        assert mapped_bytes == sum(segment_nbytes(read_segment_meta(tmp_path / "level.seg")).values())

    def test_data_blocks_are_page_aligned_npy_streams(self, tmp_path):
        ccf = _filled("plain", PARAMS)
        path = write_segment(ccf, tmp_path / "level.seg")
        meta = read_segment_meta(path)
        with open(path, "rb") as f:
            for name in COLUMN_NAMES:
                spec = meta["columns"][name]
                assert spec["data_offset"] % PAGE_SIZE == 0
                # Each block is a valid standalone .npy stream that numpy's
                # own header parser accepts and whose data starts exactly at
                # the recorded page-aligned offset.
                f.seek(spec["block_offset"])
                assert npy_format.read_magic(f) == (1, 0)
                shape, fortran, dtype = npy_format.read_array_header_1_0(f)
                assert list(shape) == spec["shape"]
                assert not fortran
                assert npy_format.dtype_to_descr(dtype) == spec["dtype"]
                assert f.tell() == spec["data_offset"]

    def test_map_column_reads_occupancy(self, tmp_path):
        ccf = _filled("plain", PARAMS)
        path = write_segment(ccf, tmp_path / "level.seg")
        counts = map_column(path, read_segment_meta(path), "counts")
        assert int(counts.sum()) == ccf.num_entries
        with pytest.raises(SerializeError, match="no column"):
            map_column(path, read_segment_meta(path), "nope")


class TestCopyOnWrite:
    def test_insert_promotes_and_file_is_untouched(self, tmp_path):
        ccf = _filled("plain", PARAMS)
        path = write_segment(ccf, tmp_path / "level.seg")
        before = _digest(path)
        mapped = open_segment(path)
        assert mapped.insert(10**6, ("red", 1))
        assert not isinstance(mapped.buckets.fps, np.memmap)
        assert not mapped._readonly
        assert mapped.buckets.payloads is None  # a CCF keeps no object column
        assert mapped.query(10**6)
        probes = np.arange(1200, dtype=np.int64)
        heap_twin = _filled("plain", PARAMS)
        heap_twin.insert(10**6, ("red", 1))
        assert (mapped.query_many(probes) == heap_twin.query_many(probes)).all()
        assert _digest(path) == before
        # A fresh mapping still sees the pre-mutation level.
        assert not open_segment(path).query(10**6)

    def test_delete_promotes_and_file_is_untouched(self, tmp_path):
        ccf = _filled("plain", PARAMS)
        path = write_segment(ccf, tmp_path / "level.seg")
        before = _digest(path)
        mapped = open_segment(path)
        assert mapped.delete(3, ("red", 3))
        assert not mapped.query(3)
        assert not isinstance(mapped.buckets.fps, np.memmap)
        assert _digest(path) == before
        assert open_segment(path).query(3)

    def test_promoted_filter_serialises_and_resegments(self, tmp_path):
        """Mapped -> promoted -> rewritten segments stay answer-equivalent."""
        ccf = _filled("plain", PARAMS)
        mapped = open_segment(write_segment(ccf, tmp_path / "a.seg"))
        mapped.insert(777777, ("green", 2))
        reopened = open_segment(write_segment(mapped, tmp_path / "b.seg"))
        probes = np.arange(1200, dtype=np.int64)
        assert (reopened.query_many(probes) == mapped.query_many(probes)).all()
        assert reopened.query(777777)


class TestChecksums:
    """Opt-in CRC-32 column checksums (the durable-checkpoint segment mode)."""

    def _checksummed(self, tmp_path):
        return write_segment(
            _filled("plain", PARAMS), tmp_path / "level.seg", checksums=True
        )

    def test_checksums_are_recorded_and_verified(self, tmp_path):
        path = self._checksummed(tmp_path)
        meta = read_segment_meta(path)
        assert all("crc32" in spec for spec in meta["columns"].values())
        # Auto mode verifies columns that carry checksums; strict requires them.
        for verify in (None, True):
            mapped = open_segment(path, verify=verify)
            assert mapped.num_entries == 500

    def test_default_segments_stay_checksum_free(self, tmp_path):
        """checksums=False (the default) must keep the wire format — and
        therefore snapshot bytes — exactly as before."""
        path = write_segment(_filled("plain", PARAMS), tmp_path / "plain.seg")
        meta = read_segment_meta(path)
        assert all("crc32" not in spec for spec in meta["columns"].values())
        with pytest.raises(SerializeError, match="carries no checksum"):
            open_segment(path, verify=True)
        open_segment(path)  # auto mode: nothing to verify, nothing raised

    def test_flipped_column_bit_fails_verification(self, tmp_path):
        path = self._checksummed(tmp_path)
        spec = read_segment_meta(path)["columns"]["fps"]
        data = bytearray(path.read_bytes())
        data[spec["data_offset"] + 17] ^= 0x04
        path.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="fails its checksum") as excinfo:
            open_segment(path)
        assert excinfo.value.offset == spec["data_offset"]
        # An explicit opt-out maps the damaged column without checking.
        open_segment(path, verify=False)

    def test_old_checksum_key_opens_unchecksummed(self, tmp_path):
        """A segment whose columns carry only the older writer's "crc32c"
        key opens as unchecksummed: its value is never read, and strict
        verification finds no checksum."""
        path = self._checksummed(tmp_path)

        def older_writer(meta):
            for spec in meta["columns"].values():
                del spec["crc32"]
                spec["crc32c"] = 0xDEADBEEF

        _rewrite_meta(path, older_writer)
        assert open_segment(path).num_entries == 500
        with pytest.raises(SerializeError, match="carries no checksum"):
            open_segment(path, verify=True)

    def test_query_parity_with_checksums(self, tmp_path):
        ccf = _filled("plain", PARAMS)
        mapped = open_segment(
            write_segment(ccf, tmp_path / "level.seg", checksums=True)
        )
        probes = np.arange(1200, dtype=np.int64)
        assert (mapped.query_many(probes) == ccf.query_many(probes)).all()


class TestCorruption:
    def _segment(self, tmp_path):
        return write_segment(_filled("plain", PARAMS), tmp_path / "level.seg")

    def test_bad_magic(self, tmp_path):
        path = self._segment(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="magic") as excinfo:
            open_segment(path)
        assert str(path) in str(excinfo.value)

    def test_unsupported_version(self, tmp_path):
        path = self._segment(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="version 99"):
            read_segment_meta(path)

    def test_truncated_prelude(self, tmp_path):
        path = self._segment(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(SerializeError, match="too short"):
            open_segment(path)

    def test_truncated_metadata(self, tmp_path):
        path = self._segment(tmp_path)
        path.write_bytes(path.read_bytes()[:-20])
        with pytest.raises(SerializeError, match="outside|torn"):
            open_segment(path)

    def test_truncated_column_data(self, tmp_path):
        """Meta relocated over a truncated column: the bounds check fires."""
        path = self._segment(tmp_path)
        meta = read_segment_meta(path)
        data = bytearray(path.read_bytes())
        # Shrink the file through the last column's data, then re-append the
        # metadata tail so only the column bounds are violated.
        last = max(spec["data_offset"] for spec in meta["columns"].values())
        payload = json.dumps(
            {k: v for k, v in meta.items() if k != "file_size"}, sort_keys=True
        ).encode()
        truncated = bytes(data[: last + 8]) + payload
        struct.pack_into("<QQ", data, 8, last + 8, len(payload))
        path.write_bytes(data[:24] + truncated[24:])
        with pytest.raises(SerializeError, match="truncated|past"):
            open_segment(path)

    def test_nbytes_shape_mismatch_is_typed(self, tmp_path):
        """A column whose nbytes disagrees with shape*itemsize must raise
        SerializeError, not leak a raw mmap ValueError."""
        path = self._segment(tmp_path)
        _rewrite_meta(path, lambda meta: meta["columns"]["avecs"].update(nbytes=8))
        with pytest.raises(SerializeError, match="records 8 bytes"):
            open_segment(path)

    @pytest.mark.parametrize("entry", [[7, 3], [7, 3, [1, 2, 3], True], [7, 3, "x", True]])
    def test_malformed_stash_entry_is_typed(self, tmp_path, entry):
        """A stash entry that is not ``[fp, pair, avec, matching]`` with one
        fingerprint per attribute raises SerializeError."""
        path = self._segment(tmp_path)
        _rewrite_meta(path, lambda meta: meta.update(stash=[entry]))
        with pytest.raises(SerializeError, match="invalid stash"):
            open_segment(path)

    def test_oversized_shape_is_typed(self, tmp_path):
        path = self._segment(tmp_path)

        def grow(meta):
            spec = meta["columns"]["flags"]
            spec["shape"] = [spec["shape"][0] * 64, spec["shape"][1]]
            spec["nbytes"] = spec["nbytes"] * 64

        _rewrite_meta(path, grow)
        with pytest.raises(SerializeError, match="past|extends"):
            open_segment(path)

    def test_corrupt_json_metadata(self, tmp_path):
        path = self._segment(tmp_path)
        meta_offset = struct.unpack_from("<Q", path.read_bytes(), 8)[0]
        data = bytearray(path.read_bytes())
        data[meta_offset] = ord("X")
        path.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="corrupt segment metadata"):
            read_segment_meta(path)

    @pytest.mark.parametrize("tail", [b"0", b"null", b'"columns"', b"[]"])
    def test_non_object_metadata_is_typed(self, tmp_path, tail):
        """Valid JSON that is not an object raises SerializeError, not the
        TypeError of indexing into it."""
        path = self._segment(tmp_path)
        _replace_meta(path, tail)
        with pytest.raises(SerializeError, match="not a JSON object") as excinfo:
            read_segment_meta(path)
        assert excinfo.value.source == str(path)

    def test_error_carries_offset_context(self, tmp_path):
        path = self._segment(tmp_path)
        path.write_bytes(b"")
        with pytest.raises(SerializeError) as excinfo:
            read_segment_meta(path)
        err = excinfo.value
        assert err.source == str(path)
        assert err.offset == 0
        assert err.offset_unit == "bytes"
