"""WAL framing, scanning, fsync discipline, and the corruption matrix.

The frame-chain contract (DESIGN.md §14): every appended batch is one
length-prefixed, CRC-32-checksummed frame whose seq chains contiguously
from the header's base_seq.  :func:`scan_wal` must classify — never raise
on — any tail damage the torn-write crash model can produce (and a few it
can't, like bit flips), stopping at the last frame whose length prefix,
checksum, and seq all verify.  Header damage is outside that model (the
header lands via temp-file + rename) and raises a typed SerializeError,
mirroring `tests/test_mmapio.py`'s segment corruption matrix.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.ccf.serialize import SerializeError
from repro.store import FilterStore, StoreConfig, faults
from repro.store.config import DurabilityConfig
from repro.store.wal import (
    OP_COMPACT,
    OP_DELETE,
    OP_INSERT,
    Frame,
    ShardWal,
    decode_payload,
    encode_frame,
    scan_wal,
    wal_name,
)

HEADER = struct.Struct("<4sIIIQQ")
FRAME = struct.Struct("<II")


@pytest.fixture(autouse=True)
def clean_faults(monkeypatch):
    monkeypatch.delenv("REPRO_FAULTS", raising=False)
    faults.reset()
    yield
    faults.reset()


def rows(n: int, nattrs: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    fps = rng.integers(1, 1 << 12, size=n, dtype=np.int64)
    homes = rng.integers(0, 64, size=n, dtype=np.int64)
    avecs = rng.integers(0, 1 << 8, size=(n, nattrs), dtype=np.int64)
    return fps, homes, avecs


def make_wal(path, n_frames=3, fsync="never", shard_id=0, gen=1, base_seq=0):
    wal = ShardWal.create(
        path, shard_id, gen, base_seq, DurabilityConfig(fsync=fsync)
    )
    for i in range(n_frames):
        fps, homes, avecs = rows(5 + i, seed=i)
        wal.append(OP_INSERT, fps, homes, avecs)
    wal.sync()
    wal.close()
    return path


class TestFrameCodec:
    @pytest.mark.parametrize("op", [OP_INSERT, OP_DELETE])
    def test_round_trip(self, op):
        fps, homes, avecs = rows(17, seed=op)
        blob = encode_frame(op, 42, fps, homes, avecs)
        length, crc = FRAME.unpack_from(blob)
        payload = blob[FRAME.size :]
        assert len(payload) == length
        assert zlib.crc32(payload) == crc
        frame = decode_payload(payload)
        assert (frame.op, frame.seq, frame.nrows) == (op, 42, 17)
        assert (frame.fps == fps).all()
        assert (frame.homes == homes).all()
        assert (frame.avecs == avecs).all()

    def test_compact_frame_is_empty(self):
        empty = np.empty(0, dtype=np.int64)
        blob = encode_frame(OP_COMPACT, 7, empty, empty, empty.reshape(0, 2))
        frame = decode_payload(blob[FRAME.size :])
        assert (frame.op, frame.seq, frame.nrows) == (OP_COMPACT, 7, 0)

    def test_row_count_mismatch_rejected(self):
        fps, homes, avecs = rows(5)
        with pytest.raises(ValueError, match="row count"):
            encode_frame(OP_INSERT, 1, fps, homes[:3], avecs)

    def test_payload_length_mismatch_is_typed(self):
        fps, homes, avecs = rows(5)
        payload = encode_frame(OP_INSERT, 1, fps, homes, avecs)[FRAME.size :]
        with pytest.raises(SerializeError, match="header implies"):
            decode_payload(payload[:-8])


class TestAppendAndScan:
    def test_clean_log_scans_fully(self, tmp_path):
        path = make_wal(tmp_path / wal_name(3, 2), n_frames=4, shard_id=3, gen=2)
        scan = scan_wal(path)
        assert (scan.shard_id, scan.gen, scan.base_seq) == (3, 2, 0)
        assert [f.seq for f in scan.frames] == [1, 2, 3, 4]
        assert scan.last_seq == 4
        assert not scan.torn and scan.torn_reason is None
        assert scan.valid_bytes == scan.file_bytes == path.stat().st_size

    def test_scan_preserves_frame_arrays(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = ShardWal.create(path, 0, 1, 0, DurabilityConfig(fsync="never"))
        fps, homes, avecs = rows(9, seed=5)
        wal.append(OP_DELETE, fps, homes, avecs)
        wal.close()
        frame = scan_wal(path).frames[0]
        assert frame.op == OP_DELETE
        assert (frame.fps == fps).all()
        assert (frame.homes == homes).all()
        assert (frame.avecs == avecs).all()

    def test_base_seq_continues_generations(self, tmp_path):
        path = make_wal(tmp_path / "w.wal", n_frames=2, base_seq=100)
        scan = scan_wal(path)
        assert scan.base_seq == 100
        assert [f.seq for f in scan.frames] == [101, 102]

    def test_append_tracks_counters(self, tmp_path):
        wal = ShardWal.create(
            tmp_path / "w.wal", 0, 1, 0, DurabilityConfig(fsync="never")
        )
        fps, homes, avecs = rows(8)
        assert wal.append(OP_INSERT, fps, homes, avecs) == 1
        assert wal.append(OP_INSERT, fps, homes, avecs) == 2
        stats = wal.stats()
        assert stats["frames"] == 2
        assert stats["rows"] == 16
        assert stats["last_seq"] == 2
        assert stats["bytes"] == wal.path.stat().st_size
        wal.close()

    def test_create_is_staged_then_renamed(self, tmp_path):
        """A fault between stage and rename leaves no final-name file."""
        faults.arm("wal.create.staged")
        with pytest.raises(faults.InjectedFault):
            ShardWal.create(tmp_path / "w.wal", 0, 1, 0, DurabilityConfig())
        assert not (tmp_path / "w.wal").exists()
        assert list(tmp_path.glob(".*.tmp-*"))  # staged debris, reaped later


class TestFsyncDiscipline:
    def _count_fsyncs(self, tmp_path, fsync, flush_bytes=1 << 20, appends=4):
        faults.trace(True)
        wal = ShardWal.create(
            tmp_path / "w.wal",
            0,
            1,
            0,
            DurabilityConfig(fsync=fsync, flush_bytes=flush_bytes),
        )
        try:
            for i in range(appends):
                fps, homes, avecs = rows(50, seed=i)
                wal.append(OP_INSERT, fps, homes, avecs)
        finally:
            wal.close()
        count = faults.trace_log().count("wal.fsync")
        faults.trace(False)
        return count

    def test_always_syncs_every_append(self, tmp_path):
        assert self._count_fsyncs(tmp_path, "always") == 4

    def test_never_defers_to_commit_points(self, tmp_path):
        assert self._count_fsyncs(tmp_path, "never") == 0

    def test_batch_syncs_at_threshold(self, tmp_path):
        # Each 50-row 2-attr frame is ~1.6 KiB; a 3 KiB threshold fires
        # roughly every other append.
        count = self._count_fsyncs(tmp_path, "batch", flush_bytes=3 << 10)
        assert 1 <= count < 4

    def test_sync_is_idempotent(self, tmp_path):
        wal = ShardWal.create(
            tmp_path / "w.wal", 0, 1, 0, DurabilityConfig(fsync="never")
        )
        fps, homes, avecs = rows(3)
        wal.append(OP_INSERT, fps, homes, avecs)
        faults.trace(True)
        wal.sync()
        wal.sync()  # nothing unsynced: must not fsync again
        assert faults.trace_log().count("wal.fsync") == 1
        wal.close()

    def test_bad_fsync_mode_rejected(self):
        with pytest.raises(ValueError, match="fsync"):
            DurabilityConfig(fsync="sometimes")


class TestCorruptionMatrix:
    """Every tail-damage class stops the scan with the right reason."""

    def _log(self, tmp_path, n_frames=3):
        return make_wal(tmp_path / "w.wal", n_frames=n_frames)

    def test_truncated_length_prefix(self, tmp_path):
        path = self._log(tmp_path)
        whole = scan_wal(path)
        path.write_bytes(path.read_bytes() + b"\x07\x00\x00")  # 3 of 8 bytes
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "truncated length prefix"
        assert len(scan.frames) == len(whole.frames)
        assert scan.valid_bytes == whole.valid_bytes

    def test_zero_length_tail(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes() + b"\x00" * FRAME.size)
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "zero-length frame"
        assert len(scan.frames) == 3

    def test_truncated_payload(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes()[:-11])  # tear the last frame
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "truncated payload"
        assert [f.seq for f in scan.frames] == [1, 2]

    def test_bit_flipped_payload(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[-5] ^= 0x40  # flip one bit inside the last frame's payload
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "checksum mismatch"
        assert [f.seq for f in scan.frames] == [1, 2]

    def test_bad_crc(self, tmp_path):
        path = self._log(tmp_path, n_frames=1)
        data = bytearray(path.read_bytes())
        # Corrupt the stored CRC itself (frame starts right after the header).
        struct.pack_into("<I", data, HEADER.size + 4, 0xDEADBEEF)
        path.write_bytes(bytes(data))
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "checksum mismatch"
        assert scan.frames == []
        assert scan.last_seq == scan.base_seq

    def test_duplicate_frame_seq(self, tmp_path):
        path = self._log(tmp_path, n_frames=1)
        blob = path.read_bytes()
        frame = blob[HEADER.size :]
        path.write_bytes(blob + frame)  # re-append the same (valid) frame
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "duplicate frame seq"
        assert [f.seq for f in scan.frames] == [1]

    def test_gap_in_frame_seqs(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = ShardWal.create(path, 0, 1, 0, DurabilityConfig(fsync="never"))
        fps, homes, avecs = rows(4)
        wal.append(OP_INSERT, fps, homes, avecs)
        wal.close()
        path.write_bytes(
            path.read_bytes() + encode_frame(OP_INSERT, 9, fps, homes, avecs)
        )
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "gap in frame seqs"
        assert [f.seq for f in scan.frames] == [1]

    def test_unknown_op(self, tmp_path):
        path = self._log(tmp_path, n_frames=1)
        fps, homes, avecs = rows(2)
        path.write_bytes(
            path.read_bytes() + encode_frame(77, 2, fps, homes, avecs)
        )
        scan = scan_wal(path)
        assert scan.torn and scan.torn_reason == "unknown op 77"
        assert [f.seq for f in scan.frames] == [1]

    def test_header_damage_raises(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        data[:4] = b"NOPE"
        path.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="magic"):
            scan_wal(path)

    def test_unsupported_version_raises(self, tmp_path):
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 99)
        path.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="version 99"):
            scan_wal(path)

    def test_version_one_log_rejected_with_upgrade_path(self, tmp_path):
        """Version-1 logs carry CRC-32C frames: the scan refuses them by
        name and says how to upgrade, rather than calling every frame
        corrupt and truncating acked batches."""
        path = self._log(tmp_path)
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 4, 1)
        path.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="version 1 .*snapshot") as excinfo:
            scan_wal(path)
        assert excinfo.value.source == str(path)
        assert path.read_bytes() == bytes(data)

    def test_short_file_raises(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes()[:10])
        with pytest.raises(SerializeError, match="header needs"):
            scan_wal(path)

    def test_scan_is_pure(self, tmp_path):
        path = self._log(tmp_path)
        path.write_bytes(path.read_bytes()[:-11])
        before = path.read_bytes()
        scan_wal(path)
        assert path.read_bytes() == before  # classification never truncates


class TestVersionOneRoot:
    def test_open_of_durable_root_names_the_log(self, tmp_path):
        root = tmp_path / "store"
        store = FilterStore(
            AttributeSchema(["a"]),
            CCFParams(key_bits=12, attr_bits=8, bucket_size=4, seed=1),
            StoreConfig(num_shards=2, level_buckets=64),
        )
        store.attach_wal(root, DurabilityConfig(fsync="never"))
        keys = np.arange(40, dtype=np.int64)
        store.insert_many(keys, [keys % 3])
        store.close()
        log = root / "wal" / wal_name(1, 1)
        data = bytearray(log.read_bytes())
        struct.pack_into("<I", data, 4, 1)
        log.write_bytes(bytes(data))
        with pytest.raises(SerializeError, match="WAL version 1") as excinfo:
            FilterStore.open(root)
        assert excinfo.value.source == str(log)
        assert log.read_bytes() == bytes(data)


class TestAttach:
    def test_attach_truncates_torn_tail(self, tmp_path):
        path = make_wal(tmp_path / "w.wal", n_frames=3)
        clean_size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x99" * 13)  # torn garbage
        scan = scan_wal(path)
        assert scan.torn
        wal = ShardWal.attach(scan, DurabilityConfig(fsync="never"))
        assert path.stat().st_size == clean_size
        assert (wal.last_seq, wal.num_frames) == (3, 3)
        # Appending resumes the chain exactly where the acked frames ended.
        fps, homes, avecs = rows(2)
        assert wal.append(OP_INSERT, fps, homes, avecs) == 4
        wal.close()
        rescanned = scan_wal(path)
        assert not rescanned.torn
        assert [f.seq for f in rescanned.frames] == [1, 2, 3, 4]

    def test_attach_clean_log_leaves_bytes(self, tmp_path):
        path = make_wal(tmp_path / "w.wal", n_frames=2)
        before = path.read_bytes()
        wal = ShardWal.attach(scan_wal(path), DurabilityConfig())
        assert wal.num_rows == 5 + 6  # rows(5), rows(6)
        wal.close()
        assert path.read_bytes() == before


class TestTornWriteInjection:
    def test_torn_append_leaves_half_frame(self, tmp_path):
        path = tmp_path / "w.wal"
        wal = ShardWal.create(path, 0, 1, 0, DurabilityConfig(fsync="never"))
        fps, homes, avecs = rows(6)
        wal.append(OP_INSERT, fps, homes, avecs)
        clean = path.stat().st_size
        faults.arm("wal.append.torn")
        with pytest.raises(faults.InjectedFault):
            wal.append(OP_INSERT, fps, homes, avecs)
        wal.close()
        # Exactly half the second frame landed: the shape a real mid-write
        # crash produces, and precisely what scan/attach must repair.
        assert clean < path.stat().st_size < clean + (clean - HEADER.size)
        scan = scan_wal(path)
        assert scan.torn and len(scan.frames) == 1
        repaired = ShardWal.attach(scan, DurabilityConfig(fsync="never"))
        assert path.stat().st_size == clean
        repaired.close()


class TestFaultRegistry:
    def test_env_spec_parsing(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "wal.fsync@3, checkpoint.staged")
        faults.reset()
        faults.hit("checkpoint.staged.other")  # prefix must not match
        for _ in range(2):
            faults.hit("wal.fsync")
        with pytest.raises(faults.InjectedFault) as excinfo:
            faults.hit("wal.fsync")
        assert (excinfo.value.point, excinfo.value.hit) == ("wal.fsync", 3)
        with pytest.raises(faults.InjectedFault):
            faults.hit("checkpoint.staged")

    def test_disarm_and_reset(self):
        faults.arm("x.y")
        faults.disarm("x.y")
        faults.hit("x.y")  # must not raise
        faults.arm("x.y")
        faults.reset()
        faults.hit("x.y")

    def test_trace_orders_crossings(self):
        faults.trace(True)
        faults.hit("a")
        faults.hit("b")
        faults.hit("a")
        assert faults.trace_log() == ["a", "b", "a"]
        assert faults.hit_counts() == {"a": 2, "b": 1}

    def test_inactive_registry_counts_nothing(self):
        faults.hit("a")
        assert faults.hit_counts() == {}
        assert not faults.active()
