"""Per-shard write-ahead log: the FilterStore's crash-durability spine.

Layout (``<root>/wal/shard-SSSS-GGGGGG.wal``, one file per shard per
checkpoint generation)::

    header   <4sIIIQQ>   magic b"WAL1", version, shard_id, reserved,
                         generation, base_seq          (32 bytes)
    frame*   <II>        payload_len, crc32(payload)   (8 bytes)
             payload     <BBHIQ> op, flags, nattrs, nrows, seq
                         fps   int64[nrows]
                         homes int64[nrows]
                         avecs int64[nrows * nattrs]

One ``insert_many``/``delete_many`` batch routed to a shard is **one
frame** — recovery replays whole batches or nothing, so a reopened store
can never observe half a batch.  Frames carry the *hashed* rows (key
fingerprints, home buckets, attribute-fingerprint vectors): partner
buckets re-derive from the shared geometry, and every shard mutation is
deterministic given these arrays, so replay over the checkpoint baseline
is bit-identical to the original application (DESIGN.md §14).

Frame seqs chain contiguously from the header's ``base_seq``; the CRC-32
(the standard library's ``zlib.crc32``), the length prefix, and the seq
chain together classify any tail damage — a torn write, a bit flip, a
duplicated or dropped frame all stop the scan at the last good frame
instead of raising.  :func:`scan_wal` is pure (the ``inspect`` CLI uses it
on live stores); truncation of a torn tail happens only when
:meth:`ShardWal.attach` takes ownership during recovery.

fsync discipline is per :class:`~repro.store.config.DurabilityConfig`:
``always`` syncs inside every append (acked ⇒ power-loss durable),
``batch`` defers until ``flush_bytes`` unsynced bytes accumulate (acked ⇒
process-crash durable), ``never`` leaves syncing to commit points.  Every
write/fsync/rename boundary crosses a named `repro.store.faults` point.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from repro import obs
from repro.ccf.serialize import SerializeError
from repro.store import faults
from repro.store.config import DurabilityConfig

WAL_MAGIC = b"WAL1"
#: Version 2 checksums frames with CRC-32.  Version-1 logs (CRC-32C
#: frames) are rejected: a durable root upgrades through a snapshot.
WAL_VERSION = 2
WAL_DIRNAME = "wal"
WAL_SUFFIX = ".wal"

#: Frame operations.  Only *explicit* compactions are logged: automatic
#: ``compact_at`` compactions re-derive deterministically while an insert
#: frame replays, and logging them too would compact twice.
OP_INSERT = 1
OP_DELETE = 2
OP_COMPACT = 3
OP_NAMES = {OP_INSERT: "insert", OP_DELETE: "delete", OP_COMPACT: "compact"}

_HEADER = struct.Struct("<4sIIIQQ")
_FRAME = struct.Struct("<II")
_PAYLOAD = struct.Struct("<BBHIQ")

_WAL_APPENDS = obs.counter(
    "repro_wal_appends_total", "WAL frames appended, by operation.", ("op",)
)
_WAL_BYTES = obs.counter("repro_wal_bytes_total", "WAL bytes appended.")
_WAL_REPLAYS = obs.counter(
    "repro_wal_replays_total", "Shard WALs replayed during recovery."
)
_WAL_TORN = obs.counter(
    "repro_wal_torn_frames_total",
    "Invalid tail frames discarded by recovery (torn writes, corruption).",
)
_WAL_FSYNC_US = obs.histogram(
    "repro_wal_fsync_us", "WAL fsync latency in microseconds."
)
# Discipline-labelled durability telemetry (DESIGN.md §15): the fsync mode
# ("always"/"batch"/"never") is the knob operators trade durability against
# throughput with, so frames/rows/fsyncs are attributed to it — a scrape
# shows at a glance which discipline the write volume actually ran under.
_WAL_FRAMES = obs.counter(
    "repro_wal_frames_total",
    "WAL frames appended, by fsync discipline.",
    ("discipline",),
)
_WAL_ROWS = obs.counter(
    "repro_wal_rows_total",
    "Rows covered by appended WAL frames, by fsync discipline.",
    ("discipline",),
)
_WAL_FSYNCS = obs.counter(
    "repro_wal_fsyncs_total",
    "WAL fsync calls issued, by fsync discipline.",
    ("discipline",),
)
_WAL_REPLAY_ROWS = obs.counter(
    "repro_wal_replay_rows_total",
    "Rows re-applied from WAL frames during crash recovery.",
)


def wal_dir(root: Path) -> Path:
    """The WAL directory of a store rooted at ``root``."""
    return Path(root) / WAL_DIRNAME


def wal_name(shard_id: int, gen: int) -> str:
    """File name of one shard's log for one checkpoint generation."""
    return f"shard-{shard_id:04d}-{gen:06d}{WAL_SUFFIX}"


@dataclass
class Frame:
    """One decoded WAL frame (a whole routed batch, or a compaction mark)."""

    op: int
    seq: int
    fps: np.ndarray
    homes: np.ndarray
    #: ``(nrows, nattrs)`` attribute-fingerprint vectors.
    avecs: np.ndarray

    @property
    def nrows(self) -> int:
        return len(self.fps)


def encode_frame(
    op: int,
    seq: int,
    fps: np.ndarray,
    homes: np.ndarray,
    avecs: np.ndarray,
) -> bytes:
    """Encode one frame (length prefix + CRC-32 + payload) to bytes."""
    fps = np.ascontiguousarray(fps, dtype="<i8")
    homes = np.ascontiguousarray(homes, dtype="<i8")
    avecs = np.ascontiguousarray(avecs, dtype="<i8")
    nrows = len(fps)
    nattrs = avecs.shape[1] if avecs.ndim == 2 else 0
    if len(homes) != nrows or (nrows and avecs.shape[0] != nrows):
        raise ValueError("fps/homes/avecs must agree on row count")
    payload = b"".join(
        (
            _PAYLOAD.pack(op, 0, nattrs, nrows, seq),
            fps.tobytes(),
            homes.tobytes(),
            avecs.tobytes(),
        )
    )
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload: bytes | memoryview) -> Frame:
    """Decode one frame payload (already CRC-validated) into arrays."""
    op, _flags, nattrs, nrows, seq = _PAYLOAD.unpack_from(payload)
    expected = _PAYLOAD.size + nrows * 8 * 2 + nrows * nattrs * 8
    if len(payload) != expected:
        raise SerializeError(
            f"WAL frame payload holds {len(payload)} bytes, "
            f"header implies {expected}"
        )
    body = np.frombuffer(payload, dtype="<i8", offset=_PAYLOAD.size)
    fps = body[:nrows]
    homes = body[nrows : 2 * nrows]
    avecs = body[2 * nrows :].reshape(nrows, nattrs)
    return Frame(op=op, seq=seq, fps=fps, homes=homes, avecs=avecs)


@dataclass
class WalScan:
    """Result of scanning one WAL file (pure — the file is not modified)."""

    path: Path
    shard_id: int
    gen: int
    base_seq: int
    frames: list[Frame]
    #: Sequence of the last valid frame (``base_seq`` when none).
    last_seq: int
    #: Offset up to which the file is a valid frame chain.
    valid_bytes: int
    file_bytes: int
    #: Why the scan stopped before the end of the file, if it did.
    torn_reason: str | None = None

    @property
    def torn(self) -> bool:
        return self.valid_bytes != self.file_bytes


def scan_wal(path: str | Path) -> WalScan:
    """Validate a WAL file's frame chain; classify (don't truncate) damage.

    The header must be intact — it is written under a temp-file + rename
    protocol, so a damaged header means corruption beyond the torn-tail
    model and raises :class:`SerializeError`.  Frame damage never raises:
    the scan stops at the last frame whose length prefix, CRC-32, and seq
    chain all check out, recording the reason.
    """
    path = Path(path)
    blob = path.read_bytes()
    if len(blob) < _HEADER.size:
        raise SerializeError(
            f"WAL file is {len(blob)} bytes, header needs {_HEADER.size}",
            source=str(path),
            offset=0,
        )
    magic, version, shard_id, _reserved, gen, base_seq = _HEADER.unpack_from(blob)
    if magic != WAL_MAGIC:
        raise SerializeError(
            f"bad WAL magic {magic!r}", source=str(path), offset=0
        )
    if version != WAL_VERSION:
        upgrade = (
            "; its frames carry CRC-32C checksums, which this release does "
            "not read.  Upgrade the durable root through a snapshot: "
            "snapshot() it to a new directory with the previous release, "
            "then open() that snapshot with this one and attach_wal()"
            if version == 1
            else ""
        )
        raise SerializeError(
            f"unsupported WAL version {version} (this release writes "
            f"version {WAL_VERSION}){upgrade}",
            source=str(path),
            offset=4,
            offset_unit="bytes",
        )
    frames: list[Frame] = []
    offset = _HEADER.size
    last_seq = base_seq
    torn_reason = None
    view = memoryview(blob)
    while offset < len(blob):
        if offset + _FRAME.size > len(blob):
            torn_reason = "truncated length prefix"
            break
        payload_len, crc = _FRAME.unpack_from(blob, offset)
        if payload_len < _PAYLOAD.size:
            torn_reason = (
                "zero-length frame" if payload_len == 0 else "short frame"
            )
            break
        start = offset + _FRAME.size
        if start + payload_len > len(blob):
            torn_reason = "truncated payload"
            break
        payload = view[start : start + payload_len]
        if zlib.crc32(payload) != crc:
            torn_reason = "checksum mismatch"
            break
        try:
            frame = decode_payload(payload)
        except SerializeError:
            torn_reason = "inconsistent frame geometry"
            break
        if frame.op not in OP_NAMES:
            torn_reason = f"unknown op {frame.op}"
            break
        if frame.seq != last_seq + 1:
            torn_reason = (
                "duplicate frame seq"
                if frame.seq <= last_seq
                else "gap in frame seqs"
            )
            break
        frames.append(frame)
        last_seq = frame.seq
        offset = start + payload_len
    return WalScan(
        path=path,
        shard_id=shard_id,
        gen=gen,
        base_seq=base_seq,
        frames=frames,
        last_seq=last_seq,
        valid_bytes=offset,
        file_bytes=len(blob),
        torn_reason=torn_reason,
    )


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class ShardWal:
    """Append handle on one shard's live WAL file."""

    def __init__(
        self,
        path: Path,
        file,
        shard_id: int,
        gen: int,
        base_seq: int,
        last_seq: int,
        nbytes: int,
        num_frames: int,
        num_rows: int,
        durability: DurabilityConfig,
    ) -> None:
        self.path = path
        self._file = file
        self.shard_id = shard_id
        self.gen = gen
        self.base_seq = base_seq
        self.last_seq = last_seq
        self.nbytes = nbytes
        self.num_frames = num_frames
        self.num_rows = num_rows
        self.durability = durability
        self._unsynced = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @classmethod
    def create(
        cls,
        path: str | Path,
        shard_id: int,
        gen: int,
        base_seq: int,
        durability: DurabilityConfig,
    ) -> "ShardWal":
        """Create a fresh log atomically (staged header + rename)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        staging = path.parent / f".{path.name}.tmp-{os.getpid()}"
        header = _HEADER.pack(WAL_MAGIC, WAL_VERSION, shard_id, 0, gen, base_seq)
        with open(staging, "wb") as f:
            f.write(header)
            f.flush()
            os.fsync(f.fileno())
        faults.hit("wal.create.staged")
        os.replace(staging, path)
        _fsync_dir(path.parent)
        faults.hit("wal.create.renamed")
        file = open(path, "r+b", buffering=0)
        file.seek(0, os.SEEK_END)
        return cls(
            path=path,
            file=file,
            shard_id=shard_id,
            gen=gen,
            base_seq=base_seq,
            last_seq=base_seq,
            nbytes=_HEADER.size,
            num_frames=0,
            num_rows=0,
            durability=durability,
        )

    @classmethod
    def attach(cls, scan: WalScan, durability: DurabilityConfig) -> "ShardWal":
        """Take append ownership of a scanned log, truncating a torn tail.

        The truncation is the one destructive step of recovery: everything
        past the last valid frame is, by construction, bytes no caller was
        ever acked for (an acked frame is fully written — and, per the
        fsync mode, synced — before ``append`` returns).
        """
        file = open(scan.path, "r+b", buffering=0)
        if scan.torn:
            file.truncate(scan.valid_bytes)
            os.fsync(file.fileno())
        file.seek(0, os.SEEK_END)
        return cls(
            path=scan.path,
            file=file,
            shard_id=scan.shard_id,
            gen=scan.gen,
            base_seq=scan.base_seq,
            last_seq=scan.last_seq,
            nbytes=scan.valid_bytes,
            num_frames=len(scan.frames),
            num_rows=sum(frame.nrows for frame in scan.frames),
            durability=durability,
        )

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    # ------------------------------------------------------------------
    # Appends
    # ------------------------------------------------------------------

    def append(
        self,
        op: int,
        fps: np.ndarray,
        homes: np.ndarray,
        avecs: np.ndarray,
    ) -> int:
        """Append one frame; returns its seq.  The frame is acked (written,
        and synced per the fsync mode) when this returns."""
        seq = self.last_seq + 1
        frame = encode_frame(op, seq, fps, homes, avecs)
        faults.hit("wal.append.begin")
        if faults.active():
            # Two-part write so an armed "torn" point leaves a half frame
            # on disk — the shape a real mid-write crash produces.
            split = len(frame) // 2
            self._file.write(frame[:split])
            faults.hit("wal.append.torn")
            self._file.write(frame[split:])
        else:
            self._file.write(frame)
        faults.hit("wal.append.written")
        self.last_seq = seq
        self.num_frames += 1
        self.num_rows += len(fps)
        self.nbytes += len(frame)
        self._unsynced += len(frame)
        if obs.state.enabled:
            _WAL_APPENDS.labels(op=OP_NAMES[op]).inc()
            _WAL_BYTES.inc(len(frame))
            discipline = self.durability.fsync
            _WAL_FRAMES.labels(discipline=discipline).inc()
            _WAL_ROWS.labels(discipline=discipline).inc(len(fps))
        mode = self.durability.fsync
        if mode == "always" or (
            mode == "batch" and self._unsynced >= self.durability.flush_bytes
        ):
            self.sync()
        return seq

    def sync(self) -> None:
        """Force everything appended so far to stable storage."""
        if self._unsynced == 0:
            return
        faults.hit("wal.fsync")
        start = perf_counter()
        os.fsync(self._file.fileno())
        if obs.state.enabled:
            _WAL_FSYNC_US.observe((perf_counter() - start) * 1e6)
            _WAL_FSYNCS.labels(discipline=self.durability.fsync).inc()
        self._unsynced = 0

    def stats(self) -> dict:
        """Live log shape (the ``inspect`` CLI prints the scanned twin)."""
        return {
            "path": self.path.name,
            "gen": self.gen,
            "frames": self.num_frames,
            "rows": self.num_rows,
            "bytes": self.nbytes,
            "last_seq": self.last_seq,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardWal(shard={self.shard_id}, gen={self.gen}, "
            f"frames={self.num_frames}, bytes={self.nbytes})"
        )


def record_replay(num_torn: int, num_rows: int = 0) -> None:
    """Count one shard replay, its re-applied rows, and any discarded
    tail frames in metrics."""
    _WAL_REPLAYS.inc()
    if num_rows:
        _WAL_REPLAY_ROWS.inc(num_rows)
    if num_torn:
        _WAL_TORN.inc(num_torn)
