"""SEG1 segment files: zero-copy, memory-mapped persistence for CCF levels.

The CCF wire formats (`serialize.py`) bit-pack every slot, so loading pays a
full decode and the loaded filter is entirely resident.  That is the wrong
trade for the paper's serving regime (§2-§3: filters are built once and
served under heavy read traffic): cold-open latency and resident memory both
scale with store size.  A **segment** stores the same level as flat,
page-aligned raw arrays instead — exactly the in-memory SlotMatrix columns —
so opening one is O(metadata): each column becomes a read-only ``np.memmap``
and the OS pages slots in on first probe.  The existing vectorised kernels
run on the mapped columns unchanged; mutation promotes the filter to private
heap copies (copy-on-write, `ConditionalCuckooFilterBase._ensure_writable`),
never writing through to the file.

Layout of a ``.seg`` file (DESIGN.md §10)::

    [prelude: 24 bytes]  b"SEG1" | u32 version | u64 meta_offset | u64 meta_length
    [column "fps"]       npy header (space-padded)   | raw (m, b) matrix
    [column "counts"]    npy header                  | raw (m,) occupancy
    [column "avecs"]     npy header                  | raw (m, b, a) vectors
    [column "flags"]     npy header                  | raw (m, b) bools
    [meta: JSON]         params, schema, counters, stash, column table

Version 2 records each stash entry as ``[fp, pair, avec, matching]``
(DESIGN.md §1); version 1 recorded no pair and is refused by name.

Every column block is a *valid standalone .npy stream*: the standard numpy
magic and dict header, padded with spaces so the raw data starts on a
``PAGE_SIZE`` boundary.  External tools can decode a column with nothing but
the block offset; the open path maps the recorded ``data_offset`` directly.
The JSON metadata at the tail is the source of truth (offsets, dtypes,
shapes, filter parameters, stash entries); the prelude locates it in O(1).
A column table entry may carry a ``"crc32"`` key, the standard library's
``zlib.crc32`` of the column's data, which :func:`open_segment` verifies as
it maps; ``write_segment(checksums=True)`` (FilterStore checkpoints) records
it.  It is the only checksum key this module reads, so a segment from an
older writer that recorded another opens as unchecksummed.

Only vector-slot filters can be segmented — plain and chained CCFs, and in
particular every FilterStore level.  SEG1 has no columns for payload slots'
sketch rows, so a Bloom or Mixed CCF holding any keeps the bit-packed wire
format.  Decode failures raise the same typed
:class:`~repro.ccf.serialize.SerializeError` as the wire formats, with file
and byte-offset context.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Any

import numpy as np

from repro.ccf.attributes import AttributeSchema
from repro.ccf.base import ConditionalCuckooFilterBase
from repro.ccf.chain import PairGeometry
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.serialize import SerializeError
from repro.cuckoo.buckets import SlotMatrix, dtype_for_bits

MAGIC = b"SEG1"
VERSION = 2

#: Column data is aligned to this many bytes (a typical OS page), so mapped
#: columns start on page boundaries and direct-IO readers stay happy.
PAGE_SIZE = 4096

#: The four typed columns of a segmented level, in file order.
COLUMN_NAMES = ("fps", "counts", "avecs", "flags")

_PRELUDE = struct.Struct("<4sIQQ")
_NPY_MAGIC = b"\x93NUMPY\x01\x00"

#: Lazily bound `repro.store.faults` module (importing it at module scope
#: would cycle: repro.store.__init__ → store.segments → this module).
_faults = None


def _fault_hit(point: str) -> None:
    """Cross a durability fault-injection point (write path only)."""
    global _faults
    if _faults is None:
        from repro.store import faults

        _faults = faults
    _faults.hit(point)


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------


def _npy_header(arr: np.ndarray, block_offset: int) -> bytes:
    """A numpy-format 1.0 header padded so the data lands page-aligned.

    The .npy spec pads its dict header with spaces to any length below 64KiB;
    we exploit that to push the raw data to the next ``PAGE_SIZE`` boundary
    while keeping the block bit-for-bit loadable by ``numpy.lib.format``.
    """
    descr = np.lib.format.dtype_to_descr(arr.dtype)
    base = (
        f"{{'descr': {descr!r}, 'fortran_order': False, "
        f"'shape': {tuple(arr.shape)!r}, }}"
    ).encode("latin1")
    minimal = len(_NPY_MAGIC) + 2 + len(base) + 1  # trailing newline
    total = -((block_offset + minimal) // -PAGE_SIZE) * PAGE_SIZE - block_offset
    header_len = total - len(_NPY_MAGIC) - 2
    if header_len > 0xFFFF:  # pragma: no cover - needs a pathological shape
        raise ValueError("npy header does not fit the 1.0 format")
    padded = base + b" " * (header_len - len(base) - 1) + b"\n"
    return _NPY_MAGIC + struct.pack("<H", header_len) + padded


def _segment_columns(ccf: ConditionalCuckooFilterBase) -> dict[str, np.ndarray]:
    return {
        "fps": ccf.buckets.fps,
        "counts": ccf.buckets.counts,
        "avecs": ccf._avecs,
        "flags": ccf._flags,
    }


def write_segment(
    ccf: ConditionalCuckooFilterBase,
    path: str | Path,
    checksums: bool = False,
    fsync: bool = False,
) -> Path:
    """Write ``ccf`` to a SEG1 segment file at ``path``.

    The filter must hold only vector slots (plain/chained CCFs; every
    FilterStore level qualifies) — SEG1 has no sketch-row columns, so
    payload slots, in the table or stashed, raise ``TypeError``.  Writing a
    *mapped* filter works and simply streams the mapped columns through.

    ``checksums=True`` records a CRC-32 per column block in the metadata
    table; :func:`open_segment` then verifies each column as it maps.  It
    is opt-in (FilterStore checkpoints use it) so default snapshots stay
    byte-identical to pre-checksum writers.  ``fsync=True`` forces the
    finished file to stable storage before returning — required when the
    segment sits below a commit point, as in a checkpoint.
    """
    if ccf._payload_rows is not None:
        payload = int((ccf._payload_rows >= 0).sum() + (ccf.stash.rows >= 0).sum())
        if payload:
            raise TypeError(
                f"cannot segment a {ccf.kind} CCF holding {payload} payload (Bloom/group) "
                "slots: SEG1 has no sketch-row columns; use repro.ccf.serialize for those"
            )
    stash = ccf.stash
    path = Path(path)
    meta: dict[str, Any] = {
        "format": MAGIC.decode("ascii"),
        "version": VERSION,
        "page_size": PAGE_SIZE,
        "kind": ccf.kind,
        "params": asdict(ccf.params),
        "schema": list(ccf.schema.names),
        "counters": {
            "num_rows_inserted": ccf.num_rows_inserted,
            "num_rows_discarded": ccf.num_rows_discarded,
            "num_kicks": ccf.num_kicks,
            "failed": bool(ccf.failed),
        },
        "stash": [
            list(entry)
            for entry in zip(
                stash.fps.tolist(), stash.pairs.tolist(), stash.avecs.tolist(), stash.flags.tolist()
            )
        ],
    }
    columns = _segment_columns(ccf)
    with open(path, "wb") as f:
        f.write(_PRELUDE.pack(MAGIC, VERSION, 0, 0))
        table: dict[str, dict] = {}
        for name in COLUMN_NAMES:
            arr = np.ascontiguousarray(columns[name])
            block_offset = f.tell()
            f.write(_npy_header(arr, block_offset))
            data_offset = f.tell()
            arr.tofile(f)
            table[name] = {
                "block_offset": block_offset,
                "data_offset": data_offset,
                "dtype": np.lib.format.dtype_to_descr(arr.dtype),
                "shape": list(arr.shape),
                "nbytes": int(arr.nbytes),
            }
            if checksums:
                table[name]["crc32"] = zlib.crc32(arr)
        _fault_hit("segment.write.columns")
        meta["columns"] = table
        meta_offset = f.tell()
        payload = json.dumps(meta, sort_keys=True).encode("utf-8")
        f.write(payload)
        f.seek(0)
        f.write(_PRELUDE.pack(MAGIC, VERSION, meta_offset, len(payload)))
        if fsync:
            f.flush()
            os.fsync(f.fileno())
        _fault_hit("segment.write.meta")
    return path


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------


def read_segment_meta(path: str | Path) -> dict:
    """Parse and validate a segment's prelude + JSON metadata (no mapping).

    O(metadata): reads the 24-byte prelude and the JSON tail, nothing else.
    This is what the lazy FilterStore open and the ``inspect`` CLI use.
    Raises :class:`SerializeError` with file/byte-offset context for any
    structural problem (bad magic, truncation, meta out of bounds).
    """
    path = Path(path)
    source = str(path)
    try:
        size = path.stat().st_size
    except OSError as exc:
        raise SerializeError(f"cannot stat segment: {exc}", source=source) from exc
    with open(path, "rb") as f:
        prelude = f.read(_PRELUDE.size)
        if len(prelude) < _PRELUDE.size:
            raise SerializeError(
                f"file is {size} bytes, too short for a SEG1 prelude",
                source=source,
                offset=0,
                offset_unit="bytes",
            )
        magic, version, meta_offset, meta_length = _PRELUDE.unpack(prelude)
        if magic != MAGIC:
            raise SerializeError(
                f"unrecognised magic header {magic!r}",
                source=source,
                offset=0,
                offset_unit="bytes",
            )
        if version != VERSION:
            retired = " (v1 stash entries record no bucket pair)" if version == 1 else ""
            raise SerializeError(
                f"unsupported SEG1 version {version}{retired}",
                source=source,
                offset=4,
                offset_unit="bytes",
            )
        if meta_offset == 0 or meta_offset + meta_length > size:
            raise SerializeError(
                f"metadata block [{meta_offset}, {meta_offset + meta_length}) "
                f"lies outside the {size}-byte file (torn write?)",
                source=source,
                offset=8,
                offset_unit="bytes",
            )
        f.seek(meta_offset)
        raw = f.read(meta_length)
    try:
        meta = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SerializeError(
            f"corrupt segment metadata: {exc}",
            source=source,
            offset=meta_offset,
            offset_unit="bytes",
        ) from exc
    if not isinstance(meta, dict):
        raise SerializeError(
            f"segment metadata is not a JSON object (found {type(meta).__name__})",
            source=source,
            offset=meta_offset,
            offset_unit="bytes",
        )
    for key in ("kind", "params", "schema", "counters", "stash", "columns"):
        if key not in meta:
            raise SerializeError(
                f"segment metadata is missing the {key!r} field",
                source=source,
                offset=meta_offset,
                offset_unit="bytes",
            )
    missing = [name for name in COLUMN_NAMES if name not in meta["columns"]]
    if missing:
        raise SerializeError(
            f"segment metadata is missing columns {missing}",
            source=source,
            offset=meta_offset,
            offset_unit="bytes",
        )
    for name in COLUMN_NAMES:
        spec = meta["columns"][name]
        try:
            dtype = np.dtype(spec["dtype"])
            shape = [int(extent) for extent in spec["shape"]]
            nbytes = int(spec["nbytes"])
            data_offset = int(spec["data_offset"])
        except (TypeError, ValueError, KeyError) as exc:
            raise SerializeError(
                f"column {name!r} has malformed metadata: {exc}",
                source=source,
                offset=meta_offset,
                offset_unit="bytes",
            ) from exc
        expected_nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
        if nbytes != expected_nbytes or any(extent < 0 for extent in shape):
            raise SerializeError(
                f"column {name!r} records {nbytes} bytes but shape "
                f"{shape} of {spec['dtype']} needs {expected_nbytes}",
                source=source,
                offset=data_offset,
                offset_unit="bytes",
            )
        end = data_offset + nbytes
        if end > size:
            raise SerializeError(
                f"column {name!r} extends to byte {end}, past the "
                f"{size}-byte file (truncated?)",
                source=source,
                offset=data_offset,
                offset_unit="bytes",
            )
    meta["file_size"] = size
    return meta


def _map_column(path: Path, spec: dict) -> np.ndarray:
    return np.memmap(
        path,
        dtype=np.dtype(spec["dtype"]),
        mode="r",
        offset=spec["data_offset"],
        shape=tuple(spec["shape"]),
        order="C",
    )


def open_segment(
    path: str | Path, verify: bool | None = None
) -> ConditionalCuckooFilterBase:
    """Open a SEG1 segment as a queryable CCF, zero-copy.

    Every typed column becomes a read-only ``np.memmap``; no slot data is
    read until a probe touches it, so open cost is O(metadata) regardless of
    table size.  The returned filter answers ``query``/``query_many``/
    ``contains_key_many`` bit-identically to the filter that was written;
    the first mutation (insert/delete) copy-on-write-promotes all columns to
    private heap arrays.

    ``verify`` controls CRC-32 validation of column blocks written with
    ``write_segment(checksums=True)``: ``None`` (default) verifies exactly
    the columns that carry a checksum — unchecksummed segments keep their
    O(metadata) open; ``True`` additionally *requires* every column to be
    checksummed (a durable baseline must not silently lose its checksums);
    ``False`` skips validation.  Verifying pages a column in, so a durable
    recovery doubles as a warm-up.
    """
    path = Path(path)
    source = str(path)
    meta = read_segment_meta(path)
    try:
        params = CCFParams(**meta["params"])
        schema = AttributeSchema(meta["schema"])
    except (TypeError, ValueError) as exc:
        raise SerializeError(
            f"segment metadata holds invalid parameters: {exc}", source=source
        ) from exc
    specs = meta["columns"]
    num_buckets, bucket_size = specs["fps"]["shape"]
    expected = {
        "fps": (
            [num_buckets, bucket_size],
            dtype_for_bits(params.key_bits) if params.packed else np.dtype(np.int64),
        ),
        "counts": ([num_buckets], None),
        "avecs": (
            [num_buckets, bucket_size, schema.num_attributes],
            dtype_for_bits(params.attr_bits) if params.packed else np.dtype(np.int64),
        ),
        "flags": ([num_buckets, bucket_size], np.dtype(np.bool_)),
    }
    for name, (shape, dtype) in expected.items():
        spec = specs[name]
        if spec["shape"] != shape:
            raise SerializeError(
                f"column {name!r} has shape {spec['shape']}, expected {shape}",
                source=source,
                offset=spec["data_offset"],
                offset_unit="bytes",
            )
        if dtype is not None and np.dtype(spec["dtype"]) != dtype:
            raise SerializeError(
                f"column {name!r} has dtype {spec['dtype']}, expected "
                f"{np.lib.format.dtype_to_descr(np.dtype(dtype))}",
                source=source,
                offset=spec["data_offset"],
                offset_unit="bytes",
            )
    if bucket_size != params.bucket_size:
        raise SerializeError(
            f"fps matrix is {bucket_size} slots wide, params say "
            f"{params.bucket_size}",
            source=source,
        )

    # Build a minimal shell (2 buckets — the smallest legal table) and swap
    # in the real geometry and the mapped columns, so open never allocates
    # table-sized heap arrays (DESIGN.md §10).
    ccf = make_ccf(meta["kind"], schema, 2, params)
    ccf.geometry = PairGeometry(num_buckets, params.key_bits, seed=params.seed)
    try:
        mapped = {name: _map_column(path, specs[name]) for name in COLUMN_NAMES}
    except (ValueError, OSError) as exc:
        raise SerializeError(
            f"inconsistent segment columns: {exc}", source=source
        ) from exc
    if verify is not False:
        for name in COLUMN_NAMES:
            recorded = specs[name].get("crc32")
            if recorded is None:
                if verify:
                    raise SerializeError(
                        f"column {name!r} carries no checksum but "
                        "verification was required",
                        source=source,
                        offset=specs[name]["data_offset"],
                        offset_unit="bytes",
                    )
                continue
            actual = zlib.crc32(mapped[name])
            if actual != recorded:
                raise SerializeError(
                    f"column {name!r} fails its checksum "
                    f"(recorded {recorded:#010x}, computed {actual:#010x}) — "
                    "the block is corrupt",
                    source=source,
                    offset=specs[name]["data_offset"],
                    offset_unit="bytes",
                )
    try:
        ccf.buckets = SlotMatrix.from_columns(
            mapped["fps"],
            mapped["counts"],
            fp_bits=params.key_bits if params.packed else None,
        )
        ccf._avecs = mapped["avecs"]
        ccf._flags = mapped["flags"]
    except (ValueError, OSError) as exc:
        raise SerializeError(
            f"inconsistent segment columns: {exc}", source=source
        ) from exc
    if ccf._payload_rows is not None:  # a Mixed CCF that converted no group
        ccf._payload_rows = np.full(ccf._flags.shape, -1, dtype=np.int64)
    ccf._readonly = True
    counters = meta["counters"]
    ccf.num_rows_inserted = int(counters["num_rows_inserted"])
    ccf.num_rows_discarded = int(counters["num_rows_discarded"])
    ccf.num_kicks = int(counters["num_kicks"])
    ccf.failed = bool(counters["failed"])
    stash = meta["stash"]
    try:
        ccf.stash.extend(
            [entry[0] for entry in stash],
            [entry[1] for entry in stash],
            avecs=np.array([entry[2] for entry in stash], dtype=np.int64),
            flags=[entry[3] for entry in stash],
        )
    except (TypeError, ValueError, IndexError) as exc:
        raise SerializeError(f"segment metadata holds an invalid stash: {exc}", source=source) from exc
    return ccf


def warm_column(arr: np.ndarray) -> int:
    """Prefault a mapped column into the page cache; returns bytes warmed.

    Serving pools call this once before forking/spawning workers: the pages
    land in the (shared) OS page cache, so N workers attaching the same
    segment afterwards pay no per-worker IO — the multi-process zero-copy
    contract of DESIGN.md §10/§11.  ``madvise(WILLNEED)`` asks the kernel to
    read ahead where available; the strided touch below guarantees residency
    either way.  Heap (non-mapped) arrays are already resident and return 0.
    """
    if not isinstance(arr, np.memmap):
        return 0
    backing = getattr(arr, "_mmap", None)
    if backing is not None:
        try:
            backing.madvise(mmap.MADV_WILLNEED)
        except (AttributeError, ValueError, OSError):  # pragma: no cover - platform
            pass
    flat = np.ascontiguousarray(arr).reshape(-1).view(np.uint8) if arr.size else arr
    if flat.size:
        # One byte per page forces the fault-in without reading every byte.
        int(np.asarray(flat[::PAGE_SIZE]).sum())
    return int(arr.nbytes)


def segment_nbytes(meta: dict) -> dict[str, int]:
    """Per-column data byte sizes of a segment, from its parsed metadata."""
    return {name: int(meta["columns"][name]["nbytes"]) for name in COLUMN_NAMES}


def map_column(path: str | Path, meta: dict, name: str) -> np.ndarray:
    """Map one named column of a segment read-only (for tooling/inspection)."""
    if name not in meta["columns"]:
        raise SerializeError(
            f"segment has no column {name!r}", source=str(path)
        )
    return _map_column(Path(path), meta["columns"][name])
