"""Binary serialisation for filters and extracted views.

The paper's deployment model (§2-§3) is that filters are *precomputed and
stored*, then shipped to scans — so round-trippable wire formats are part of
the system, not an afterthought.  Everything a structure needs is its
parameters (all hash salts derive from the seed), its schema, and its slot
contents.  Kick victims come from a counter-based stream whose position
each format carries — a CCF's `num_kicks` in CCF4, a cuckoo filter's
`_wave_victim_counter` in CKF6 — so a loaded filter places later keys
bit-identically to the one it was saved from.  Every stash entry ships
with its pair id: a stashed entry is an off-table slot of its own bucket
pair (DESIGN.md §1), and without the pair it could answer for no key.

The wire format is **columnar**, mirroring the in-memory slot columns
(DESIGN.md §6): a 2-bit tag column over all slots, then the vector slots'
fingerprint / attribute-vector / matching columns packed array-at-a-time
with ``BitWriter.write_array`` (numpy ``packbits`` under the hood) instead
of slot-at-a-time Python loops.  Only the payload sketches (a Bloom
entry's, or a converted group's, written once for its ``d`` slots) remain
sequential.  Loading scatters the columns straight back into the typed
storage arrays.

:func:`dumps` / :func:`loads` handle every CCF variant (CCF4), the
:class:`~repro.ccf.range_ccf.DyadicRangeCCF` wrapper (CRF2, around a CCF4
payload), the chained CCF's marked predicate view (CCV4), and the plain
cuckoo filter (CKF6), which is also what a Bloom or Mixed CCF's extracted
key filter is.  CKF6 is exactly :class:`~repro.cuckoo.filter.CuckooFilter`:
the semi-sorted subclass folds fingerprint 0 to 1, so a plain filter
reloaded from its slots would probe for 0 and miss the stored 1; it is
refused.  CCF3, CCV3 and CKF5 recorded no stash pairs and are refused by
name; CKF4 payloads hashed under salts of their own and are refused like
any unknown magic.  Slot payloads are bit-packed at their declared widths
(12-bit fingerprints cost 12 bits), so the on-wire size tracks
``size_in_bits()`` up to small headers.

:class:`SerializeError` is the one typed decode error of every on-disk
format, these wire formats and the store's SEG1 segments and WAL alike.
The wire formats carry no checksum; the durable formats checksum with the
standard library's ``zlib.crc32`` (`repro.store.wal`, `repro.ccf.mmapio`).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ccf.attributes import AttributeSchema
from repro.ccf.base import ConditionalCuckooFilterBase
from repro.ccf.chain import PairGeometry
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.ccf.views import MarkedKeyFilter
from repro.cuckoo.buckets import SlotMatrix, dtype_for_bits
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.stash import Stash
from repro.sketches.bitpack import BitReader, BitWriter

# Wire formats: one tag byte records the slot storage dtype of the
# width-adaptive SlotMatrix (DESIGN.md §9).
_MAGIC_CCF = b"CCF4"
_MAGIC_VIEW = b"CCV4"
_MAGIC_CUCKOO = b"CKF6"
_MAGIC_RANGE = b"CRF2"

#: The formats before stash entries carried their pair, refused by name.
_NO_STASH_PAIRS = {b"CCF3": "CCF4", b"CCV3": "CCV4", b"CKF5": "CKF6"}

_KIND_CODES = {"plain": 0, "chained": 1, "bloom": 2, "mixed": 3}
_KIND_NAMES = {code: kind for kind, code in _KIND_CODES.items()}

_MASK64 = (1 << 64) - 1

# Slot tags.
_EMPTY, _VECTOR, _BLOOM, _GROUP = 0, 1, 2, 3


class SerializeError(ValueError):
    """A payload could not be decoded: truncated, corrupted, or wrong magic.

    Every decode failure — whatever low-level exception the bit reader or a
    constructor raised — surfaces as this one typed error, carrying where it
    happened: ``source`` names the payload (usually a file path) and
    ``offset`` is the position inside it (bits for the bit-packed CCF wire
    formats, bytes for SEG1 segment files; ``offset_unit`` says which).
    """

    def __init__(
        self,
        message: str,
        *,
        source: str | None = None,
        offset: int | None = None,
        offset_unit: str = "bits",
    ) -> None:
        self.source = source
        self.offset = offset
        self.offset_unit = offset_unit
        context = []
        if source is not None:
            context.append(f"in {source}")
        if offset is not None:
            context.append(f"at {offset_unit[:-1]} offset {offset}")
        if context:
            message = f"{message} ({' '.join(context)})"
        super().__init__(message)

# Storage dtype tags: 0 = int64 reference storage (packed=False),
# 1..4 = uint8/16/32/64.
_DTYPE_TAGS = {"int64": 0, "uint8": 1, "uint16": 2, "uint32": 3, "uint64": 4}


def _dtype_tag(buckets: SlotMatrix) -> int:
    return _DTYPE_TAGS[buckets.fps.dtype.name]


def _check_dtype_tag(tag: int, key_bits: int, packed: bool) -> None:
    """Validate a payload's dtype tag against the reconstructed storage."""
    expected = 0 if not packed else _DTYPE_TAGS[dtype_for_bits(key_bits).name]
    if tag != expected:
        raise ValueError(
            f"payload dtype tag {tag} does not match the {key_bits}-bit "
            f"storage this build reconstructs (expected {expected})"
        )


def dumps(obj: Any) -> bytes:
    """Serialise a CCF, range wrapper, marked view, or cuckoo filter."""
    if isinstance(obj, ConditionalCuckooFilterBase):
        return _dump_ccf(obj)
    if isinstance(obj, DyadicRangeCCF):
        return _dump_range(obj)
    if isinstance(obj, MarkedKeyFilter):
        return _dump_view(obj)
    if type(obj) is CuckooFilter:
        return _dump_cuckoo(obj)
    raise TypeError(f"cannot serialise objects of type {type(obj).__name__}")


def loads(data: bytes, *, source: str | None = None) -> Any:
    """Inverse of :func:`dumps`.

    Decode failures raise :class:`SerializeError` with ``source`` (if given)
    and the bit offset the reader had reached — never a raw ``EOFError`` /
    ``struct.error`` / ``ValueError`` from the packing layer.
    """
    magic = bytes(data[:4])
    if len(data) < 4:
        raise SerializeError(
            f"payload is {len(data)} bytes, too short for a magic header",
            source=source,
            offset=0,
        )
    if magic in _NO_STASH_PAIRS:
        raise SerializeError(
            f"{magic.decode()} payloads are retired: their stash entries record no "
            f"bucket pair; re-serialise as {_NO_STASH_PAIRS[magic]}",
            source=source,
            offset=0,
        )
    reader = BitReader(data[4:])
    try:
        if magic == _MAGIC_CCF:
            return _load_ccf(reader)
        if magic == _MAGIC_RANGE:
            return _load_range(reader)
        if magic == _MAGIC_VIEW:
            return _load_view(reader)
        if magic == _MAGIC_CUCKOO:
            return _load_cuckoo(reader)
    except SerializeError:
        raise
    except (EOFError, ValueError, KeyError, IndexError, OverflowError, TypeError) as exc:
        raise SerializeError(
            f"truncated or corrupt {magic!r} payload: {exc}",
            source=source,
            offset=32 + reader.bit_position,
        ) from exc
    raise SerializeError(
        f"unrecognised magic header {magic!r}", source=source, offset=0
    )


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------


def _write_params(writer: BitWriter, params: CCFParams, num_buckets: int) -> None:
    writer.write(params.key_bits, 8)
    writer.write(params.attr_bits, 8)
    writer.write(params.bucket_size, 8)
    writer.write(params.max_dupes, 8)
    writer.write(0 if params.max_chain is None else params.max_chain + 1, 32)
    writer.write(params.max_kicks, 32)
    writer.write(params.bloom_bits, 16)
    writer.write(params.bloom_hashes, 8)
    writer.write(0 if params.conversion_hashes is None else params.conversion_hashes + 1, 8)
    writer.write_bool(params.small_value_optimization)
    writer.write(params.seed & _MASK64, 64)
    writer.write(num_buckets, 32)


def _read_params(reader: BitReader) -> tuple[CCFParams, int]:
    key_bits = reader.read(8)
    attr_bits = reader.read(8)
    bucket_size = reader.read(8)
    max_dupes = reader.read(8)
    max_chain_raw = reader.read(32)
    max_kicks = reader.read(32)
    bloom_bits = reader.read(16)
    bloom_hashes = reader.read(8)
    conversion_raw = reader.read(8)
    svo = reader.read_bool()
    seed = reader.read(64)
    num_buckets = reader.read(32)
    params = CCFParams(
        key_bits=key_bits,
        attr_bits=attr_bits,
        bucket_size=bucket_size,
        max_dupes=max_dupes,
        max_chain=None if max_chain_raw == 0 else max_chain_raw - 1,
        max_kicks=max_kicks,
        bloom_bits=bloom_bits,
        bloom_hashes=bloom_hashes,
        conversion_hashes=None if conversion_raw == 0 else conversion_raw - 1,
        small_value_optimization=svo,
        seed=seed,
    )
    return params, num_buckets


def _write_schema(writer: BitWriter, schema: AttributeSchema) -> None:
    writer.write(schema.num_attributes, 8)
    for name in schema.names:
        raw = name.encode("utf-8")
        writer.write(len(raw), 16)
        writer.write_bytes(raw)


def _read_schema(reader: BitReader) -> AttributeSchema:
    count = reader.read(8)
    names = []
    for _ in range(count):
        length = reader.read(16)
        names.append(reader.read_bytes(length).decode("utf-8"))
    return AttributeSchema(names)


def _write_varint(writer: BitWriter, value: int) -> None:
    """LEB128-style varint: 7 data bits per group, high bit continues."""
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        group = value & 0x7F
        value >>= 7
        if value:
            writer.write(group | 0x80, 8)
        else:
            writer.write(group, 8)
            return


def _read_varint(reader: BitReader) -> int:
    value = 0
    shift = 0
    while True:
        group = reader.read(8)
        value |= (group & 0x7F) << shift
        if not group & 0x80:
            return value
        shift += 7


def _write_sketch(writer: BitWriter, ccf: ConditionalCuckooFilterBase, row: int) -> None:
    """One payload sketch: its insert count, then its bits."""
    _write_varint(writer, int(ccf._sketch_rows.counts[row]))
    writer.write_bytes(ccf._sketch_rows.row_bytes(row))


def _read_sketch(reader: BitReader, ccf: ConditionalCuckooFilterBase, matching: bool) -> int:
    """Inverse of `_write_sketch`, into a new row of ``ccf``'s sketch rows
    flagged ``matching``; returns the row id."""
    rows = ccf._sketch_rows
    count = _read_varint(reader)
    nbytes = (rows.num_bits + 7) // 8
    data = reader.read_bytes(nbytes)
    spare = nbytes * 8 - rows.num_bits
    if spare and data[-1] >> (8 - spare):
        raise ValueError("stray bits set beyond num_bits")
    row = ccf._new_sketch()
    rows.buf[row * rows.stride : row * rows.stride + nbytes] = data
    rows.flags[row], rows.counts[row] = matching, count
    return row


# ---------------------------------------------------------------------------
# CCF variants
# ---------------------------------------------------------------------------


def _tags(ccf: ConditionalCuckooFilterBase, occupied: np.ndarray, rows: np.ndarray | None):
    """The 2-bit tag column of a slot section: empty, vector, or a payload
    slot — a Bloom entry, or in a vector-storing variant a converted
    group's slot."""
    tags = np.where(occupied, _VECTOR, _EMPTY)
    if rows is not None:
        tags[occupied & (rows >= 0)] = _GROUP if ccf._needs_avec else _BLOOM
    return tags


def _write_slots(writer, ccf, tags, fps, avecs, flags, rows, group_ids) -> None:
    """One columnar slot section (the table's, or the stash's): the tag
    column, then each slot class's columns packed array-at-a-time; a group
    slot is its group's index (``group_ids`` maps a sketch row id to it)."""
    params = ccf.params
    vector = tags == _VECTOR
    writer.write_array(tags, 2)
    writer.write_array(fps[vector], params.key_bits)
    writer.write_array(avecs[vector], params.attr_bits)
    writer.write_bool_array(flags[vector])
    for index in np.flatnonzero(tags == _BLOOM).tolist():
        row = int(rows[index])
        writer.write(int(fps[index]), params.key_bits)
        writer.write_bool(bool(ccf._sketch_rows.flags[row]))
        _write_sketch(writer, ccf, row)
    groups = np.flatnonzero(tags == _GROUP)
    writer.write_array(group_ids[rows[groups]] if groups.size else groups, 32)


def _read_slots(reader, ccf, count, groups) -> tuple:
    """Inverse of `_write_slots`: the section's ``(tags, fps, avecs, flags,
    rows)`` columns; a payload slot's sketch row id is in ``rows`` (-1
    elsewhere), its attribute vector is the fill and its flag True.
    ``groups`` lists the groups' ``(fingerprint, sketch row id)``."""
    params, num_attrs = ccf.params, ccf.schema.num_attributes
    tags = reader.read_array(count, 2)
    vector = tags == _VECTOR
    num_vectors = int(vector.sum())
    fps = np.zeros(count, dtype=np.int64)
    avecs = np.zeros((count, num_attrs), dtype=np.int64)
    avecs[~vector] = ccf._avec_fill
    flags = np.ones(count, dtype=bool)
    rows = np.full(count, -1, dtype=np.int64)
    fps[vector] = reader.read_array(num_vectors, params.key_bits)
    avecs[vector] = reader.read_array(num_vectors * num_attrs, params.attr_bits).reshape(
        num_vectors, num_attrs
    )
    flags[vector] = reader.read_bool_array(num_vectors)
    for index in np.flatnonzero(tags == _BLOOM).tolist():
        fps[index], matching = reader.read(params.key_bits), reader.read_bool()
        rows[index] = _read_sketch(reader, ccf, matching)
    group_slots = np.flatnonzero(tags == _GROUP).tolist()
    for index, group_id in zip(group_slots, reader.read_array(len(group_slots), 32).tolist()):
        fps[index], rows[index] = groups[group_id]
    return tags, fps, avecs, flags, rows


def _dump_ccf(ccf: ConditionalCuckooFilterBase) -> bytes:
    if ccf.kind not in _KIND_CODES:
        raise TypeError(f"unknown CCF kind {ccf.kind!r}")
    writer = BitWriter()
    writer.write_bytes(_MAGIC_CCF)
    writer.write(_KIND_CODES[ccf.kind], 8)
    writer.write(_dtype_tag(ccf.buckets), 8)
    _write_params(writer, ccf.params, ccf.buckets.num_buckets)
    _write_schema(writer, ccf.schema)
    writer.write(ccf.num_rows_inserted, 64)
    writer.write(ccf.num_rows_discarded, 64)
    writer.write(ccf.num_kicks, 64)
    writer.write_bool(ccf.failed)
    if ccf.kind == "mixed":
        writer.write(ccf.num_conversions, 32)
        writer.write(ccf.num_absorbed, 64)

    fps = ccf.buckets.fps.ravel()
    rows = None if ccf._payload_rows is None else ccf._payload_rows.ravel()
    tags = _tags(ccf, fps != ccf.buckets.empty, rows)
    stash = ccf.stash
    stash_tags = _tags(ccf, np.ones(len(stash), dtype=bool), stash.rows)

    # A converted group's sketch is shared by its slots: emit it once,
    # indexed by first occurrence in flat slot order, then in the stash
    # (kicks can stash every slot of a group).
    group_fps = group_rows = group_ids = np.empty(0, dtype=np.int64)
    if rows is not None:
        group_rows = np.concatenate((rows[tags == _GROUP], stash.rows[stash_tags == _GROUP]))
        group_fps = np.concatenate(
            (fps[tags == _GROUP].astype(np.int64), stash.fps[stash_tags == _GROUP])
        )
        first = np.sort(np.unique(group_rows, return_index=True)[1])
        group_fps, group_rows = group_fps[first], group_rows[first]
        group_ids = np.zeros(ccf._sketch_rows.size, dtype=np.int64)
        group_ids[group_rows] = np.arange(len(group_rows))
    writer.write(len(group_rows), 32)
    for fp, row in zip(group_fps.tolist(), group_rows.tolist()):
        writer.write(fp, ccf.params.key_bits)
        writer.write(ccf.params.max_dupes, 8)
        writer.write_bool(bool(ccf._sketch_rows.flags[row]))
        _write_sketch(writer, ccf, row)

    num_attrs = ccf.schema.num_attributes
    _write_slots(
        writer, ccf, tags, fps, ccf._avecs.reshape(-1, num_attrs), ccf._flags.ravel(), rows,
        group_ids,
    )
    # The stash: pair ids, then its entries as one more slot section.
    writer.write(len(stash), 32)
    writer.write_array(stash.pairs, 32)
    _write_slots(
        writer, ccf, stash_tags, stash.fps, stash.avecs, stash.flags, stash.rows, group_ids
    )
    return writer.getvalue()


def _load_ccf(reader: BitReader) -> ConditionalCuckooFilterBase:
    kind = _KIND_NAMES[reader.read(8)]
    tag = reader.read(8)
    params, num_buckets = _read_params(reader)
    if tag == 0:
        params = params.replace(packed=False)
    schema = _read_schema(reader)
    _check_dtype_tag(tag, params.key_bits, params.packed)
    ccf = make_ccf(kind, schema, num_buckets, params)
    ccf.num_rows_inserted = reader.read(64)
    ccf.num_rows_discarded = reader.read(64)
    ccf.num_kicks = reader.read(64)
    ccf.failed = reader.read_bool()
    if kind == "mixed":
        ccf.num_conversions = reader.read(32)
        ccf.num_absorbed = reader.read(64)

    groups: list[tuple[int, int]] = []
    for _ in range(reader.read(32)):
        fp = reader.read(params.key_bits)
        reader.read(8)  # the group's slot count: always d
        matching = reader.read_bool()
        groups.append((fp, _read_sketch(reader, ccf, matching)))

    # Scatter the table's columns straight into the typed storage arrays,
    # then rebuild the occupancy column once.
    tags, fps, avecs, flags, rows = _read_slots(reader, ccf, ccf.buckets.capacity, groups)
    occupied, vector = tags != _EMPTY, tags == _VECTOR
    ccf.buckets.fps.ravel()[occupied] = fps[occupied]
    ccf._avecs.reshape(-1, schema.num_attributes)[vector] = avecs[vector]
    ccf._flags.ravel()[occupied] = flags[occupied]
    if ccf._payload_rows is not None:
        ccf._payload_rows.ravel()[:] = rows
    ccf.buckets.recount()

    pairs = reader.read_array(reader.read(32), 32)
    _tags, fps, avecs, flags, rows = _read_slots(reader, ccf, len(pairs), groups)
    ccf.stash.extend(fps, pairs, avecs=avecs, flags=flags, rows=rows)
    return ccf


# ---------------------------------------------------------------------------
# Dyadic range wrapper
# ---------------------------------------------------------------------------


def _dump_range(wrapper: DyadicRangeCCF) -> bytes:
    writer = BitWriter()
    writer.write_bytes(_MAGIC_RANGE)
    writer.write(_dtype_tag(wrapper.inner.buckets), 8)
    _write_schema(writer, wrapper.schema)
    writer.write(wrapper._range_index, 8)
    writer.write(wrapper.decomposer.low & _MASK64, 64)
    writer.write(wrapper.decomposer.high & _MASK64, 64)
    writer.write(wrapper.num_rows_inserted, 64)
    inner = _dump_ccf(wrapper.inner)
    _write_varint(writer, len(inner))
    writer.write_bytes(inner)
    return writer.getvalue()


def _load_range(reader: BitReader) -> DyadicRangeCCF:
    reader.read(8)  # wrapper-level dtype tag; the inner payload re-checks
    schema = _read_schema(reader)
    range_index = reader.read(8)
    low = reader.read(64)
    high = reader.read(64)
    # Domain bounds round-trip as two's complement 64-bit values.
    low = low - (1 << 64) if low >= (1 << 63) else low
    high = high - (1 << 64) if high >= (1 << 63) else high
    num_rows = reader.read(64)
    inner_length = _read_varint(reader)
    inner_payload = reader.read_bytes(inner_length)
    inner = loads(inner_payload)
    # Construct at the minimum bucket count — only schema/decomposer state
    # survives from the constructor; the real table is the loaded inner.
    wrapper = DyadicRangeCCF(
        inner.kind,
        schema,
        schema.names[range_index],
        (low, high),
        2,
        inner.params,
    )
    wrapper.inner = inner
    wrapper.num_rows_inserted = num_rows
    return wrapper


# ---------------------------------------------------------------------------
# Views
# ---------------------------------------------------------------------------


def _dump_view(view: MarkedKeyFilter) -> bytes:
    writer = BitWriter()
    writer.write_bytes(_MAGIC_VIEW)
    writer.write(view.max_dupes, 8)
    writer.write(0 if view.max_chain is None else view.max_chain + 1, 32)
    geometry = view.geometry
    occupied = _write_table(writer, view.buckets, geometry.key_bits, geometry.seed, view.stash)
    writer.write_bool_array(view.marks.ravel()[occupied])
    writer.write_bool_array(view.stash.marks)
    return writer.getvalue()


def _load_view(reader: BitReader) -> MarkedKeyFilter:
    max_dupes, max_chain = reader.read(8), reader.read(32) - 1
    view, occupied = _read_table(
        reader,
        lambda num_buckets, bucket_size, key_bits, seed, packed: MarkedKeyFilter(
            PairGeometry(num_buckets, key_bits, seed), bucket_size, max_dupes,
            None if max_chain < 0 else max_chain, packed,
        ),
    )
    view.marks.ravel()[occupied] = reader.read_bool_array(int(occupied.sum()))
    view.stash.marks = reader.read_bool_array(len(view.stash))
    return view


# ---------------------------------------------------------------------------
# Plain cuckoo filter
# ---------------------------------------------------------------------------


def _dump_cuckoo(cuckoo: CuckooFilter) -> bytes:
    writer = BitWriter()
    writer.write_bytes(_MAGIC_CUCKOO)
    writer.write(cuckoo.max_kicks, 32)
    _write_table(writer, cuckoo.buckets, cuckoo.fingerprint_bits, cuckoo.seed, cuckoo.stash)
    writer.write(cuckoo.num_items, 64)
    writer.write(cuckoo._wave_victim_counter, 64)
    writer.write_bool(cuckoo.failed)
    return writer.getvalue()


def _load_cuckoo(reader: BitReader) -> CuckooFilter:
    max_kicks = reader.read(32)
    cuckoo, _occupied = _read_table(
        reader,
        lambda num_buckets, bucket_size, key_bits, seed, packed: CuckooFilter(
            num_buckets, bucket_size, key_bits, max_kicks, seed, packed
        ),
    )
    cuckoo.num_items = reader.read(64)
    cuckoo._wave_victim_counter = reader.read(64)
    cuckoo.failed = reader.read_bool()
    return cuckoo


# ---------------------------------------------------------------------------
# The fingerprint table section CCV4 and CKF6 share
# ---------------------------------------------------------------------------


def _write_table(
    writer: BitWriter, buckets: SlotMatrix, key_bits: int, seed: int, stash: Stash
) -> np.ndarray:
    """Storage tag, geometry, the occupied slots' fingerprints, and the
    stash's fingerprints and pair ids; returns the occupancy mask."""
    for value, bits in (
        (_dtype_tag(buckets), 8),
        (buckets.num_buckets, 32),
        (buckets.bucket_size, 8),
        (key_bits, 8),
        (seed & _MASK64, 64),
    ):
        writer.write(value, bits)
    flat_fps = buckets.fps.ravel()
    occupied = flat_fps != buckets.empty
    writer.write_bool_array(occupied)
    writer.write_array(flat_fps[occupied], key_bits)
    writer.write(len(stash), 32)
    writer.write_array(stash.fps, key_bits)
    writer.write_array(stash.pairs, 32)
    return occupied


def _read_table(reader: BitReader, build: Any) -> tuple[Any, np.ndarray]:
    """Inverse of `_write_table` into ``build(num_buckets, bucket_size,
    key_bits, seed, packed)``'s structure; returns it and the occupancy."""
    tag, num_buckets, bucket_size, key_bits, seed = (reader.read(n) for n in (8, 32, 8, 8, 64))
    _check_dtype_tag(tag, key_bits, tag != 0)
    structure = build(num_buckets, bucket_size, key_bits, seed, tag != 0)
    occupied = reader.read_bool_array(num_buckets * bucket_size)
    structure.buckets.fps.ravel()[occupied] = reader.read_array(int(occupied.sum()), key_bits)
    structure.buckets.recount()
    count = reader.read(32)
    structure.stash.extend(reader.read_array(count, key_bits), reader.read_array(count, 32))
    return structure, occupied
