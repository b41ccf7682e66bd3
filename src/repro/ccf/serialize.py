"""Binary serialisation for filters and extracted views.

The paper's deployment model (§2-§3) is that filters are *precomputed and
stored*, then shipped to scans — so round-trippable wire formats are part of
the system, not an afterthought.  Everything a structure needs is its
parameters (all hash salts derive from the seed), its schema, and its slot
contents.  Kick victims come from a counter-based stream whose position
each format carries — a CCF's `num_kicks` in CCF3, a cuckoo filter's
`_wave_victim_counter` in CKF5 — so a loaded filter places later keys
bit-identically to the one it was saved from.

The wire format is **columnar**, mirroring the in-memory SlotMatrix layout
(DESIGN.md §6): a 2-bit tag column over all slots, then the vector slots'
fingerprint / attribute-vector / matching columns packed array-at-a-time
with ``BitWriter.write_array`` (numpy ``packbits`` under the hood) instead
of slot-at-a-time Python loops.  Only variable-length Bloom payloads remain
sequential.  Loading scatters the columns straight back into the typed
storage arrays.

:func:`dumps` / :func:`loads` handle every CCF variant, the
:class:`~repro.ccf.range_ccf.DyadicRangeCCF` wrapper, the chained CCF's
marked predicate view (CCV3), and the plain cuckoo filter (CKF5), which is
also what a Bloom or Mixed CCF's extracted key filter is.  CKF5 is exactly
:class:`~repro.cuckoo.filter.CuckooFilter`: the semi-sorted subclass folds
fingerprint 0 to 1, so a plain filter reloaded from its slots would probe
for 0 and miss the stored 1; it is refused.  CKF4 payloads hashed under
salts of their own and are refused like any unknown magic, and so are
CCV3 payloads of the retired extracted-view type.  Slot payloads are
bit-packed at their declared widths (12-bit fingerprints cost 12 bits), so
the on-wire size tracks ``size_in_bits()`` up to small headers.

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
from repro.ccf.entries import BloomEntry, ConvertedGroup, GroupSlot, VectorEntry
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.ccf.views import MarkedKeyFilter
from repro.cuckoo.buckets import SlotMatrix, dtype_for_bits
from repro.cuckoo.filter import CuckooFilter
from repro.sketches.bitpack import BitReader, BitWriter
from repro.sketches.bloom import BloomFilter

# Wire formats: one tag byte records the slot storage dtype of the
# width-adaptive SlotMatrix (DESIGN.md §9).
_MAGIC_CCF = b"CCF3"
_MAGIC_VIEW = b"CCV3"
_MAGIC_CUCKOO = b"CKF5"
_MAGIC_RANGE = b"CRF2"

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
    reader = BitReader(data[4:])
    try:
        if magic == _MAGIC_CCF:
            return _load_ccf(reader)
        if magic == _MAGIC_RANGE:
            return _load_range(reader)
        if magic == _MAGIC_VIEW:
            return _load_view(reader, source)
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


def _write_bloom_payload(writer: BitWriter, bloom: BloomFilter) -> None:
    _write_varint(writer, bloom.num_inserted)
    writer.write_bytes(bloom.payload_bytes())


def _read_bloom_payload(
    reader: BitReader, num_bits: int, num_hashes: int, seed: int
) -> BloomFilter:
    num_inserted = _read_varint(reader)
    payload = reader.read_bytes((num_bits + 7) // 8)
    return BloomFilter.from_payload(num_bits, num_hashes, seed, payload, num_inserted)


# ---------------------------------------------------------------------------
# CCF variants
# ---------------------------------------------------------------------------


def _slot_tags(ccf: ConditionalCuckooFilterBase) -> np.ndarray:
    """The 2-bit tag column (flat, bucket-major) of a CCF's slot matrix."""
    flat_fps = ccf.buckets.fps.ravel()
    occupied = flat_fps != ccf.buckets.empty
    tags = np.zeros(flat_fps.shape, dtype=np.int64)
    tags[occupied] = _VECTOR
    if ccf._num_payload_slots:
        payloads = ccf.buckets.payloads
        for index in np.nonzero(occupied)[0].tolist():
            payload = payloads[index]
            if payload is None:
                continue
            tags[index] = _BLOOM if isinstance(payload, BloomEntry) else _GROUP
    return tags


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

    tags = _slot_tags(ccf)
    payloads = ccf.buckets.payloads

    # Converted groups are shared across slots: emit them once, indexed by
    # first occurrence in flat slot order, then in the stash (kicks can
    # stash every slot of a group).
    groups: list[ConvertedGroup] = []
    group_index: dict[int, int] = {}
    group_slots = np.nonzero(tags == _GROUP)[0]
    for group in [payloads[index].group for index in group_slots.tolist()] + [
        entry.group for entry in ccf.stash if isinstance(entry, GroupSlot)
    ]:
        if id(group) not in group_index:
            group_index[id(group)] = len(groups)
            groups.append(group)
    writer.write(len(groups), 32)
    for group in groups:
        writer.write(group.fp, ccf.params.key_bits)
        writer.write(group.num_slots, 8)
        writer.write_bool(group.matching)
        _write_bloom_payload(writer, group.bloom)

    # Columnar slot section: the tag column, then each slot class's columns
    # packed array-at-a-time in flat slot order.
    num_attrs = ccf.schema.num_attributes
    flat_fps = ccf.buckets.fps.ravel()
    vector_mask = tags == _VECTOR
    writer.write_array(tags, 2)
    writer.write_array(flat_fps[vector_mask], ccf.params.key_bits)
    writer.write_array(
        ccf._avecs.reshape(-1, num_attrs)[vector_mask], ccf.params.attr_bits
    )
    writer.write_bool_array(ccf._flags.ravel()[vector_mask])
    for index in np.nonzero(tags == _BLOOM)[0].tolist():
        entry = payloads[index]
        writer.write(entry.fp, ccf.params.key_bits)
        writer.write_bool(entry.matching)
        _write_bloom_payload(writer, entry.bloom)
    if group_slots.size:
        indices = np.fromiter(
            (group_index[id(payloads[i].group)] for i in group_slots.tolist()),
            dtype=np.int64,
            count=group_slots.size,
        )
        writer.write_array(indices, 32)

    def write_entry(entry: Any) -> None:
        if isinstance(entry, VectorEntry):
            writer.write(_VECTOR, 2)
            writer.write(entry.fp, ccf.params.key_bits)
            for component in entry.avec:
                writer.write(component, ccf.params.attr_bits)
            writer.write_bool(entry.matching)
        elif isinstance(entry, BloomEntry):
            writer.write(_BLOOM, 2)
            writer.write(entry.fp, ccf.params.key_bits)
            writer.write_bool(entry.matching)
            _write_bloom_payload(writer, entry.bloom)
        elif isinstance(entry, GroupSlot):
            writer.write(_GROUP, 2)
            writer.write(group_index[id(entry.group)], 32)
        else:
            raise TypeError(f"unknown entry type {type(entry).__name__}")

    writer.write(len(ccf.stash), 16)
    for entry in ccf.stash:
        write_entry(entry)
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

    groups: list[ConvertedGroup] = []
    num_groups = reader.read(32)
    for _ in range(num_groups):
        fp = reader.read(params.key_bits)
        num_slots = reader.read(8)
        matching = reader.read_bool()
        bloom = _read_bloom_payload(
            reader, ccf._conversion_bits(), ccf._conversion_hashes(), ccf._bloom_salt
        )
        group = ConvertedGroup(fp, bloom, num_slots)
        group.matching = matching
        groups.append(group)

    num_attrs = schema.num_attributes
    capacity = ccf.buckets.capacity

    # Columnar slot section: scatter each column straight into the typed
    # storage arrays, then rebuild the occupancy column once.
    tags = reader.read_array(capacity, 2)
    vector_mask = tags == _VECTOR
    num_vectors = int(vector_mask.sum())
    flat_fps = ccf.buckets.fps.ravel()
    flat_fps[vector_mask] = reader.read_array(num_vectors, params.key_bits)
    ccf._avecs.reshape(-1, num_attrs)[vector_mask] = reader.read_array(
        num_vectors * num_attrs, params.attr_bits
    ).reshape(num_vectors, num_attrs)
    ccf._flags.ravel()[vector_mask] = reader.read_bool_array(num_vectors)
    payloads = ccf.buckets.payloads
    flags = ccf._flags.ravel()
    bloom_slots = np.nonzero(tags == _BLOOM)[0]
    for index in bloom_slots.tolist():
        fp = reader.read(params.key_bits)
        matching = reader.read_bool()
        bloom = _read_bloom_payload(
            reader, params.bloom_bits, params.bloom_hashes, ccf._bloom_salt
        )
        flat_fps[index] = fp
        payloads[index] = BloomEntry(fp, bloom, matching)
        flags[index] = matching
    group_slots = np.nonzero(tags == _GROUP)[0]
    if group_slots.size:
        indices = reader.read_array(int(group_slots.size), 32)
        for index, group_id in zip(group_slots.tolist(), indices.tolist()):
            group = groups[group_id]
            flat_fps[index] = group.fp
            payloads[index] = GroupSlot(group)
            flags[index] = group.matching
    ccf.buckets.recount()
    ccf._num_payload_slots = int(bloom_slots.size) + int(group_slots.size)

    def read_entry() -> Any:
        tag = reader.read(2)
        if tag == _VECTOR:
            fp = reader.read(params.key_bits)
            avec = tuple(reader.read(params.attr_bits) for _ in range(num_attrs))
            matching = reader.read_bool()
            return VectorEntry(fp, avec, matching)
        if tag == _BLOOM:
            fp = reader.read(params.key_bits)
            matching = reader.read_bool()
            bloom = _read_bloom_payload(
                reader, params.bloom_bits, params.bloom_hashes, ccf._bloom_salt
            )
            return BloomEntry(fp, bloom, matching)
        if tag == _GROUP:
            return GroupSlot(groups[reader.read(32)])
        raise ValueError("unexpected empty tag inside entry")

    stash_count = reader.read(16)
    for _ in range(stash_count):
        ccf.stash.append(read_entry())
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

#: View type codes.  Type 0 is retired: an extracted key filter is a
#: `CuckooFilter` and ships as CKF5, so only the marked view is written.
_VIEW_EXTRACTED, _VIEW_MARKED = 0, 1


def _dump_view(view: MarkedKeyFilter) -> bytes:
    writer = BitWriter()
    writer.write_bytes(_MAGIC_VIEW)
    writer.write(_VIEW_MARKED, 8)
    writer.write(_dtype_tag(view.buckets), 8)
    geometry = view.geometry
    writer.write(geometry.num_buckets, 32)
    writer.write(geometry.key_bits, 8)
    writer.write(geometry.seed & _MASK64, 64)
    writer.write(view.buckets.bucket_size, 8)
    writer.write(view.max_dupes, 8)
    writer.write(0 if view.max_chain is None else view.max_chain + 1, 32)
    flat_fps = view.buckets.fps.ravel()
    occupied = flat_fps != view.buckets.empty
    writer.write_bool_array(occupied)
    writer.write_array(flat_fps[occupied], geometry.key_bits)
    writer.write_bool_array(view.marks.ravel()[occupied])
    writer.write(len(view.stash_entries), 16)
    for fp, matching in view.stash_entries:
        writer.write(fp, geometry.key_bits)
        writer.write_bool(matching)
    return writer.getvalue()


def _load_view(reader: BitReader, source: str | None) -> MarkedKeyFilter:
    view_type = reader.read(8)
    if view_type == _VIEW_EXTRACTED:
        raise SerializeError(
            "CCV3 extracted-view payloads are retired: an extracted key filter "
            "is a cuckoo filter and ships as CKF5",
            source=source,
            offset=32,
        )
    if view_type != _VIEW_MARKED:
        raise ValueError(f"unknown view type {view_type}")
    tag = reader.read(8)
    num_buckets = reader.read(32)
    key_bits = reader.read(8)
    seed = reader.read(64)
    bucket_size = reader.read(8)
    packed = tag != 0
    _check_dtype_tag(tag, key_bits, packed)
    max_dupes = reader.read(8)
    max_chain_raw = reader.read(32)
    view = MarkedKeyFilter(
        PairGeometry(num_buckets, key_bits, seed),
        bucket_size,
        max_dupes,
        None if max_chain_raw == 0 else max_chain_raw - 1,
        packed=packed,
    )
    capacity = num_buckets * bucket_size
    occupied = reader.read_bool_array(capacity)
    count = int(occupied.sum())
    view.buckets.fps.ravel()[occupied] = reader.read_array(count, key_bits)
    view.buckets.recount()
    view.marks.ravel()[occupied] = reader.read_bool_array(count)
    stash_count = reader.read(16)
    for _ in range(stash_count):
        fp = reader.read(key_bits)
        view.stash_entries.append((fp, reader.read_bool()))
    return view


# ---------------------------------------------------------------------------
# Plain cuckoo filter
# ---------------------------------------------------------------------------


def _dump_cuckoo(cuckoo: CuckooFilter) -> bytes:
    writer = BitWriter()
    writer.write_bytes(_MAGIC_CUCKOO)
    writer.write(_dtype_tag(cuckoo.buckets), 8)
    writer.write(cuckoo.buckets.num_buckets, 32)
    writer.write(cuckoo.buckets.bucket_size, 8)
    writer.write(cuckoo.fingerprint_bits, 8)
    writer.write(cuckoo.max_kicks, 32)
    writer.write(cuckoo.seed & _MASK64, 64)
    writer.write(cuckoo.num_items, 64)
    writer.write(cuckoo._wave_victim_counter, 64)
    writer.write_bool(cuckoo.failed)
    flat_fps = cuckoo.buckets.fps.ravel()
    occupied = flat_fps != cuckoo.buckets.empty
    writer.write_bool_array(occupied)
    writer.write_array(flat_fps[occupied], cuckoo.fingerprint_bits)
    writer.write(len(cuckoo.stash), 16)
    for fp in cuckoo.stash:
        writer.write(fp, cuckoo.fingerprint_bits)
    return writer.getvalue()


def _load_cuckoo(reader: BitReader) -> CuckooFilter:
    tag = reader.read(8)
    num_buckets = reader.read(32)
    bucket_size = reader.read(8)
    fingerprint_bits = reader.read(8)
    max_kicks = reader.read(32)
    seed = reader.read(64)
    packed = tag != 0
    _check_dtype_tag(tag, fingerprint_bits, packed)
    cuckoo = CuckooFilter(
        num_buckets, bucket_size, fingerprint_bits, max_kicks, seed, packed=packed
    )
    cuckoo.num_items = reader.read(64)
    cuckoo._wave_victim_counter = reader.read(64)
    cuckoo.failed = reader.read_bool()
    occupied = reader.read_bool_array(num_buckets * bucket_size)
    count = int(occupied.sum())
    cuckoo.buckets.fps.ravel()[occupied] = reader.read_array(count, fingerprint_bits)
    cuckoo.buckets.recount()
    stash_count = reader.read(16)
    for _ in range(stash_count):
        cuckoo.stash.append(reader.read(fingerprint_bits))
    return cuckoo
