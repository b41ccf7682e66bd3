"""Shared machinery for all conditional cuckoo filter variants (§5-§6).

Every CCF is a bucketed table of entries addressed by partial-key cuckoo
hashing: a key ``k`` hashes to a home bucket ``l`` and a ``key_bits``-wide
fingerprint ``κ``; the partner bucket is ``l' = l XOR h(κ)``.  A *bucket
pair* ``(l, l')`` is the unit the paper reasons about: at most ``d``
(= ``max_dupes``) copies of one fingerprint may live in a pair (Lemma 1),
and the chained variant extends a key to further pairs via the one-way step
``l̃ = h(min(l, l'), κ)`` (§6.2).  All geometry lives in
:class:`~repro.ccf.chain.PairGeometry` — the cuckoo filters'
:class:`~repro.cuckoo.geometry.BucketGeometry` plus the chain step — so a
CCF hashes keys exactly as a cuckoo filter of the same bucket count,
fingerprint width and seed does; this base class adds storage,
Algorithm 4's placement, predicate compilation, and slot matching.

A slot is nothing but its columns (DESIGN.md §6).  The key fingerprint
lives in a :class:`~repro.cuckoo.buckets.SlotMatrix`, and the attribute
fingerprint vector (§5.1) and matching flag of every slot in parallel typed
numpy columns that both the scalar paths and the batch kernels read and
write directly.  The Bloom and Mixed variants add a *payload* slot: a
per-entry Bloom sketch (§5.2) or one of the ``d`` slots a converted group
owns (§6.1).  Its sketch is a row of one growable bit matrix, which also
holds the sketch's flag and insert count, and the slot holds its row id in
one more column.  A stashed entry keeps the same columns in the stash.
Batch queries probe the live columns — there is no snapshot to rebuild after
a mutation — and evaluate predicate admissibility only on the slots whose
fingerprint actually matched: per-attribute lookup tables for vector slots,
one gather of sketch rows against the predicate's bit masks for payload
slots, both precomputed once per predicate.  Each CCF memoises its compiled
predicates with their matchers under a type-exact key (`compile`).

Placement goes through `SlotMatrix.place`, shared by every cuckoo
structure, whose kick chain (`repro.kernels._sequential.kick_one`) only
ever relocates an entry between the two buckets of its own pair — the
structural property from which Lemma 1 follows.  Victim slots come from
the counter-based victim stream at position `num_kicks`, so a filter
reloaded with its counters kicks exactly as the one it was saved from.
The companion columns follow the kicks along the reported path, and an
entry it cannot seat is stashed as one more slot of its pair (§1).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from functools import partial
from itertools import repeat
from typing import Any, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro import obs
from repro.ccf.attributes import AttributeFingerprinter, AttributeSchema
from repro.ccf.chain import PairGeometry
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Predicate
from repro.cuckoo.buckets import EMPTY, SlotMatrix, dtype_for_bits
from repro.cuckoo.stash import Stash
from repro.hashing.mixers import as_native_list, canonical_bytes, coerce_int_column, derive_seed
from repro.sketches.bitarray import BitRows
from repro.sketches.bloom import BatchProbe, shared_hashing

#: Compiled predicates, with their matchers, one CCF memoises (the oldest
#: is evicted first).  ``join`` probes at most 63-70 distinct predicates
#: per filter and round (seeds 1-3, 9 and 10); twice that leaves headroom.
PREDICATE_MEMO_LIMIT = 128

# Misses of every CCF's predicate memo insert and evict under this one lock
# (a lock per CCF would stop CCFs from pickling); hits take no lock.
_MEMO_LOCK = threading.Lock()

#: Widest attribute fingerprint tested through a lookup table (2**16 bools
#: per constraint, built in microseconds); wider attribute fingerprints fall
#: back to ``np.isin``.  DESIGN.md §6 has the measurements.
LUT_MAX_BITS = 16

# Probe-outcome instrumentation (one record per query batch, per variant):
# the measurement substrate for the adaptive-CCF roadmap item — observed
# negative-lookup traffic is the signal an adaptive filter reacts to.
_CCF_HITS = obs.counter(
    "repro_ccf_query_hits_total",
    "Positive batch-query answers, by CCF variant.",
    ("kind",),
)
_CCF_MISSES = obs.counter(
    "repro_ccf_query_misses_total",
    "Negative batch-query answers, by CCF variant.",
    ("kind",),
)
_STASH_HITS = obs.counter(
    "repro_probe_stash_hits_total",
    "Keys answered positively only by a stash entry, by CCF variant.",
    ("kind",),
)

#: Per variant, its pre-bound (hits, misses) children: `query_many` counts
#: every batch, and two labels() round-trips cost more than the incs.
#: Bound on a variant's first batch, so a variant that never queried shows
#: no series; children survive registry clears.
_QUERY_CHILDREN: dict[str, tuple[Any, Any]] = {}


def _query_children(kind: str) -> tuple[Any, Any]:
    children = _QUERY_CHILDREN.get(kind)
    if children is None:
        children = _QUERY_CHILDREN[kind] = (
            _CCF_HITS.labels(kind=kind),
            _CCF_MISSES.labels(kind=kind),
        )
    return children


def validate_attr_columns(
    columns: Sequence[Sequence[Any] | np.ndarray], expected: int, num_rows: int
) -> None:
    """Check a column-major attribute batch: ``expected`` columns, each
    ``num_rows`` long.  Shared by every batch-insert entry point."""
    if len(columns) != expected:
        raise ValueError(f"expected {expected} attribute columns, got {len(columns)}")
    for column in columns:
        if len(column) != num_rows:
            raise ValueError("attribute columns must be as long as keys")


def _codes(keys: Iterable[Hashable]) -> np.ndarray:
    """Dense first-seen codes: equal keys share one code."""
    index: dict[Hashable, int] = {}
    return np.fromiter((index.setdefault(key, len(index)) for key in keys), dtype=np.int64)


def _raw_value_codes(column: Sequence[Any] | np.ndarray) -> np.ndarray:
    """Per value of a raw attribute column, a code shared exactly by values
    that a Bloom sketch hashes alike.

    Integer columns compare as integers.  Elsewhere an exact ``int`` or
    ``str`` is its own key and anything else its canonical hash encoding, so
    ``1``, ``True``, ``1.0`` and ``"1"`` (equal or not under Python's ``==``)
    get four codes.  No numpy string array is built: it would drop trailing
    NULs and merge ``"a"`` with ``"a\\0"``.
    """
    ints = coerce_int_column(column)
    if ints is not None:
        return np.unique(ints, return_inverse=True)[1].reshape(-1)
    return _codes(
        value if type(value) is int or type(value) is str else canonical_bytes(value)
        for value in as_native_list(column)
    )


def first_copies(columns: Sequence[np.ndarray]) -> np.ndarray:
    """Per row, the index of the first row equal to it in every column.

    ``columns`` are equally long non-negative int64 arrays.  They are packed
    into one int64 per row when their bits fit, and compared row-wise
    otherwise.
    """
    widths = [int(column.max()).bit_length() if len(column) else 0 for column in columns]
    if sum(widths) <= 63:
        ids = np.zeros(len(columns[0]), dtype=np.int64)
        for column, width in zip(columns, widths):
            ids = (ids << width) | column
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    else:
        _, first, inverse = np.unique(
            np.stack(columns, axis=1), return_index=True, return_inverse=True, axis=0
        )
    return first[inverse.reshape(-1)]


class CellIndex:
    """What one insert batch knows of the cells it touched (DESIGN.md §7).

    A *cell* is what one bucket pair holds for one key fingerprint, in its
    slots and its stash.  ``cells`` maps ``(fingerprint, pair id)`` to the
    insert policy's view of the cell (`_seed_cell`), read from the live
    columns when the batch first touches it and kept current by the policy.
    ``walks`` maps a chained row's first cell to the later pairs of its
    chain, as ``(left, right, cell)``, as far as the batch's rows walk; the
    pairs come from the geometry's chain directory.  ``jumps`` maps each
    fingerprint of the batch to its XOR jump, computed with the batch's
    hashes.  Only the batch's own rows change a cell: kicks and stashing
    keep every entry in its pair, and no insert deletes.
    """

    __slots__ = ("cells", "walks", "jumps")

    def __init__(self, jumps: dict[int, int]) -> None:
        self.cells: dict[tuple[int, int], Any] = {}
        self.walks: dict[tuple[int, int], list[tuple[int, int, Any]]] = {}
        self.jumps = jumps


def predicate_constraints(
    schema: AttributeSchema, predicate: Predicate | None
) -> list[tuple[int, frozenset]] | None:
    """``predicate``'s admissible raw values per constrained attribute, as
    ``(attribute index, values)`` in schema order; None for a key-only
    query.  Raises like `compile_predicate`."""
    if predicate is None:
        return None
    constraint_map = predicate.constraints()
    if not constraint_map:
        return None
    return sorted((schema.index_of(column), values) for column, values in constraint_map.items())


def predicate_key(constraints: Iterable[tuple[int, Iterable[Any]]]) -> tuple:
    """A type-exact, hashable key of ``(attribute index, values)`` pairs.

    A value is its own key when its type is exactly ``int`` or ``str``,
    else its canonical hash encoding — the rule of
    `~repro.sketches.bloom.SketchHashing.positions` — because Python's
    ``1 == True == 1.0`` and ``0.0 == -0.0`` would merge values that
    sketches and fingerprints hash apart.
    """
    return tuple(
        (
            index,
            frozenset(
                value if type(value) is int or type(value) is str else canonical_bytes(value)
                for value in values
            ),
        )
        for index, values in constraints
    )


class CompiledQuery:
    """A predicate compiled against a CCF's schema and fingerprinter.

    ``constraints`` holds one triple per constrained attribute:
    ``(attribute index, admissible raw values, admissible fingerprints)``.
    ``key`` is `predicate_key` of the indexes and raw values; it keys each
    CCF's predicate memo, so an equal predicate compiled afresh (the join
    pushdown compiles before every probe) finds its compiled form and its
    matcher there.  Compiling once and reusing across many keys is the
    intended hot path.
    """

    __slots__ = ("constraints", "key")

    def __init__(self, constraints: Sequence[tuple[int, tuple, frozenset[int]]]) -> None:
        self.constraints = tuple(constraints)
        self.key = predicate_key(c[:2] for c in self.constraints)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CompiledQuery({self.constraints!r})"


class PredicateMatcher:
    """One compiled predicate's batch admissibility tests on one CCF.

    Vector slots test each constrained attribute column through a lookup
    table over the ``attr_bits`` domain (``np.isin`` beyond
    :data:`LUT_MAX_BITS`); payload slots test their sketch rows against
    ``sketches``, the predicate's bit masks (`_sketch_probe`).
    """

    __slots__ = ("columns", "sketches")

    def __init__(
        self,
        compiled: CompiledQuery,
        attr_bits: int,
        sketches: BatchProbe | None,
    ) -> None:
        self.columns: list[tuple[int, np.ndarray, int | None]] = []
        for attr_index, _values, fps in compiled.constraints:
            if attr_bits <= LUT_MAX_BITS:
                mask = (1 << attr_bits) - 1
                table = np.zeros(mask + 1, dtype=bool)
                table[[fp for fp in fps if fp <= mask]] = True
                self.columns.append((attr_index, table, mask))
            else:
                admissible = np.fromiter(fps, dtype=np.int64, count=len(fps))
                self.columns.append((attr_index, admissible, None))
        self.sketches = sketches

    def vectors(self, avecs: np.ndarray) -> np.ndarray:
        """Per ``(n, #attrs)`` attribute-fingerprint row: admissible?"""
        ok = np.ones(len(avecs), dtype=bool)
        for attr_index, table, mask in self.columns:
            column = avecs[:, attr_index]
            # The mask is the identity on stored fingerprints; it only keeps
            # payload slots' fill values (overridden by the sketch test) in
            # range.
            ok &= table[column & mask] if mask is not None else np.isin(column, table)
        return ok


def compile_predicate(
    schema: AttributeSchema,
    fingerprinter: AttributeFingerprinter,
    predicate: Predicate | None,
) -> CompiledQuery | None:
    """Compile ``predicate`` against a schema/fingerprinter pair.

    The free-function form exists so structures that *hold* CCFs without
    being one (the sharded :class:`~repro.store.FilterStore`, whose levels
    all share one fingerprinter) can compile once and fan the result out.
    Returns None for key-only queries; raises ``KeyError`` for unknown
    columns and :class:`~repro.ccf.predicates.UnsupportedPredicateError`
    for un-binned ranges, exactly like :meth:`ConditionalCuckooFilterBase.compile`.
    """
    constraints = predicate_constraints(schema, predicate)
    if constraints is None:
        return None
    return _compiled(fingerprinter, constraints)


def _compiled(
    fingerprinter: AttributeFingerprinter, constraints: Iterable[tuple[int, Iterable[Any]]]
) -> CompiledQuery:
    """Fingerprint each constraint's admissible values."""
    compiled = []
    for attr_index, values in constraints:
        raw_values = tuple(values)
        compiled.append(
            (attr_index, raw_values, fingerprinter.candidate_fingerprints(attr_index, raw_values))
        )
    return CompiledQuery(compiled)


class ConditionalCuckooFilterBase:
    """Common storage, hashing, walking and matching for CCF variants."""

    #: Human-readable variant name, set by subclasses.
    kind: str = "base"

    #: Whether `_delete_hashed` is implemented (only variants whose entries
    #: can be unlearned row-by-row; see `delete`).
    supports_deletion: bool = False

    @staticmethod
    def make_fingerprinter(schema: AttributeSchema, params: CCFParams) -> AttributeFingerprinter:
        """The attribute fingerprinter a CCF with these params will use.

        Exposed so sizing code can predict occupancy from distinct
        *fingerprint* vectors — the unit the filter actually stores — rather
        than distinct raw attribute vectors (small fingerprints dedupe
        colliding values, and predictions over raw values would overshoot).
        """
        return AttributeFingerprinter(
            schema,
            params.attr_bits,
            seed=derive_seed(params.seed, "ccf-attr"),
            small_value_optimization=params.small_value_optimization,
        )

    def __init__(self, schema: AttributeSchema, num_buckets: int, params: CCFParams) -> None:
        if num_buckets < 2:
            raise ValueError("a CCF needs at least 2 buckets")
        self.schema = schema
        self.params = params
        self.geometry = PairGeometry(num_buckets, params.key_bits, seed=params.seed)
        # Structure-of-arrays slot storage: key fingerprints in the
        # SlotMatrix, attribute fingerprint vectors and matching flags in
        # parallel typed columns.  Widths adapt to the declared fingerprint
        # bits (DESIGN.md §9) unless ``params.packed`` asks for the legacy
        # int64 reference layout.
        self.buckets = SlotMatrix(
            num_buckets, params.bucket_size, fp_bits=params.key_bits if params.packed else None
        )
        if params.packed:
            avec_dtype = dtype_for_bits(params.attr_bits)
            self._avec_empty = int(np.iinfo(avec_dtype).max)
        else:
            avec_dtype = np.dtype(np.int64)
            self._avec_empty = EMPTY
        # The avec fill is hygiene only (cleared slots): attribute vectors
        # are read solely for occupied slots, so a real attr fingerprint
        # equal to the fill value is harmless and needs no folding.
        self._avecs = np.full(
            (num_buckets, params.bucket_size, schema.num_attributes),
            self._avec_empty,
            dtype=avec_dtype,
        )
        self._flags = np.ones((num_buckets, params.bucket_size), dtype=bool)
        #: The attribute vector of a slot that holds none (a payload slot).
        self._avec_fill = np.full(schema.num_attributes, self._avec_empty, dtype=avec_dtype)
        #: Payload sketches (`_init_sketches`): their bit rows, the rows'
        #: hash count and hashing, and each slot's row id (-1 for a vector
        #: slot); None in the variants without sketches.
        self._sketch_rows: BitRows | None = None
        self._sketch_hashes = 0
        self._sketch_hashing = None
        self._payload_rows: np.ndarray | None = None
        #: True while the slot columns are adopted read-only (e.g. memmapped
        #: out of a SEG1 segment); the first mutation flips it via
        #: `_ensure_writable` (DESIGN.md §10).
        self._readonly = False
        self.fingerprinter = self.make_fingerprinter(schema, params)
        self._bloom_salt = derive_seed(params.seed, "ccf-bloom")
        self._victim_seed = derive_seed(params.seed, "ccf-victim")
        #: `compile`'s memo: `CompiledQuery.key` -> [compiled, its matcher
        #: once a batch probe asked for it].
        self._predicates: OrderedDict[tuple, list] = OrderedDict()
        # Statistics and health flags.
        self.num_rows_inserted = 0
        self.num_rows_discarded = 0
        self.num_kicks = 0
        self.failed = False
        # A stashed entry keeps its slot's columns (DESIGN.md §1).
        self.stash = Stash(avecs=self._avec_fill, flags=np.True_, rows=np.int64(-1))

    # ------------------------------------------------------------------
    # Geometry delegation (kept on the filter for API convenience)
    # ------------------------------------------------------------------

    def fingerprint_of(self, key: object) -> int:
        """Return the key fingerprint κ (``key_bits`` wide)."""
        return self.geometry.fingerprint_of(key)

    def home_index(self, key: object) -> int:
        """Return the primary bucket l for ``key``."""
        return self.geometry.home_index(key)

    def alt_index(self, index: int, fingerprint: int) -> int:
        """Return the partner bucket ``index XOR h(κ)`` (§4.2)."""
        return self.geometry.alt_index(index, fingerprint)

    def _pair_walk(self, home: int, fingerprint: int) -> Iterator[tuple[int, int]]:
        return self.geometry.pair_walk(home, fingerprint)

    def _walk_limit(self) -> int:
        """Maximum number of pairs any walk may visit.

        ``max_chain`` (Lmax) if set; otherwise the number of buckets, which
        upper-bounds the number of distinct pairs and acts as a safety cap
        for the "uncapped" configuration of the multiset experiments.
        """
        if self.params.max_chain is not None:
            return self.params.max_chain
        return self.buckets.num_buckets

    # ------------------------------------------------------------------
    # Columnar slot access
    # ------------------------------------------------------------------

    def _ensure_writable(self) -> None:
        """Copy-on-write promotion of read-only (mapped) slot columns.

        A filter opened over memmapped SEG1 columns serves queries zero-copy;
        its first mutation lands here and copies every parallel column — the
        fingerprint matrix and occupancy counts (via ``SlotMatrix.promote``),
        the attribute-vector and matching-flag columns — to private writable
        heap arrays.  The segment file is never written through.
        """
        if not self._readonly:
            return
        self.buckets.promote()
        if not self._avecs.flags.writeable:
            self._avecs = np.array(self._avecs)
        if not self._flags.flags.writeable:
            self._flags = np.array(self._flags)
        self._readonly = False

    def storage_nbytes(self) -> tuple[int, int]:
        """(mapped, resident) bytes of the typed slot columns.

        Mapped bytes are file-backed ``np.memmap`` columns (paged in on
        demand, evictable by the OS); resident bytes are private heap
        arrays.  Payload sketches are excluded: the variants that keep them
        are never mapped.
        """
        mapped = resident = 0
        for column in (self.buckets.fps, self.buckets.counts, self._avecs, self._flags):
            if isinstance(column, np.memmap):
                mapped += int(column.nbytes)
            else:
                resident += int(column.nbytes)
        return mapped, resident

    def _init_sketches(self, num_bits: int, num_hashes: int) -> None:
        """Keep payload sketches as rows of one bit matrix (DESIGN.md §6).

        Every Bloom entry or converted group gets a row of ``num_bits``
        bits, padded to whole uint64 words, which the matrix's parallel
        columns give a matching flag and an insert count; each payload slot
        holds the row id in ``_payload_rows``, so a batch probe gathers the
        matched slots' bits with one index.  Every sketch hashes through the
        one :class:`~repro.sketches.bloom.SketchHashing` of (bits, hashes,
        salt), as a :class:`~repro.sketches.bloom.BloomFilter` of those
        parameters would.
        """
        self._sketch_rows = BitRows(num_bits, stride=8 * ((num_bits + 63) // 64))
        self._sketch_hashes = num_hashes
        self._sketch_hashing = shared_hashing(num_bits, num_hashes, self._bloom_salt)
        self._payload_rows = np.full(self._flags.shape, -1, dtype=np.int64)

    def _new_sketch(self) -> int:
        """An empty payload sketch: a new row of the sketch rows."""
        return self._sketch_rows.append()

    def _sketch_add(self, row: int, values: Iterable[Any]) -> None:
        """Set the bits of each value in sketch ``row`` and count them."""
        rows = self._sketch_rows
        buf, at, positions = rows.buf, row * rows.stride, self._sketch_hashing.positions
        count = 0
        for value in values:
            for position in positions(value):
                buf[at + (position >> 3)] |= 1 << (position & 7)
            count += 1
        rows.counts[row] += count

    def _sketch_has(self, row: int, value: Any) -> bool:
        """Are all of ``value``'s bits set in sketch ``row``?"""
        rows = self._sketch_rows
        buf, at = rows.buf, row * rows.stride
        return all(
            buf[at + (position >> 3)] >> (position & 7) & 1
            for position in self._sketch_hashing.positions(value)
        )

    def _write_columns(
        self, path: Sequence[tuple[int, int, int]], avec: Sequence[int], row: int = -1
    ) -> tuple[Any, bool, int] | None:
        """Write a new entry's attribute vector, matching flag (True) and
        sketch row id at the first slot of ``path``; each displaced entry's
        columns move on to the next slot.

        The one column write of every placement.  ``path`` lists ``(bucket,
        slot, displaced fingerprint)`` as `SlotMatrix.place` reports it: the
        key fingerprints there are already written, so the companion columns
        follow the same chain.  Returns the ``(avec, flag, row)`` columns of
        the entry pushed out of the last slot (the new entry's own for an
        empty path); None if that slot was free.
        """
        self._ensure_writable()
        avecs, flags, rows, empty = self._avecs, self._flags, self._payload_rows, self.buckets.empty
        flag, pushed = True, (avec, True, row)
        for bucket, slot, displaced in path:
            pushed = None
            if displaced != empty:
                pushed = (
                    avecs[bucket, slot].copy(),
                    flags[bucket, slot],
                    -1 if rows is None else rows[bucket, slot],
                )
            avecs[bucket, slot] = avec
            flags[bucket, slot] = flag
            if rows is not None:
                rows[bucket, slot] = row
            if pushed is not None:
                avec, flag, row = pushed
        return pushed

    def _clear_entry(self, bucket: int, slot: int) -> None:
        """Free (bucket, slot), resetting every parallel column."""
        self._ensure_writable()
        self.buckets.clear_slot(bucket, slot)
        self._avecs[bucket, slot] = self._avec_empty
        self._flags[bucket, slot] = True
        if self._payload_rows is not None:
            self._payload_rows[bucket, slot] = -1

    # ------------------------------------------------------------------
    # Pair-level storage helpers
    # ------------------------------------------------------------------

    def _fp_entries_in_pair(
        self, left: int, right: int, fingerprint: int
    ) -> tuple[list[tuple[int, int]], list[int]]:
        """The copies of ``fingerprint`` in pair ``(left, right)``: the
        ``(bucket, slot)`` of each slot holding it, then the positions of
        its stashed copies, in stash order.

        Reads the live fingerprint column directly — this is the innermost
        loop of every scalar query.
        """
        slots: list[tuple[int, int]] = []
        fps = self.buckets.fps
        for bucket in (left,) if right == left else (left, right):
            row = fps[bucket].tolist()
            if fingerprint in row:
                slots += [(bucket, slot) for slot, fp in enumerate(row) if fp == fingerprint]
        return slots, self.stash.find(fingerprint, left, right)

    def _copy_avecs(self, slots: list[tuple[int, int]], stashed: list[int]) -> list[tuple]:
        """The attribute vectors of these copies (`_fp_entries_in_pair`)."""
        avecs = [tuple(self._avecs[bucket, slot].tolist()) for bucket, slot in slots]
        if stashed:
            avecs += map(tuple, self.stash.avecs[stashed].tolist())
        return avecs

    def _copy_rows(self, slots: list[tuple[int, int]], stashed: list[int]) -> list[int]:
        """The sketch row ids of these copies (-1 for a vector copy)."""
        rows = self._payload_rows
        ids = [-1] * len(slots) if rows is None else [int(rows[b, s]) for b, s in slots]
        if stashed:
            ids += self.stash.rows[stashed].tolist()
        return ids

    def _cell(self, index: CellIndex, left: int, right: int, fingerprint: int) -> Any:
        """The batch's view of the pair's cell for ``fingerprint``, seeded
        from its slots and stash (`_fp_entries_in_pair`) on first touch."""
        key = (fingerprint, left if left < right else right)
        cell = index.cells.get(key)
        if cell is None:
            cell = self._seed_cell(*self._fp_entries_in_pair(left, right, fingerprint))
            index.cells[key] = cell
        return cell

    def _seed_cell(self, slots: list[tuple[int, int]], stashed: list[int]) -> Any:
        """A cell's copies as the insert policy reads them: here their
        attribute vectors."""
        return self._copy_avecs(slots, stashed)

    def _place_in_pair(
        self,
        left: int,
        right: int,
        fingerprint: int,
        avec: Sequence[int],
        row: int = -1,
        copies: int = 0,
    ) -> bool:
        """Algorithm 4's placement: prefer ``left``, then kick from ``right``.

        The new entry is ``fingerprint`` with the attribute vector ``avec``
        and, for a payload slot, the sketch row id ``row``.  The kicks are
        the fingerprint filters' sequential chain (`SlotMatrix.place`): the
        in-flight item swaps into a victim slot drawn from the victim stream
        at position `num_kicks` (one draw per eviction) and goes on as the
        victim toward *its* alternate bucket — always the other bucket of
        the victim's own pair, so per-pair fingerprint counts are invariant
        under kicking (the structural core of Lemma 1).  On MaxKicks
        exhaustion the in-flight victim is stashed under its own pair, its
        columns with it, and the structure is flagged failed.  A pair whose
        ``copies`` of the fingerprint fill every slot stashes the entry at
        once (Lemma 1 fast-fail): kicks could only reshuffle those copies.
        """
        buckets, bucket, fp = self.buckets, left, fingerprint
        if copies >= buckets.bucket_size * (1 if left == right else 2) and (
            buckets.fps[[left, right]] == fingerprint
        ).all():
            pushed = (avec, True, row)
        else:
            fp, placed, self.num_kicks, path = buckets.place(
                fingerprint, left, right, self.params.max_kicks, self.geometry.jump_seed,
                self._victim_seed, self.num_kicks,
            )
            pushed = self._write_columns(path, avec, row)
            if placed:
                return True
            bucket = path[-1][0] if path else left
        avec, flag, row = pushed
        self.stash.append(fp, self.geometry.pair_id(bucket, fp), avecs=avec, flags=flag, rows=row)
        self.failed = True
        return False

    # ------------------------------------------------------------------
    # Predicate compilation and slot matching
    # ------------------------------------------------------------------

    def compile(self, predicate: Predicate | None) -> CompiledQuery | None:
        """Compile a predicate against this CCF's schema.

        Returns None for key-only queries (no predicate, or a predicate with
        no constraints).  Raises ``KeyError`` if the predicate touches a
        column the schema does not sketch, and
        :class:`~repro.ccf.predicates.UnsupportedPredicateError` for
        un-binned range predicates.  Memoised: a predicate whose
        `predicate_key` was compiled before returns that compiled query.
        """
        constraints = predicate_constraints(self.schema, predicate)
        if constraints is None:
            return None
        return self._memoised(predicate_key(constraints), constraints)[0]

    def _memoised(self, key: tuple, constraints: Iterable[tuple[int, Iterable[Any]]]) -> list:
        """The memo's entry under ``key``, compiled from ``constraints``
        (attribute indexes and raw values) on a miss.

        Hits are one dict read, so readers in several threads never race an
        eviction; a miss inserts under `_MEMO_LOCK` and evicts the oldest
        entries past :data:`PREDICATE_MEMO_LIMIT`.  Entries are pure
        functions of the key, so eviction only costs a recompile, and two
        threads filling one entry's matcher only build it twice.
        """
        entry = self._predicates.get(key)
        if entry is None:
            entry = [_compiled(self.fingerprinter, constraints), None]
            with _MEMO_LOCK:
                memo = self._predicates
                while len(memo) >= PREDICATE_MEMO_LIMIT:
                    memo.popitem(last=False)
                memo[key] = entry
        return entry

    def _admits(self, avec: np.ndarray, flag: bool, row: int, compiled: CompiledQuery) -> bool:
        """Does one copy, given its attribute vector, matching flag and
        sketch row id, admit ``compiled``?

        The scalar reference test, in plain Python over the columns: a
        payload copy (``row >= 0``) tests its sketch's flag and bits, a
        vector copy its flag and vector.  The batch test,
        `_copies_admit`, must answer as this does per copy.
        """
        if row >= 0:
            if not self._sketch_rows.flags[row]:
                return False
            # A Bloom entry sketches raw values, a Mixed group fingerprints.
            return all(
                any(
                    self._sketch_has(row, (attr_index, value))
                    for value in (fps if self._needs_avec else values)
                )
                for attr_index, values, fps in compiled.constraints
            )
        if not flag:
            return False
        avec = avec.tolist()
        return all(avec[attr_index] in fps for attr_index, _values, fps in compiled.constraints)

    def _any_admits(
        self, slots: list[tuple[int, int]], stashed: list[int], compiled: CompiledQuery | None
    ) -> bool:
        """Does one of these copies (`_fp_entries_in_pair`) admit
        ``compiled``?  Any copy does a key-only query."""
        if compiled is None:
            return bool(slots or stashed)
        avecs, flags, rows, stash = self._avecs, self._flags, self._payload_rows, self.stash
        return any(
            self._admits(
                avecs[bucket, slot],
                flags[bucket, slot],
                -1 if rows is None else rows[bucket, slot],
                compiled,
            )
            for bucket, slot in slots
        ) or any(
            self._admits(stash.avecs[at], stash.flags[at], stash.rows[at], compiled)
            for at in stashed
        )

    def _resolve_compiled(
        self, predicate: Predicate | CompiledQuery | None
    ) -> CompiledQuery | None:
        if predicate is None or isinstance(predicate, CompiledQuery):
            return predicate
        return self.compile(predicate)

    def _matcher(self, compiled: CompiledQuery) -> PredicateMatcher:
        """The compiled predicate's batch matcher, from the memo.

        A query compiled elsewhere (a FilterStore compiles once for all its
        levels) shares the memo entry of its key when its fingerprints are
        this CCF's; one fingerprinted otherwise gets a matcher of its own.
        """
        entry = self._memoised(compiled.key, (c[:2] for c in compiled.constraints))
        memoised, matcher = entry
        if memoised is not compiled and any(
            mine[2] != theirs[2] for mine, theirs in zip(memoised.constraints, compiled.constraints)
        ):
            return self._new_matcher(compiled)
        if matcher is None:
            matcher = entry[1] = self._new_matcher(memoised)
        return matcher

    def _new_matcher(self, compiled: CompiledQuery) -> PredicateMatcher:
        return PredicateMatcher(compiled, self.params.attr_bits, self._sketch_probe(compiled))

    def _sketch_probe(self, compiled: CompiledQuery) -> BatchProbe | None:
        """The predicate as bit masks over the payload sketch rows, or None
        without sketches.

        Every sketch of a CCF shares (bits, hashes, salt), so each
        admissible value probes the same positions in all of them.  A
        Bloom entry sketches raw ``(attribute index, value)`` pairs; a
        Mixed group, whose variant stores fingerprint vectors
        (``_needs_avec``), sketches ``(attribute index, fingerprint)``.
        Answers equal `_admits` per payload copy.
        """
        rows = self._sketch_rows
        if rows is None:
            return None
        return BatchProbe(
            rows.num_bits,
            self._sketch_hashes,
            self._bloom_salt,
            [
                [(attr_index, value) for value in (fps if self._needs_avec else values)]
                for attr_index, values, fps in compiled.constraints
            ],
        )

    # ------------------------------------------------------------------
    # Shared statistics
    # ------------------------------------------------------------------

    @property
    def num_entries(self) -> int:
        """Number of occupied slots (the paper's Z')."""
        return self.buckets.filled

    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return self.buckets.load_factor()

    def slot_bits(self) -> int:
        """Bits per table slot under the paper's size accounting."""
        raise NotImplementedError

    def size_in_bits(self) -> int:
        """Total sketch size: slots plus any stashed overflow entries."""
        return (self.buckets.capacity + len(self.stash)) * self.slot_bits()

    def size_in_bytes(self) -> float:
        """Total sketch size in bytes."""
        return self.size_in_bits() / 8

    # ------------------------------------------------------------------
    # Insert / query interface
    # ------------------------------------------------------------------
    # Scalar `insert`/`query` and batch `insert_many` are thin wrappers over
    # per-variant kernels on precomputed hashes (`_insert_hashed` or
    # `_insert_cells`, `_query_hashed`).  Batch `query_many` runs the vectorised
    # `_query_hashed_many`, which must answer exactly as `_query_hashed`
    # does key by key (DESIGN.md §5).

    #: Whether `_insert_hashed` consumes precomputed attribute fingerprint
    #: vectors (False for the Bloom CCF, which sketches raw values instead).
    _needs_avec: bool = True

    #: The row id of the sketch that took the attributes of the row the
    #: insert policy last handled (a Bloom entry's, or a Mixed group's when
    #: the row was absorbed or converted), else None.  Read by the batch row
    #: loop to credit that row's later copies.
    _row_sketch: int | None = None

    def insert(self, key: object, attrs: Mapping[str, Any] | Sequence[Any]) -> bool:
        """Insert a (key, attribute row) under the variant's policy."""
        values = self.schema.row_values(attrs)
        return self._insert_hashed(
            self.geometry.fingerprint_of(key), self.geometry.home_index(key), values, None
        )

    def _insert_hashed(
        self,
        fingerprint: int,
        home: int,
        values: tuple[Any, ...] | None,
        avec: tuple[int, ...] | None,
    ) -> bool:
        """Insertion policy on precomputed hashes.

        Exactly one of ``values`` (raw attribute row) / ``avec`` (its
        fingerprint vector) may be None: vector-storing variants derive
        ``avec`` from ``values`` when not supplied, the Bloom variant only
        reads ``values``.  A variant implements this or `_insert_cells`:
        here the latter runs on a one-row index.
        """
        index = CellIndex({fingerprint: self.geometry.fp_jump(fingerprint)})
        return self._insert_cells(index, fingerprint, home, values, avec)

    def _insert_cells(
        self,
        index: CellIndex,
        fingerprint: int,
        home: int,
        values: tuple[Any, ...] | None,
        avec: tuple[int, ...] | None,
    ) -> bool:
        """Insertion policy against a batch's cell index (`CellIndex`).

        The chained, Bloom and Mixed variants implement it, reading and
        updating the cells through `_cell` instead of rescanning the
        table.  A variant that implements `_insert_hashed` instead (plain)
        reads no index.
        """
        return self._insert_hashed(fingerprint, home, values, avec)

    def insert_many(
        self,
        keys: Sequence[object] | np.ndarray,
        attr_columns: Sequence[Sequence[Any] | np.ndarray],
    ) -> np.ndarray:
        """Insert a batch of rows given column-major attributes.

        ``attr_columns`` holds one column per schema attribute, each as long
        as ``keys``.  Key and attribute hashing run in vectorised passes, and
        the batch is grouped once by row identity: key fingerprint, home
        bucket, and the attribute vector (the Bloom variant: the raw values,
        compared type-exactly).  The sequential row loop runs the insert
        policy on the first copy of each distinct row and credits later
        copies (`_insert_hashed_rows`).  Filter state, stash contents,
        statistics counters and the returned per-row results are
        bit-identical to calling `insert` row by row.
        """
        columns = list(attr_columns)
        validate_attr_columns(columns, self.schema.num_attributes, len(keys))
        fps, homes, alts = self.geometry.hashes_of_many(keys)
        if self._needs_avec:
            rows = self.fingerprinter.vectors_many(columns)
            identity = [_codes(rows)]
        else:
            rows = list(zip(*(as_native_list(column) for column in columns)))
            identity = [_raw_value_codes(column) for column in columns]
        first = first_copies([fps, homes, *identity])
        return self._insert_hashed_rows(fps, homes, rows, first, alts)

    def _insert_hashed_rows(
        self,
        fps: np.ndarray,
        homes: np.ndarray,
        rows: Sequence[tuple[Any, ...]],
        first: np.ndarray | None = None,
        alts: np.ndarray | None = None,
    ) -> np.ndarray:
        """The one row loop over the insert policy, on precomputed hashes.

        ``rows`` holds each row's attribute fingerprint vector, or its raw
        values when the variant sketches raw values (``_needs_avec`` False).
        ``first`` (from `first_copies`) gives each row the index of the
        first row of the batch with the same identity.  A later copy is
        credited (`_credit_copy`) instead of walked, and the first copies
        share one `CellIndex` (DESIGN.md §7), whose jumps come from the
        partner buckets ``alts``, required with ``first``.  The
        FilterStore, which hashes once for many shard levels, passes no
        ``first``: each row runs `_insert_hashed`.  Bit-identical to scalar
        `insert` per row.
        """
        num_rows = len(fps)
        out = np.ones(num_rows, dtype=bool)
        nones = repeat(None)
        values, avecs = (nones, rows) if self._needs_avec else (rows, nones)
        if first is None:
            firsts, pairs, insert = range(num_rows), nones, self._insert_hashed
        else:
            firsts = first.tolist()
            pairs = np.minimum(homes, alts).tolist()
            jumps = dict(zip(fps.tolist(), (homes ^ alts).tolist()))
            insert = partial(self._insert_cells, CellIndex(jumps))
        # Per (fingerprint, pair id): the sketch a row of that pair fed last;
        # the first copies that chain placement discarded.
        sketches: dict[tuple[int, int], int] = {}
        discarded: set[int] = set()
        rows_iter = zip(fps.tolist(), homes.tolist(), pairs, values, avecs, firsts)
        for i, (fp, home, pair, value, avec, original) in enumerate(rows_iter):
            if original != i:
                self._credit_copy(sketches.get((fp, pair)), original in discarded)
                continue
            self._row_sketch = None
            before = self.num_rows_discarded
            out[i] = insert(fp, home, value, avec)
            if self._row_sketch is not None:
                sketches[fp, pair] = self._row_sketch
            if self.num_rows_discarded != before:
                discarded.add(i)
        return out

    def _credit_copy(self, sketch: int | None, discarded: bool) -> None:
        """Count a repeated row as its full insert would.

        The row is already represented (by its first copy's entry, or past a
        chain of ``d``-full pairs by the fallback that discarded the first
        copy too), so its insert would change only counters (DESIGN.md §7).
        ``sketch`` is the row id of the Bloom sketch its pair keeps for the
        key fingerprint, if any: re-adding the row's values sets no new bit
        but counts them.
        """
        self.num_rows_inserted += 1
        self.num_rows_discarded += discarded
        if sketch is not None:
            self._sketch_rows.counts[sketch] += self.schema.num_attributes

    def query(self, key: object, predicate: Predicate | CompiledQuery | None = None) -> bool:
        """Membership test for ``key`` under an optional predicate."""
        compiled = self._resolve_compiled(predicate)
        return self._query_hashed(
            self.geometry.fingerprint_of(key), self.geometry.home_index(key), compiled
        )

    def _query_hashed(
        self, fingerprint: int, home: int, compiled: CompiledQuery | None
    ) -> bool:
        """Query policy on precomputed hashes: the key's one bucket pair,
        stashed entries included (the chained variant walks its chain
        instead)."""
        right = self.geometry.alt_index(home, fingerprint)
        return self._any_admits(*self._fp_entries_in_pair(home, right, fingerprint), compiled)

    def query_many(
        self,
        keys: Sequence[object] | np.ndarray,
        predicate: Predicate | CompiledQuery | None = None,
    ) -> np.ndarray:
        """Batch membership test under one (compiled-once) predicate.

        Answers are bit-identical to per-key `query` calls; hashing and —
        for the single-pair variants — the table probe itself are fully
        vectorised against the live slot columns (no snapshot rebuild,
        whatever mutations happened since the last batch).
        """
        compiled = self._resolve_compiled(predicate)
        fps, homes, alts = self.geometry.hashes_of_many(keys)
        answers = self._query_hashed_many(fps, homes, compiled, alts)
        if obs.state.enabled and answers.size:
            hits = int(np.count_nonzero(answers))
            hits_child, misses_child = _query_children(self.kind)
            hits_child.inc(hits)
            misses_child.inc(int(answers.size) - hits)
        return answers

    def _query_hashed_many(
        self,
        fps: np.ndarray,
        homes: np.ndarray,
        compiled: CompiledQuery | None,
        alts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batch `_query_hashed` on precomputed hashes: one single-pair probe.

        ``alts`` optionally carries precomputed partner-bucket indices
        (shared-geometry callers like the FilterStore hash once and fan
        out).
        """
        return self._single_pair_query_many(fps, homes, compiled, alts)

    def contains_key(self, key: object) -> bool:
        """Key-only membership test (no predicate)."""
        return self.query(key, None)

    def contains_key_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch key-only membership test."""
        return self.query_many(keys, None)

    def delete(self, key: object, attrs: Mapping[str, Any] | Sequence[Any]) -> bool:
        """Remove one stored (key, attribute row); True if a row was removed.

        Only variants with ``supports_deletion`` implement this: entries must
        be removable row-by-row, which rules out Bloom sketches (can't
        unlearn), converted groups (shared payloads) and chained placement
        (removing a copy from a d-full pair would let later queries stop
        walking early, breaking no-false-negatives).  The usual cuckoo
        caveat applies: only delete rows known to have been inserted, or a
        colliding row's entry may be removed instead.
        """
        values = self.schema.row_values(attrs)
        return self._delete_hashed(
            self.geometry.fingerprint_of(key),
            self.geometry.home_index(key),
            self.fingerprinter.vector(values),
        )

    def delete_many(
        self,
        keys: Sequence[object] | np.ndarray,
        attr_columns: Sequence[Sequence[Any] | np.ndarray],
    ) -> np.ndarray:
        """Batch `delete`: vectorised hashing, sequential removals."""
        columns = list(attr_columns)
        validate_attr_columns(columns, self.schema.num_attributes, len(keys))
        fps, homes, alts = self.geometry.hashes_of_many(keys)
        avecs = self.fingerprinter.vectors_many(columns)
        out = np.empty(len(fps), dtype=bool)
        for i, (fp, home, alt) in enumerate(zip(fps.tolist(), homes.tolist(), alts.tolist())):
            out[i] = self._delete_hashed(fp, home, avecs[i], alt)
        return out

    def _delete_hashed(
        self, fingerprint: int, home: int, avec: tuple[int, ...], alt: int | None = None
    ) -> bool:
        """Removal kernel; only deletion-capable variants implement it.
        ``alt`` is the partner bucket, derived when not given."""
        raise NotImplementedError(
            f"{self.kind} CCFs cannot delete entries (sketched rows cannot be unlearned)"
        )

    # ------------------------------------------------------------------
    # Vectorised probe machinery shared by the batch query kernels
    # ------------------------------------------------------------------

    def _copies_admit(
        self,
        avecs: np.ndarray,
        flags: np.ndarray,
        rows: np.ndarray | None,
        compiled: CompiledQuery | None,
    ) -> np.ndarray:
        """Per copy, given its attribute vector, matching flag and sketch
        row id (``rows`` None where the variant keeps no sketches): does it
        admit ``compiled``?

        The batch test of slot probes, stash probes and both predicate
        views, equal to `_admits` per copy: vector copies through the
        predicate's lookup tables, payload copies by gathering their sketch
        rows and row flags against the predicate's bit masks, so in-place
        sketch writes (Bloom merges, group absorption) are always visible.
        """
        if compiled is None:
            return np.ones(len(flags), dtype=bool)
        matcher = self._matcher(compiled)
        admissible = flags & matcher.vectors(avecs)
        if rows is not None:
            payload = np.flatnonzero(rows >= 0)
            if payload.size:
                sketches, sketch = self._sketch_rows, rows[payload]
                admissible[payload] = sketches.flags[sketch] & matcher.sketches.matches(
                    sketches.words()[sketch]
                )
        return admissible

    def _pair_admits(
        self, lefts: np.ndarray, rights: np.ndarray, eq: np.ndarray, compiled: CompiledQuery
    ) -> np.ndarray:
        """Per key: does its pair ``(lefts, rights)`` hold an admissible copy?

        ``eq`` is the pairs' ``(n, 2, b)`` fingerprint-equality mask
        (`SlotMatrix.pair_eq`).  Admissibility is evaluated *only on the
        slots whose fingerprint matched* — O(batch + hits), never O(table) —
        by `_copies_admit` over their gathered columns.
        """
        hit = np.zeros(len(eq), dtype=bool)
        keys, sides, slots = np.nonzero(eq)
        if keys.size == 0:
            return hit
        buckets = np.where(sides == 0, lefts[keys], rights[keys])
        hit[keys[self._slots_admit(buckets, slots, compiled)]] = True
        return hit

    def _slots_admit(
        self, buckets: np.ndarray, slots: np.ndarray, compiled: CompiledQuery | None
    ) -> np.ndarray:
        """Per occupied slot ``(buckets, slots)``: does it admit
        ``compiled``?  `_copies_admit` over the slots' gathered columns."""
        rows = None if self._payload_rows is None else self._payload_rows[buckets, slots]
        return self._copies_admit(
            self._avecs[buckets, slots], self._flags[buckets, slots], rows, compiled
        )

    def _pair_hits(self, lefts, rights, eq, rows, at, compiled) -> np.ndarray:
        """Per key: does its pair hold a copy admitting ``compiled``, in a
        slot (``eq``) or stashed (`Stash.match`'s ``rows``/``at``)?  Keys
        only a stashed entry admits count as stash hits."""
        if compiled is None:
            hit = eq.any(axis=(1, 2))
        else:
            hit = self._pair_admits(lefts, rights, eq, compiled)
        if rows.size:
            admitted = self._stash_admitted(rows, at, compiled)
            rescued = np.count_nonzero(~hit[admitted])
            if rescued and obs.state.enabled:
                _STASH_HITS.labels(kind=self.kind).inc(int(rescued))
            hit[admitted] = True
        return hit

    def _pair_codes(self, lefts, rights, eq, rows, at, compiled) -> np.ndarray:
        """`_pair_hits` for chain walks, which probe pairs past a key's
        deciding pair: per pair 1 if a slot admits ``compiled``, 2 if only
        stashed copies do, else 0 (uint8); `_answers` counts the stash
        hits at the deciding pairs."""
        codes = self._pair_admits(lefts, rights, eq, compiled).astype(np.uint8)
        if rows.size:
            admitted = self._stash_admitted(rows, at, compiled)
            codes[admitted[codes[admitted] == 0]] = 2
        return codes

    def _stash_admitted(self, rows: np.ndarray, at: np.ndarray, compiled) -> np.ndarray:
        """The probe rows whose pair has a stashed copy admitting
        ``compiled`` (distinct, ascending)."""
        stash = self.stash
        return np.unique(
            rows[self._copies_admit(stash.avecs[at], stash.flags[at], stash.rows[at], compiled)]
        )

    def _answers(self, codes: np.ndarray) -> np.ndarray:
        """Answers from `_pair_codes` at each key's deciding pair; keys
        answered only by a stash entry count as stash hits."""
        rescued = np.count_nonzero(codes == 2)
        if rescued and obs.state.enabled:
            _STASH_HITS.labels(kind=self.kind).inc(int(rescued))
        return codes != 0

    def _single_pair_query_many(
        self,
        fps: np.ndarray,
        homes: np.ndarray,
        compiled: CompiledQuery | None,
        alts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Fully vectorised one-bucket-pair probe (plain/mixed/bloom CCFs).

        Home and alternate rows are gathered in one fused `SlotMatrix.pair_eq`
        over the live (width-adaptive) fingerprint column, dispatched to the
        active kernel backend (`repro.kernels`); no snapshot is built.  A key
        hits on an admissible copy in its pair, stashed copies of the pair
        included.  Callers that already computed the partner indices (the
        FilterStore fans one hashing pass across many levels) pass ``alts``
        to skip the re-hash.
        """
        if alts is None:
            alts = self.geometry.alt_indices_many(homes, fps)
        eq = self.buckets.pair_eq(fps, homes, alts)
        rows, at = self.stash.match(fps, homes, alts)
        return self._pair_hits(homes, alts, eq, rows, at, compiled)

    # ------------------------------------------------------------------
    # Introspection for tests and experiments
    # ------------------------------------------------------------------

    def pair_fingerprint_counts(self) -> dict[tuple[int, int], int]:
        """Map (pair id, fingerprint) -> slot count, for invariant checking."""
        counts: dict[tuple[int, int], int] = {}
        for bucket, _slot, fp, _payload in self.buckets.iter_entries():
            counter_key = (self.geometry.pair_id(bucket, fp), fp)
            counts[counter_key] = counts.get(counter_key, 0) + 1
        return counts

    def _max_copies_per_pair(self) -> int:
        """The invariant cap on same-fingerprint slots in one pair."""
        return self.params.max_dupes

    def check_invariants(self) -> None:
        """Assert the per-pair fingerprint cap (Lemma 1 for capped variants)."""
        cap = self._max_copies_per_pair()
        for (pair_id, fingerprint), count in self.pair_fingerprint_counts().items():
            if count > cap:
                raise AssertionError(
                    f"pair {pair_id} holds {count} > cap={cap} copies of fingerprint "
                    f"{fingerprint:#x} in a {self.kind} CCF"
                )

    def __contains__(self, key: object) -> bool:
        """Container protocol: key-only membership (no predicate)."""
        return self.contains_key(key)

    def __len__(self) -> int:
        """Number of rows this filter represents (`num_rows_inserted`).

        Deduplicated and chain-discarded rows still count: both keep
        answering True, so the filter logically contains them.
        """
        return self.num_rows_inserted

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(buckets={self.buckets.num_buckets}, "
            f"b={self.params.bucket_size}, entries={self.num_entries}, "
            f"load={self.load_factor():.3f}, failed={self.failed})"
        )
