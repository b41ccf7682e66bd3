"""Columnar slot storage shared by every cuckoo structure in the repository.

A :class:`SlotMatrix` is the repository's storage engine: a contiguous
``(num_buckets, bucket_size)`` **fingerprint matrix** plus a per-bucket
**occupancy-count column**, and — for structures that carry rich per-slot
data (hash-table pairs, Bloom entries, converted groups) — an optional
parallel **payload column** of Python objects.  All cuckoo structures (hash
tables, filters, conditional filters) sit on top of it and place through
its one :meth:`SlotMatrix.place` (home bucket, then the shared kick chain);
the hashing — fingerprints, buckets, jump and victim seeds — stays with
the structures (for the fingerprint structures, in their one
:class:`~repro.cuckoo.geometry.BucketGeometry`).

Storage is **width-adaptive** (DESIGN.md §9): pass ``fp_bits`` and the
matrix picks the minimal unsigned dtype that holds an ``fp_bits``-wide
fingerprint (uint8/16/32/64), with the dtype's all-ones value as an in-band
``EMPTY`` sentinel; occupancy counts live in uint8.  A 12-bit fingerprint
then costs 2 bytes per slot instead of 8 — the memory-bandwidth win every
batch probe kernel rides on.  ``fp_bits=None`` keeps the legacy int64 layout
with ``EMPTY = -1`` (the reference mode the packed-parity property tests
compare against).

**EMPTY migration.**  The historical convention was a module-level
``EMPTY = -1`` in an int64 matrix.  Packed matrices store unsigned dtypes,
where -1 does not exist; the sentinel is now *per matrix* —
``SlotMatrix.empty`` — and equals ``iinfo(dtype).max`` for packed storage
(-1 for legacy int64).  Code comparing against free slots must use
``matrix.empty`` (or :meth:`occupied_mask`), never the module constant.
When ``fp_bits`` is exactly a dtype width (8/16/32), the all-ones
fingerprint value would collide with the sentinel; the fingerprint functions
reserve it by folding it to 0 (`fingerprint_fold`), identically in packed
and legacy storage so both answer bit-identically.

The typed matrix is the *single source of truth*: scalar kernels mutate it
directly and batch kernels index the very same live array, so there is no
snapshot to rebuild after a mutation and no drift between representations.
Mutation-then-probe workloads are therefore snapshot-free by construction
(see DESIGN.md §6, "Columnar storage contract").

``num_buckets`` must be a power of two because partial-key cuckoo hashing
derives the alternate bucket with XOR (§4.2 of the paper), which only stays
in range for power-of-two table sizes.
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

# ``grouped_ranks`` moved to the kernel package with the other hot kernels
# (DESIGN.md §12); re-exported here because it has always been part of this
# module's public surface.
from repro.kernels import active_backend, grouped_ranks  # noqa: F401
from repro.kernels._sequential import kick_one

#: Sentinel for a free slot in the *legacy* int64 fingerprint matrix.  Packed
#: matrices use ``iinfo(dtype).max`` instead; always read ``matrix.empty``.
EMPTY = -1


def next_power_of_two(n: int) -> int:
    """Return the smallest power of two >= n (minimum 1)."""
    if n <= 1:
        return 1
    return 1 << (n - 1).bit_length()


def is_power_of_two(n: int) -> bool:
    """Return True if n is a positive power of two."""
    return n > 0 and (n & (n - 1)) == 0


def dtype_for_bits(bits: int) -> np.dtype:
    """The minimal unsigned dtype holding a ``bits``-wide fingerprint."""
    if not 1 <= bits <= 63:
        raise ValueError(f"fingerprint widths must be in [1, 63], got {bits}")
    if bits <= 8:
        return np.dtype(np.uint8)
    if bits <= 16:
        return np.dtype(np.uint16)
    if bits <= 32:
        return np.dtype(np.uint32)
    return np.dtype(np.uint64)


def fingerprint_fold(bits: int) -> int | None:
    """The reserved all-ones fingerprint value for ``bits``-wide storage.

    When ``bits`` is exactly a packed dtype width (8/16/32), the all-ones
    fingerprint coincides with the in-band EMPTY sentinel, so fingerprint
    derivation folds it to 0 (see DESIGN.md §9).  Returns the folded value,
    or None when no folding is needed (the sentinel is then out of band).
    Folding depends only on the declared width — never on the storage mode —
    so packed and legacy int64 filters stay bit-identical.
    """
    return (1 << bits) - 1 if bits in (8, 16, 32) else None


class SlotMatrix:
    """Columnar ``num_buckets x bucket_size`` slot storage.

    Columns:

    * ``fps`` — the live ``(num_buckets, bucket_size)`` fingerprint matrix;
      minimal unsigned dtype for ``fp_bits``-wide fingerprints with
      ``empty = iinfo(dtype).max``, or legacy int64 with ``empty = -1`` when
      ``fp_bits`` is None.  Batch probes fancy-index this array directly.
    * ``counts`` — per-bucket occupancy counts (uint8, length
      ``num_buckets``); the `insert_many` first wave sizes its conflict-free
      placements from this column without touching the matrix rows.
    * ``payloads`` — optional flat (bucket-major) object column for the
      hash tables' slots, which carry a key and a value beside the
      fingerprint; ``None`` when the structure is fingerprint-only (every
      filter, CCFs included).

    Slots may be non-contiguous within a bucket (deletions leave holes);
    ``try_add`` always fills the first free slot.
    """

    EMPTY = EMPTY

    __slots__ = (
        "num_buckets",
        "bucket_size",
        "fp_bits",
        "empty",
        "fps",
        "counts",
        "payloads",
        "_filled",
        "_writeable",
    )

    def __init__(
        self,
        num_buckets: int,
        bucket_size: int,
        with_payloads: bool = False,
        fp_bits: int | None = None,
    ) -> None:
        if not is_power_of_two(num_buckets):
            raise ValueError(f"num_buckets must be a power of two, got {num_buckets}")
        if bucket_size < 1:
            raise ValueError("bucket_size must be at least 1")
        self.num_buckets = num_buckets
        self.bucket_size = bucket_size
        self.fp_bits = fp_bits
        if fp_bits is None:
            dtype = np.dtype(np.int64)
            self.empty = EMPTY
        else:
            dtype = dtype_for_bits(fp_bits)
            self.empty = int(np.iinfo(dtype).max)
        self.fps = np.full((num_buckets, bucket_size), self.empty, dtype=dtype)
        counts_dtype = np.uint8 if bucket_size <= np.iinfo(np.uint8).max else np.int64
        self.counts = np.zeros(num_buckets, dtype=counts_dtype)
        self.payloads: list[Any] | None = (
            [None] * (num_buckets * bucket_size) if with_payloads else None
        )
        self._filled = 0
        self._writeable = True

    @classmethod
    def from_columns(
        cls,
        fps: np.ndarray,
        counts: np.ndarray,
        fp_bits: int | None = None,
    ) -> "SlotMatrix":
        """Adopt externally provided column arrays without copying.

        The zero-copy ingress of the mapped-segment engine (DESIGN.md §10):
        ``fps`` and ``counts`` may be read-only ``np.memmap`` views straight
        out of a SEG1 file.  Probes run on the adopted arrays as-is; the
        first mutation promotes the matrix to writable heap copies
        (:meth:`promote`).  The arrays must be mutually consistent — the
        occupancy column is trusted, not recomputed, so adoption stays O(1)
        in the table size.
        """
        if fps.ndim != 2:
            raise ValueError(f"fps must be 2-d (num_buckets, bucket_size), got {fps.ndim}-d")
        num_buckets, bucket_size = fps.shape
        if not is_power_of_two(num_buckets):
            raise ValueError(f"num_buckets must be a power of two, got {num_buckets}")
        if bucket_size < 1:
            raise ValueError("bucket_size must be at least 1")
        if counts.shape != (num_buckets,):
            raise ValueError(
                f"counts must have shape ({num_buckets},), got {counts.shape}"
            )
        if fp_bits is None:
            if fps.dtype != np.dtype(np.int64):
                raise ValueError(
                    f"legacy matrices store int64 fingerprints, got {fps.dtype}"
                )
            empty = EMPTY
        else:
            expected = dtype_for_bits(fp_bits)
            if fps.dtype != expected:
                raise ValueError(
                    f"{fp_bits}-bit packed matrices store {expected} fingerprints, "
                    f"got {fps.dtype}"
                )
            empty = int(np.iinfo(expected).max)
        matrix = cls.__new__(cls)
        matrix.num_buckets = num_buckets
        matrix.bucket_size = bucket_size
        matrix.fp_bits = fp_bits
        matrix.empty = empty
        matrix.fps = fps
        matrix.counts = counts
        matrix.payloads = None
        matrix._filled = int(counts.sum())
        matrix._writeable = bool(fps.flags.writeable and counts.flags.writeable)
        return matrix

    def promote(self) -> None:
        """Replace read-only/mapped columns with writable heap copies.

        The copy-on-write half of the mapped-segment contract: query kernels
        never write the adopted columns, and any mutator funnels through
        this promotion first, so a mapped (file-backed) matrix silently
        becomes a private heap matrix on its first write.  ``np.array``
        drops the memmap subclass, so promoted columns are plain ndarrays.
        """
        if not self.fps.flags.writeable:
            self.fps = np.array(self.fps)
        if not self.counts.flags.writeable:
            self.counts = np.array(self.counts)
        self._writeable = True

    @property
    def writeable(self) -> bool:
        """False while the columns are adopted read-only (pre-promotion)."""
        return self._writeable

    @property
    def mapped_nbytes(self) -> int:
        """Bytes of file-backed (memmapped) column storage."""
        return sum(
            int(column.nbytes)
            for column in (self.fps, self.counts)
            if isinstance(column, np.memmap)
        )

    # -- bounds -----------------------------------------------------------

    def _check(self, bucket: int, slot: int) -> None:
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(f"bucket {bucket} out of range")
        if not 0 <= slot < self.bucket_size:
            raise IndexError(f"slot {slot} out of range")

    def _check_fp(self, fp: int) -> None:
        if fp < 0:
            raise ValueError("fingerprints must be non-negative; use clear_slot")
        if fp == self.empty or (self.fp_bits is not None and fp > self.empty):
            raise ValueError(
                f"fingerprint {fp} collides with the EMPTY sentinel of this "
                f"{self.fps.dtype} matrix (reserved by fingerprint_fold)"
            )

    # -- scalar slot access ------------------------------------------------

    def fp_at(self, bucket: int, slot: int) -> int:
        """Return the fingerprint at (bucket, slot), or ``empty``."""
        self._check(bucket, slot)
        return int(self.fps[bucket, slot])

    def set_slot(self, bucket: int, slot: int, fp: int, payload: Any = None) -> None:
        """Overwrite (bucket, slot) with ``fp`` (and optional payload)."""
        if not self._writeable:
            self.promote()
        self._check(bucket, slot)
        self._check_fp(fp)
        if self.fps[bucket, slot] == self.empty:
            self._filled += 1
            self.counts[bucket] += 1
        self.fps[bucket, slot] = fp
        if self.payloads is not None:
            self.payloads[bucket * self.bucket_size + slot] = payload
        elif payload is not None:
            raise ValueError("this SlotMatrix has no payload column")

    def clear_slot(self, bucket: int, slot: int) -> None:
        """Free (bucket, slot); no-op if already empty."""
        if not self._writeable:
            self.promote()
        self._check(bucket, slot)
        if self.fps[bucket, slot] != self.empty:
            self._filled -= 1
            self.counts[bucket] -= 1
            self.fps[bucket, slot] = self.empty
        if self.payloads is not None:
            self.payloads[bucket * self.bucket_size + slot] = None

    # -- bucket-level operations ------------------------------------------

    def try_add(self, bucket: int, fp: int) -> int:
        """Place ``fp`` in the first free slot of ``bucket``.

        Returns the slot index, or -1 if the bucket is full.
        """
        if not self._writeable:
            self.promote()
        self._check_fp(fp)
        if not 0 <= bucket < self.num_buckets:
            raise IndexError(f"bucket {bucket} out of range")
        if self.counts[bucket] >= self.bucket_size:
            return -1
        row = self.fps[bucket]
        for slot in range(self.bucket_size):
            if row[slot] == self.empty:
                row[slot] = fp
                self.counts[bucket] += 1
                self._filled += 1
                return slot
        raise AssertionError("occupancy count disagrees with fingerprint matrix")

    def place(
        self,
        fp: int,
        home: int,
        alt: int,
        max_kicks: int,
        jump_seed: int,
        victim_seed: int,
        counter: int,
    ) -> tuple[int, bool, int, list[tuple[int, int, int]]]:
        """Place ``fp`` at ``home``, else kick it in from ``alt``.

        The one placement of every cuckoo structure: `try_add` at the home
        bucket (which promotes mapped columns), then the shared kick chain
        (`repro.kernels._sequential.kick_one`) starting at the partner
        bucket, whose victim slots come from the counter-based stream
        ``(victim_seed, counter)`` and whose evicted fingerprints move on by
        ``mix64(fp ^ jump_seed)`` XOR jumps.  Returns ``kick_one``'s ``(fp,
        placed, counter, path)``: the in-flight fingerprint (to stash when
        ``placed`` is False), the advanced stream position, and each write
        as ``(bucket, slot, displaced fingerprint)`` — a home placement is
        the one-step path ``[(home, slot, empty)]`` — so callers with
        companion columns (payloads, attribute vectors, sketch row ids) move
        them along the same chain.
        """
        slot = self.try_add(home, fp)
        if slot >= 0:
            return fp, True, counter, [(home, slot, self.empty)]
        fp, placed, counter, path = kick_one(
            self.fps, self.counts, self.empty, fp, alt, 0, max_kicks, jump_seed, victim_seed,
            counter,
        )
        self._filled += placed
        return fp, placed, counter, path

    def carry_payloads(self, path: list[tuple[int, int, int]], payload: Any) -> Any:
        """Move payloads along a `place` path.

        ``payload`` goes into the path's first slot and each payload it
        displaces into the next, so payloads follow their fingerprints.
        Returns the payload pushed out of the last slot: None when the
        chain ended in a free slot, the homeless one when it ran out of
        kicks.
        """
        payloads, size = self.payloads, self.bucket_size
        for bucket, slot, _displaced in path:
            at = bucket * size + slot
            payload, payloads[at] = payloads[at], payload
        return payload

    def count(self, bucket: int) -> int:
        """Return the number of occupied slots in a bucket."""
        return int(self.counts[bucket])

    def is_full(self, bucket: int) -> bool:
        """Return True if the bucket has no free slot."""
        return self.counts[bucket] >= self.bucket_size

    def bucket_fps(self, bucket: int) -> list[int]:
        """Return the non-empty fingerprints of a bucket (in slot order)."""
        return [fp for fp in self.fps[bucket].tolist() if fp != self.empty]

    def bucket_contains(self, bucket: int, fp: int) -> bool:
        """Return True if any slot of ``bucket`` holds ``fp``."""
        return bool((self.fps[bucket] == fp).any())

    def count_in_bucket(self, bucket: int, fp: int) -> int:
        """Return how many slots of ``bucket`` hold ``fp``."""
        return int((self.fps[bucket] == fp).sum())

    def iter_slots(self, bucket: int) -> Iterator[tuple[int, int, Any]]:
        """Yield (slot, fp, payload) for non-empty slots of a bucket."""
        base = bucket * self.bucket_size
        payloads = self.payloads
        for slot, fp in enumerate(self.fps[bucket].tolist()):
            if fp != self.empty:
                yield slot, fp, None if payloads is None else payloads[base + slot]

    def remove_fp(self, bucket: int, fp: int) -> bool:
        """Clear the first slot of ``bucket`` holding ``fp``; False if none."""
        row = self.fps[bucket]
        for slot in range(self.bucket_size):
            if row[slot] == fp:
                self.clear_slot(bucket, slot)
                return True
        return False

    # -- whole-table operations -------------------------------------------

    def occupied_mask(self) -> np.ndarray:
        """Boolean (num_buckets, bucket_size) mask of occupied slots."""
        return self.fps != self.empty

    def iter_entries(self) -> Iterator[tuple[int, int, int, Any]]:
        """Yield (bucket, slot, fp, payload) for every occupied slot."""
        size = self.bucket_size
        payloads = self.payloads
        flat = self.fps.ravel()
        occupied = np.nonzero(flat != self.empty)[0]
        for index in occupied.tolist():
            yield (
                index // size,
                index % size,
                int(flat[index]),
                None if payloads is None else payloads[index],
            )

    def pair_eq(self, fps: np.ndarray, homes: np.ndarray, alts: np.ndarray) -> np.ndarray:
        """Fused bucket-pair probe: one gather over home+alt rows.

        Returns the ``(n, 2, bucket_size)`` equality mask of each key's
        fingerprint against its home row (``[:, 0]``) and alternate row
        (``[:, 1]``).  The home and alternate rows are gathered in a single
        ``take`` over the live matrix (no per-bucket re-gather) and the
        comparison runs in the matrix's native dtype, so packed tables probe
        at their narrow width end to end.  Query fingerprints are always
        valid stored values (non-negative, never the sentinel), so the
        unsigned cast is exact.  Dispatches to the active kernel backend
        (`repro.kernels`); every backend answers bit-identically.
        """
        return active_backend().pair_eq(self.fps, fps, homes, alts)

    def clear_slots(self, buckets: np.ndarray, slots: np.ndarray) -> None:
        """Vectorised bulk clear of distinct occupied (bucket, slot) pairs.

        The batch-delete kernel's scatter: all targeted slots must be
        occupied and pairwise distinct (the caller's rank-deduping
        guarantees both).  Payload-bearing matrices also drop the objects.
        """
        if buckets.size == 0:
            return
        if not self._writeable:
            self.promote()
        self.fps[buckets, slots] = self.empty
        np.subtract.at(self.counts, buckets, 1)
        self._filled -= int(buckets.size)
        if self.payloads is not None:
            size = self.bucket_size
            for flat in (buckets * size + slots).tolist():
                self.payloads[flat] = None

    def plan_bulk_placement(
        self, homes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Plan a conflict-free first wave: one row per free slot per bucket.

        Given each row's target bucket, rows are ranked within their bucket
        (stable sort, so earlier rows win) and the first
        ``bucket_size - counts[bucket]`` of each bucket's rows are assigned
        to that bucket's actual free slots (holes from deletions honoured
        via a per-bucket empty-slot rank).  Returns
        ``(rows, buckets, slots, residue)``: the planned rows (indices into
        ``homes``), their target buckets and slots, and the left-over row
        indices in ascending input order.

        The planner only *reads* the matrix; callers scatter their columns
        into ``fps[buckets, slots]`` (and any parallel columns), then update
        occupancy via `recount` or `note_bulk_placement`.  Shared by the
        cuckoo-filter first wave and wave eviction (`cuckoo/batch.py`) and
        store compaction (`store/compaction.py`).  Dispatches to the active
        kernel backend (`repro.kernels`).
        """
        return active_backend().plan_bulk_placement(
            self.fps, self.counts, self.empty, homes
        )

    def note_bulk_placement(self, buckets: np.ndarray) -> None:
        """Account for a first-wave scatter into ``fps[buckets, slots]``."""
        if not self._writeable:
            self.promote()
        np.add.at(self.counts, buckets, 1)
        self._filled += int(buckets.size)

    def note_kernel_fills(self, placed: int) -> None:
        """Account for ``placed`` slots filled by a dispatch kernel.

        The wave-eviction kernel (`repro.kernels`) writes the fingerprint
        matrix and maintains the occupancy column itself; only the derived
        filled total lives outside the columns, so the host reconciles it
        here after the kernel returns.
        """
        self._filled += int(placed)

    def recount(self) -> None:
        """Rebuild the occupancy column from the fingerprint matrix.

        For bulk loaders (deserialisation) that write the matrix
        wholesale instead of going through the slot mutators.
        """
        if not self._writeable:
            self.promote()
        self.counts[:] = (self.fps != self.empty).sum(axis=1)
        self._filled = int(self.counts.sum())

    def state(self) -> tuple[list, list | None]:
        """The full logical content, for equality assertions in tests."""
        return (self.fps.tolist(), None if self.payloads is None else list(self.payloads))

    @property
    def capacity(self) -> int:
        """Total number of slots."""
        return self.num_buckets * self.bucket_size

    @property
    def filled(self) -> int:
        """Number of occupied slots."""
        return self._filled

    @property
    def bytes_per_slot(self) -> int:
        """Storage bytes per fingerprint slot (the width-adaptive payoff)."""
        return int(self.fps.itemsize)

    def fingerprint_bytes(self) -> int:
        """Total bytes of the fingerprint matrix (``fps.nbytes``)."""
        return int(self.fps.nbytes)

    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return self._filled / self.capacity

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SlotMatrix(num_buckets={self.num_buckets}, bucket_size={self.bucket_size}, "
            f"dtype={self.fps.dtype.name}, load={self.load_factor():.3f})"
        )
