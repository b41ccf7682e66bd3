"""Standard Bloom filter built on :class:`~repro.sketches.bitarray.BitArray`.

Used in three places in the reproduction:

* as the per-entry attribute sketch of the Bloom-CCF variant (§5.2),
* as the conversion target of the Mixed CCF (§6.1), and
* as the classical baseline in bit-efficiency comparisons (§10.2).

The CCFs keep their sketches as rows of one
:class:`~repro.sketches.bitarray.BitRows` rather than as filter objects,
and hash through the same :class:`SketchHashing`, so a CCF sketch holds
exactly the bits of a :class:`BloomFilter` fed the same values.

The filter is parameterised directly by bit count and hash count because the
paper sizes the per-entry sketches that way (4-24 bits, 2-4 hashes);
:meth:`BloomFilter.optimal_params` provides the textbook sizing for callers
that start from an (n, target FPR) pair instead.

:class:`BatchProbe` tests one predicate against many same-parameter filters
at once: filters kept as rows of one :class:`~repro.sketches.bitarray.BitRows`
(as a CCF's payload sketches are) are gathered as one uint64 matrix by row
index and compared with per-value bit masks computed once.

Every filter with the same (num_bits, num_hashes, seed) shares one
:class:`SketchHashing`, so a CCF's thousands of per-entry sketches, which
see a few hundred distinct (attribute, value) pairs, hash each pair once
rather than once per row.
"""

from __future__ import annotations

import functools
import math
import threading
from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.hashing.families import HashFamily
from repro.hashing.mixers import canonical_bytes
from repro.sketches.bitarray import BitArray

#: Distinct values one :class:`SketchHashing` memoises; older ones are
#: evicted first.  A small tuple value and its positions take about 0.2 KiB,
#: so a full memo holds about 3 MiB.
POSITION_MEMO_LIMIT = 1 << 14

#: Parameter sets with a live shared state (least recently used evicted).
#: Filters keep their own reference, so eviction costs only a fresh memo.
HASHING_STATES_LIMIT = 16


class SketchHashing:
    """The hashing state shared by every Bloom filter with one parameter set.

    Holds the :class:`HashFamily` for ``(num_hashes, seed)`` and a memo from
    value to its ``num_hashes`` bit positions.  A flat tuple of exact
    ``int`` and ``str`` elements — every ``(attribute index, value)`` pair
    the CCFs add — is its own memo key: such tuples are equal exactly when
    the hash sees the same input.  Any other value is keyed by
    ``canonical_bytes(value)``, because Python's ``1 == True == 1.0`` and
    ``0.0 == -0.0`` would merge values the hash keeps apart; a bytes key
    never equals a tuple key.  Positions are a pure function of the value,
    so memoised bits are bit-identical to hashing afresh, and eviction only
    costs a re-derivation.  Hits are one dict read; misses take a lock,
    because filters used from different threads share the memo.
    """

    __slots__ = ("num_bits", "family", "limit", "_memo", "_lock")

    def __init__(self, num_bits: int, num_hashes: int, seed: int) -> None:
        self.num_bits = num_bits
        self.family = HashFamily(num_hashes, seed)
        self.limit = POSITION_MEMO_LIMIT
        # An OrderedDict evicts its oldest key in O(1); a plain dict's first
        # key sits behind every slot deleted before it.
        self._memo: OrderedDict[tuple | bytes, tuple[int, ...]] = OrderedDict()
        self._lock = threading.Lock()

    def positions(self, value: object) -> tuple[int, ...]:
        """The bit positions of ``value``, hashed on its first request."""
        key = value
        if type(value) is tuple:
            for item in value:
                if type(item) is not int and type(item) is not str:
                    key = canonical_bytes(value)
                    break
        else:
            key = canonical_bytes(value)
        positions = self._memo.get(key)
        if positions is None:
            positions = tuple(self.family.indexes(value, self.num_bits))
            with self._lock:
                memo = self._memo
                while len(memo) >= self.limit:
                    memo.popitem(last=False)
                memo[key] = positions
        return positions

    def __len__(self) -> int:
        return len(self._memo)

    def __reduce__(self) -> tuple:
        # Pickles (and deep copies) re-attach to the process's shared state
        # instead of carrying the memo.
        return shared_hashing, (self.num_bits, self.family.num_hashes, self.family.seed)


@functools.lru_cache(maxsize=HASHING_STATES_LIMIT)
def shared_hashing(num_bits: int, num_hashes: int, seed: int) -> SketchHashing:
    """The one :class:`SketchHashing` of Bloom filters with these parameters."""
    return SketchHashing(num_bits, num_hashes, seed)


class BloomFilter:
    """A fixed-size Bloom filter for arbitrary hashable values."""

    def __init__(self, num_bits: int, num_hashes: int, seed: int = 0) -> None:
        if num_bits < 1:
            raise ValueError("a Bloom filter needs at least one bit")
        if num_hashes < 1:
            raise ValueError("a Bloom filter needs at least one hash function")
        self.num_bits = num_bits
        self.num_hashes = num_hashes
        self.seed = seed
        self.num_inserted = 0
        self._bits = BitArray(num_bits)
        self._hashing = shared_hashing(num_bits, num_hashes, seed)

    @staticmethod
    def optimal_params(num_items: int, target_fpr: float) -> tuple[int, int]:
        """Return ``(num_bits, num_hashes)`` for ``num_items`` at ``target_fpr``.

        Classical sizing: ``m = -n ln(p) / (ln 2)^2`` and ``k = (m/n) ln 2``.
        """
        if num_items < 1:
            raise ValueError("num_items must be positive")
        if not 0.0 < target_fpr < 1.0:
            raise ValueError("target_fpr must be in (0, 1)")
        num_bits = max(1, math.ceil(-num_items * math.log(target_fpr) / math.log(2) ** 2))
        num_hashes = max(1, round(num_bits / num_items * math.log(2)))
        return num_bits, num_hashes

    @staticmethod
    def optimal_num_hashes(num_bits: int, num_items: int) -> int:
        """Return the FPR-minimising hash count for a fixed bit budget."""
        if num_items < 1:
            raise ValueError("num_items must be positive")
        return max(1, round(num_bits / num_items * math.log(2)))

    def add(self, value: object) -> None:
        """Insert ``value`` into the filter."""
        self._bits.set_many(self._hashing.positions(value))
        self.num_inserted += 1

    def __contains__(self, value: object) -> bool:
        return all(self._bits.get(i) for i in self._hashing.positions(value))

    def positions(self, value: object) -> tuple[int, ...]:
        """Bit positions ``value`` probes in any same-parameter filter.

        Positions depend only on (num_bits, num_hashes, seed), so they come
        from the parameters' shared memo (:class:`SketchHashing`) and can be
        tested against many filters (:class:`BatchProbe`).
        """
        return self._hashing.positions(value)

    def contains(self, value: object) -> bool:
        """Return True if ``value`` may have been inserted (no false negatives)."""
        return value in self

    def fill_ratio(self) -> float:
        """Return the fraction of bits set."""
        return self._bits.fill_ratio()

    def expected_fpr(self, num_items: int | None = None) -> float:
        """Return the textbook FPR estimate ``(1 - e^{-kn/m})^k``.

        With no argument, uses the number of :meth:`add` calls so far.  Note
        (per §7 of the paper, citing Bose et al.) that for very small filters
        this approximation underestimates the true FPR.
        """
        n = self.num_inserted if num_items is None else num_items
        if n < 0:
            raise ValueError("num_items must be non-negative")
        k, m = self.num_hashes, self.num_bits
        return (1.0 - math.exp(-k * n / m)) ** k

    def empirical_fpr(self) -> float:
        """Return the FPR implied by the current fill ratio (``fill^k``).

        This is exact in expectation for a query value never inserted, given
        the realised bit pattern, and is the estimator the evaluation harness
        uses for per-entry attribute sketches.
        """
        return self.fill_ratio() ** self.num_hashes

    def union_update(self, other: "BloomFilter") -> None:
        """Merge another filter built with identical parameters and seed."""
        if (self.num_bits, self.num_hashes, self.seed) != (
            other.num_bits,
            other.num_hashes,
            other.seed,
        ):
            raise ValueError("can only union Bloom filters with identical parameters")
        self._bits.union_update(other._bits)
        self.num_inserted += other.num_inserted

    def copy(self) -> "BloomFilter":
        """Return an independent copy."""
        clone = BloomFilter(self.num_bits, self.num_hashes, self.seed)
        clone._bits = self._bits.copy()
        clone.num_inserted = self.num_inserted
        return clone

    def size_in_bits(self) -> int:
        """Return the size of the bit payload (excludes parameters)."""
        return self.num_bits

    def payload_bytes(self) -> bytes:
        """Serialise the bit payload (parameters travel separately)."""
        return self._bits.to_bytes()

    @classmethod
    def from_payload(
        cls, num_bits: int, num_hashes: int, seed: int, payload: bytes, num_inserted: int
    ) -> "BloomFilter":
        """Reconstruct a filter from :meth:`payload_bytes` output."""
        bloom = cls(num_bits, num_hashes, seed)
        bloom._bits = BitArray.from_bytes(payload, num_bits)
        bloom.num_inserted = num_inserted
        return bloom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"BloomFilter(num_bits={self.num_bits}, num_hashes={self.num_hashes}, "
            f"inserted={self.num_inserted}, fill={self.fill_ratio():.3f})"
        )


class BatchProbe:
    """A conjunction of value alternatives, tested on many filters at once.

    ``alternatives`` holds one sequence of values per conjunct; a filter
    admits the probe when, for every conjunct, it contains at least one of
    its values.  Probe positions depend only on (num_bits, num_hashes,
    seed), so each value's positions become one little-endian uint64 bit
    mask up front; :meth:`matches` then tests filters' live bits, read as
    rows of a :class:`~repro.sketches.bitarray.BitRows` word matrix.
    Answers equal ``all(any(value in f for value in values) for values in
    alternatives)`` per filter.
    """

    __slots__ = ("masks",)

    def __init__(
        self, num_bits: int, num_hashes: int, seed: int, alternatives: Sequence[Sequence[object]]
    ) -> None:
        hashing = shared_hashing(num_bits, num_hashes, seed)
        words = (num_bits + 63) // 64
        self.masks = []
        for values in alternatives:
            rows = []
            for value in values:
                row = [0] * words
                for position in hashing.positions(value):
                    row[position >> 6] |= 1 << (position & 63)
                rows.append(row)
            self.masks.append(np.array(rows, dtype=np.uint64).reshape(len(rows), words))

    def matches(self, words: np.ndarray) -> np.ndarray:
        """Per row of an ``(n, words)`` uint64 matrix of filter bits (rows
        of `BitRows.words` whose stride is the masks' words): does it admit
        every conjunct?  (bool array)"""
        bits = words[:, None, :]
        ok = np.ones(len(words), dtype=bool)
        for masks in self.masks:
            ok &= ((bits & masks) == masks).all(axis=2).any(axis=1)
        return ok
