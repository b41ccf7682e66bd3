"""Predicate-only filter extraction — Algorithm 2 and its chained analogue.

Given only a predicate ``P`` (no key), a CCF can be *specialised* into a
key-only approximate membership filter for the set ``S_P`` of keys that have
a matching attribute row:

* :func:`extract_key_filter` (Bloom and Mixed CCFs, Algorithm 2): every
  entry whose attribute sketch cannot match ``P`` is simply erased; what
  remains is a plain :class:`~repro.cuckoo.filter.CuckooFilter` over the
  same geometry, since the cuckoo filters and the CCFs hash keys through
  one :class:`~repro.cuckoo.geometry.BucketGeometry`.
* :class:`MarkedKeyFilter` (chained CCFs, §6.2): erasing entries would open
  gaps in chains — a pair could drop below ``d`` copies and make queries
  stop probing early, yielding false negatives.  Instead every fingerprint
  is kept and non-matching entries carry a one-bit mark; lookups replay the
  chain walk counting marked and unmarked copies alike.

Both views test every slot and stashed entry of the source at once, with
the batch admissibility test of its queries (`_copies_admit`), and copy the
slot columns, so later source mutations don't leak into the view.  The
marked view shares its source's :class:`~repro.ccf.chain.PairGeometry` (the
salts a real system would serialise alongside the table) and adds a
parallel bool marks matrix to its fingerprint
:class:`~repro.cuckoo.buckets.SlotMatrix` and a marks column to its stash,
so it ships exactly the typed columns its wire format packs.
"""

from __future__ import annotations

import numpy as np

from repro.ccf.base import ConditionalCuckooFilterBase
from repro.ccf.chain import PairGeometry
from repro.ccf.predicates import Predicate
from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.stash import Stash


def extract_key_filter(source: ConditionalCuckooFilterBase, predicate: Predicate) -> CuckooFilter:
    """Erase the entries of ``source`` that cannot match ``predicate``.

    The result is a cuckoo filter with the source's bucket count, bucket
    size, fingerprint width, kick budget, seed and storage mode, holding
    each surviving fingerprint in its slot and each matching stashed
    fingerprint in its stash; ``num_items`` counts both.
    """
    compiled = source.compile(predicate)
    params = source.params
    view = CuckooFilter(
        source.buckets.num_buckets,
        params.bucket_size,
        params.key_bits,
        params.max_kicks,
        params.seed,
        params.packed,
    )
    buckets, slots = np.nonzero(source.buckets.occupied_mask())
    keep = source._slots_admit(buckets, slots, compiled)
    buckets, slots = buckets[keep], slots[keep]
    view.buckets.fps[buckets, slots] = source.buckets.fps[buckets, slots]
    view.buckets.recount()
    stash = source.stash
    keep = source._copies_admit(stash.avecs, stash.flags, stash.rows, compiled)
    view.stash.extend(stash.fps[keep], stash.pairs[keep])
    view.num_items = view.buckets.filled + len(view.stash)
    view.failed = bool(view.stash)
    return view


class MarkedKeyFilter:
    """Chain-preserving predicate view of a chained CCF (§6.2).

    The fingerprint matrix keeps every copy; a parallel bool matrix holds
    the per-slot matching mark (the stash, its entries' marks as a column).
    The lookup replays Algorithm 5's walk, counting every fingerprint copy
    toward the ``d`` continue-condition but reporting a hit only on marked
    copies.
    """

    def __init__(
        self,
        geometry: PairGeometry,
        bucket_size: int,
        max_dupes: int,
        max_chain: int | None,
        packed: bool = True,
    ) -> None:
        self.geometry = geometry
        self.buckets = SlotMatrix(
            geometry.num_buckets, bucket_size, fp_bits=geometry.key_bits if packed else None
        )
        self.marks = np.zeros((geometry.num_buckets, bucket_size), dtype=bool)
        self.max_dupes = max_dupes
        self.max_chain = max_chain
        self.stash = Stash(marks=np.False_)

    @classmethod
    def from_ccf(cls, source: ConditionalCuckooFilterBase, predicate: Predicate) -> "MarkedKeyFilter":
        """Mark (not erase) entries of a chained CCF against ``predicate``."""
        compiled = source.compile(predicate)
        view = cls(
            source.geometry,
            source.params.bucket_size,
            source.params.max_dupes,
            source.params.max_chain,
            packed=source.params.packed,
        )
        buckets, slots = np.nonzero(source.buckets.occupied_mask())
        view.buckets.fps[buckets, slots] = source.buckets.fps[buckets, slots]
        view.buckets.recount()
        view.marks[buckets, slots] = source._slots_admit(buckets, slots, compiled)
        stash = source.stash
        marks = source._copies_admit(stash.avecs, stash.flags, stash.rows, compiled)
        view.stash.extend(stash.fps, stash.pairs, marks=marks)
        return view

    def _walk_limit(self) -> int:
        if self.max_chain is not None:
            return self.max_chain
        return self.geometry.num_buckets

    def contains(self, key: object) -> bool:
        """Key membership in the predicate-selected set (no false negatives)."""
        return self._contains_hashed(
            self.geometry.fingerprint_of(key), self.geometry.home_index(key)
        )

    def _contains_hashed(self, fingerprint: int, home: int) -> bool:
        """Scalar lookup on precomputed hashes; `contains_many` equals it."""

        def pair_hit(left: int, right: int) -> tuple[int, bool]:
            marks = self.stash.marks[self.stash.find(fingerprint, left, right)].tolist()
            for bucket in (left,) if left == right else (left, right):
                slots = np.flatnonzero(self.buckets.fps[bucket] == fingerprint)
                marks += self.marks[bucket, slots].tolist()
            return len(marks), any(marks)

        return self.geometry.walk_one(
            home, fingerprint, self.max_dupes, self._walk_limit(), pair_hit
        )

    def contains_many(self, keys) -> np.ndarray:
        """Batch `contains`: the chained CCF's vectorised chain walk.

        Every key walks its chain in `PairGeometry.walk_many`, where a pair
        hits when it holds a *marked* copy and every copy, marked or not,
        counts toward the ``d`` continue-condition.  Answers are identical
        to scalar `contains` per key.
        """
        fps, homes, alts = self.geometry.hashes_of_many(keys)
        marks, stash_marks = self.marks, self.stash.marks

        def pair_hit(lefts, rights, eq, rows, at):
            hit = (eq[:, 0] & marks[lefts]).any(axis=1) | (eq[:, 1] & marks[rights]).any(axis=1)
            hit[rows[stash_marks[at]]] = True
            return hit

        return self.geometry.walk_many(
            self.buckets,
            self.stash,
            fps,
            homes,
            alts,
            max_dupes=self.max_dupes,
            limit=self._walk_limit(),
            pair_hit=pair_hit,
        )

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    @property
    def num_entries(self) -> int:
        """Number of retained fingerprint slots (marked or not)."""
        return self.buckets.filled + len(self.stash)

    def load_factor(self) -> float:
        """Fraction of table slots occupied (stash excluded)."""
        return self.buckets.load_factor()

    def num_matching(self) -> int:
        """Number of slots still marked as matching the predicate."""
        table = int((self.marks & self.buckets.occupied_mask()).sum())
        return table + int(self.stash.marks.sum())

    def size_in_bits(self) -> int:
        """Size as a shipped artifact: fingerprint plus one marking bit."""
        return (self.buckets.capacity + len(self.stash)) * (self.geometry.key_bits + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MarkedKeyFilter(entries={self.num_entries}, "
            f"matching={self.num_matching()}, load={self.load_factor():.3f})"
        )
