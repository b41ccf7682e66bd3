"""Predicate-only filter extraction — Algorithm 2 and its chained analogue.

Given only a predicate ``P`` (no key), a CCF can be *specialised* into a
key-only approximate membership filter for the set ``S_P`` of keys that have
a matching attribute row:

* :class:`ExtractedKeyFilter` (Bloom and Mixed CCFs, Algorithm 2): every
  entry whose attribute sketch cannot match ``P`` is simply erased; what
  remains is a plain cuckoo-filter bit pattern over the same geometry.
* :class:`MarkedKeyFilter` (chained CCFs, §6.2): erasing entries would open
  gaps in chains — a pair could drop below ``d`` copies and make queries
  stop probing early, yielding false negatives.  Instead every fingerprint
  is kept and non-matching entries carry a one-bit mark; lookups replay the
  chain walk counting marked and unmarked copies alike.

Both views share their source filter's :class:`~repro.ccf.chain.PairGeometry`
(the salts a real system would serialise alongside the table) but copy the
slot columns, so later source mutations don't leak into the view.  Storage
is columnar (a fingerprint :class:`~repro.cuckoo.buckets.SlotMatrix`; the
marked view adds a parallel bool marks matrix), so views ship exactly the
typed columns their wire format packs.
"""

from __future__ import annotations

import numpy as np

from repro.ccf.base import ConditionalCuckooFilterBase
from repro.ccf.chain import PairGeometry
from repro.ccf.predicates import Predicate
from repro.cuckoo.buckets import SlotMatrix


class ExtractedKeyFilter:
    """Key-only cuckoo filter extracted from a Bloom/Mixed CCF (Algorithm 2)."""

    def __init__(self, geometry: PairGeometry, bucket_size: int, packed: bool = True) -> None:
        self.geometry = geometry
        self.buckets = SlotMatrix(
            geometry.num_buckets, bucket_size, fp_bits=geometry.key_bits if packed else None
        )
        self.stash_fingerprints: list[int] = []

    @classmethod
    def from_ccf(cls, source: ConditionalCuckooFilterBase, predicate: Predicate) -> "ExtractedKeyFilter":
        """Erase non-matching entries of ``source`` into a key-only filter."""
        compiled = source.compile(predicate)
        view = cls(source.geometry, source.params.bucket_size, packed=source.params.packed)
        for bucket, slot, entry in source.iter_entries():
            if source._entry_matches(entry, compiled):
                view.buckets.set_slot(bucket, slot, entry.fp)
        for entry in source.stash:
            if source._entry_matches(entry, compiled):
                view.stash_fingerprints.append(entry.fp)
        return view

    def contains(self, key: object) -> bool:
        """Key-only membership against the extracted set (no false negatives)."""
        fingerprint = self.geometry.fingerprint_of(key)
        left = self.geometry.home_index(key)
        right = self.geometry.alt_index(left, fingerprint)
        if self.buckets.bucket_contains(left, fingerprint):
            return True
        if right != left and self.buckets.bucket_contains(right, fingerprint):
            return True
        return fingerprint in self.stash_fingerprints

    def contains_many(self, keys) -> np.ndarray:
        """Batch `contains`: one vectorised probe of both buckets per key.

        This is the hot call of the shipped-filter deployment (§2): the
        fact-table site probes every scan key against a few-KiB view, so the
        probe must not pay a Python loop per key.  Both buckets are gathered
        in one fused `SlotMatrix.pair_eq` probe at the packed width (the
        probe dispatches to the active kernel backend, `repro.kernels`).
        Answers are identical to scalar `contains` per key.
        """
        fps = self.geometry.fingerprints_of_many(keys)
        homes = self.geometry.home_indices_of_many(keys)
        alts = self.geometry.alt_indices_many(homes, fps)
        found = self.buckets.pair_eq(fps, homes, alts).any(axis=(1, 2))
        if self.stash_fingerprints:
            stash = np.fromiter(
                self.stash_fingerprints, dtype=np.int64, count=len(self.stash_fingerprints)
            )
            found |= np.isin(fps, stash)
        return found

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    @property
    def num_entries(self) -> int:
        """Number of surviving fingerprints."""
        return self.buckets.filled + len(self.stash_fingerprints)

    def load_factor(self) -> float:
        """Fraction of table slots occupied (stash excluded)."""
        return self.buckets.load_factor()

    def size_in_bits(self) -> int:
        """Size as a shipped artifact: one key fingerprint per slot."""
        return (self.buckets.capacity + len(self.stash_fingerprints)) * self.geometry.key_bits

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ExtractedKeyFilter(entries={self.num_entries}, "
            f"load={self.load_factor():.3f})"
        )


class MarkedKeyFilter:
    """Chain-preserving predicate view of a chained CCF (§6.2).

    The fingerprint matrix keeps every copy; a parallel bool matrix holds
    the per-slot matching mark.  The lookup replays Algorithm 5's walk,
    counting every fingerprint copy toward the ``d`` continue-condition but
    reporting a hit only on marked copies.
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
        self.stash_entries: list[tuple[int, bool]] = []

    def set_slot(self, bucket: int, slot: int, fp: int, matching: bool) -> None:
        """Store one (fingerprint, mark) pair."""
        self.buckets.set_slot(bucket, slot, fp)
        self.marks[bucket, slot] = matching

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
        for bucket, slot, entry in source.iter_entries():
            view.set_slot(bucket, slot, entry.fp, source._entry_matches(entry, compiled))
        for entry in source.stash:
            view.stash_entries.append((entry.fp, source._entry_matches(entry, compiled)))
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
        stash_has_fp = False
        for stash_fp, matches in self.stash_entries:
            if stash_fp == fingerprint:
                if matches:
                    return True
                # A stashed copy means d-counts along this fingerprint's
                # chain may have decreased; disable the early stop below.
                stash_has_fp = True
        limit = self._walk_limit()
        walked = 0
        for left, right in self.geometry.pair_walk(home, fingerprint):
            if walked >= limit:
                break
            walked += 1
            copies = 0
            hit = False
            buckets = (left,) if left == right else (left, right)
            for bucket in buckets:
                row = self.buckets.fps[bucket].tolist()
                for slot, stored_fp in enumerate(row):
                    if stored_fp == fingerprint:
                        copies += 1
                        hit = hit or bool(self.marks[bucket, slot])
            if hit:
                return True
            if copies == self.max_dupes or stash_has_fp:
                continue
            return False
        # Lmax exhausted with every pair d-full: conservative True (Theorem 3).
        return True

    def contains_many(self, keys) -> np.ndarray:
        """Batch `contains`: the chained CCF's vectorised chain walk.

        A marked stash entry answers True, as in the scalar lookup; every
        other key walks its chain in `PairGeometry.walk_many`, where a pair
        hits when it holds a *marked* copy and every copy, marked or not,
        counts toward the ``d`` continue-condition.  Answers are identical
        to scalar `contains` per key.
        """
        fps = self.geometry.fingerprints_of_many(keys)
        homes = self.geometry.home_indices_of_many(keys)
        alts = self.geometry.alt_indices_many(homes, fps)
        out = np.zeros(len(fps), dtype=bool)
        sticky = np.zeros(len(fps), dtype=bool)
        if self.stash_entries:
            stash = np.array([fp for fp, _m in self.stash_entries], dtype=np.int64)
            marked = np.array([m for _fp, m in self.stash_entries], dtype=bool)
            sticky = np.isin(fps, stash)
            out = np.isin(fps, stash[marked])
        walk = np.nonzero(~out)[0]
        marks = self.marks
        out[walk] = self.geometry.walk_many(
            self.buckets,
            fps[walk],
            homes[walk],
            alts[walk],
            max_dupes=self.max_dupes,
            limit=self._walk_limit(),
            sticky=sticky[walk],
            pair_hit=lambda lefts, rights, eq: (
                (eq[:, 0] & marks[lefts]).any(axis=1) | (eq[:, 1] & marks[rights]).any(axis=1)
            ),
        )
        return out

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    @property
    def num_entries(self) -> int:
        """Number of retained fingerprint slots (marked or not)."""
        return self.buckets.filled + len(self.stash_entries)

    def load_factor(self) -> float:
        """Fraction of table slots occupied (stash excluded)."""
        return self.buckets.load_factor()

    def num_matching(self) -> int:
        """Number of slots still marked as matching the predicate."""
        table = int((self.marks & self.buckets.occupied_mask()).sum())
        return table + sum(1 for _fp, m in self.stash_entries if m)

    def size_in_bits(self) -> int:
        """Size as a shipped artifact: fingerprint plus one marking bit."""
        return (self.buckets.capacity + len(self.stash_entries)) * (self.geometry.key_bits + 1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MarkedKeyFilter(entries={self.num_entries}, "
            f"matching={self.num_matching()}, load={self.load_factor():.3f})"
        )
