"""Standard cuckoo filter (Fan et al. 2014), as reviewed in §4.2 of the paper.

Stores only a small fingerprint per key and uses *partial-key cuckoo hashing*:
the alternate bucket is ``l' = l XOR h(fingerprint)``, computable from the
stored fingerprint alone.  Supports insertion, membership testing and
deletion, with no false negatives for inserted keys.

Storage is a columnar :class:`~repro.cuckoo.buckets.SlotMatrix`: scalar
kernels and batch probes operate on the same live, width-adaptive
fingerprint matrix, so `contains_many` after a mutation pays no snapshot
rebuild (DESIGN.md §6, §9).  Keys hash through the
:class:`~repro.cuckoo.geometry.BucketGeometry` every fingerprint structure
shares, so the key filter extracted from a Bloom or Mixed CCF (Algorithm 2)
is a cuckoo filter over its source's geometry.

One deliberate deviation from the textbook structure, recorded in DESIGN.md:
on a MaxKicks failure the in-flight victim entry is stashed as an off-table
slot of its own pair instead of being dropped, so the no-false-negative
guarantee survives overload.  ``insert`` still reports the failure by
returning False and setting :attr:`failed`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cuckoo.batch import FingerprintBatchMixin
from repro.cuckoo.buckets import next_power_of_two


def buckets_for_capacity(capacity: int, bucket_size: int, target_load: float) -> int:
    """The power-of-two bucket count holding ``capacity`` items at ``target_load``."""
    if capacity < 1:
        raise ValueError("capacity must be positive")
    if not 0.0 < target_load <= 1.0:
        raise ValueError("target_load must be in (0, 1]")
    return next_power_of_two(max(1, round(capacity / target_load / bucket_size)))


class CuckooFilter(FingerprintBatchMixin):
    """Approximate-set-membership filter with partial-key cuckoo hashing.

    Constructed as ``CuckooFilter(num_buckets, bucket_size=4,
    fingerprint_bits=12, max_kicks=500, seed=0, packed=True)`` (the shared
    constructor in `repro.cuckoo.batch`); ``num_buckets`` must be a power of
    two.  Storage is width-adaptive by default (``packed=True``):
    fingerprints live in the minimal unsigned dtype for ``fingerprint_bits``
    (DESIGN.md §9).  ``packed=False`` keeps the legacy int64 layout;
    membership answers are bit-identical either way (the boundary-width
    sentinel fold applies to both).
    """

    @classmethod
    def from_capacity(
        cls,
        capacity: int,
        bucket_size: int = 4,
        fingerprint_bits: int = 12,
        target_load: float = 0.95,
        **kwargs: object,
    ) -> "CuckooFilter":
        """Size a filter for ``capacity`` items at ``target_load`` occupancy.

        §4.2: an optimally sized filter with b=4 empirically reaches ~95%
        load, hence the default target.
        """
        num_buckets = buckets_for_capacity(capacity, bucket_size, target_load)
        return cls(num_buckets, bucket_size, fingerprint_bits, **kwargs)

    # -- operations -----------------------------------------------------------

    def insert(self, key: object) -> bool:
        """Insert ``key``; returns False only on a MaxKicks failure.

        A failure leaves the filter still correct (the displaced victim is
        stashed) but flags it as over capacity via :attr:`failed`.
        """
        return self._insert_hashed(self.fingerprint_of(key), self.home_index(key))

    def contains(self, key: object) -> bool:
        """Return True if ``key`` may be in the set (no false negatives)."""
        fp = self.fingerprint_of(key)
        i1 = self.home_index(key)
        i2 = self.alt_index(i1, fp)
        if self.buckets.bucket_contains(i1, fp) or self.buckets.bucket_contains(i2, fp):
            return True
        return bool(self.stash.find(fp, i1, i2))

    def contains_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `contains`: one fused gather over both buckets per key.

        Probes the live (width-adaptive) fingerprint matrix via
        `SlotMatrix.pair_eq` — home and alternate rows in a single gather,
        compared at the packed dtype — so interleaving with mutations costs
        nothing; answers are identical to scalar `contains` per key.
        """
        fps = self.fingerprints_of_many(keys)
        homes = self.home_indices_of_many(keys)
        eq, alts = self._pair_eq_many(fps, homes)
        found = eq.any(axis=(1, 2))
        if self.stash:
            found[self.stash.match(fps, homes, alts)[0]] = True
        return found

    def delete(self, key: object) -> bool:
        """Remove one copy of ``key``; True if a fingerprint was removed.

        As with any cuckoo filter, deleting a key that was never inserted may
        remove another key's colliding fingerprint; callers must only delete
        keys they know to be present.
        """
        return self._delete_hashed(self.fingerprint_of(key), self.home_index(key))

    # -- statistics -----------------------------------------------------------

    def fpr_bound(self) -> float:
        """Upper bound 2b * 2^-f on the false positive rate (§4.2)."""
        return min(1.0, 2 * self.buckets.bucket_size * 2.0**-self.fingerprint_bits)

    def expected_fpr(self) -> float:
        """Refined bound E[D] * 2^-f using the realised fill (§7.1, Eq. 4)."""
        mean_filled_pair = 2 * self.buckets.bucket_size * self.load_factor()
        return min(1.0, mean_filled_pair * 2.0**-self.fingerprint_bits)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CuckooFilter(buckets={self.buckets.num_buckets}, b={self.buckets.bucket_size}, "
            f"f={self.fingerprint_bits}, items={self.num_items}, load={self.load_factor():.3f})"
        )
