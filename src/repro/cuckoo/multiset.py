"""Multiset cuckoo filter: the duplicate-key baseline of §4.3.

A regular cuckoo filter extended in the simplest possible way to multisets:
every insertion adds another copy of the key's fingerprint.  A key's two
buckets can hold at most ``2 * bucket_size`` copies, so heavily duplicated
keys exhaust their bucket pair and insertion fails — the failure mode that
Figure 4 quantifies and that the paper's chaining technique repairs.

Storage is the columnar :class:`~repro.cuckoo.buckets.SlotMatrix`; batch
`count_many`/`contains_many` probe the live fingerprint matrix directly.

``insert`` returns False at the first placement failure and latches
:attr:`failed`; experiment harnesses read the load factor at that point.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cuckoo.batch import FingerprintBatchMixin
from repro.cuckoo.buckets import next_power_of_two


class MultisetCuckooFilter(FingerprintBatchMixin):
    """Cuckoo filter that stores one fingerprint copy per insertion.

    Takes the shared constructor's arguments (`repro.cuckoo.batch`);
    ``num_buckets`` is rounded up to a power of two.
    """

    def __init__(self, num_buckets: int, *args: object, **kwargs: object) -> None:
        super().__init__(next_power_of_two(num_buckets), *args, **kwargs)

    # -- operations -----------------------------------------------------------

    def insert(self, key: object) -> bool:
        """Add one copy of ``key``; False once the bucket pair is exhausted."""
        return self._insert_hashed(self.fingerprint_of(key), self.home_index(key))

    def contains(self, key: object) -> bool:
        """Return True if at least one copy of ``key`` may be present."""
        return self.count(key) > 0

    def count(self, key: object) -> int:
        """Return the number of stored fingerprint copies matching ``key``.

        Upper-bounds the true multiplicity (fingerprint collisions inflate
        it); never undercounts an inserted key.
        """
        fp = self.fingerprint_of(key)
        i1 = self.home_index(key)
        i2 = self.alt_index(i1, fp)
        total = self.buckets.count_in_bucket(i1, fp)
        if i2 != i1:
            total += self.buckets.count_in_bucket(i2, fp)
        return total + len(self.stash.find(fp, i1, i2))

    def count_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `count`: fused copy counts over both buckets + the pair's
        stashed copies.

        One `SlotMatrix.pair_eq` gather probes the live fingerprint matrix;
        answers are identical to scalar `count` per key with no snapshot
        rebuild after mutations.
        """
        fps = self.fingerprints_of_many(keys)
        homes = self.home_indices_of_many(keys)
        eq, alts = self._pair_eq_many(fps, homes)
        totals = eq[:, 0].sum(axis=1)
        totals += np.where(alts == homes, 0, eq[:, 1].sum(axis=1))
        rows, _at = self.stash.match(fps, homes, alts)
        if rows.size:
            totals += np.bincount(rows, minlength=len(fps))
        return totals

    def contains_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `contains` (``count_many > 0``)."""
        return self.count_many(keys) > 0

    def delete(self, key: object) -> bool:
        """Remove one copy of ``key``; True if a fingerprint was removed."""
        return self._delete_hashed(self.fingerprint_of(key), self.home_index(key))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultisetCuckooFilter(buckets={self.buckets.num_buckets}, "
            f"b={self.buckets.bucket_size}, items={self.num_items}, "
            f"load={self.load_factor():.3f}, failed={self.failed})"
        )
