"""A cuckoo filter with semi-sorted bucket storage (§4.2).

The referenced optimisation from Fan et al.: buckets store their
fingerprints as a compressed code — sorted 4-bit prefixes encoded
combinatorially plus raw suffixes — saving one bit per entry and making the
space cost ``(log2(1/ρ) + 2)/β`` bits per item.  The slots live in the same
:class:`~repro.cuckoo.buckets.SlotMatrix` as every other cuckoo structure
(DESIGN.md §6), so the filter inserts, probes, deletes and batches exactly
like :class:`~repro.cuckoo.filter.CuckooFilter`; the codes are derived from
the live slots (:meth:`SemiSortedCuckooFilter.bucket_codes`, through
`repro.cuckoo.semisort`), and ``size_in_bits`` is their size.

Fingerprints use the semi-sorting convention that 0 marks an empty slot, so
key fingerprints are drawn from ``[1, 2^f)``: 0 folds to 1, as does the
all-ones value the packed EMPTY sentinel reserves at 8/16-bit widths.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.cuckoo.batch import DEFAULT_MAX_KICKS
from repro.cuckoo.buckets import next_power_of_two
from repro.cuckoo.filter import CuckooFilter, buckets_for_capacity
from repro.cuckoo.semisort import encode_bucket, encoded_bucket_bits


class SemiSortedCuckooFilter(CuckooFilter):
    """Approximate-set-membership filter over semi-sorted 4-slot buckets.

    ``num_buckets`` is rounded up to a power of two.  Not a wire format of
    its own: `repro.ccf.serialize.dumps` refuses it, since a plain cuckoo
    filter reloaded from its slots would probe for the unfolded fingerprint
    0 and miss the stored 1.
    """

    BUCKET_SIZE = 4  # the semi-sorting codec is defined for b = 4

    def __init__(
        self,
        num_buckets: int,
        fingerprint_bits: int = 12,
        max_kicks: int = DEFAULT_MAX_KICKS,
        seed: int = 0,
    ) -> None:
        if fingerprint_bits <= 4 or fingerprint_bits > 62:
            raise ValueError("fingerprint_bits must be in (4, 62] for semi-sorting")
        super().__init__(
            next_power_of_two(num_buckets), self.BUCKET_SIZE, fingerprint_bits, max_kicks, seed
        )

    @classmethod
    def from_capacity(
        cls,
        capacity: int,
        fingerprint_bits: int = 12,
        target_load: float = 0.95,
        **kwargs: object,
    ) -> "SemiSortedCuckooFilter":
        """`CuckooFilter.from_capacity` at the codec's fixed b = 4."""
        num_buckets = buckets_for_capacity(capacity, cls.BUCKET_SIZE, target_load)
        return cls(num_buckets, fingerprint_bits, **kwargs)

    def fingerprint_of(self, key: object) -> int:
        """Nonzero fingerprint in [1, 2^f): zero is the empty-slot marker."""
        return super().fingerprint_of(key) or 1

    def fingerprints_of_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `fingerprint_of` (int64 array, bit-identical per element)."""
        fps = super().fingerprints_of_many(keys)
        fps[fps == 0] = 1
        return fps

    def bucket_codes(self) -> list[int]:
        """Every bucket's semi-sorted code, encoded from its live slots."""
        return [
            encode_bucket(self.buckets.bucket_fps(bucket), self.fingerprint_bits)
            for bucket in range(self.buckets.num_buckets)
        ]

    def size_in_bits(self) -> int:
        """The semi-sorted size: one encoded code per bucket, plus one
        fingerprint per stashed overflow entry."""
        return (
            self.buckets.num_buckets * encoded_bucket_bits(self.fingerprint_bits)
            + len(self.stash) * self.fingerprint_bits
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SemiSortedCuckooFilter(buckets={self.buckets.num_buckets}, "
            f"f={self.fingerprint_bits}, load={self.load_factor():.3f})"
        )
