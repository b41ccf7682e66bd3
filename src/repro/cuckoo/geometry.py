"""Bucket geometry of partial-key cuckoo hashing (§4.2).

:class:`BucketGeometry` is the one place where a key finds its buckets, for
every fingerprint structure in the repository: the cuckoo filters
(`repro.cuckoo.batch`), the conditional cuckoo filters and their predicate
views (through :class:`~repro.ccf.chain.PairGeometry`, which adds the chain
step), and the FilterStore's shared level geometry.  A key ``k`` hashes to
a ``key_bits``-wide fingerprint ``κ`` and a home bucket ``l``; its partner
bucket is ``l' = l XOR h(κ)``, computable from the stored fingerprint
alone.  Two structures built with the same ``(num_buckets, key_bits,
seed)`` therefore put every key in the same bucket pair, which is what lets
a key filter extracted from a CCF (Algorithm 2) be a plain
:class:`~repro.cuckoo.filter.CuckooFilter`.

Every hash stream derives from the seed under a ``geom-*`` salt.  The
scalar jump goes through a bounded :class:`~repro.hashing.mixers.JumpCache`.
The batch forms bypass it: an integer key column is mixed under the
fingerprint and index salts in one pass (`hashes_of_many`), and a batch of
jumps is read from a table of every fingerprint's jump hash
(`jump_table`), shared by all geometries of one salt and width.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.cuckoo.buckets import fingerprint_fold, is_power_of_two
from repro.hashing.mixers import (
    JumpCache,
    _mixed_seed,
    coerce_int_column,
    derive_seed,
    hash64,
    hash64_many,
    hash64_many_masked,
    mix64_many,
)

#: Widest fingerprint whose batch jumps are read from a `jump_table`
#: (``2**16`` int64 hashes, 512 KiB); wider ones are hashed per batch.
JUMP_TABLE_MAX_BITS = 16

#: (salt, width) pairs whose jump table stays alive, least recently used
#: evicted.  A geometry looks its table up per batch instead of holding it,
#: so a pickled geometry never carries one.
JUMP_TABLES_LIMIT = 16


@functools.lru_cache(maxsize=JUMP_TABLES_LIMIT)
def jump_table(salt: int, key_bits: int) -> np.ndarray:
    """``hash64(fp, salt)`` of every ``key_bits``-wide fingerprint, as
    read-only int64; masked by a bucket count it is that geometry's jump."""
    table = hash64_many(np.arange(1 << key_bits, dtype=np.int64), salt).view(np.int64)
    table.flags.writeable = False
    return table


class BucketGeometry:
    """Fingerprint, home bucket and XOR partner of partial-key cuckoo hashing."""

    __slots__ = (
        "num_buckets",
        "key_bits",
        "seed",
        "jump_seed",
        "_fp_mask",
        "_fp_fold",
        "_index_salt",
        "_fp_salt",
        "_jump_salt",
        "_jump_cache",
        "_key_seeds",
    )

    def __init__(self, num_buckets: int, key_bits: int, seed: int = 0) -> None:
        if not is_power_of_two(num_buckets):
            raise ValueError(f"num_buckets must be a power of two, got {num_buckets}")
        if not 1 <= key_bits <= 62:
            raise ValueError("key_bits must be in [1, 62]")
        self.num_buckets = num_buckets
        self.key_bits = key_bits
        self.seed = seed
        self._fp_mask = (1 << key_bits) - 1
        self._fp_fold = fingerprint_fold(key_bits)
        self._index_salt = derive_seed(seed, "geom-index")
        self._fp_salt = derive_seed(seed, "geom-fp")
        self._jump_salt = derive_seed(seed, "geom-jump")
        self._jump_cache = JumpCache(self._jump_salt, num_buckets - 1)
        # The fingerprint and index salts as `hashes_of_many` mixes them in.
        self._key_seeds = np.array(
            [[_mixed_seed(self._fp_salt)], [_mixed_seed(self._index_salt)]], dtype=np.uint64
        )
        #: The jump hash as the kick kernels compute it:
        #: ``mix64(fp ^ jump_seed) & (num_buckets - 1)`` is `fp_jump`.
        self.jump_seed = _mixed_seed(self._jump_salt)

    def fingerprint_of(self, key: object) -> int:
        """Return the key fingerprint κ (``key_bits`` wide).

        At boundary widths (8/16/32 bits) the all-ones value is reserved as
        the packed EMPTY sentinel and folds to 0 (DESIGN.md §9).
        """
        fp = hash64(key, self._fp_salt) & self._fp_mask
        return 0 if fp == self._fp_fold else fp

    def home_index(self, key: object) -> int:
        """Return the primary bucket l for ``key``."""
        return hash64(key, self._index_salt) & (self.num_buckets - 1)

    def fp_jump(self, fingerprint: int) -> int:
        """Return ``h(κ) mod m``, the XOR offset between a pair's buckets."""
        return self._jump_cache.jump(fingerprint)

    def alt_index(self, index: int, fingerprint: int) -> int:
        """Return the partner bucket ``index XOR h(κ)`` (an involution)."""
        return index ^ self.fp_jump(fingerprint)

    def pair_of(self, key: object) -> tuple[int, int]:
        """Return the first bucket pair (home, alternate) for ``key``."""
        home = self.home_index(key)
        return home, self.alt_index(home, self.fingerprint_of(key))

    def pair_id(self, bucket: int, fingerprint: int) -> int:
        """Return ``min(bucket, partner)``, the id of ``bucket``'s pair."""
        return min(bucket, self.alt_index(bucket, fingerprint))

    # -- batch geometry ----------------------------------------------------

    def hashes_of_many(
        self, keys: Sequence[object] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch (`fingerprint_of`, `home_index`, partner bucket) per key.

        An integer key column is mixed under the fingerprint and index salts
        in one ``(2, n)`` pass, `hash64_many`'s integer path for both salts
        at once (about half the time of two `hash64_many_masked` calls at a
        few hundred keys); other keys hash element-wise.  Bit-identical per
        element to the scalar forms, as int64 arrays.
        """
        column = coerce_int_column(keys)
        if column is None:
            fps, homes = self.fingerprints_of_many(keys), self.home_indices_of_many(keys)
        else:
            # An int64 mask of a hash row keeps its low bits exactly.
            hashes = mix64_many(column.astype(np.uint64) ^ self._key_seeds).view(np.int64)
            fps, homes = hashes[0] & self._fp_mask, hashes[1] & (self.num_buckets - 1)
            if self._fp_fold is not None:
                fps[fps == self._fp_fold] = 0
        return fps, homes, self.alt_indices_many(homes, fps)

    def fingerprints_of_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `fingerprint_of` (int64 array, bit-identical per element)."""
        return hash64_many_masked(keys, self._fp_salt, self._fp_mask, self._fp_fold)

    def home_indices_of_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `home_index` (int64 array, bit-identical per element)."""
        return hash64_many_masked(keys, self._index_salt, self.num_buckets - 1)

    def fp_jump_many(self, fingerprints: np.ndarray) -> np.ndarray:
        """Batch `fp_jump` (bypasses the memo): read from the `jump_table`
        up to :data:`JUMP_TABLE_MAX_BITS`, hashed beyond."""
        mask = self.num_buckets - 1
        if self.key_bits <= JUMP_TABLE_MAX_BITS:
            return jump_table(self._jump_salt, self.key_bits)[fingerprints] & mask
        return hash64_many_masked(fingerprints, self._jump_salt, mask)

    def alt_indices_many(self, indices: np.ndarray, fingerprints: np.ndarray) -> np.ndarray:
        """Batch `alt_index`."""
        return indices ^ self.fp_jump_many(fingerprints)
