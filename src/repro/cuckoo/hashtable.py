"""Classic cuckoo hash table (key -> value), as reviewed in §4/§4.1.

Unlike the filters, the table stores full keys, updates values for
duplicate keys, and resizes itself (doubling) when an insertion cannot be
placed within MaxKicks — exactly the behaviour described in §4.1.

Storage is a payload-bearing :class:`~repro.cuckoo.buckets.SlotMatrix`: the
typed column holds a 63-bit **key digest** (one key hash; the home index is
``digest & (m-1)``) and the payload column holds the ``(key, value)`` pair.
The partner bucket is the digest's XOR jump, ``home ^ (mix64(digest ^
jump_seed) & (m-1))``, rather than §4.1's second hash function (DESIGN.md
§9), so the table places through `SlotMatrix.place` like every cuckoo
structure and kicks never re-hash a stored key.  Batch probes vectorise a
digest pre-filter against the live column — digest equality is necessary
for key equality — and only candidate rows fall back to exact key
comparison.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

from repro.cuckoo.buckets import SlotMatrix, next_power_of_two
from repro.hashing.mixers import (
    _mixed_seed,
    derive_seed,
    hash64,
    hash64_many,
    mix64,
    mix64_many,
)

DEFAULT_MAX_KICKS = 500

_MISSING = object()

#: Stored digests keep 63 bits of the first bucket hash, disjoint from the
#: uint64 matrix's all-ones EMPTY sentinel.
_DIGEST_MASK = (1 << 63) - 1


def _native_item(values: Sequence[object] | np.ndarray, index: int) -> object:
    """One element as a native Python object (numpy scalars unwrapped).

    Scalar hash/storage paths dispatch on Python types (stored keys are
    re-hashed by resizes, and `hash64` rejects numpy scalars),
    but only the elements that actually reach a scalar path need
    unwrapping — batch ingress never materialises a whole Python list.
    """
    value = values[index]
    return value.item() if isinstance(value, np.generic) else value


class CuckooHashTable:
    """An open-addressing key/value map with cuckoo collision resolution."""

    def __init__(
        self,
        num_buckets: int = 8,
        bucket_size: int = 4,
        max_kicks: int = DEFAULT_MAX_KICKS,
        seed: int = 0,
    ) -> None:
        self.bucket_size = bucket_size
        self.max_kicks = max_kicks
        self.seed = seed
        self.num_resizes = 0
        #: The victim stream's position: one draw per eviction.
        self.num_kicks = 0
        self._jump_seed = _mixed_seed(derive_seed(seed, "cht-jump"))
        self._victim_seed = derive_seed(seed, "cht-victim")
        self._generation = 0
        self._init_table(next_power_of_two(num_buckets))

    def _init_table(self, num_buckets: int) -> None:
        # 63-bit digests in a packed uint64 column (sentinel = 2^64-1, out
        # of the digest range by construction — no folding needed).
        self.buckets = SlotMatrix(num_buckets, self.bucket_size, with_payloads=True, fp_bits=63)
        self._salt = derive_seed(self.seed, "cht-h1", self._generation)
        self._count = 0

    # -- hashing ------------------------------------------------------------

    def _hashes(self, key: object) -> tuple[int, int, int]:
        """``(digest, home, partner)`` from one key hash (home = low bits)."""
        digest = hash64(key, self._salt) & _DIGEST_MASK
        mask = self.buckets.num_buckets - 1
        home = digest & mask
        return digest, home, home ^ (mix64(digest ^ self._jump_seed) & mask)

    def _hashes_many(
        self, keys: Sequence[object] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch `_hashes`, vectorised.

        Digests stay uint64 so comparisons against the packed digest column
        run natively (an int64/uint64 mix would promote to float64 and lose
        low bits).
        """
        mask = np.uint64(self.buckets.num_buckets - 1)
        digests = hash64_many(keys, self._salt) & np.uint64(_DIGEST_MASK)
        homes = digests & mask
        alts = homes ^ (mix64_many(digests ^ np.uint64(self._jump_seed)) & mask)
        return digests, homes.astype(np.int64), alts.astype(np.int64)

    # -- mapping protocol -----------------------------------------------------

    def __setitem__(self, key: object, value: Any) -> None:
        self._set_hashed(key, value, *self._hashes(key))

    def _set_hashed(self, key: object, value: Any, digest: int, i1: int, i2: int) -> None:
        """Upsert kernel shared by `__setitem__` and `insert_many`."""
        # Update in place if the key is already present.
        for bucket in (i1, i2):
            for slot, _digest, entry in self.buckets.iter_slots(bucket):
                if entry[0] == key:
                    self.buckets.set_slot(bucket, slot, digest, (key, value))
                    return
        self._insert_new((key, value), digest, i1, i2)

    def insert_many(self, keys: Sequence[object], values: Sequence[Any]) -> None:
        """Batch upsert: hash all keys in one pass, then place sequentially.

        A resize mid-batch re-salts the table and invalidates the remaining
        precomputed indices, so hashing restarts from the first unplaced key
        whenever the generation changes.  End state matches a scalar loop.
        """
        if len(keys) != len(values):
            raise ValueError("keys and values must have the same length")
        # Hashing consumes the input as-is (zero-copy for int ndarrays);
        # only the per-key placement unwraps elements to native objects —
        # stored keys are re-hashed by resizes and hash64 rejects numpy
        # scalars.
        index = 0
        while index < len(keys):
            generation = self._generation
            digests, h1s, h2s = self._hashes_many(keys[index:])
            base = index
            while index < len(keys) and self._generation == generation:
                offset = index - base
                self._set_hashed(
                    _native_item(keys, index),
                    _native_item(values, index),
                    int(digests[offset]),
                    int(h1s[offset]),
                    int(h2s[offset]),
                )
                index += 1

    def get_many(
        self, keys: Sequence[object] | np.ndarray, default: Any = None
    ) -> list[Any]:
        """Batch `get`: vectorised digest pre-filter, exact check per candidate.

        The live digest column answers "definitely absent" for most misses in
        one fancy-indexed comparison; only rows with a digest hit compare
        actual keys.
        """
        digests, h1s, h2s = self._hashes_many(keys)
        candidate = self.buckets.pair_eq(digests, h1s, h2s).any(axis=(1, 2))
        out = [default] * len(keys)
        for i in np.nonzero(candidate)[0].tolist():
            key = _native_item(keys, i)
            for bucket in (int(h1s[i]), int(h2s[i])):
                for _slot, _digest, entry in self.buckets.iter_slots(bucket):
                    if entry[0] == key:
                        out[i] = entry[1]
                        break
                else:
                    continue
                break
        return out

    def contains_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `__contains__`."""
        sentinel = _MISSING
        return np.fromiter(
            (value is not sentinel for value in self.get_many(keys, sentinel)),
            dtype=bool,
            count=len(keys),
        )

    def delete_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch delete: True per key actually removed (no KeyError).

        A vectorised digest pre-filter screens definite misses; only
        candidate rows run the exact per-key removal.
        """
        digests, h1s, h2s = self._hashes_many(keys)
        candidate = self.buckets.pair_eq(digests, h1s, h2s).any(axis=(1, 2))
        out = np.zeros(len(keys), dtype=bool)
        for i in np.nonzero(candidate)[0].tolist():
            out[i] = self._remove_key(_native_item(keys, i), int(h1s[i]), int(h2s[i]))
        return out

    def _remove_key(self, key: object, i1: int, i2: int) -> bool:
        for bucket in (i1, i2):
            for slot, _digest, entry in self.buckets.iter_slots(bucket):
                if entry[0] == key:
                    self.buckets.clear_slot(bucket, slot)
                    self._count -= 1
                    return True
        return False

    def _insert_new(self, pair: tuple[object, Any], digest: int, i1: int, i2: int) -> None:
        orphan = self._place(pair, digest, i1, i2)
        if orphan is None:
            self._count += 1
        else:
            # MaxKicks exhausted: grow the table and retry (§4.1), carrying
            # the displaced victim along with all resident pairs.
            self._resize(orphan)

    def _resize(self, pending: tuple[object, Any]) -> None:
        old_entries = [entry for _, _, _fp, entry in self.buckets.iter_entries()]
        old_entries.append(pending)
        new_size = self.buckets.num_buckets * 2
        while True:
            self._generation += 1
            self.num_resizes += 1
            self._init_table(new_size)
            if self._try_bulk_insert(old_entries):
                self._count = len(old_entries)
                return
            new_size *= 2

    def _try_bulk_insert(self, entries: list[tuple[object, Any]]) -> bool:
        for pair in entries:
            if self._place(pair, *self._hashes(pair[0])) is not None:
                return False
        return True

    def _place(
        self, pair: tuple[object, Any], digest: int, i1: int, i2: int
    ) -> tuple[object, Any] | None:
        """Place ``pair`` in bucket ``i1``, else kick it in from ``i2``.

        `SlotMatrix.place` moves the digests (up to ``max_kicks`` evictions
        on the victim stream at `num_kicks`); the pairs follow the same
        path.  Returns None once every displaced pair has a slot, otherwise
        the pair left homeless when the kicks run out (the caller grows the
        table).
        """
        _digest, _placed, self.num_kicks, path = self.buckets.place(
            digest, i1, i2, self.max_kicks, self._jump_seed, self._victim_seed, self.num_kicks
        )
        return self.buckets.carry_payloads(path, pair)

    def __getitem__(self, key: object) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def get(self, key: object, default: Any = None) -> Any:
        """Return the value stored for ``key``, or ``default``."""
        _digest, i1, i2 = self._hashes(key)
        for bucket in (i1, i2):
            for _slot, _digest, entry in self.buckets.iter_slots(bucket):
                if entry[0] == key:
                    return entry[1]
        return default

    def __delitem__(self, key: object) -> None:
        _digest, i1, i2 = self._hashes(key)
        if not self._remove_key(key, i1, i2):
            raise KeyError(key)

    def __contains__(self, key: object) -> bool:
        return self.get(key, _MISSING) is not _MISSING

    def __len__(self) -> int:
        return self._count

    def keys(self) -> Iterator[object]:
        """Yield all keys (arbitrary order)."""
        for _, _, _fp, entry in self.buckets.iter_entries():
            yield entry[0]

    def items(self) -> Iterator[tuple[object, Any]]:
        """Yield all (key, value) pairs (arbitrary order)."""
        for _, _, _fp, entry in self.buckets.iter_entries():
            yield entry

    def load_factor(self) -> float:
        """Fraction of slots occupied."""
        return self.buckets.load_factor()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CuckooHashTable(buckets={self.buckets.num_buckets}, b={self.bucket_size}, "
            f"items={self._count}, load={self.load_factor():.3f})"
        )
