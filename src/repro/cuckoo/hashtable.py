"""Classic cuckoo hash table (key -> value), as reviewed in §4/§4.1.

Unlike the filters, the table stores full keys, uses two independent bucket
hashes (not partial-key hashing), updates values for duplicate keys, and
resizes itself (doubling) when an insertion cannot be placed within MaxKicks
— exactly the behaviour described in §4.1.

Storage is a payload-bearing :class:`~repro.cuckoo.buckets.SlotMatrix`: the
typed column holds a 63-bit **key digest** (the full first bucket hash, so
the home index is just ``digest & (m-1)``) and the payload column holds the
``(key, value)`` pair.  Batch probes vectorise a digest pre-filter against
the live column — digest equality is necessary for key equality — and only
candidate rows fall back to exact key comparison.
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Sequence

import numpy as np

from repro.cuckoo.buckets import SlotMatrix, next_power_of_two
from repro.hashing.mixers import derive_seed, hash64, hash64_many

DEFAULT_MAX_KICKS = 500

_MISSING = object()

#: Stored digests keep 63 bits of the first bucket hash, disjoint from the
#: uint64 matrix's all-ones EMPTY sentinel.
_DIGEST_MASK = (1 << 63) - 1


def _native_item(values: Sequence[object] | np.ndarray, index: int) -> object:
    """One element as a native Python object (numpy scalars unwrapped).

    Scalar hash/storage paths dispatch on Python types (stored keys are
    re-hashed by kicks and resizes, and `hash64` rejects numpy scalars),
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
        self._rng = random.Random(derive_seed(seed, "cht-rng"))
        self._generation = 0
        self._init_table(next_power_of_two(num_buckets))

    def _init_table(self, num_buckets: int) -> None:
        # 63-bit digests in a packed uint64 column (sentinel = 2^64-1, out
        # of the digest range by construction — no folding needed).
        self.buckets = SlotMatrix(num_buckets, self.bucket_size, with_payloads=True, fp_bits=63)
        self._salt1 = derive_seed(self.seed, "cht-h1", self._generation)
        self._salt2 = derive_seed(self.seed, "cht-h2", self._generation)
        self._count = 0

    # -- hashing ------------------------------------------------------------

    def _digest(self, key: object) -> int:
        """The 63-bit typed-column digest (home index = low bits)."""
        return hash64(key, self._salt1) & _DIGEST_MASK

    def _indexes(self, key: object) -> tuple[int, int]:
        mask = self.buckets.num_buckets - 1
        return hash64(key, self._salt1) & mask, hash64(key, self._salt2) & mask

    def _indexes_many(
        self, keys: Sequence[object] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch `_indexes` plus digests: both bucket hashes, vectorised.

        Digests stay uint64 so comparisons against the packed digest column
        run natively (an int64/uint64 mix would promote to float64 and lose
        low bits).
        """
        mask = np.uint64(self.buckets.num_buckets - 1)
        h1 = hash64_many(keys, self._salt1)
        digests = h1 & np.uint64(_DIGEST_MASK)
        i1 = (h1 & mask).astype(np.int64)
        i2 = (hash64_many(keys, self._salt2) & mask).astype(np.int64)
        return digests, i1, i2

    # -- mapping protocol -----------------------------------------------------

    def __setitem__(self, key: object, value: Any) -> None:
        i1, i2 = self._indexes(key)
        self._set_hashed(key, value, i1, i2)

    def _set_hashed(self, key: object, value: Any, i1: int, i2: int) -> None:
        """Upsert kernel shared by `__setitem__` and `insert_many`."""
        # Update in place if the key is already present.
        for bucket in (i1, i2):
            for slot, _digest, entry in self.buckets.iter_slots(bucket):
                if entry[0] == key:
                    self.buckets.set_slot(bucket, slot, self._digest(key), (key, value))
                    return
        self._insert_new((key, value), i1, i2)

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
        # stored keys are re-hashed by kicks/resizes and hash64 rejects
        # numpy scalars.
        index = 0
        while index < len(keys):
            generation = self._generation
            _digests, h1s, h2s = self._indexes_many(keys[index:])
            base = index
            while index < len(keys) and self._generation == generation:
                offset = index - base
                self._set_hashed(
                    _native_item(keys, index),
                    _native_item(values, index),
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
        digests, h1s, h2s = self._indexes_many(keys)
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
        digests, h1s, h2s = self._indexes_many(keys)
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

    def _insert_new(self, pair: tuple[object, Any], i1: int, i2: int) -> None:
        orphan = self._place(pair, i1, i2)
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
            i1, i2 = self._indexes(pair[0])
            if self._place(pair, i1, i2) is not None:
                return False
        return True

    def _place(
        self, pair: tuple[object, Any], i1: int, i2: int
    ) -> tuple[object, Any] | None:
        """Place ``pair`` in bucket ``i1`` or ``i2``, kicking residents on.

        The one kick loop: up to ``max_kicks`` random evictions.  Returns
        None once every displaced pair has a slot, otherwise the pair left
        homeless when the kicks run out (the caller grows the table).
        """
        digest = self._digest(pair[0])
        if (
            self.buckets.try_add(i1, digest, pair) >= 0
            or self.buckets.try_add(i2, digest, pair) >= 0
        ):
            return None
        item = pair
        current = self._rng.choice((i1, i2))
        for _ in range(self.max_kicks):
            victim_slot = self._rng.randrange(self.bucket_size)
            victim = self.buckets.payload_at(current, victim_slot)
            self.buckets.set_slot(current, victim_slot, self._digest(item[0]), item)
            item = victim
            a, b = self._indexes(item[0])
            current = b if current == a else a
            if self.buckets.try_add(current, self._digest(item[0]), item) >= 0:
                return None
        return item

    def __getitem__(self, key: object) -> Any:
        value = self.get(key, _MISSING)
        if value is _MISSING:
            raise KeyError(key)
        return value

    def get(self, key: object, default: Any = None) -> Any:
        """Return the value stored for ``key``, or ``default``."""
        for bucket in self._indexes(key):
            for _slot, _digest, entry in self.buckets.iter_slots(bucket):
                if entry[0] == key:
                    return entry[1]
        return default

    def __delitem__(self, key: object) -> None:
        i1, i2 = self._indexes(key)
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
