"""Chained cuckoo hash table: an exact multimap via the §6.2 chaining idea.

§11 observes that "the chaining technique can also be used to allow regular
cuckoo hash tables, which store the full key, to store duplicates".  This
module implements that extension: a (key -> set of values) multimap with
cuckoo placement, where a key overflows into further bucket pairs once a
pair holds ``max_dupes`` of its entries.

Because full keys are stored, the chain geometry can be derived per level:
level ``j`` of a key hashes to a 63-bit digest ``h(key, j)`` whose low bits
are the home bucket and whose XOR jump ``mix64(digest ^ jump_seed)`` gives
the partner, as in `repro.cuckoo.hashtable` (DESIGN.md §9).  The Lemma 1/2
reasoning carries over: a pair never holds more than ``max_dupes`` entries
of one key, kicks (`SlotMatrix.place`) relocate entries only within their
own (level) pair, and a lookup stops at the first pair holding fewer than
``max_dupes`` entries of the key.

Removal cannot simply clear a slot — that would open a gap in the chain and
hide deeper values — so removed entries become *tombstones* that keep the
chain walkable; a tombstone slot is reused by later insertions of the same
key (and only the same key).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.cuckoo.buckets import SlotMatrix, next_power_of_two
from repro.hashing.mixers import _mixed_seed, derive_seed, hash64, mix64

DEFAULT_MAX_KICKS = 200
#: Safety bound on chain levels walked (a key cannot use more pairs than
#: buckets exist).
_MAX_LEVELS_FACTOR = 1


class _Entry:
    """One stored (key, value) pair; ``alive`` is False for tombstones."""

    __slots__ = ("key", "value", "level", "alive")

    def __init__(self, key: object, value: Any, level: int, alive: bool = True) -> None:
        self.key = key
        self.value = value
        self.level = level
        self.alive = alive

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.alive else " (tombstone)"
        return f"_Entry({self.key!r} -> {self.value!r}, level={self.level}{flag})"


class ChainedCuckooHashTable:
    """An exact set-multimap (key -> distinct values) with chained overflow."""

    def __init__(
        self,
        num_buckets: int = 16,
        bucket_size: int = 4,
        max_dupes: int = 3,
        max_kicks: int = DEFAULT_MAX_KICKS,
        seed: int = 0,
    ) -> None:
        if max_dupes < 1:
            raise ValueError("max_dupes must be at least 1")
        if max_dupes > 2 * bucket_size:
            raise ValueError("max_dupes cannot exceed a pair's 2b slots")
        self.bucket_size = bucket_size
        self.max_dupes = max_dupes
        self.max_kicks = max_kicks
        self.seed = seed
        self.num_resizes = 0
        #: The victim stream's position: one draw per eviction.
        self.num_kicks = 0
        self._jump_seed = _mixed_seed(derive_seed(seed, "ccht-jump"))
        self._victim_seed = derive_seed(seed, "ccht-victim")
        self._generation = 0
        self._init_table(next_power_of_two(num_buckets))

    def _init_table(self, num_buckets: int) -> None:
        # 63-bit (key, level) digests in a packed uint64 column, matching
        # the plain hash table's width-adaptive storage.
        self.buckets = SlotMatrix(num_buckets, self.bucket_size, with_payloads=True, fp_bits=63)
        self._salt = derive_seed(self.seed, "ccht-h1", self._generation)
        self._count = 0

    # -- geometry -----------------------------------------------------------

    def _hashes(self, key: object, level: int) -> tuple[int, int, int]:
        """``(digest, left, right)`` of a (key, level) pair from one hash.

        The 63-bit typed-column digest; its low bits are the home bucket
        and its XOR jump the partner.
        """
        digest = hash64((key, level), self._salt) & ((1 << 63) - 1)
        mask = self.buckets.num_buckets - 1
        left = digest & mask
        return digest, left, left ^ (mix64(digest ^ self._jump_seed) & mask)

    def _key_entries(
        self, key: object, level: int, digest: int, left: int, right: int
    ) -> list[tuple[int, int, _Entry]]:
        """(bucket, slot, entry) triples for ``key`` at chain ``level``."""
        found = []
        for bucket in (left,) if left == right else (left, right):
            for slot, stored_digest, entry in self.buckets.iter_slots(bucket):
                if stored_digest == digest and entry.key == key and entry.level == level:
                    found.append((bucket, slot, entry))
        return found

    def _max_levels(self) -> int:
        return max(2, self.buckets.num_buckets * _MAX_LEVELS_FACTOR)

    # -- operations -----------------------------------------------------------

    def add(self, key: object, value: Any) -> bool:
        """Add ``value`` to ``key``'s set; returns False if already present."""
        for level in range(self._max_levels()):
            hashes = self._hashes(key, level)
            slots = self._key_entries(key, level, *hashes)
            for _bucket, _slot, entry in slots:
                if entry.alive and entry.value == value:
                    return False
            # Reuse a tombstone of the same key first: it keeps pair counts
            # (and hence chain walks) unchanged.
            for _bucket, _slot, entry in slots:
                if not entry.alive:
                    entry.value = value
                    entry.alive = True
                    self._count += 1
                    return True
            if len(slots) >= self.max_dupes:
                continue
            orphan = self._place(_Entry(key, value, level), *hashes)
            if orphan is None:
                self._count += 1
                return True
            # Placement failed even after kicks: the new entry was swapped
            # into the table but ``orphan`` (the last displaced victim) was
            # not.  Grow the table carrying it along; the rebuild recounts.
            self._resize(orphan)
            return True
        raise RuntimeError("chain walk exhausted; table pathologically small")

    def _place(self, entry: _Entry, digest: int, left: int, right: int) -> "_Entry | None":
        """Cuckoo placement (`SlotMatrix.place`, victim stream at
        `num_kicks`); returns the displaced orphan on failure."""
        _digest, _placed, self.num_kicks, path = self.buckets.place(
            digest, left, right, self.max_kicks, self._jump_seed, self._victim_seed,
            self.num_kicks,
        )
        return self.buckets.carry_payloads(path, entry)

    def _resize(self, orphan: _Entry) -> None:
        """Double the table and re-add every live pair plus the orphan.

        Re-adding goes through :meth:`add`, so a nested overflow triggers a
        nested resize; entries added so far are preserved by the nested
        rebuild and the remaining ones continue into the newest table.
        """
        entries = [entry for _, _, _digest, entry in self.buckets.iter_entries()]
        entries.append(orphan)
        alive = [(e.key, e.value) for e in entries if e.alive]
        self._generation += 1
        self.num_resizes += 1
        self._init_table(self.buckets.num_buckets * 2)
        for key, value in alive:
            self.add(key, value)

    def get(self, key: object) -> list[Any]:
        """Return all values stored for ``key`` (exact, in chain order)."""
        values: list[Any] = []
        for level in range(self._max_levels()):
            slots = self._key_entries(key, level, *self._hashes(key, level))
            values.extend(entry.value for _b, _s, entry in slots if entry.alive)
            if len(slots) < self.max_dupes:
                break
        return values

    def contains(self, key: object, value: Any | None = None) -> bool:
        """Key (or key+value) membership, exact."""
        if value is None:
            return bool(self.get(key))
        return value in self.get(key)

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    def remove(self, key: object, value: Any) -> bool:
        """Remove one (key, value); leaves a chain-preserving tombstone."""
        for level in range(self._max_levels()):
            slots = self._key_entries(key, level, *self._hashes(key, level))
            for _bucket, _slot, entry in slots:
                if entry.alive and entry.value == value:
                    entry.alive = False
                    self._count -= 1
                    return True
            if len(slots) < self.max_dupes:
                return False
        return False

    def count(self, key: object) -> int:
        """Number of live values stored for ``key``."""
        return len(self.get(key))

    def __len__(self) -> int:
        return self._count

    def items(self) -> Iterator[tuple[object, Any]]:
        """Yield all live (key, value) pairs (arbitrary order)."""
        for _bucket, _slot, _digest, entry in self.buckets.iter_entries():
            if entry.alive:
                yield entry.key, entry.value

    def load_factor(self) -> float:
        """Occupied slots (including tombstones) over capacity."""
        return self.buckets.load_factor()

    def check_invariants(self) -> None:
        """Per-(key, level) slot count never exceeds max_dupes."""
        counts: dict[tuple[object, int], int] = {}
        for _bucket, _slot, _digest, entry in self.buckets.iter_entries():
            signature = (entry.key, entry.level)
            counts[signature] = counts.get(signature, 0) + 1
        for (key, level), count in counts.items():
            if count > self.max_dupes:
                raise AssertionError(
                    f"key {key!r} holds {count} > d={self.max_dupes} entries at level {level}"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChainedCuckooHashTable(buckets={self.buckets.num_buckets}, "
            f"b={self.bucket_size}, d={self.max_dupes}, items={self._count}, "
            f"load={self.load_factor():.3f})"
        )
