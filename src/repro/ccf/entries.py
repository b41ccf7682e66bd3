"""Entry objects stored in CCF bucket slots.

Three entry shapes exist across the CCF variants:

* :class:`VectorEntry` — key fingerprint + attribute fingerprint vector
  (plain, chained, and pre-conversion mixed CCFs; §5.1);
* :class:`BloomEntry` — key fingerprint + per-entry Bloom filter over raw
  (attribute index, value) pairs (Bloom CCF; §5.2);
* :class:`ConvertedGroup` / :class:`GroupSlot` — the Mixed CCF's Bloom
  conversion (§6.1): when a bucket pair accumulates more than ``d``
  duplicates of one fingerprint, their ``d`` vector entries are replaced by a
  single logical group that owns exactly ``d`` slots of the pair and stores a
  Bloom filter over attribute *fingerprint* components.  Each owned slot
  holds a :class:`GroupSlot` pointing at the shared group, so cuckoo kicks
  can relocate individual slots within the pair without splitting the group's
  payload.

Every entry carries a ``matching`` flag, normally True.  Predicate-only
extraction from a chained CCF (§6.2) cannot erase non-matching entries —
that would break chain-walk termination counts — so it marks them instead.

A Bloom entry's or converted group's sketch, ``bloom``, keeps its bits as
one row of its CCF's sketch rows (DESIGN.md §6), which batch probes test
by row index; a :class:`GroupSlot` exposes its group's.  Such an entry's
``matching`` flag is its sketch's row flag, so batch probes read it with
the bits.
"""

from __future__ import annotations

from typing import Any

from repro.sketches.bloom import BloomFilter


class VectorEntry:
    """A key fingerprint with an attribute fingerprint vector."""

    __slots__ = ("fp", "avec", "matching")

    def __init__(self, fp: int, avec: tuple[int, ...], matching: bool = True) -> None:
        self.fp = fp
        self.avec = avec
        self.matching = matching

    def same_row(self, fp: int, avec: tuple[int, ...]) -> bool:
        """True if this entry stores exactly this (fingerprint, vector) pair."""
        return self.fp == fp and self.avec == avec

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = "" if self.matching else ", non-matching"
        return f"VectorEntry(fp={self.fp:#x}, avec={self.avec}{flag})"


class BloomEntry:
    """A key fingerprint with a per-entry Bloom attribute sketch."""

    __slots__ = ("fp", "bloom")

    def __init__(self, fp: int, bloom: BloomFilter, matching: bool = True) -> None:
        self.fp = fp
        self.bloom = bloom
        self.matching = matching

    @property
    def matching(self) -> bool:
        """Kept as the sketch's row flag."""
        return self.bloom.flag

    @matching.setter
    def matching(self, value: bool) -> None:
        self.bloom.flag = value

    def add_attributes(self, values: tuple[Any, ...]) -> None:
        """Insert each (attribute index, raw value) pair into the sketch."""
        for index, value in enumerate(values):
            self.bloom.add((index, value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BloomEntry(fp={self.fp:#x}, fill={self.bloom.fill_ratio():.3f})"


class ConvertedGroup:
    """Shared payload of a Bloom-converted duplicate group (Mixed CCF).

    Owns exactly ``num_slots`` (= the CCF's ``d``) slots in one bucket pair.
    The Bloom filter stores (attribute index, attribute *fingerprint*)
    components, reflecting Algorithm 3's double hashing: value -> fingerprint
    -> Bloom bits.
    """

    __slots__ = ("fp", "bloom", "num_slots")

    def __init__(self, fp: int, bloom: BloomFilter, num_slots: int) -> None:
        self.fp = fp
        self.bloom = bloom
        self.num_slots = num_slots
        self.matching = True

    @property
    def matching(self) -> bool:
        """Kept as the sketch's row flag; the group's slots share it."""
        return self.bloom.flag

    @matching.setter
    def matching(self, value: bool) -> None:
        self.bloom.flag = value

    def add_vector(self, avec: tuple[int, ...]) -> None:
        """Absorb one attribute fingerprint vector into the group sketch."""
        for index, component in enumerate(avec):
            self.bloom.add((index, component))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ConvertedGroup(fp={self.fp:#x}, slots={self.num_slots}, "
            f"fill={self.bloom.fill_ratio():.3f})"
        )


class GroupSlot:
    """One table slot owned by a :class:`ConvertedGroup`."""

    __slots__ = ("group",)

    def __init__(self, group: ConvertedGroup) -> None:
        self.group = group

    @property
    def fp(self) -> int:
        """The group's key fingerprint (used by kick relocation)."""
        return self.group.fp

    @property
    def matching(self) -> bool:
        """Groups share one matching flag."""
        return self.group.matching

    @property
    def bloom(self) -> BloomFilter:
        """The group's sketch, shared by its slots."""
        return self.group.bloom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GroupSlot({self.group!r})"
