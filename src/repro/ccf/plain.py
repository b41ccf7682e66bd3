"""Plain conditional cuckoo filter: the no-chaining baseline (§4.3, §10.4).

A regular cuckoo filter that stores attribute fingerprint vectors and simply
allows duplicate key fingerprints in a bucket pair.  A key's two buckets can
hold at most ``2b`` copies, and — as §4.3 and Figure 4 show — insertion
starts failing at low load factors once keys are duplicated, catastrophically
so under skewed (Zipf) duplication.  This is the "Plain" method of the
JOB-light experiments, which never produced reasonably sized filters.
"""

from __future__ import annotations

from typing import Any

from repro.ccf.base import ConditionalCuckooFilterBase


class PlainCCF(ConditionalCuckooFilterBase):
    """CCF with fingerprint vectors, duplicates allowed, no chaining."""

    kind = "plain"

    #: Plain placement is the one policy that can unlearn a row: every entry
    #: lives in its key's single bucket pair and removing it affects no chain
    #: walk or shared sketch.  This is what makes the plain variant the level
    #: structure of the mutable FilterStore.
    supports_deletion = True

    def _insert_hashed(
        self,
        fingerprint: int,
        home: int,
        values: tuple[Any, ...] | None,
        avec: tuple[int, ...] | None,
    ) -> bool:
        """Insert one row into the key's single bucket pair.

        Returns False on a MaxKicks placement failure (the structure is then
        flagged failed; the displaced victim is stashed in its own pair so
        queries stay superset-correct).  Exact duplicate (fingerprint,
        vector) rows of the pair, in its slots or its stash, are
        deduplicated, matching the failure criterion of the multiset
        experiments: a failure is a *unique* pair that cannot generate a new
        entry.
        """
        if avec is None:
            avec = self.fingerprinter.vector(values)
        self.num_rows_inserted += 1
        right = self.geometry.alt_index(home, fingerprint)
        slots, stashed = self._fp_entries_in_pair(home, right, fingerprint)
        if (slots or stashed) and self._row_at(home, right, fingerprint, avec) is not None:
            return True
        return self._place_in_pair(
            home, right, fingerprint, avec, copies=len(slots) + len(stashed)
        )

    def _row_at(
        self, left: int, right: int, fingerprint: int, avec: tuple[int, ...]
    ) -> tuple[int, int] | int | None:
        """Where pair ``(left, right)`` stores exactly the row
        ``(fingerprint, avec)``: its ``(bucket, slot)``, else its stash
        position, else None.  Scans the columns slot by slot and stops at
        the row, as the per-row store paths want."""
        want = list(avec)
        fps, avecs = self.buckets.fps, self._avecs
        for bucket in (left,) if right == left else (left, right):
            row = fps[bucket].tolist()
            if fingerprint in row:
                for slot, fp in enumerate(row):
                    if fp == fingerprint and avecs[bucket, slot].tolist() == want:
                        return bucket, slot
        stash = self.stash
        for at in stash.find(fingerprint, left, right):
            if stash.avecs[at].tolist() == want:
                return at
        return None

    def _row_present(self, fingerprint: int, home: int, avec: tuple[int, ...]) -> bool:
        """Is this exact (fingerprint, vector) row stored in its pair, in a
        slot or stashed?

        The read-before-write primitive of the FilterStore's cross-level
        dedup: inserts skip rows an older level already represents, so the
        whole stack keeps the monolith's one-entry-per-row semantics and a
        single delete removes the row everywhere.
        """
        right = self.geometry.alt_index(home, fingerprint)
        return self._row_at(home, right, fingerprint, avec) is not None

    def _delete_hashed(
        self, fingerprint: int, home: int, avec: tuple[int, ...], alt: int | None = None
    ) -> bool:
        """Remove the entry storing exactly this (fingerprint, vector) row.

        Probes the key's single bucket pair (then its stashed entries) for
        the row and frees that one slot.  Exact-duplicate rows were
        deduplicated at insert time, so one removal forgets the row entirely.
        ``alt`` is the partner bucket, derived when not given.
        """
        if alt is None:
            alt = self.geometry.alt_index(home, fingerprint)
        found = self._row_at(home, alt, fingerprint, avec)
        if found is None:
            return False
        if isinstance(found, int):
            self.stash.pop(found)
        else:
            self._clear_entry(*found)
        self.num_rows_inserted -= 1
        return True

    def slot_bits(self) -> int:
        """|κ| + |α|; no marking or conversion flag is needed."""
        return self.params.key_bits + self.schema.num_attributes * self.params.attr_bits

    def _max_copies_per_pair(self) -> int:
        """Plain filters have no d-cap; a pair holds at most its 2b slots."""
        return 2 * self.params.bucket_size
