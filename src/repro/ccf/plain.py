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
from repro.ccf.entries import VectorEntry


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
        left = home
        right = self.geometry.alt_index(left, fingerprint)
        slots = self._fp_entries_in_pair(left, right, fingerprint)
        if any(entry.same_row(fingerprint, avec) for entry in slots):
            return True
        return self._place_in_pair(left, right, VectorEntry(fingerprint, avec), len(slots))

    def _row_present(self, fingerprint: int, home: int, avec: tuple[int, ...]) -> bool:
        """Is this exact (fingerprint, vector) row stored in its pair, in a
        slot or stashed?

        The read-before-write primitive of the FilterStore's cross-level
        dedup: inserts skip rows an older level already represents, so the
        whole stack keeps the monolith's one-entry-per-row semantics and a
        single delete removes the row everywhere.
        """
        return any(
            entry.same_row(fingerprint, avec)
            for entry in self._fp_entries_in_pair(
                home, self.geometry.alt_index(home, fingerprint), fingerprint
            )
        )

    def _delete_hashed(self, fingerprint: int, home: int, avec: tuple[int, ...]) -> bool:
        """Remove the entry storing exactly this (fingerprint, vector) row.

        Probes the key's single bucket pair (then its stashed entries) for a
        `same_row` match and frees that one slot.  Exact-duplicate rows were
        deduplicated at insert time, so one removal forgets the row entirely.
        """
        left = home
        right = self.geometry.alt_index(left, fingerprint)
        for bucket in (left,) if right == left else (left, right):
            row = self.buckets.fps[bucket].tolist()
            for slot, fp in enumerate(row):
                if fp != fingerprint:
                    continue
                if tuple(self._avecs[bucket, slot].tolist()) == avec:
                    self._clear_entry(bucket, slot)
                    self.num_rows_inserted -= 1
                    return True
        for at in self.stash.find(fingerprint, left, right):
            if self.stash.items[at].same_row(fingerprint, avec):
                self.stash.pop(at)
                self.num_rows_inserted -= 1
                return True
        return False

    def slot_bits(self) -> int:
        """|κ| + |α|; no marking or conversion flag is needed."""
        return self.params.key_bits + self.schema.num_attributes * self.params.attr_bits

    def _max_copies_per_pair(self) -> int:
        """Plain filters have no d-cap; a pair holds at most its 2b slots."""
        return 2 * self.params.bucket_size
