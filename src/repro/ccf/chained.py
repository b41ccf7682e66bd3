"""Chained conditional cuckoo filter (§6.2; Algorithms 4 and 5).

Attribute rows are stored as fingerprint vectors; duplicate keys beyond the
per-pair cap ``d`` overflow into further bucket pairs reached by the one-way
chain hash.  Queries walk the same pair sequence and stop at the first pair
holding fewer than ``d`` copies of the key fingerprint (Lemma 2 ensures no
entry can live beyond that point).  If ``Lmax`` pairs are exhausted with
every pair ``d``-full, the query answers True unconditionally — the
no-false-negative fallback of Theorem 3, which covers rows that insertion
had to discard for exceeding the chain cap.  Walks count a pair's stashed
entries as its slots (DESIGN.md §1), so the ``d``-count stays exact.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.ccf.base import CellIndex, CompiledQuery, ConditionalCuckooFilterBase
from repro.ccf.predicates import Predicate


class ChainedCCF(ConditionalCuckooFilterBase):
    """CCF with attribute fingerprint vectors and duplicate-key chaining."""

    kind = "chained"

    def _insert_cells(
        self,
        index: CellIndex,
        fingerprint: int,
        home: int,
        values: tuple[Any, ...] | None,
        avec: tuple[int, ...] | None,
    ) -> bool:
        """Insert one (key, attribute row); Algorithm 4.

        Returns True when the row is represented (stored, deduplicated, or —
        with a finite ``Lmax`` — discarded past the chain cap, in which case
        queries still answer True via the Theorem 3 fallback).  Returns False
        only on a MaxKicks placement failure, which also latches
        :attr:`failed`; the displaced victim is stashed in its own pair, so
        membership answers remain superset-correct even then.  Each pair's
        copies of the fingerprint are read from ``index``.
        """
        if avec is None:
            avec = self.fingerprinter.vector(values)
        self.num_rows_inserted += 1
        d, limit = self.params.max_dupes, self._walk_limit()
        left, right = home, home ^ index.jumps[fingerprint]
        first = (fingerprint, left if left < right else right)
        copies = self._cell(index, left, right, fingerprint)
        walked = 0
        while True:
            if avec in copies:
                return True
            if len(copies) < d:
                copies.append(avec)
                return self._place_in_pair(left, right, fingerprint, avec)
            walked += 1
            step = self._chain_step(index, first, walked) if walked < limit else None
            if step is None:
                # Chain cap reached (or no fresh pair) with every pair d-full:
                # the row is discarded, Theorem 3's query fallback keeps it a
                # (true) positive.
                self.num_rows_discarded += 1
                return True
            left, right, copies = step

    def _chain_step(
        self, index: CellIndex, first: tuple[int, int], step: int
    ) -> tuple[int, int, list[tuple[int, ...]]] | None:
        """Pair ``step`` of the chain whose first cell is ``first``, with
        its cell; None past the walk's end.  The pairs come from the
        geometry's chain directory (`PairGeometry.chain_pair`), their cells
        from ``index.walks``, filled as far as the batch's rows walk."""
        cells = index.walks.get(first)
        if cells is None:
            cells = index.walks[first] = []
        if step > len(cells):
            fingerprint, pair_id = first
            pair = self.geometry.chain_pair(pair_id, fingerprint, step)
            if pair is None:
                return None
            cells.append((*pair, self._cell(index, *pair, fingerprint)))
        return cells[step - 1]

    def _query_hashed(
        self, fingerprint: int, home: int, compiled: CompiledQuery | None
    ) -> bool:
        """Membership test under an optional predicate; Algorithm 5."""
        if compiled is None:
            # §7.1: for key-only queries the chain is irrelevant — an
            # inserted key always leaves at least one copy in its first pair.
            right = self.alt_index(home, fingerprint)
            return self._any_admits(*self._fp_entries_in_pair(home, right, fingerprint), None)

        def pair_hit(left: int, right: int) -> tuple[int, bool]:
            slots, stashed = self._fp_entries_in_pair(left, right, fingerprint)
            return len(slots) + len(stashed), self._any_admits(slots, stashed, compiled)

        return self.geometry.walk_one(
            home, fingerprint, self.params.max_dupes, self._walk_limit(), pair_hit
        )

    def _query_hashed_many(
        self,
        fps: np.ndarray,
        homes: np.ndarray,
        compiled: CompiledQuery | None,
        alts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batch Algorithm 5: one probe for key-only queries, else one walk.

        §7.1: key-only queries never look past the first pair, so they are
        one vectorised probe (the shared single-pair kernel).  Predicate
        queries walk their chains in `PairGeometry.walk_many`, where a pair
        hits when it holds an admissible copy, stashed copies of the pair
        included; a key counts as a stash hit only at its deciding pair.
        """
        if compiled is None:
            return self._single_pair_query_many(fps, homes, None, alts)
        if alts is None:
            alts = self.geometry.alt_indices_many(homes, fps)
        return self._answers(
            self.geometry.walk_many(
                self.buckets,
                self.stash,
                fps,
                homes,
                alts,
                max_dupes=self.params.max_dupes,
                limit=self._walk_limit(),
                pair_hit=lambda lefts, rights, eq, rows, at: self._pair_codes(
                    lefts, rights, eq, rows, at, compiled
                ),
            )
        )

    def chain_length(self, key: object) -> int:
        """Number of bucket pairs currently used by ``key``'s fingerprint.

        Introspection helper for experiments: walks until the first pair that
        holds fewer than ``d`` copies.
        """
        fingerprint = self.geometry.fingerprint_of(key)
        home = self.geometry.home_index(key)
        d = self.params.max_dupes
        limit = self._walk_limit()
        length = 0
        for left, right in self._pair_walk(home, fingerprint):
            if length >= limit:
                break
            length += 1
            slots, stashed = self._fp_entries_in_pair(left, right, fingerprint)
            if len(slots) + len(stashed) < d:
                break
        return length

    def slot_bits(self) -> int:
        """|κ| + |α| + 1 marking bit (the flag §6.2's predicate views need)."""
        return (
            self.params.key_bits
            + self.schema.num_attributes * self.params.attr_bits
            + 1
        )

    def predicate_filter(self, predicate: Predicate) -> "MarkedKeyFilter":
        """Predicate-only query (§6.2): extract a key filter for ``predicate``.

        Chained CCFs cannot erase non-matching entries — that would open gaps
        in chains and cause false negatives — so the extracted filter keeps
        every fingerprint and marks non-matching entries with one bit.
        """
        from repro.ccf.views import MarkedKeyFilter

        return MarkedKeyFilter.from_ccf(self, predicate)
