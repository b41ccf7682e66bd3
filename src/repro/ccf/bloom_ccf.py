"""Bloom-attribute conditional cuckoo filter (§5.2; Algorithms 1 and 2).

Each stored entry is a key fingerprint plus a small per-entry Bloom filter
holding the key's (attribute index, value) pairs — raw values, hashed once
by the sketch itself; the sketch is a row of the filter's sketch rows, and
the entry's slot holds its row id (DESIGN.md §6).  Duplicate rows for a key
merge into the key's single entry, so the occupied slots are exactly those
of a regular cuckoo filter over the distinct keys (the property behind
Table 1's ``n_k`` sizing and the theoretically guaranteed load factor).

The price (§5.2): a Bloom sketch does not preserve attribute co-occurrence.
If one row has attributes (a1, a2) and another (a1', a2'), the conjunctive
predicate ``A1 = a1 AND A2 = a2'`` is a guaranteed false positive.
"""

from __future__ import annotations

from typing import Any

from repro.ccf.attributes import AttributeSchema
from repro.ccf.base import CellIndex, ConditionalCuckooFilterBase
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Predicate


class BloomCCF(ConditionalCuckooFilterBase):
    """CCF whose attribute sketch is a per-entry Bloom filter."""

    kind = "bloom"

    #: Bloom entries sketch raw (index, value) pairs, not fingerprint vectors.
    _needs_avec = False

    def __init__(self, schema: AttributeSchema, num_buckets: int, params: CCFParams) -> None:
        super().__init__(schema, num_buckets, params)
        self._init_sketches(params.bloom_bits, params.bloom_hashes)

    def _insert_cells(
        self,
        index: CellIndex,
        fingerprint: int,
        home: int,
        values: tuple[Any, ...] | None,
        avec: tuple[int, ...] | None,
    ) -> bool:
        """Insert one (key, attribute row); Algorithm 1's build counterpart.

        A row whose key fingerprint already owns an entry in the bucket pair,
        in a slot or stashed, sets its ``(attribute index, value)`` bits in
        that entry's sketch row, where batch probes see them at once.
        Otherwise a new entry with a new sketch row is placed with cuckoo
        kicks.  Returns False only on a MaxKicks failure (victim stashed,
        ``failed`` latched).  The pair's entry is read from ``index``.
        """
        self.num_rows_inserted += 1
        left, right = home, home ^ index.jumps[fingerprint]
        sketches = self._cell(index, left, right, fingerprint)
        fresh = not sketches
        if fresh:
            sketches.append(self._new_sketch())
        row = sketches[0]
        self._sketch_add(row, enumerate(values))
        self._row_sketch = row
        if not fresh:
            return True
        return self._place_in_pair(left, right, fingerprint, self._avec_fill, row)

    def _seed_cell(self, slots: list[tuple[int, int]], stashed: list[int]) -> list[int]:
        """Rows merge by fingerprint, so a cell holds at most one entry: its
        sketch row id, which kicks and stashing carry along."""
        return self._copy_rows(slots, stashed)

    def slot_bits(self) -> int:
        """|κ| + per-entry Bloom payload."""
        return self.params.key_bits + self.params.bloom_bits

    def _max_copies_per_pair(self) -> int:
        """Rows merge by fingerprint, so a pair holds one entry per κ."""
        return 1

    def predicate_filter(self, predicate: Predicate) -> "CuckooFilter":
        """Predicate-only query (Algorithm 2): return a key-only cuckoo filter.

        Entries whose Bloom sketch cannot match the predicate are erased; the
        result answers ``contains(key)`` for the (approximate) set of keys
        with a matching attribute row.
        """
        from repro.ccf.views import extract_key_filter

        return extract_key_filter(self, predicate)
