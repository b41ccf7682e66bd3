"""Mixed conditional cuckoo filter: Bloom conversion of duplicates (§6.1).

Attribute rows start as fingerprint vectors.  When a bucket pair already
holds ``d`` vector entries for a key fingerprint and another distinct row
arrives, the ``d`` vectors (plus the new one) are converted into a single
Bloom filter occupying the same ``d`` slots — Algorithm 3.  Conversion can
never fail, so the Mixed CCF absorbs unlimited duplicates without chaining,
at the cost of double hashing (value → fingerprint → Bloom bits) and lost
co-occurrence information for converted keys.  The group is one sketch row
(DESIGN.md §6): each of its ``d`` slots holds the row id, so cuckoo kicks
can relocate or stash single slots without splitting the group's payload.

Bit accounting follows §6.1 exactly: the converted group stores one key
fingerprint copy and a slot count per bucket, leaving
``d·s − 2(|κ| + ⌈log2 d⌉)`` bits of Bloom payload where ``s`` is the single
entry size; the Bloom hash count follows Eq. (2)/(3),
``numHash ≈ (|α|/#α) · (d/(d+1)) · ln 2``.
"""

from __future__ import annotations

import math
from typing import Any

from repro.ccf.base import CellIndex, ConditionalCuckooFilterBase
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Predicate


def conversion_num_hashes(attr_bits: int, num_attributes: int, max_dupes: int) -> int:
    """Eq. (3): ``(|α|/#α) · (d/(d+1)) · ln 2``, at least one hash.

    ``|α|`` is the whole vector (``num_attributes * attr_bits`` bits), so the
    per-attribute ratio reduces to ``attr_bits``.
    """
    del num_attributes  # the ratio |α|/#α is attr_bits by construction
    optimal = attr_bits * (max_dupes / (max_dupes + 1)) * math.log(2)
    return max(1, round(optimal))


def conversion_total_bits(slot_bits: int, key_bits: int, max_dupes: int) -> int:
    """§6.1: Bloom payload bits across the group's ``d`` slots.

    ``d·s`` raw bits minus two (fingerprint, slot-count) headers — one per
    bucket of the pair: ``d·s − 2(|κ| + ⌈log2 d⌉)``.  Clamped to at least
    one bit so degenerate parameterisations stay functional.
    """
    header = key_bits + max(1, math.ceil(math.log2(max_dupes)) if max_dupes > 1 else 1)
    return max(1, max_dupes * slot_bits - 2 * header)


class MixedCCF(ConditionalCuckooFilterBase):
    """CCF with fingerprint vectors that convert to Bloom filters (§6.1)."""

    kind = "mixed"

    def __init__(self, schema: Any, num_buckets: int, params: CCFParams) -> None:
        super().__init__(schema, num_buckets, params)
        self.num_conversions = 0
        self.num_absorbed = 0
        self._init_sketches(self._conversion_bits(), self._conversion_hashes())

    # -- conversion sizing -------------------------------------------------

    def _conversion_bits(self) -> int:
        return conversion_total_bits(
            self.slot_bits(), self.params.key_bits, self.params.max_dupes
        )

    def _conversion_hashes(self) -> int:
        if self.params.conversion_hashes is not None:
            return self.params.conversion_hashes
        return conversion_num_hashes(
            self.params.attr_bits, self.schema.num_attributes, self.params.max_dupes
        )

    # -- operations ----------------------------------------------------------

    def _insert_cells(
        self,
        index: CellIndex,
        fingerprint: int,
        home: int,
        values: tuple[Any, ...] | None,
        avec: tuple[int, ...] | None,
    ) -> bool:
        """Insert one (key, attribute row), converting on duplicate overflow.

        Returns False only on a MaxKicks placement failure for a *new*
        (pre-conversion) entry; merges into an existing converted group and
        conversions themselves always succeed.  The pair's stashed entries
        count as its slots throughout (DESIGN.md §1).  The pair's copies or
        group are read from ``index``.
        """
        if avec is None:
            avec = self.fingerprinter.vector(values)
        self.num_rows_inserted += 1
        left, right = home, home ^ index.jumps[fingerprint]
        cell = self._cell(index, left, right, fingerprint)
        if isinstance(cell, int):  # a converted group's sketch row
            self._sketch_add(cell, enumerate(avec))
            self.num_absorbed += 1
            self._row_sketch = cell
            return True
        if avec in cell:
            return True
        if len(cell) < self.params.max_dupes:
            cell.append(avec)
            return self._place_in_pair(left, right, fingerprint, avec)
        row = self._convert(left, right, fingerprint, avec)
        index.cells[fingerprint, min(left, right)] = row
        self._row_sketch = row
        return True

    def _seed_cell(
        self, slots: list[tuple[int, int]], stashed: list[int]
    ) -> int | list[tuple[int, ...]]:
        """A cell's converted group as its sketch row id, else its copies'
        attribute vectors (vectors and groups never coexist in a cell,
        `check_invariants`)."""
        group = max(self._copy_rows(slots, stashed), default=-1)
        return group if group >= 0 else super()._seed_cell(slots, stashed)

    def _credit_copy(self, sketch: int | None, discarded: bool) -> None:
        """A repeated row is absorbed again where its pair holds a converted
        group for the fingerprint (vectors and groups never coexist for one
        pair and fingerprint), and deduplicated otherwise."""
        super()._credit_copy(sketch, discarded)
        if sketch is not None:
            self.num_absorbed += 1

    def _convert(
        self, left: int, right: int, fingerprint: int, new_avec: tuple[int, ...]
    ) -> int:
        """Algorithm 3: fold the pair's d vectors, stashed ones included,
        plus ``new_avec`` into a new sketch row; each of their slots then
        holds the row id.  Returns the row id."""
        slots, stashed = self._fp_entries_in_pair(left, right, fingerprint)
        vectors = self._copy_avecs(slots, stashed)
        if len(vectors) != self.params.max_dupes:
            raise AssertionError(
                f"conversion expected d={self.params.max_dupes} vector entries, "
                f"found {len(vectors)}"
            )
        row = self._new_sketch()
        for avec in vectors + [new_avec]:
            self._sketch_add(row, enumerate(avec))
        self._ensure_writable()
        for bucket, slot in slots:
            self._avecs[bucket, slot] = self._avec_fill
            self._flags[bucket, slot] = True
            self._payload_rows[bucket, slot] = row
        stash = self.stash
        stash.avecs[stashed], stash.flags[stashed], stash.rows[stashed] = self._avec_fill, True, row
        self.num_conversions += 1
        return row

    def slot_bits(self) -> int:
        """|κ| + |α| + 1 bit flagging vector vs converted-Bloom content."""
        return (
            self.params.key_bits
            + self.schema.num_attributes * self.params.attr_bits
            + 1
        )

    def check_invariants(self) -> None:
        """Base d-cap plus: vectors and groups never coexist for one (pair, κ)."""
        super().check_invariants()
        shapes: dict[tuple[int, int], set[str]] = {}
        for bucket, slot, fp, _payload in self.buckets.iter_entries():
            shape = "group" if self._payload_rows[bucket, slot] >= 0 else "vector"
            shapes.setdefault((self.geometry.pair_id(bucket, fp), fp), set()).add(shape)
        for (pair_id, fingerprint), kinds in shapes.items():
            if len(kinds) > 1:
                raise AssertionError(
                    f"pair {pair_id} mixes vector and group entries for "
                    f"fingerprint {fingerprint:#x}"
                )

    def predicate_filter(self, predicate: Predicate) -> "CuckooFilter":
        """Predicate-only query: erase non-matching entries (safe — no chains)."""
        from repro.ccf.views import extract_key_filter

        return extract_key_filter(self, predicate)
