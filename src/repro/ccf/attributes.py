"""Attribute schemas and attribute fingerprinting (§5.1, §9).

A CCF stores, next to each key fingerprint, a sketch of the row's attribute
values.  The simplest sketch is a *fingerprint vector*: each attribute value
hashed to ``attr_bits`` bits.  §9's "small values" optimisation stores
integer values below ``2^attr_bits`` exactly instead of hashing them, so low
cardinality columns (e.g. ``role_id`` in 1..11 with 4-bit fingerprints)
become collision-free — the configuration the paper's own experiments use.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from repro.hashing.mixers import (
    as_native_list,
    coerce_int_column,
    derive_seed,
    hash64,
    hash64_many_masked,
)


class AttributeSchema:
    """An ordered, named list of attribute columns sketched by a CCF."""

    __slots__ = ("names", "_index")

    def __init__(self, names: Sequence[str]) -> None:
        if not names:
            raise ValueError("an attribute schema needs at least one attribute")
        if len(set(names)) != len(names):
            raise ValueError("attribute names must be unique")
        self.names = tuple(names)
        self._index = {name: i for i, name in enumerate(self.names)}

    @property
    def num_attributes(self) -> int:
        """Number of attribute columns (the paper's ``#α``)."""
        return len(self.names)

    def index_of(self, name: str) -> int:
        """Return the position of ``name`` in the schema."""
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"attribute {name!r} not in schema {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def row_values(self, row: Mapping[str, Any] | Sequence[Any]) -> tuple[Any, ...]:
        """Extract this schema's attribute values from a mapping or sequence."""
        if isinstance(row, Mapping):
            return tuple(row[name] for name in self.names)
        values = tuple(row)
        if len(values) != self.num_attributes:
            raise ValueError(
                f"expected {self.num_attributes} attribute values, got {len(values)}"
            )
        return values

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributeSchema):
            return NotImplemented
        return self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AttributeSchema({list(self.names)!r})"


class AttributeFingerprinter:
    """Hashes attribute values into ``attr_bits``-bit fingerprints.

    One salt per attribute position keeps equal values in different columns
    uncorrelated.  With ``small_value_optimization`` (on by default, per §9),
    non-negative integers below ``2^attr_bits`` are stored exactly.
    """

    __slots__ = ("schema", "attr_bits", "small_value_optimization", "_salts", "_mask")

    def __init__(
        self,
        schema: AttributeSchema,
        attr_bits: int,
        seed: int = 0,
        small_value_optimization: bool = True,
    ) -> None:
        if not 1 <= attr_bits <= 62:
            raise ValueError("attr_bits must be in [1, 62]")
        self.schema = schema
        self.attr_bits = attr_bits
        self.small_value_optimization = small_value_optimization
        self._mask = (1 << attr_bits) - 1
        self._salts = tuple(
            derive_seed(seed, "attr-fp", i) for i in range(schema.num_attributes)
        )

    def fingerprint(self, attr_index: int, value: Any) -> int:
        """Fingerprint one attribute value at position ``attr_index``."""
        if (
            self.small_value_optimization
            and isinstance(value, int)
            and not isinstance(value, bool)
            and 0 <= value <= self._mask
        ):
            return value
        if isinstance(value, np.integer):
            # As in `fingerprint_column`, which reads it from an int array.
            return self.fingerprint(attr_index, int(value))
        return hash64(value, self._salts[attr_index]) & self._mask

    def vector(self, values: Sequence[Any]) -> tuple[int, ...]:
        """Fingerprint a full attribute row into a vector (the paper's ``α``)."""
        if len(values) != self.schema.num_attributes:
            raise ValueError(
                f"expected {self.schema.num_attributes} attribute values, got {len(values)}"
            )
        return tuple(self.fingerprint(i, v) for i, v in enumerate(values))

    def fingerprint_column(
        self, attr_index: int, values: Sequence[Any] | np.ndarray
    ) -> np.ndarray:
        """Fingerprint a whole column at position ``attr_index``.

        Integer-dtype arrays (and sequences that coerce to one) vectorise
        both the small-value fast path and the hash path; other columns fall
        back element-wise.  Bit-identical to `fingerprint` per value either
        way.
        """
        column = coerce_int_column(values)
        if column is not None:
            hashed = hash64_many_masked(column, self._salts[attr_index], self._mask)
            if not self.small_value_optimization:
                return hashed
            # astype(int64) wraps uint64 values above 2**63 to negatives,
            # which the `>= 0` test then (correctly) routes to the hash path.
            exact = column.astype(np.int64)
            small = (exact >= 0) & (exact <= self._mask)
            return np.where(small, exact, hashed)
        return np.fromiter(
            (self.fingerprint(attr_index, v) for v in as_native_list(values)),
            dtype=np.int64,
            count=len(values),
        )

    def vectors_many(
        self, columns: Sequence[Sequence[Any] | np.ndarray]
    ) -> list[tuple[int, ...]]:
        """Fingerprint whole attribute columns into per-row vectors.

        ``columns`` is column-major (one sequence per schema attribute, equal
        lengths); the result is the row-major list of `vector` outputs.
        """
        if len(columns) != self.schema.num_attributes:
            raise ValueError(
                f"expected {self.schema.num_attributes} attribute columns, got {len(columns)}"
            )
        lengths = {len(c) for c in columns}
        if len(lengths) > 1:
            raise ValueError(f"attribute columns have unequal lengths {sorted(lengths)}")
        stacked = np.stack(
            [self.fingerprint_column(i, column) for i, column in enumerate(columns)],
            axis=1,
        )
        return [tuple(row) for row in stacked.tolist()]

    def candidate_fingerprints(self, attr_index: int, values: Sequence[Any]) -> frozenset[int]:
        """Fingerprint each admissible value of an (in-list) predicate."""
        return frozenset(self.fingerprint(attr_index, v) for v in values)
