"""Predicate language for conditional set-membership queries.

The paper restricts CCF queries to equality predicates (§1); in-lists arrive
naturally as "any of these equalities" and are what binned range predicates
compile into (§9.1).  Each predicate supports three evaluation modes:

* :meth:`Predicate.matches_row` — exact row-at-a-time evaluation (used by the
  exact semijoin baseline and for ground truth in tests);
* :meth:`Predicate.mask` — vectorised evaluation over numpy columns (used by
  the join engine's scans);
* :meth:`Predicate.constraints` — compilation into per-attribute admissible
  value sets, the form a CCF can check against its attribute sketches.  Range
  predicates cannot be expressed this way and must be binned first
  (:mod:`repro.ccf.binning`); asking raises :class:`UnsupportedPredicateError`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Iterable, Mapping

import numpy as np


class UnsupportedPredicateError(TypeError):
    """Raised when a predicate cannot be compiled to equality constraints."""


class Predicate(ABC):
    """Base class for all predicates."""

    @abstractmethod
    def columns(self) -> frozenset[str]:
        """Return the set of column names the predicate touches."""

    @abstractmethod
    def matches_row(self, row: Mapping[str, Any]) -> bool:
        """Exact evaluation against a single row mapping."""

    @abstractmethod
    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorised evaluation; returns a boolean array over all rows."""

    @abstractmethod
    def constraints(self) -> dict[str, frozenset]:
        """Compile to {column: admissible values}; conjunctive across columns.

        Raises :class:`UnsupportedPredicateError` for predicates (ranges)
        that cannot be enumerated.
        """

    def __and__(self, other: "Predicate") -> "And":
        return And([self, other])


class TruePredicate(Predicate):
    """The empty predicate: matches every row, constrains nothing."""

    def columns(self) -> frozenset[str]:
        return frozenset()

    def matches_row(self, row: Mapping[str, Any]) -> bool:
        return True

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        num_rows = len(next(iter(columns.values()))) if columns else 0
        return np.ones(num_rows, dtype=bool)

    def constraints(self) -> dict[str, frozenset]:
        return {}

    def __repr__(self) -> str:
        return "TRUE"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TruePredicate)

    def __hash__(self) -> int:
        return hash("TruePredicate")


#: Singleton convenience instance.
TRUE = TruePredicate()


class Eq(Predicate):
    """Equality predicate ``column = value``."""

    __slots__ = ("column", "value")

    def __init__(self, column: str, value: Any) -> None:
        self.column = column
        self.value = value

    def columns(self) -> frozenset[str]:
        return frozenset((self.column,))

    def matches_row(self, row: Mapping[str, Any]) -> bool:
        return row[self.column] == self.value

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.asarray(columns[self.column] == self.value)

    def constraints(self) -> dict[str, frozenset]:
        return {self.column: frozenset((self.value,))}

    def __repr__(self) -> str:
        return f"Eq({self.column!r}, {self.value!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Eq):
            return NotImplemented
        return (self.column, self.value) == (other.column, other.value)

    def __hash__(self) -> int:
        return hash(("Eq", self.column, self.value))


def _repr_order(value: Any) -> tuple:
    """A total sort key over any values, for values that do not compare:
    by type name, then by the value where its type orders itself, else by
    its repr."""
    kind = type(value)
    if kind is int or kind is float or kind is str or kind is bool:
        return (kind.__name__, 0, value)
    return (kind.__name__, 1, repr(value))


class In(Predicate):
    """In-list predicate ``column IN (values)``."""

    __slots__ = ("column", "values")

    def __init__(self, column: str, values: Iterable[Any]) -> None:
        self.column = column
        self.values = frozenset(values)
        if not self.values:
            raise ValueError("an In predicate needs at least one value")

    def columns(self) -> frozenset[str]:
        return frozenset((self.column,))

    def matches_row(self, row: Mapping[str, Any]) -> bool:
        return row[self.column] in self.values

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.isin(columns[self.column], list(self.values))

    def constraints(self) -> dict[str, frozenset]:
        return {self.column: self.values}

    def __repr__(self) -> str:
        try:
            values = sorted(self.values)
        except TypeError:
            values = sorted(self.values, key=_repr_order)
        return f"In({self.column!r}, {values!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, In):
            return NotImplemented
        return (self.column, self.values) == (other.column, other.values)

    def __hash__(self) -> int:
        return hash(("In", self.column, self.values))


class Range(Predicate):
    """Range predicate ``lo (<|<=) column (<|<=) hi`` over an ordered column.

    Either bound may be None (open).  Ranges are evaluated exactly on scans
    but must be converted to bin in-lists before a CCF can check them (§9.1).
    """

    __slots__ = ("column", "low", "high", "low_inclusive", "high_inclusive")

    def __init__(
        self,
        column: str,
        low: Any = None,
        high: Any = None,
        low_inclusive: bool = True,
        high_inclusive: bool = True,
    ) -> None:
        if low is None and high is None:
            raise ValueError("a Range predicate needs at least one bound")
        if low is not None and high is not None and low > high:
            raise ValueError(f"empty range: low={low!r} > high={high!r}")
        self.column = column
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive

    def columns(self) -> frozenset[str]:
        return frozenset((self.column,))

    def matches_row(self, row: Mapping[str, Any]) -> bool:
        value = row[self.column]
        if self.low is not None:
            if self.low_inclusive:
                if value < self.low:
                    return False
            elif value <= self.low:
                return False
        if self.high is not None:
            if self.high_inclusive:
                if value > self.high:
                    return False
            elif value >= self.high:
                return False
        return True

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        column = columns[self.column]
        mask = np.ones(len(column), dtype=bool)
        if self.low is not None:
            mask &= (column >= self.low) if self.low_inclusive else (column > self.low)
        if self.high is not None:
            mask &= (column <= self.high) if self.high_inclusive else (column < self.high)
        return mask

    def constraints(self) -> dict[str, frozenset]:
        raise UnsupportedPredicateError(
            f"range predicate on {self.column!r} must be binned before a CCF can "
            "evaluate it (see repro.ccf.binning)"
        )

    def __repr__(self) -> str:
        lo = f"{self.low!r} {'<=' if self.low_inclusive else '<'} " if self.low is not None else ""
        hi = f" {'<=' if self.high_inclusive else '<'} {self.high!r}" if self.high is not None else ""
        return f"Range({lo}{self.column}{hi})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Range):
            return NotImplemented
        return (
            self.column,
            self.low,
            self.high,
            self.low_inclusive,
            self.high_inclusive,
        ) == (other.column, other.low, other.high, other.low_inclusive, other.high_inclusive)

    def __hash__(self) -> int:
        return hash(("Range", self.column, self.low, self.high, self.low_inclusive, self.high_inclusive))


class And(Predicate):
    """Conjunction of predicates."""

    __slots__ = ("predicates",)

    def __init__(self, predicates: Iterable[Predicate]) -> None:
        flattened: list[Predicate] = []
        for predicate in predicates:
            if isinstance(predicate, And):
                flattened.extend(predicate.predicates)
            elif isinstance(predicate, TruePredicate):
                continue
            else:
                flattened.append(predicate)
        self.predicates = tuple(flattened)

    def columns(self) -> frozenset[str]:
        result: frozenset[str] = frozenset()
        for predicate in self.predicates:
            result |= predicate.columns()
        return result

    def matches_row(self, row: Mapping[str, Any]) -> bool:
        return all(p.matches_row(row) for p in self.predicates)

    def mask(self, columns: Mapping[str, np.ndarray]) -> np.ndarray:
        if not self.predicates:
            return TRUE.mask(columns)
        mask = self.predicates[0].mask(columns)
        for predicate in self.predicates[1:]:
            mask = mask & predicate.mask(columns)
        return mask

    def constraints(self) -> dict[str, frozenset]:
        merged: dict[str, frozenset] = {}
        for predicate in self.predicates:
            for column, values in predicate.constraints().items():
                if column in merged:
                    merged[column] = merged[column] & values
                else:
                    merged[column] = values
        return merged

    def __repr__(self) -> str:
        return " & ".join(repr(p) for p in self.predicates) if self.predicates else "TRUE"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, And):
            return NotImplemented
        return self.predicates == other.predicates

    def __hash__(self) -> int:
        return hash(("And", self.predicates))
