"""Tests for the predicate language."""

import numpy as np
import pytest

from repro.ccf.predicates import (
    And,
    Eq,
    In,
    Range,
    TRUE,
    TruePredicate,
    UnsupportedPredicateError,
)

COLUMNS = {
    "color": np.array(["red", "blue", "red", "green"]),
    "size": np.array([1, 2, 3, 4]),
}


class TestEq:
    def test_matches_row(self):
        predicate = Eq("color", "red")
        assert predicate.matches_row({"color": "red"})
        assert not predicate.matches_row({"color": "blue"})

    def test_mask(self):
        mask = Eq("size", 2).mask(COLUMNS)
        assert mask.tolist() == [False, True, False, False]

    def test_constraints(self):
        assert Eq("color", "red").constraints() == {"color": frozenset({"red"})}

    def test_columns(self):
        assert Eq("color", "red").columns() == frozenset({"color"})

    def test_equality(self):
        assert Eq("a", 1) == Eq("a", 1)
        assert Eq("a", 1) != Eq("a", 2)
        assert hash(Eq("a", 1)) == hash(Eq("a", 1))


class TestIn:
    def test_matches_row(self):
        predicate = In("size", [1, 3])
        assert predicate.matches_row({"size": 3})
        assert not predicate.matches_row({"size": 2})

    def test_mask(self):
        mask = In("size", [1, 4]).mask(COLUMNS)
        assert mask.tolist() == [True, False, False, True]

    def test_constraints(self):
        assert In("size", [1, 2]).constraints() == {"size": frozenset({1, 2})}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            In("size", [])

    def test_repr_sorts_values(self):
        assert repr(In("size", [10, 9, 2])) == "In('size', [2, 9, 10])"
        assert repr(In("c", ["b", "a"])) == "In('c', ['a', 'b'])"
        assert repr(In("c", [2.5, 1])) == "In('c', [1, 2.5])"

    def test_repr_of_mixed_types(self):
        """Values that do not compare sort by type name, then by value."""
        assert repr(In("c", [1, "a"])) == "In('c', [1, 'a'])"
        assert repr(In("c", ["b", None, 2, (1,), 1.5])) == (
            "In('c', [None, 1.5, 2, 'b', (1,)])"
        )
        assert sorted([In("c", [1, "a"]), In("c", [2])], key=repr)


class TestRange:
    def test_matches_row_inclusive(self):
        predicate = Range("size", low=2, high=3)
        assert predicate.matches_row({"size": 2})
        assert predicate.matches_row({"size": 3})
        assert not predicate.matches_row({"size": 4})

    def test_matches_row_exclusive(self):
        predicate = Range("size", low=2, low_inclusive=False)
        assert not predicate.matches_row({"size": 2})
        assert predicate.matches_row({"size": 3})

    def test_open_bounds(self):
        assert Range("size", high=2).matches_row({"size": -100})
        assert Range("size", low=2).matches_row({"size": 100})

    def test_mask(self):
        mask = Range("size", low=2, high=3).mask(COLUMNS)
        assert mask.tolist() == [False, True, True, False]

    def test_mask_exclusive_high(self):
        mask = Range("size", high=3, high_inclusive=False).mask(COLUMNS)
        assert mask.tolist() == [True, True, False, False]

    def test_constraints_unsupported(self):
        with pytest.raises(UnsupportedPredicateError):
            Range("size", low=1).constraints()

    def test_no_bounds_raises(self):
        with pytest.raises(ValueError):
            Range("size")

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            Range("size", low=5, high=2)


class TestAnd:
    def test_matches_row_conjunction(self):
        predicate = And([Eq("color", "red"), Range("size", high=2)])
        assert predicate.matches_row({"color": "red", "size": 1})
        assert not predicate.matches_row({"color": "red", "size": 3})
        assert not predicate.matches_row({"color": "blue", "size": 1})

    def test_mask(self):
        predicate = And([Eq("color", "red"), Range("size", high=2)])
        assert predicate.mask(COLUMNS).tolist() == [True, False, False, False]

    def test_flattens_nested_and(self):
        inner = And([Eq("a", 1), Eq("b", 2)])
        outer = And([inner, Eq("c", 3)])
        assert len(outer.predicates) == 3

    def test_drops_true(self):
        predicate = And([TRUE, Eq("a", 1)])
        assert len(predicate.predicates) == 1

    def test_constraints_merge_distinct_columns(self):
        predicate = And([Eq("a", 1), In("b", [2, 3])])
        assert predicate.constraints() == {
            "a": frozenset({1}),
            "b": frozenset({2, 3}),
        }

    def test_constraints_intersect_same_column(self):
        predicate = And([In("a", [1, 2]), In("a", [2, 3])])
        assert predicate.constraints() == {"a": frozenset({2})}

    def test_contradiction_yields_empty_set(self):
        predicate = And([Eq("a", 1), Eq("a", 2)])
        assert predicate.constraints() == {"a": frozenset()}

    def test_ampersand_operator(self):
        predicate = Eq("a", 1) & Eq("b", 2)
        assert isinstance(predicate, And)
        assert len(predicate.predicates) == 2

    def test_empty_and_matches_everything(self):
        predicate = And([])
        assert predicate.matches_row({"anything": 1})
        assert predicate.mask(COLUMNS).all()


class TestTruePredicate:
    def test_matches_everything(self):
        assert TRUE.matches_row({})
        assert TRUE.mask(COLUMNS).all()
        assert TRUE.constraints() == {}
        assert TRUE.columns() == frozenset()

    def test_singleton_equality(self):
        assert TRUE == TruePredicate()
