"""Tests for the classic cuckoo hash table (§4.1)."""

import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cuckoo.chained_table import ChainedCuckooHashTable
from repro.cuckoo.hashtable import CuckooHashTable


class TestMappingBehaviour:
    def test_set_get(self):
        table = CuckooHashTable(seed=1)
        table["movie"] = 42
        assert table["movie"] == 42
        assert "movie" in table

    def test_update_in_place(self):
        table = CuckooHashTable(seed=1)
        table["k"] = 1
        table["k"] = 2
        assert table["k"] == 2
        assert len(table) == 1

    def test_missing_key_raises(self):
        table = CuckooHashTable(seed=1)
        with pytest.raises(KeyError):
            table["nope"]

    def test_get_default(self):
        table = CuckooHashTable(seed=1)
        assert table.get("nope") is None
        assert table.get("nope", 7) == 7

    def test_delete(self):
        table = CuckooHashTable(seed=1)
        table["k"] = 1
        del table["k"]
        assert "k" not in table
        assert len(table) == 0

    def test_delete_missing_raises(self):
        table = CuckooHashTable(seed=1)
        with pytest.raises(KeyError):
            del table["nope"]

    def test_items_and_keys(self):
        table = CuckooHashTable(seed=1)
        expected = {i: i * i for i in range(20)}
        for key, value in expected.items():
            table[key] = value
        assert dict(table.items()) == expected
        assert set(table.keys()) == set(expected)

    def test_heterogeneous_keys(self):
        table = CuckooHashTable(seed=3)
        table[1] = "int"
        table["1"] = "str"
        table[(1,)] = "tuple"
        assert table[1] == "int"
        assert table["1"] == "str"
        assert table[(1,)] == "tuple"


class TestResizing:
    def test_grows_past_initial_capacity(self):
        table = CuckooHashTable(num_buckets=2, bucket_size=2, seed=5)
        for i in range(500):
            table[i] = i
        assert len(table) == 500
        assert table.num_resizes >= 1
        assert all(table[i] == i for i in range(500))

    def test_load_factor_reasonable_after_growth(self):
        table = CuckooHashTable(num_buckets=2, bucket_size=4, seed=5)
        for i in range(1000):
            table[i] = i
        assert 0.1 < table.load_factor() <= 1.0


class TestPlacement:
    @pytest.mark.parametrize("cls", [CuckooHashTable, ChainedCuckooHashTable])
    def test_kicks_never_rehash_keys(self, monkeypatch, cls):
        """The partner bucket is the stored digest's XOR jump, so an upsert
        that kicks makes no more key hashes than one that lands at once
        (counted at the module's `hash64`)."""
        module = sys.modules[cls.__module__]
        real_hash64 = module.hash64
        calls = []

        def counting_hash64(*args):
            calls.append(args)
            return real_hash64(*args)

        monkeypatch.setattr(module, "hash64", counting_hash64)
        table = cls(num_buckets=64, bucket_size=4, seed=5)
        upsert = table.__setitem__ if cls is CuckooHashTable else table.add
        costs = {True: set(), False: set()}  # kicked? -> hash64 calls
        for key in range(240):
            calls.clear()
            kicks, resizes = table.num_kicks, table.num_resizes
            upsert(key, -key)
            if table.num_resizes == resizes:
                costs[table.num_kicks > kicks].add(len(calls))
        assert costs[True] and costs[False]
        assert max(costs[True]) <= min(costs[False])


class TestAgainstDictModel:
    def test_random_operation_sequence(self):
        rng = random.Random(99)
        table = CuckooHashTable(num_buckets=4, bucket_size=2, seed=7)
        model: dict[int, int] = {}
        for step in range(3000):
            operation = rng.random()
            key = rng.randrange(200)
            if operation < 0.6:
                value = rng.randrange(10_000)
                table[key] = value
                model[key] = value
            elif operation < 0.8:
                assert table.get(key) == model.get(key)
            else:
                if key in model:
                    del table[key]
                    del model[key]
                else:
                    assert key not in table
        assert len(table) == len(model)
        assert dict(table.items()) == model

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=50), st.integers()),
            max_size=200,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_last_write_wins_property(self, writes):
        table = CuckooHashTable(num_buckets=8, bucket_size=2, seed=11)
        model: dict[int, int] = {}
        for key, value in writes:
            table[key] = value
            model[key] = value
        assert dict(table.items()) == model
