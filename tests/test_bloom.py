"""Tests for the standard Bloom filter."""

import pickle
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.hashing.families import HashFamily
from repro.sketches.bitarray import BitArray, BitRows
from repro.sketches.bloom import (
    HASHING_STATES_LIMIT,
    BatchProbe,
    BloomFilter,
    shared_hashing,
)

#: Values Python merges (``1 == True == 1.0``, ``0.0 == -0.0``,
#: ``(0, 1) == (0, True)``) but the hash keeps apart.
MERGED_VALUES = [1, True, 1.0, 0.0, -0.0, "1", b"1", (0, 1), (0, True)]


def fresh_bits(num_bits, num_hashes, seed, values):
    """The bits of a filter holding ``values``, hashed without any memo."""
    family = HashFamily(num_hashes, seed)
    bits = BitArray(num_bits)
    for value in values:
        for index in family.indexes(value, num_bits):
            bits.set(index)
    return bits


def as_rows(filters, stride):
    """The filters' bits copied into rows of one :class:`BitRows`."""
    rows = BitRows(filters[0].num_bits if filters else 0, stride=stride)
    for bloom in filters:
        at = rows.append() * stride
        payload = bloom.payload_bytes()
        rows.buf[at : at + len(payload)] = payload
    return rows


class TestBasics:
    def test_membership_after_insert(self):
        bloom = BloomFilter(256, 3, seed=1)
        bloom.add("hello")
        assert "hello" in bloom
        assert bloom.contains("hello")

    def test_empty_filter_contains_nothing(self):
        bloom = BloomFilter(256, 3, seed=1)
        assert "hello" not in bloom
        assert bloom.fill_ratio() == 0.0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            BloomFilter(0, 2)
        with pytest.raises(ValueError):
            BloomFilter(8, 0)

    def test_num_inserted_counter(self):
        bloom = BloomFilter(64, 2)
        for i in range(5):
            bloom.add(i)
        assert bloom.num_inserted == 5

    def test_size_in_bits(self):
        assert BloomFilter(128, 2).size_in_bits() == 128

    @given(st.lists(st.integers(), max_size=50))
    @settings(max_examples=60, deadline=None)
    def test_no_false_negatives(self, values):
        bloom = BloomFilter(512, 3, seed=7)
        for value in values:
            bloom.add(value)
        assert all(value in bloom for value in values)

    def test_mixed_value_types(self):
        bloom = BloomFilter(256, 2, seed=3)
        values = [1, "one", (1, "one"), b"one", 1.5, None]
        for value in values:
            bloom.add(value)
        assert all(value in bloom for value in values)


class TestBulkSet:
    """`BitArray.set_many`, which `BloomFilter.add` writes its positions
    through, into the filter's row."""

    @given(
        num_bits=st.integers(min_value=1, max_value=70),
        picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_bit_sets(self, num_bits, picks):
        indices = [pick % num_bits for pick in picks]
        bulk, single = BitArray(num_bits), BitArray(num_bits)
        bulk.set_many(indices)
        for index in indices:
            single.set(index)
        assert bulk == single

    @pytest.mark.parametrize("indices", [[3, 16], [-1, 2], (16,)])
    def test_out_of_range_raises_and_sets_nothing(self, indices):
        bits = BitArray(16)
        with pytest.raises(IndexError):
            bits.set_many(indices)
        assert not bits.any()


class TestFalsePositiveRate:
    def test_fpr_close_to_prediction(self):
        num_items, num_bits, num_hashes = 400, 4096, 4
        bloom = BloomFilter(num_bits, num_hashes, seed=5)
        for i in range(num_items):
            bloom.add(("member", i))
        predicted = bloom.expected_fpr()
        trials = 20_000
        false_positives = sum(
            1 for i in range(trials) if ("absent", i) in bloom
        )
        observed = false_positives / trials
        assert observed <= predicted * 2 + 0.01
        assert observed >= predicted / 4 - 0.01

    def test_expected_fpr_monotone_in_items(self):
        bloom = BloomFilter(128, 2)
        assert bloom.expected_fpr(10) < bloom.expected_fpr(100)

    def test_empirical_fpr_tracks_fill(self):
        bloom = BloomFilter(64, 2, seed=0)
        assert bloom.empirical_fpr() == 0.0
        for i in range(30):
            bloom.add(i)
        assert bloom.empirical_fpr() == pytest.approx(bloom.fill_ratio() ** 2)

    def test_saturated_filter_matches_everything(self):
        bloom = BloomFilter(8, 2, seed=0)
        for i in range(200):
            bloom.add(i)
        assert bloom.fill_ratio() == 1.0
        assert all(("absent", i) in bloom for i in range(20))


class TestOptimalParams:
    def test_textbook_sizing(self):
        num_bits, num_hashes = BloomFilter.optimal_params(1000, 0.01)
        # ~9.585 bits/item and ~6.6 hashes for 1% FPR.
        assert 9000 <= num_bits <= 10200
        assert num_hashes in (6, 7)

    def test_optimal_num_hashes(self):
        assert BloomFilter.optimal_num_hashes(1000, 100) == 7  # 10 ln2 ≈ 6.93

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            BloomFilter.optimal_params(0, 0.01)
        with pytest.raises(ValueError):
            BloomFilter.optimal_params(10, 1.5)
        with pytest.raises(ValueError):
            BloomFilter.optimal_num_hashes(10, 0)

    def test_achieves_target_fpr(self):
        num_bits, num_hashes = BloomFilter.optimal_params(500, 0.02)
        bloom = BloomFilter(num_bits, num_hashes, seed=2)
        for i in range(500):
            bloom.add(i)
        trials = 10_000
        observed = sum(1 for i in range(10**6, 10**6 + trials) if i in bloom) / trials
        assert observed < 0.05


class TestUnionAndCopy:
    def test_union_is_superset(self):
        a = BloomFilter(256, 3, seed=9)
        b = BloomFilter(256, 3, seed=9)
        a.add("left")
        b.add("right")
        a.union_update(b)
        assert "left" in a and "right" in a
        assert a.num_inserted == 2

    def test_union_parameter_mismatch(self):
        with pytest.raises(ValueError):
            BloomFilter(256, 3, seed=9).union_update(BloomFilter(256, 3, seed=8))
        with pytest.raises(ValueError):
            BloomFilter(256, 3, seed=9).union_update(BloomFilter(128, 3, seed=9))

    def test_copy_independent(self):
        bloom = BloomFilter(128, 2, seed=4)
        bloom.add("x")
        clone = bloom.copy()
        clone.add("y")
        assert "y" in clone and "y" not in bloom
        assert "x" in clone


class TestBatchProbe:
    @settings(max_examples=40, deadline=None)
    @given(
        num_bits=st.sampled_from([1, 7, 8, 24, 64, 65, 100]),
        num_hashes=st.integers(min_value=1, max_value=4),
        stored=st.lists(st.lists(st.integers(min_value=0, max_value=30), max_size=6), max_size=8),
        alternatives=st.lists(
            st.lists(st.integers(min_value=0, max_value=30), max_size=4), max_size=3
        ),
    )
    def test_matches_scalar_membership(self, num_bits, num_hashes, stored, alternatives):
        """Bits against precomputed masks, over one- and two-word filters
        kept as rows of one buffer: equal to testing each value with
        ``in``."""
        filters = []
        for values in stored:
            bloom = BloomFilter(num_bits, num_hashes, seed=5)
            for value in values:
                bloom.add(value)
            filters.append(bloom)
        rows = as_rows(filters, stride=8 * ((num_bits + 63) // 64))
        probe = BatchProbe(num_bits, num_hashes, 5, alternatives)
        want = [all(any(v in f for v in values) for values in alternatives) for f in filters]
        words = rows.words()[: len(filters)]
        assert probe.matches(words).tolist() == want

    def test_sees_inserts_after_construction(self):
        rows = BitRows(40, stride=8)
        rows.append()
        probe = BatchProbe(40, 3, 2, [["late"]])
        assert not probe.matches(rows.words()[[0]])[0]
        for position in shared_hashing(40, 3, 2).positions("late"):
            rows.buf[position >> 3] |= 1 << (position & 7)
        assert probe.matches(rows.words()[[0]])[0]


class TestSharedRows:
    """Sketches kept as rows of one growing buffer, as a CCF keeps them."""

    def test_rows_grow_under_live_filters(self):
        """Every append past the buffer's room moves all rows to a larger
        buffer; rows written before keep their bits, flags and counts, and
        stay writable through the buffer."""
        rows = BitRows(70, stride=16)
        hashing = shared_hashing(70, 3, 9)
        written: list[list] = []

        def add(row, value):
            at = row * rows.stride
            for position in hashing.positions(value):
                rows.buf[at + (position >> 3)] |= 1 << (position & 7)
            rows.counts[row] += 1
            written[row].append(value)

        for i in range(300):
            assert rows.append() == i
            written.append([])
            add(i, ("row", i))
            add(i // 2, ("late", i))
            rows.flags[i] = i % 3 != 0
        assert rows.size == 300 and len(rows.buf) >= 300 * rows.stride
        for i, values in enumerate(written):
            want = fresh_bits(70, 3, 9, values).to_bytes()
            assert rows.row_bytes(i) == want
            assert rows.words()[i].tobytes()[:9] == want
            assert rows.counts[i] == len(values)
            assert rows.flags[i] == (i % 3 != 0)

    def test_pickle_keeps_rows_live(self):
        rows = BitRows(40, stride=8)
        for _ in range(3):
            rows.append()
        rows.buf[8] = 0b101
        rows.flags[1], rows.counts[1] = False, 4
        rows.words()  # a cached view must not travel
        clone = pickle.loads(pickle.dumps(rows))
        clone.buf[9] = 0b1
        assert clone.words()[1].tobytes()[:2] == bytes([0b101, 0b1])
        assert rows.words()[1].tobytes()[:2] == bytes([0b101, 0])
        assert (clone.flags[1], clone.counts[1], clone.size) == (False, 4, 3)


class TestSharedHashing:
    """Same-parameter filters share one family and one position memo."""

    @pytest.mark.parametrize("num_bits", [4096, 61])
    def test_memo_is_type_exact(self, num_bits):
        num_hashes, seed = 3, 0x5EED01
        warm = BloomFilter(num_bits, num_hashes, seed)
        for value in MERGED_VALUES:
            warm.add(value)
        family = HashFamily(num_hashes, seed)
        for value in MERGED_VALUES:
            second = BloomFilter(num_bits, num_hashes, seed)
            assert list(second.positions(value)) == family.indexes(value, num_bits)
            second.add(value)
            assert second._bits == fresh_bits(num_bits, num_hashes, seed, [value])

    def test_memo_keys_exact_tuples_by_value(self):
        """Flat tuples of exact ints and strs key the memo by value; every
        other value by its encoding.  Positions equal a fresh family's for
        both kinds of key, and values Python merges keep their own entries."""
        num_bits, num_hashes, seed = 97, 3, 0x5EED07
        state = shared_hashing(num_bits, num_hashes, seed)
        family = HashFamily(num_hashes, seed)
        merged = [(0, 1), (0, True), (0, 1.0), (0, "1")]
        for value in merged:
            assert list(state.positions(value)) == family.indexes(value, num_bits)
        assert len(state) == 4
        values = [
            (0, -5), (1, -(2**63)), (2, 2**63), (3, 2**70), 2**64, -1,
            (0, ""), (0, "é"), (0, "a"), (0, "a\0"), "a\0", "",
            (0, False), True, (1, 0.0), (1, -0.0), -0.0,
            (0, (1, "x")), ((0, 1), 2), (), ((),), (0, None), (0, b"a"),
        ]
        for _round in range(2):  # the second round reads the memo
            for value in values:
                assert list(state.positions(value)) == family.indexes(value, num_bits)
        assert len(state) == 4 + len(values)

    def test_bloom_ccf_entries_equal_fresh_hashing(self):
        """20 rows per key: every entry's bits are the OR of fresh-family
        positions over the rows of its (fingerprint, bucket pair)."""
        params = CCFParams(
            key_bits=8, bucket_size=4, bloom_bits=512, bloom_hashes=3, seed=0x5EED02
        )
        ccf = make_ccf("bloom", AttributeSchema(["a", "b"]), 32, params)
        keys = [key for key in range(60) for _ in range(20)]
        pool = MERGED_VALUES[:7]
        col_a = [pool[i % len(pool)] for i in range(len(keys))]
        col_b = [pool[(i * 3 + i // 7) % len(pool)] for i in range(len(keys))]
        assert ccf.insert_many(keys, [col_a, col_b]).all()
        assert not ccf.stash
        rows: dict[tuple[int, int, int], list] = {}
        for key, a, b in zip(keys, col_a, col_b):
            fp, home = ccf.fingerprint_of(key), ccf.home_index(key)
            pair = tuple(sorted((home, ccf.alt_index(home, fp))))
            rows.setdefault((fp, *pair), []).extend([(0, a), (1, b)])
        seen = set()
        for bucket, slot, fp, _payload in ccf.buckets.iter_entries():
            pair = tuple(sorted((bucket, ccf.alt_index(bucket, fp))))
            want = fresh_bits(
                params.bloom_bits, params.bloom_hashes, ccf._bloom_salt, rows[(fp, *pair)]
            )
            assert ccf._sketch_rows.row_bytes(ccf._payload_rows[bucket, slot]) == want.to_bytes()
            seen.add((fp, *pair))
        assert seen == set(rows)

    def test_memo_is_bounded(self, monkeypatch):
        num_bits, num_hashes, seed = 100, 2, 0x5EED03
        state = BloomFilter(num_bits, num_hashes, seed)._hashing
        monkeypatch.setattr(state, "limit", 16)
        family = HashFamily(num_hashes, seed)
        values = [(i % 3, i) for i in range(200)]
        for _round in range(2):  # the second round re-derives evicted values
            bloom = BloomFilter(num_bits, num_hashes, seed)
            for value in values:
                bloom.add(value)
                assert len(state) <= 16
                assert list(bloom.positions(value)) == family.indexes(value, num_bits)
            assert bloom._bits == fresh_bits(num_bits, num_hashes, seed, values)

    def test_memo_survives_concurrent_misses(self, monkeypatch):
        """Threads missing on a one-entry memo at once: no eviction raises,
        the bound holds and every answer is exact."""
        num_bits, num_hashes, seed = 64, 2, 0x5EED06
        state = BloomFilter(num_bits, num_hashes, seed)._hashing
        monkeypatch.setattr(state, "limit", 1)
        family = HashFamily(num_hashes, seed)
        values = [(i % 2, i) for i in range(40)]
        want = {value: family.indexes(value, num_bits) for value in values}
        errors: list[Exception] = []

        def worker(offset: int) -> None:
            try:
                for i in range(1_500):
                    value = values[(i * 7 + offset) % len(values)]
                    assert list(state.positions(value)) == want[value]
                    assert len(state) <= 1
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]

    def test_family_shared_per_parameter_set(self):
        a, b = BloomFilter(64, 3, seed=5), BloomFilter(64, 3, seed=5)
        assert a._hashing is b._hashing
        assert a._hashing.family is b._hashing.family
        other = BloomFilter(64, 3, seed=6)
        assert other._hashing.family is not a._hashing.family
        assert other._hashing.family.seed == 6

    def test_parameter_sets_are_bounded(self):
        for seed in range(HASHING_STATES_LIMIT + 4):
            BloomFilter(32, 2, seed=0x5EED0400 + seed).add("x")
        assert shared_hashing.cache_info().currsize <= HASHING_STATES_LIMIT

    def test_pickle_keeps_bits_not_memo(self):
        bloom = BloomFilter(256, 3, seed=0x5EED05)
        for i in range(500):
            bloom.add(("warm", i))
        clone = pickle.loads(pickle.dumps(bloom))
        assert clone._bits == bloom._bits
        assert clone.num_inserted == bloom.num_inserted
        assert clone._hashing is bloom._hashing
        assert len(pickle.dumps(bloom)) < 1024
