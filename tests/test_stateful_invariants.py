"""Stateful property tests: filters vs reference models under random ops.

Hypothesis drives interleaved insert/query sequences, scalar and batched,
against exact models; after every step the no-false-negative guarantee and
the structural invariants (Lemma 1's pair cap, Mixed's no-shape-mixing)
must hold.  Every CCF and the cuckoo filter run on tables so small that
short runs stash: stashed vectors, Bloom entries and group slots enter the
models, and deletes exercise the stash's pair rule.
"""

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.ccf.attributes import AttributeSchema
from repro.ccf.bloom_ccf import BloomCCF
from repro.ccf.chained import ChainedCCF
from repro.ccf.mixed import MixedCCF
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF
from repro.ccf.predicates import And, Eq
from repro.cuckoo.chained_table import ChainedCuckooHashTable
from repro.cuckoo.filter import CuckooFilter

SCHEMA = AttributeSchema(["color", "size"])
# 16 buckets of 2 slots, 8-bit keys and 20 kicks: chains, Bloom merges and
# conversions all happen beside stashed entries within 40 steps.
PARAMS = CCFParams(
    bucket_size=2, max_dupes=2, key_bits=8, attr_bits=6, max_kicks=20, seed=91
)

KEYS = st.integers(min_value=0, max_value=40)
COLORS = st.sampled_from(["r", "g", "b"])
SIZES = st.integers(min_value=0, max_value=15)


class _CCFMachineBase(RuleBasedStateMachine):
    """Shared machinery: insert rows, check membership, check invariants."""

    ccf_class = ChainedCCF

    def __init__(self):
        super().__init__()
        # Tiny table: plenty of collision/kick/chain pressure, and stashes.
        self.ccf = self.ccf_class(SCHEMA, 16, PARAMS)
        self.rows: set[tuple[int, tuple]] = set()

    @rule(key=KEYS, color=COLORS, size=SIZES)
    def insert(self, key, color, size):
        self.ccf.insert(key, (color, size))
        self.rows.add((key, (color, size)))

    @rule(rows=st.lists(st.tuples(KEYS, COLORS, SIZES), max_size=8))
    def insert_many(self, rows):
        keys = np.array([key for key, _color, _size in rows], dtype=np.int64)
        columns = [[color for _key, color, _size in rows], [size for _key, _color, size in rows]]
        self.ccf.insert_many(keys, columns)
        self.rows.update((key, (color, size)) for key, color, size in rows)

    @rule(key=KEYS, color=COLORS, size=SIZES)
    def query_never_false_negative(self, key, color, size):
        if (key, (color, size)) in self.rows:
            assert self.ccf.query(key, And([Eq("color", color), Eq("size", size)]))

    @rule(color=COLORS, size=SIZES)
    def query_many_equals_query_and_never_false_negative(self, color, size):
        keys = np.arange(41, dtype=np.int64)
        for predicate in (None, And([Eq("color", color), Eq("size", size)])):
            answers = self.ccf.query_many(keys, predicate)
            assert answers.tolist() == [self.ccf.query(key, predicate) for key in range(41)]
            live = [key for key, row in self.rows if predicate is None or row == (color, size)]
            assert answers[live].all()

    @rule(key=KEYS)
    def key_membership_never_false_negative(self, key):
        if any(k == key for k, _ in self.rows):
            assert self.ccf.contains_key(key)

    @invariant()
    def structural_invariants_hold(self):
        self.ccf.check_invariants()


class ChainedCCFMachine(_CCFMachineBase):
    ccf_class = ChainedCCF


class BloomCCFMachine(_CCFMachineBase):
    ccf_class = BloomCCF


class MixedCCFMachine(_CCFMachineBase):
    ccf_class = MixedCCF


TestChainedCCFStateful = ChainedCCFMachine.TestCase
TestChainedCCFStateful.settings = settings(max_examples=25, stateful_step_count=40, deadline=None)

TestBloomCCFStateful = BloomCCFMachine.TestCase
TestBloomCCFStateful.settings = settings(max_examples=15, stateful_step_count=40, deadline=None)

TestMixedCCFStateful = MixedCCFMachine.TestCase
TestMixedCCFStateful.settings = settings(max_examples=15, stateful_step_count=40, deadline=None)


class MultimapMachine(RuleBasedStateMachine):
    """ChainedCuckooHashTable vs a dict-of-sets model, with removals."""

    def __init__(self):
        super().__init__()
        self.table = ChainedCuckooHashTable(
            num_buckets=8, bucket_size=2, max_dupes=2, seed=17
        )
        self.model: dict[int, set[int]] = {}

    @rule(key=KEYS, value=SIZES)
    def add(self, key, value):
        added = self.table.add(key, value)
        expected = value not in self.model.get(key, set())
        assert added == expected
        self.model.setdefault(key, set()).add(value)

    @rule(key=KEYS, value=SIZES)
    def remove(self, key, value):
        removed = self.table.remove(key, value)
        expected = value in self.model.get(key, set())
        assert removed == expected
        self.model.get(key, set()).discard(value)

    @rule(key=KEYS)
    def get_is_exact(self, key):
        assert sorted(self.table.get(key)) == sorted(self.model.get(key, set()))

    @invariant()
    def size_matches_model(self):
        assert len(self.table) == sum(len(v) for v in self.model.values())


TestMultimapStateful = MultimapMachine.TestCase
TestMultimapStateful.settings = settings(max_examples=20, stateful_step_count=50, deadline=None)


# Deletable structures on a tiny table: 8-bit keys, 16 buckets of 2 slots,
# 20 kicks.  Sixty keys overfill its 32 slots, so a short run stashes.
TINY = CCFParams(key_bits=8, attr_bits=4, bucket_size=2, max_kicks=20, seed=3)
TINY_KEYS = st.integers(min_value=0, max_value=59)
TINY_ATTRS = st.integers(min_value=0, max_value=2)
PICKS = st.integers(min_value=0, max_value=10**6)


class PlainCCFMachine(RuleBasedStateMachine):
    """PlainCCF vs the exact multiset of live rows, under inserts and
    deletes of live rows.

    Plain placement stores one entry per (fingerprint, pair, vector), so
    deleting one row forgets every row sharing that signature until one of
    them is inserted again; only those rows are exempt from the check.
    """

    def __init__(self):
        super().__init__()
        self.ccf = PlainCCF(AttributeSchema(["a"]), 16, TINY)
        self.live: list[tuple[int, int]] = []
        self.exempt: set[tuple] = set()
        self.signatures: dict[tuple[int, int], tuple] = {}

    def _signature(self, key, attr):
        if (key, attr) not in self.signatures:
            fp, home = self.ccf.fingerprint_of(key), self.ccf.home_index(key)
            pair = min(home, self.ccf.alt_index(home, fp))
            self.signatures[key, attr] = (fp, pair, self.ccf.fingerprinter.vector((attr,)))
        return self.signatures[key, attr]

    @rule(key=TINY_KEYS, attr=TINY_ATTRS)
    def insert(self, key, attr):
        self.ccf.insert(key, (attr,))
        self.live.append((key, attr))
        self.exempt.discard(self._signature(key, attr))

    @rule(rows=st.lists(st.tuples(TINY_KEYS, TINY_ATTRS), max_size=8))
    def insert_many(self, rows):
        keys = np.array([key for key, _attr in rows], dtype=np.int64)
        self.ccf.insert_many(keys, [[attr for _key, attr in rows]])
        self.live.extend(rows)
        self.exempt.difference_update(self._signature(key, attr) for key, attr in rows)

    @precondition(lambda self: self.live)
    @rule(pick=PICKS)
    def delete(self, pick):
        key, attr = self.live.pop(pick % len(self.live))
        signature = self._signature(key, attr)
        assert self.ccf.delete(key, (attr,)) or signature in self.exempt
        self.exempt.add(signature)

    @invariant()
    def live_rows_are_members(self):
        rows = [row for row in self.live if self._signature(*row) not in self.exempt]
        for attr in range(3):
            keys = np.array([key for key, a in rows if a == attr], dtype=np.int64)
            assert self.ccf.query_many(keys, Eq("a", attr)).all()


class CuckooFilterMachine(RuleBasedStateMachine):
    """CuckooFilter vs the exact multiset of live keys.  Every inserted copy
    keeps its own fingerprint copy in its pair, table or stash, so every
    live key answers True after any sequence of deletes of live keys."""

    def __init__(self):
        super().__init__()
        self.filter = CuckooFilter(16, 2, 8, max_kicks=20, seed=3)
        self.live: list[int] = []

    @rule(key=TINY_KEYS)
    def insert(self, key):
        self.filter.insert(key)
        self.live.append(key)

    @rule(keys=st.lists(TINY_KEYS, max_size=8))
    def insert_many(self, keys):
        self.filter.insert_many(np.array(keys, dtype=np.int64))
        self.live.extend(keys)

    @precondition(lambda self: self.live)
    @rule(pick=PICKS)
    def delete(self, pick):
        assert self.filter.delete(self.live.pop(pick % len(self.live)))

    @precondition(lambda self: self.live)
    @rule(picks=st.lists(PICKS, min_size=1, max_size=4))
    def delete_many(self, picks):
        keys = [self.live.pop(pick % len(self.live)) for pick in picks if self.live]
        assert self.filter.delete_many(np.array(keys, dtype=np.int64)).all()

    @invariant()
    def live_keys_are_members(self):
        assert self.filter.contains_many(np.array(self.live, dtype=np.int64)).all()
        assert all(self.filter.contains(key) for key in set(self.live))


# Derandomized so the runs are reproducible: at this budget the plain
# machine finds the false negative a stash that matched rows of any pair
# used to cause (a delete removing another pair's stashed copy).
TestPlainCCFStateful = PlainCCFMachine.TestCase
TestPlainCCFStateful.settings = settings(
    max_examples=25, stateful_step_count=120, deadline=None, derandomize=True
)

TestCuckooFilterStateful = CuckooFilterMachine.TestCase
TestCuckooFilterStateful.settings = settings(
    max_examples=30, stateful_step_count=120, deadline=None, derandomize=True
)
