"""Tests for pair geometry and the chained pair walk (§6.2, Lemma 2)."""

import itertools

import numpy as np
import pytest

from repro.ccf.chain import CYCLE_BUMP_LIMIT, SCAN_PAIRS, PairGeometry
from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.stash import Stash


def make_geometry(num_buckets=256, key_bits=12, seed=5) -> PairGeometry:
    return PairGeometry(num_buckets, key_bits, seed)


class TestGeometry:
    def test_power_of_two_required(self):
        with pytest.raises(ValueError):
            PairGeometry(100, 12)

    def test_key_bits_range(self):
        with pytest.raises(ValueError):
            PairGeometry(64, 0)
        with pytest.raises(ValueError):
            PairGeometry(64, 63)

    def test_alt_index_involution(self):
        geometry = make_geometry()
        for key in range(500):
            fp = geometry.fingerprint_of(key)
            home = geometry.home_index(key)
            alt = geometry.alt_index(home, fp)
            assert geometry.alt_index(alt, fp) == home
            assert 0 <= alt < geometry.num_buckets

    def test_fingerprint_range(self):
        geometry = make_geometry(key_bits=7)
        for key in range(1000):
            assert 0 <= geometry.fingerprint_of(key) < 128

    def test_pair_of(self):
        geometry = make_geometry()
        home, alt = geometry.pair_of("key")
        assert home == geometry.home_index("key")
        assert alt == geometry.alt_index(home, geometry.fingerprint_of("key"))

    def test_string_and_int_keys_both_work(self):
        geometry = make_geometry()
        assert 0 <= geometry.home_index("string-key") < 256
        assert 0 <= geometry.home_index(1234) < 256

    def test_chain_step_deterministic(self):
        geometry = make_geometry()
        assert geometry.chain_step(5, 100, 0) == geometry.chain_step(5, 100, 0)

    def test_chain_step_inputs_matter(self):
        geometry = make_geometry(num_buckets=1 << 16)
        base = geometry.chain_step(5, 100, 0)
        assert geometry.chain_step(6, 100, 0) != base
        assert geometry.chain_step(5, 101, 0) != base
        assert geometry.chain_step(5, 100, 1) != base

    def test_chain_step_is_one_way_per_paper(self):
        """§6.2: the next pair depends only on (min bucket, fingerprint)."""
        geometry = make_geometry()
        assert geometry.chain_step(9, 7) == geometry.chain_step(9, 7, 0)


class TestPairWalk:
    def test_walk_is_deterministic(self):
        geometry = make_geometry()
        fp = geometry.fingerprint_of("k")
        home = geometry.home_index("k")
        first = list(itertools.islice(geometry.pair_walk(home, fp), 10))
        second = list(itertools.islice(geometry.pair_walk(home, fp), 10))
        assert first == second

    def test_walk_yields_distinct_pairs(self):
        geometry = make_geometry(num_buckets=1024)
        fp = geometry.fingerprint_of(42)
        home = geometry.home_index(42)
        pairs = list(itertools.islice(geometry.pair_walk(home, fp), 50))
        pair_ids = [min(left, right) for left, right in pairs]
        assert len(set(pair_ids)) == len(pair_ids)

    def test_walk_pairs_are_consistent(self):
        """Each yielded (l, l') satisfies l' = l XOR h(fp)."""
        geometry = make_geometry()
        fp = geometry.fingerprint_of("abc")
        home = geometry.home_index("abc")
        for left, right in itertools.islice(geometry.pair_walk(home, fp), 20):
            assert geometry.alt_index(left, fp) == right

    def test_first_pair_is_home_pair(self):
        geometry = make_geometry()
        fp = geometry.fingerprint_of("xyz")
        home = geometry.home_index("xyz")
        left, right = next(geometry.pair_walk(home, fp))
        assert left == home
        assert right == geometry.alt_index(home, fp)

    def test_walk_terminates_on_tiny_table(self):
        """With 2 buckets there is at most one pair; cycle resolution gives
        up after CYCLE_BUMP_LIMIT retries and the walk ends."""
        geometry = make_geometry(num_buckets=2)
        fp = geometry.fingerprint_of("k")
        home = geometry.home_index("k")
        pairs = list(itertools.islice(geometry.pair_walk(home, fp), 100))
        assert 1 <= len(pairs) <= 2

    def test_walk_covers_many_pairs_on_larger_table(self):
        geometry = make_geometry(num_buckets=64)
        fp = geometry.fingerprint_of("k")
        home = geometry.home_index("k")
        pairs = list(itertools.islice(geometry.pair_walk(home, fp), 64))
        # Cycle resolution should extend the chain well beyond a handful.
        assert len(pairs) >= 8

    def test_cycle_bump_limit_positive(self):
        assert CYCLE_BUMP_LIMIT >= 1


def _never(lefts, rights):
    return lefts < 0


class TestWalkMany:
    """The batch walk visits exactly `pair_walk`'s pairs, in order."""

    @staticmethod
    def _batch_rounds(geometry, keys, limit, hit=_never):
        """Pairs `walk_many` probes per round; a walk ends where ``hit``."""
        fps = np.array([geometry.fingerprint_of(k) for k in keys])
        homes = np.array([geometry.home_index(k) for k in keys])
        rounds = []

        def spy(lefts, rights, eq, rows, at):
            rounds.append(list(zip(lefts.tolist(), rights.tolist())))
            return hit(lefts, rights)

        answers = geometry.walk_many(
            SlotMatrix(geometry.num_buckets, 2),
            Stash(),
            fps,
            homes,
            geometry.alt_indices_many(homes, fps),
            max_dupes=0,  # the empty matrix holds 0 copies: every walk goes on
            limit=limit,
            pair_hit=spy,
        )
        assert answers.all()  # a hit, the limit or cycle exhaustion
        return rounds

    @staticmethod
    def _scalar_rounds(geometry, keys, limit, hit=_never):
        """The same rounds from the scalar walk: round r lists the r-th pair
        of every key whose walk is still going, in batch order."""
        walks = []
        for key in keys:
            walk = []
            home, fp = geometry.home_index(key), geometry.fingerprint_of(key)
            for left, right in itertools.islice(geometry.pair_walk(home, fp), limit):
                walk.append((left, right))
                if hit(left, right):
                    break
            walks.append(walk)
        longest = max(len(walk) for walk in walks)
        return [[walk[r] for walk in walks if len(walk) > r] for r in range(longest)]

    @pytest.mark.parametrize("num_buckets", [2, 4, 8, 16, 32])
    def test_pairs_and_cycle_exhaustion_match_scalar(self, num_buckets):
        """Full walks run until no fresh pair is left within
        CYCLE_BUMP_LIMIT bumps, so every bump count up to the limit occurs."""
        geometry = make_geometry(num_buckets=num_buckets, key_bits=6)
        for key in range(60):
            want = self._scalar_rounds(geometry, [key], 10_000)
            assert self._batch_rounds(geometry, [key], 10_000) == want

    @pytest.mark.parametrize("num_buckets", [2, 16, 256])
    def test_walks_of_one_batch_keep_their_own_visited_pairs(self, num_buckets):
        """Many keys walk at once, several on the same pairs, and drop out
        one by one as their walks are exhausted; at 256 buckets they walk
        past SCAN_PAIRS."""
        geometry = make_geometry(num_buckets=num_buckets, key_bits=6)
        keys = list(range(300))
        want = self._scalar_rounds(geometry, keys, 10_000)
        assert self._batch_rounds(geometry, keys, 10_000) == want

    def test_walks_end_before_and_after_the_scan_limit(self):
        """Hits end walks at every length, so keys drop out both while their
        visited pairs are scanned and once they sit in the hash set."""
        geometry = make_geometry(num_buckets=1024)
        keys = list(range(200))

        def hit(lefts, rights):
            return (lefts * 31 + rights) % 97 == 0

        want = self._scalar_rounds(geometry, keys, 10_000, hit)
        assert len(want) > SCAN_PAIRS and len(want[SCAN_PAIRS - 1]) < len(keys)
        assert self._batch_rounds(geometry, keys, 10_000, hit) == want

    def test_walk_limit_caps_pairs(self):
        geometry = make_geometry(num_buckets=1024)
        keys = list(range(20))
        assert self._batch_rounds(geometry, keys, 5) == self._scalar_rounds(geometry, keys, 5)
