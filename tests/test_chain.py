"""Tests for pair geometry and the chained pair walk (§6.2, Lemma 2)."""

import itertools
import sys
import threading

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.chain import CYCLE_BUMP_LIMIT, PairGeometry
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq
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


class _RecordingMatrix(SlotMatrix):
    """An empty slot matrix that records every (fingerprint, left, right)
    the walk probes, in probe order."""

    def __init__(self, num_buckets):
        super().__init__(num_buckets, 2)
        self.probes = []

    def pair_eq(self, fps, homes, alts):
        self.probes.extend(zip(fps.tolist(), homes.tolist(), alts.tolist()))
        return super().pair_eq(fps, homes, alts)


def _distinct_fp_keys(geometry, count):
    """``count`` keys with pairwise distinct fingerprints."""
    keys, seen = [], set()
    for key in itertools.count():
        fp = geometry.fingerprint_of(key)
        if fp not in seen:
            seen.add(fp)
            keys.append(key)
            if len(keys) == count:
                return keys


class TestWalkMany:
    """Per key, the batch walk probes a prefix of `pair_walk`'s pairs, in
    order, through the pair that decides it, and answers as the scalar
    walk does, with a cold chain directory and again with a warm one."""

    @staticmethod
    def _scalar_walk(geometry, key, limit, hit):
        """The pairs the scalar walk probes for ``key``, through its
        deciding pair, and the pairs its walk could reach at all."""
        home, fp = geometry.home_index(key), geometry.fingerprint_of(key)
        reachable = list(itertools.islice(geometry.pair_walk(home, fp), limit))
        for at, (left, right) in enumerate(reachable):
            if hit(np.array([left]), np.array([right]))[0]:
                return reachable[: at + 1], reachable
        return reachable, reachable

    @classmethod
    def _check(cls, geometry, keys, limit, hit=_never):
        """Walk ``keys`` (distinct fingerprints, repeats allowed) twice
        through `walk_many` and compare each key's probes with the scalar
        walk's."""
        fps = np.array([geometry.fingerprint_of(k) for k in keys])
        homes = np.array([geometry.home_index(k) for k in keys])
        scalar = {key: cls._scalar_walk(geometry, key, limit, hit) for key in keys}
        for _warm in (False, True):
            buckets = _RecordingMatrix(geometry.num_buckets)
            answers = geometry.walk_many(
                buckets,
                Stash(),
                fps,
                homes,
                geometry.alt_indices_many(homes, fps),
                max_dupes=0,  # the empty matrix holds 0 copies: every walk goes on
                limit=limit,
                pair_hit=lambda lefts, rights, eq, rows, at: hit(lefts, rights),
            )
            assert answers.all()  # a hit, the limit or cycle exhaustion
            probed = {}
            for fp, left, right in buckets.probes:
                probed.setdefault(fp, []).append((left, right))
            for key, fp in zip(keys, fps.tolist()):
                deciding, reachable = scalar[key]
                # The first pass probes a repeated key's first pair once per
                # copy; its chain is walked once.
                pairs = probed[fp][keys.count(key) - 1 :]
                assert pairs[: len(deciding)] == deciding
                assert pairs == reachable[: len(pairs)]

    @pytest.mark.parametrize("num_buckets", [2, 4, 8, 16, 32])
    def test_pairs_and_cycle_exhaustion_match_scalar(self, num_buckets):
        """Full walks run until no fresh pair is left within
        CYCLE_BUMP_LIMIT bumps, so every bump count up to the limit occurs."""
        geometry = make_geometry(num_buckets=num_buckets)
        for key in _distinct_fp_keys(geometry, 60):
            self._check(geometry, [key], 10_000)

    @pytest.mark.parametrize("num_buckets", [2, 16, 256])
    def test_walks_of_one_batch_keep_their_own_visited_pairs(self, num_buckets):
        """Many keys walk at once, several on the same pairs, some twice in
        the batch, and drop out one by one as their walks are exhausted."""
        geometry = make_geometry(num_buckets=num_buckets)
        keys = _distinct_fp_keys(geometry, 300)
        self._check(geometry, keys + keys[::7], 10_000)

    def test_walks_end_at_every_length(self):
        """Hits end walks at every length, short and past 64 pairs, so
        keys drop out while others still extend their chains."""
        geometry = make_geometry(num_buckets=1024)
        keys = _distinct_fp_keys(geometry, 200)

        def hit(lefts, rights):
            return (lefts * 31 + rights) % 97 == 0

        lengths = [len(self._scalar_walk(geometry, key, 10_000, hit)[0]) for key in keys]
        assert max(lengths) > 64 and min(lengths) < 8
        self._check(geometry, keys, 10_000, hit)

    def test_walk_limit_caps_pairs(self):
        geometry = make_geometry(num_buckets=1024)
        keys = _distinct_fp_keys(geometry, 20)
        self._check(geometry, keys, 5)
        assert all(len(chain.lefts) <= 5 for chain in geometry._chains.values())


def _walk_lefts(geometry, pair_id, fp, count):
    """The first buckets of `pair_walk`'s first ``count`` pairs from the
    pair ``pair_id`` (its smaller bucket first, as the directory keeps it)."""
    return [left for left, _right in itertools.islice(geometry.pair_walk(pair_id, fp), count)]


class TestChainDirectory:
    """The geometry's directory of chains: (first pair id, fingerprint) ->
    the pairs of `pair_walk` found so far."""

    @pytest.mark.parametrize("num_buckets", [2, 8, 64, 1024])
    def test_extensions_equal_pair_walk(self, num_buckets):
        """One chain at a time (scalar chain hash) or many at once
        (`chain_step_many`), by steps of any size: the pairs are
        `pair_walk`'s and ``ended`` marks exactly where it stops."""
        geometry = make_geometry(num_buckets=num_buckets, key_bits=6)
        firsts = []
        for key in range(40):
            home, fp = key % num_buckets, geometry.fingerprint_of(key)
            firsts.append((min(home, geometry.alt_index(home, fp)), fp))
        chains = [geometry.chain(*first) for first in firsts]
        for size in (2, 3, 9, 40, 300):
            geometry.extend(chains[::2], [size] * len(chains[::2]))
            for chain in chains[1::2]:
                geometry.extend([chain], [size])
            for (pair_id, fp), chain in zip(firsts, chains):
                want = _walk_lefts(geometry, pair_id, fp, size + 1)
                assert chain.lefts == want[: len(chain.lefts)]
                assert len(chain.lefts) == min(size, len(want))
                assert chain.ended == (len(want) < size)
        assert len(geometry._chains) == len(set(firsts))

    @staticmethod
    def _chained(num_buckets=64, **changes):
        from repro.ccf.factory import make_ccf

        params = CCFParams(bucket_size=4, max_dupes=2, key_bits=6, attr_bits=8, seed=3)
        ccf = make_ccf("chained", AttributeSchema(["a"]), num_buckets, params.replace(**changes))
        rng = np.random.default_rng(2)
        keys = rng.integers(0, 150, size=900)
        ccf.insert_many(keys, [rng.integers(0, 256, size=len(keys))])
        return ccf

    def test_entries_are_pair_walks_of_d_full_first_cells(self):
        """After a bulk build and batch walks, every entry holds a prefix of
        its `pair_walk` and belongs to a first cell holding d copies."""
        ccf = self._chained()
        for value in range(0, 256, 37):
            ccf.query_many(np.arange(300), ccf.compile(Eq("a", value)))
        counts = ccf.pair_fingerprint_counts()
        for fp, pair_id in zip(ccf.stash.fps.tolist(), ccf.stash.pairs.tolist()):
            counts[(pair_id, fp)] = counts.get((pair_id, fp), 0) + 1
        directory = ccf.geometry._chains
        assert len(directory) > 20
        for (pair_id, fp), chain in directory.items():
            assert counts[(pair_id, fp)] == ccf.params.max_dupes
            want = _walk_lefts(ccf.geometry, pair_id, fp, len(chain.lefts) + 1)
            assert chain.lefts == want[: len(chain.lefts)]

    @pytest.mark.parametrize("changes", [{}, {"max_chain": 3}, {"bucket_size": 2, "max_kicks": 5}])
    def test_cold_and_warm_directories_answer_alike(self, changes):
        """A reload of the same bytes starts with an empty directory; its
        answers, and those of later batches on either twin, equal the
        scalar walk's."""
        from repro.ccf.serialize import dumps, loads

        ccf = self._chained(num_buckets=32, **changes)
        cold = loads(dumps(ccf))
        assert not cold.geometry._chains
        probes = np.arange(200)
        for value in (5, 77, 200):
            compiled = ccf.compile(Eq("a", value))
            want = [ccf.query(int(key), compiled) for key in probes.tolist()]
            for twin in (cold, ccf, cold):
                assert twin.query_many(probes, compiled).tolist() == want

    def test_marked_view_shares_the_directory(self):
        """A predicate view walks on its source's geometry: it finds the
        chains its source's build and walks recorded, and what it extends
        its source finds."""
        ccf = self._chained()
        view = ccf.predicate_filter(Eq("a", 9))
        assert view.geometry is ccf.geometry
        before = len(ccf.geometry._chains)
        probes = np.arange(1000, 1400)  # mostly new keys
        assert view.contains_many(probes).tolist() == [view.contains(int(k)) for k in probes]
        assert len(ccf.geometry._chains) > before
        for chain in ccf.geometry._chains.values():
            assert view.geometry.chain(chain.lefts[0], chain.fp) is chain

    def test_threads_walking_one_cold_directory(self):
        """Four threads walk one empty directory at once under a short
        switch interval: every answer is the scalar walk's, and every chain
        is still a `pair_walk` prefix (interleaved extensions would append
        a pair twice or out of order)."""
        from repro.ccf.serialize import dumps, loads

        ccf = self._chained(num_buckets=32)
        cold = loads(dumps(ccf))
        probes = np.arange(300)
        compiled = ccf.compile(Eq("a", 77))
        want = [ccf.query(int(key), compiled) for key in probes.tolist()]
        results = []

        def walk():
            for _ in range(3):
                results.append(cold.query_many(probes, compiled).tolist())

        threads = [threading.Thread(target=walk) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [want] * 12
        for (pair_id, fp), chain in cold.geometry._chains.items():
            want_lefts = _walk_lefts(cold.geometry, pair_id, fp, len(chain.lefts) + 1)
            assert chain.lefts == want_lefts[: len(chain.lefts)]
