"""Tests for predicate-only filter extraction (Algorithm 2 and §6.2)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro import obs
from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import build_ccf, make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq
from repro.ccf.serialize import dumps, loads
from repro.cuckoo.filter import CuckooFilter

from tests.conftest import TINY_PREDICATES, random_rows, tiny_chained_ccfs

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(bucket_size=6, max_dupes=3, key_bits=12, attr_bits=8, seed=53)


class TestMarkedKeyFilter:
    def test_no_false_negatives_with_duplicates(self):
        rows = random_rows(300, 8, seed=1)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        predicate = Eq("color", "red")
        view = ccf.predicate_filter(predicate)
        for key, (color, _size) in rows:
            if color == "red":
                assert view.contains(key)

    def test_view_matches_source_queries(self):
        rows = random_rows(300, 6, seed=2)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        predicate = Eq("color", "green")
        view = ccf.predicate_filter(predicate)
        for key in list(range(300)) + list(range(9000, 9200)):
            assert view.contains(key) == ccf.query(key, predicate)

    def test_keeps_all_fingerprints(self):
        """§6.2: erasing entries would break chains; marking keeps them."""
        rows = random_rows(300, 6, seed=3)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        view = ccf.predicate_filter(Eq("color", "red"))
        assert view.num_entries == ccf.num_entries
        assert view.num_matching() <= view.num_entries

    def test_snapshot_isolated_from_source(self):
        rows = random_rows(100, 3, seed=4)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        view = ccf.predicate_filter(Eq("color", "red"))
        before = view.num_entries
        ccf.insert(99_999, ("red", 1))
        assert view.num_entries == before

    def test_size_accounting_one_bit_per_slot(self):
        rows = random_rows(100, 3, seed=5)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        view = ccf.predicate_filter(Eq("color", "red"))
        assert view.size_in_bits() == (view.buckets.capacity + len(view.stash)) * (
            PARAMS.key_bits + 1
        )
        assert view.size_in_bits() < ccf.size_in_bits()

    def test_chain_walk_continues_through_marked_pairs(self):
        """A pair full of non-matching copies must not stop the walk."""
        rows = [(5, ("blue", i)) for i in range(9)] + [(5, ("red", 99))]
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS, headroom=2.0)
        view = ccf.predicate_filter(Eq("color", "red"))
        assert view.contains(5)

    def test_conjunctive_predicate(self):
        rows = random_rows(200, 5, seed=6)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        predicate = And([Eq("color", "red"), Eq("size", 7)])
        view = ccf.predicate_filter(predicate)
        for key, attrs in rows:
            if attrs == ("red", 7):
                assert view.contains(key)


class TestExtractedKeyFilter:
    """Bloom and Mixed extraction (Algorithm 2) yields a plain cuckoo filter."""

    def test_matches_source_for_bloom(self):
        rows = random_rows(300, 4, seed=7)
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS.replace(bloom_bits=24))
        predicate = Eq("color", "black")
        extracted = ccf.predicate_filter(predicate)
        for key in list(range(300)) + list(range(7000, 7200)):
            assert extracted.contains(key) == ccf.query(key, predicate)

    def test_matches_source_for_mixed(self):
        rows = random_rows(300, 8, seed=8)
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        predicate = Eq("color", "black")
        extracted = ccf.predicate_filter(predicate)
        for key in list(range(300)) + list(range(7000, 7200)):
            assert extracted.contains(key) == ccf.query(key, predicate)

    def test_erases_non_matching_entries(self):
        rows = [(key, ("red" if key % 2 else "blue", 1)) for key in range(200)]
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS.replace(bloom_bits=24))
        extracted = ccf.predicate_filter(Eq("color", "red"))
        assert len(extracted) < ccf.num_entries

    def test_snapshot_isolated_from_source(self):
        rows = random_rows(100, 3, seed=9)
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS)
        extracted = ccf.predicate_filter(Eq("color", "red"))
        before = len(extracted)
        ccf.insert(99_999, ("red", 1))
        assert len(extracted) == before

    @pytest.mark.parametrize("kind", ["bloom", "mixed"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_is_a_cuckoo_filter_answering_like_its_stashed_source(self, kind, seed):
        """The extracted filter is a CuckooFilter over the source's geometry:
        it answers `query_many` key by key, stash included, before and after
        a CKF6 round trip."""
        params = CCFParams(
            bucket_size=2, max_dupes=2, key_bits=8, attr_bits=5, bloom_bits=16,
            max_kicks=5, seed=seed,
        )
        ccf = make_ccf(kind, SCHEMA, 8, params)
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 40, 60)
        colors = np.array(["red", "green", "blue"], dtype=object)[rng.integers(0, 3, 60)]
        ccf.insert_many(keys, [colors, rng.integers(0, 8, 60)])
        assert ccf.stash, "expected the overloaded build to stash entries"
        probes = np.arange(300, dtype=np.int64)
        for predicate in TINY_PREDICATES:
            view = ccf.predicate_filter(predicate)
            assert type(view) is CuckooFilter
            assert view.geometry.jump_seed == ccf.geometry.jump_seed
            assert len(view) == view.buckets.filled + len(view.stash)
            want = ccf.query_many(probes, predicate).tolist()
            assert view.contains_many(probes).tolist() == want
            assert loads(dumps(view)).contains_many(probes).tolist() == want

    def test_size_accounting(self):
        rows = random_rows(100, 3, seed=10)
        ccf = build_ccf("bloom", SCHEMA, rows, PARAMS)
        extracted = ccf.predicate_filter(Eq("color", "red"))
        expected = (extracted.buckets.capacity + len(extracted.stash)) * PARAMS.key_bits
        assert extracted.size_in_bits() == expected


class TestViewBatchProbes:
    """`contains_many` on both views is bit-identical to scalar `contains`."""

    def test_marked_batch_matches_scalar(self):
        rows = random_rows(400, 8, seed=11)
        ccf = build_ccf("chained", SCHEMA, rows, PARAMS)
        view = ccf.predicate_filter(Eq("color", "red"))
        probes = list(range(400)) + list(range(8000, 8400))
        batch = view.contains_many(probes)
        assert batch.tolist() == [view.contains(key) for key in probes]

    def test_extracted_batch_matches_scalar(self):
        rows = random_rows(400, 4, seed=12)
        ccf = build_ccf("mixed", SCHEMA, rows, PARAMS)
        view = ccf.predicate_filter(And([Eq("color", "blue")]))
        probes = list(range(400)) + list(range(8000, 8400))
        batch = view.contains_many(probes)
        assert batch.tolist() == [view.contains(key) for key in probes]

    def test_marked_batch_with_stash(self):
        """Overloaded source: stashed copies count toward their own pairs'
        d-count and hit there when marked."""
        from repro.ccf.chained import ChainedCCF

        tight = PARAMS.replace(bucket_size=1, max_dupes=2, max_chain=2)
        ccf = ChainedCCF(SCHEMA, 16, tight)
        for key, attrs in random_rows(40, 12, seed=13):
            ccf.insert(key, attrs)
        assert ccf.stash, "expected the overloaded build to stash victims"
        view = ccf.predicate_filter(Eq("color", "green"))
        probes = list(range(40)) + list(range(5000, 5200))
        batch = view.contains_many(probes)
        assert batch.tolist() == [view.contains(key) for key in probes]

    @settings(max_examples=40, deadline=None)
    @given(ccf=tiny_chained_ccfs())
    def test_marked_batch_matches_scalar_on_tiny_tables(self, ccf):
        """Cycle bumps, the Lmax cap, stashed copies and d from 1 to 2b."""
        probes = list(range(40))
        for predicate in TINY_PREDICATES:
            view = ccf.predicate_filter(predicate)
            batch = view.contains_many(probes)
            assert batch.tolist() == [view.contains(key) for key in probes]


class TestStashedFingerprints:
    """A stashed entry is a slot of its own pair only: a fingerprint
    stashed for another pair neither answers for a key nor keeps its walk
    going."""

    @staticmethod
    def _pair_eq_calls() -> float:
        return sum(
            sample["value"]
            for sample in obs.snapshot()["repro_kernel_calls_total"]["samples"]
            if sample["labels"]["kernel"] == "pair_eq"
        )

    def test_fingerprint_stashed_for_another_pair_does_not_answer(self):
        params = CCFParams(
            bucket_size=2, max_dupes=2, key_bits=8, attr_bits=5, max_kicks=5, seed=1
        )
        ccf = make_ccf("chained", SCHEMA, 64, params)
        rng = np.random.default_rng(1)
        keys = rng.integers(0, 10**6, 400)
        colors = np.array(["red", "green", "blue"], dtype=object)[rng.integers(0, 3, 400)]
        ccf.insert_many(keys, [colors, rng.integers(0, 8, 400)])
        stashed = {(fp, pair) for fp, pair, _entry in ccf.stash}
        assert stashed, "expected the overloaded build to stash entries"
        stashed_fps = {fp for fp, _pair in stashed}

        def foreign(key):
            # Stashed fingerprint, but no stashed or table copy in its pair.
            fp, home = ccf.fingerprint_of(key), ccf.home_index(key)
            alt = ccf.alt_index(home, fp)
            return (
                fp in stashed_fps
                and (fp, min(home, alt)) not in stashed
                and not any(ccf._fp_entries_in_pair(home, alt, fp))
            )

        probes = np.array([key for key in range(10**7, 10**7 + 100_000) if foreign(key)][:20])
        assert len(probes) == 20
        predicate = Eq("color", "red")
        view = ccf.predicate_filter(predicate)
        was = obs.enabled()
        obs.set_enabled(True)
        try:
            for probe in (
                lambda: ccf.query_many(probes, predicate),
                lambda: ccf.contains_key_many(probes),
                lambda: view.contains_many(probes),
            ):
                obs._reset_for_tests()
                assert not probe().any()
                assert self._pair_eq_calls() <= 1  # every walk ends at its first pair
        finally:
            obs.set_enabled(was)
            obs._reset_for_tests()
        assert not any(ccf.query(key, predicate) for key in probes.tolist())
        assert not any(view.contains(key) for key in probes.tolist())
