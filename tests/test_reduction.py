"""Tests for the reduction-factor evaluation harness (§10.3-§10.6)."""

import hashlib

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams, LARGE_PARAMS, SMALL_PARAMS
from repro.ccf.serialize import dumps
from repro.ccf.predicates import Eq, Range
from repro.data.imdb import generate_imdb
from repro.join.job_light import make_job_light_workload
from repro.join.reduction import (
    FilterBundle,
    YearBinning,
    aggregate_fpr,
    aggregate_rf,
    build_cuckoo_baseline,
    build_filter_bundle,
    evaluate_workload,
    rf_by_join_count,
)

SCALE = 0.0008


@pytest.fixture(scope="module")
def dataset():
    return generate_imdb(scale=SCALE, seed=11)


@pytest.fixture(scope="module")
def workload(dataset):
    return make_job_light_workload(dataset, seed=19)[:25]


@pytest.fixture(scope="module")
def bundle(dataset) -> FilterBundle:
    return build_filter_bundle(dataset, "chained", SMALL_PARAMS, name="chained-small")


@pytest.fixture(scope="module")
def results(dataset, workload, bundle):
    cuckoo = build_cuckoo_baseline(dataset)
    return evaluate_workload(dataset, workload, [bundle], cuckoo)


class TestYearBinning:
    def test_augment_adds_bin_column(self, dataset):
        binning = YearBinning(dataset)
        augmented = binning.augment(dataset.table("title"))
        assert "production_year_bin" in augmented.column_names()
        bins = augmented.column("production_year_bin")
        assert bins.min() >= 0
        assert bins.max() < 16

    def test_rewrite_widens_never_narrows(self, dataset):
        """Binned predicates keep every row the raw range keeps (no FN)."""
        binning = YearBinning(dataset)
        augmented = binning.augment(dataset.table("title"))
        for low, high in [(1950, 1980), (2000, 2005), (1990, None)]:
            raw = Range("production_year", low=low, high=high)
            binned = binning.rewrite(raw)
            raw_mask = raw.mask(augmented.columns)
            binned_mask = binned.mask(augmented.columns)
            assert not (raw_mask & ~binned_mask).any()

    def test_rewrite_leaves_other_predicates(self, dataset):
        binning = YearBinning(dataset)
        predicate = Eq("kind_id", 1)
        assert binning.rewrite(predicate) is predicate


class TestFilterBundle:
    def test_one_ccf_per_table(self, dataset, bundle):
        assert set(bundle.ccfs) == set(dataset.tables)

    def test_sizes_positive(self, bundle):
        assert bundle.total_size_bits() > 0
        assert bundle.total_size_mb() == pytest.approx(
            bundle.total_size_bits() / 8 / 1_000_000
        )

    def test_title_ccf_sketches_binned_year(self, bundle):
        title_schema = bundle.ccfs["title"].schema
        assert "production_year_bin" in title_schema.names

    def test_no_build_failures(self, bundle):
        assert all(not ccf.failed for ccf in bundle.ccfs.values())


class TestInstanceInvariants:
    def test_instance_count(self, workload, results):
        assert len(results) == sum(q.num_tables for q in workload)

    def test_m_ordering_per_instance(self, results):
        """exact <= binned <= CCF <= predicate-only, and cuckoo >= exact."""
        for result in results:
            assert 0 <= result.m_exact <= result.m_exact_binned
            assert result.m_exact_binned <= result.m_methods["chained-small"]
            assert result.m_methods["chained-small"] <= result.m_predicate
            assert result.m_exact <= result.m_methods["cuckoo"] <= result.m_predicate

    def test_rf_in_unit_interval(self, results):
        for result in results:
            if result.m_predicate == 0:
                continue
            for method in ("exact", "exact_binned", "chained-small", "cuckoo"):
                assert 0.0 <= result.rf(method) <= 1.0

    def test_fpr_definition(self, results):
        for result in results:
            negatives = result.m_predicate - result.m_exact_binned
            if negatives <= 0:
                assert result.fpr("chained-small") == 0.0
            else:
                expected = (
                    result.m_methods["chained-small"] - result.m_exact_binned
                ) / negatives
                assert result.fpr("chained-small") == pytest.approx(expected)
                assert 0.0 <= result.fpr("chained-small") <= 1.0


class TestAggregates:
    def test_aggregate_ordering(self, results):
        exact = aggregate_rf(results, "exact")
        binned = aggregate_rf(results, "exact_binned")
        ccf = aggregate_rf(results, "chained-small")
        cuckoo = aggregate_rf(results, "cuckoo")
        assert exact <= binned <= ccf
        assert ccf <= cuckoo + 1e-9  # predicates can only help

    def test_ccf_beats_key_only_baseline(self, results):
        """The paper's headline: CCFs reduce far more than key-only filters."""
        assert aggregate_rf(results, "chained-small") < aggregate_rf(results, "cuckoo")

    def test_aggregate_fpr_small(self, results):
        fpr = aggregate_fpr(results, "chained-small")
        assert 0.0 <= fpr < 0.2

    def test_rf_by_join_count_keys(self, results):
        grouped = rf_by_join_count(results, "exact")
        assert all(1 <= count <= 4 for count in grouped)
        assert all(0.0 <= rf <= 1.0 for rf in grouped.values())

    def test_more_joins_reduce_more(self, results):
        """Figure 9's multiplicative effect, allowing noise at tiny scale."""
        grouped = rf_by_join_count(results, "exact")
        if 1 in grouped and 3 in grouped:
            assert grouped[3] <= grouped[1] + 0.25


class TestStoreBundle:
    """`build_filter_bundle` can target the mutable FilterStore layer."""

    def test_bundle_targets_filter_store(self, dataset, workload):
        from repro.store import FilterStore, StoreConfig

        store_bundle = build_filter_bundle(
            dataset,
            "plain",
            CCFParams(key_bits=16, attr_bits=8, bucket_size=4, seed=2),
            name="plain-store",
            store_config=StoreConfig(num_shards=2, level_buckets=256),
        )
        assert all(isinstance(f, FilterStore) for f in store_bundle.ccfs.values())
        assert store_bundle.total_size_bits() > 0
        # Compacted on build: one level per shard until new writes arrive.
        for store in store_bundle.ccfs.values():
            assert store.num_levels == 2

        # The evaluation harness runs unchanged over store bundles, and a
        # store bundle keeps the semijoin contract: no false negatives, so
        # every method count is >= the exact semijoin count.
        results = evaluate_workload(dataset, workload[:6], [store_bundle])
        assert results
        for result in results:
            assert result.m_methods["plain-store"] >= result.m_exact_binned

        # The serving layer stays mutable after the build: new rows are
        # queryable immediately (no resize, no rebuild).
        table = next(iter(dataset.tables))
        store = store_bundle.ccfs[table]
        schema_width = store.schema.num_attributes
        new_keys = np.arange(10**7, 10**7 + 100)
        store.insert_many(new_keys, [new_keys % 3 for _ in range(schema_width)])
        assert store.query_many(new_keys).all()

    def test_store_bundle_requires_plain(self, dataset):
        from repro.store import StoreConfig

        with pytest.raises(ValueError, match="plain"):
            build_filter_bundle(
                dataset,
                "chained",
                SMALL_PARAMS,
                store_config=StoreConfig(num_shards=2, level_buckets=256),
            )


PINNED_SCHEMA = AttributeSchema(["a", "b"])

#: Tables of ``(key, a, b)`` rows from integer arithmetic alone, so no RNG
#: or library upgrade can move them: per table, its bucket count, number of
#: keys, rows of key ``k`` and the row ``r`` of key ``k``.  The first table's
#: keys hold 20-60 rows over 55 attribute pairs (chains of 11-17 pairs, Mixed
#: conversions, Bloom merges); the others are wide and mid-weight.
PINNED_TABLES = (
    (128, 24, lambda k: 20 + k * 17 % 41, lambda k, r: ((k * 7 + r * r) % 11, (r * 3 + k) % 5)),
    (256, 400, lambda k: 1 + k % 4, lambda k, r: ((k + r) % 97, r % 3)),
    (128, 100, lambda k: 1 + k * k % 12, lambda k, r: ((k * 5 + r) % 4, r // 2 % 2)),
)

#: sha256 over the `dumps` of the chained, Bloom and Mixed CCFs that
#: `insert_many` builds from `PINNED_TABLES`, under LARGE_PARAMS then
#: SMALL_PARAMS.  A change that moves placement on purpose updates it and
#: says why.
PINNED_BUILD_SHA256 = "19008632cfc95d7dca022ae4f1143fcaaabe9d3c50c743917aa1542bd68f330e"


def test_bulk_builds_keep_their_bytes():
    """Bulk CCF builds serialise to pinned bytes: placement, stash,
    counters and sketches cannot drift unnoticed."""
    digest = hashlib.sha256()
    chains, conversions, merges = [], [], []
    for params in (LARGE_PARAMS, SMALL_PARAMS):
        for kind in ("chained", "bloom", "mixed"):
            for table, (num_buckets, num_keys, count, row) in enumerate(PINNED_TABLES):
                # Key-major rounds: row r of every key that has one, so the
                # keys' chains grow side by side.
                rows = [
                    (table * 100_000 + k * 31, *row(k, r))
                    for r in range(max(count(k) for k in range(num_keys)))
                    for k in range(num_keys)
                    if r < count(k)
                ]
                keys, firsts, seconds = (np.array(c, dtype=np.int64) for c in zip(*rows))
                ccf = make_ccf(kind, PINNED_SCHEMA, num_buckets, params)
                ccf.insert_many(keys, [firsts, seconds])
                digest.update(dumps(ccf))
                if kind == "chained" and table == 0:
                    chains.append(max(ccf.chain_length(int(k)) for k in np.unique(keys)))
                elif kind == "mixed":
                    conversions.append(ccf.num_conversions)
                elif kind == "bloom":
                    merges.append(ccf.num_rows_inserted - ccf.num_entries)
    assert min(chains) >= 5 and min(conversions) > 0 and min(merges) > 0
    assert digest.hexdigest() == PINNED_BUILD_SHA256


#: sha256 of every JOB-light probe answer of the chained, Bloom and Mixed
#: bundles under LARGE_PARAMS on ``generate_imdb(scale=0.0002, seed=1)``
#: (1,884 `compile` + `query_many` calls).  A change to hashing, predicate
#: compilation or probing that keeps the answers keeps it.
PINNED_ANSWERS_SHA256 = "a9cf917e15426aa3a892047e251bede3366971c9abd03d5fdf0e79804cdd57be"


def test_join_probe_answers_keep_their_digest():
    """Every (query, base table, joined table, bundle) probe of a JOB-light
    workload answers as pinned, compiled afresh before each probe as the
    join pushdown does."""
    small = generate_imdb(scale=0.0002, seed=1)
    bundles = [
        build_filter_bundle(small, kind, LARGE_PARAMS, name=kind)
        for kind in ("chained", "bloom", "mixed")
    ]
    digest = hashlib.sha256()
    calls = 0
    for query in make_job_light_workload(small, seed=1):
        for base_ref in query.tables:
            relation = small.table(base_ref.table)
            mask = base_ref.predicate.mask(relation.columns)
            keys = np.unique(relation.column(small.join_key(base_ref.table))[mask])
            for other in query.others(base_ref.table):
                for bundle in bundles:
                    ccf = bundle.ccfs[other.table]
                    predicate = bundle.query_predicate(other.table, other.predicate)
                    digest.update(np.packbits(ccf.query_many(keys, ccf.compile(predicate))).tobytes())
                    calls += 1
    assert calls == 1884
    assert digest.hexdigest() == PINNED_ANSWERS_SHA256
