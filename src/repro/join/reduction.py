"""Reduction-factor evaluation: the paper's §10.3-§10.7 harness.

For every (query, base table) instance, compare how strongly each method
shrinks the base scan's output:

* ``exact`` — the best possible semijoin: base rows whose key matches rows
  satisfying the predicates in *every* other table (no false positives);
* ``exact_binned`` — the same after binning ``production_year`` (Figure 7's
  baseline, isolating binning error from sketch error);
* one entry per CCF :class:`FilterBundle` — the base scan keeps a row iff
  every other table's CCF answers True for (key, that table's predicate);
* ``cuckoo`` — the state-of-the-art pre-built baseline: key-only cuckoo
  filters that ignore predicates.

``Reduction Factor = M_method / M_predicate`` (Eq. 9), where ``M_predicate``
counts base rows passing only the base table's own predicates (ranges on the
base table itself are evaluated exactly, as in the paper).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from repro.ccf.attributes import AttributeSchema
from repro.ccf.base import ConditionalCuckooFilterBase
from repro.ccf.binning import EquiSizeBinner
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq, In, Predicate, Range, TruePredicate
from repro.ccf.sizing import distinct_row_counts, predicted_entries, recommended_num_buckets
from repro.cuckoo.filter import CuckooFilter
from repro.data.imdb import IMDBDataset
from repro.data.relation import Relation
from repro.join.query import JoinQuery
from repro.store import FilterStore, StoreConfig

#: Number of year bins (paper: "mapped the 132 values to 16 ... intervals").
DEFAULT_YEAR_BINS = 16

BINNED_COLUMNS: dict[str, str] = {"production_year": "production_year_bin"}


class YearBinning:
    """Binning of ``title.production_year`` shared by filters and baselines."""

    def __init__(self, dataset: IMDBDataset, num_bins: int = DEFAULT_YEAR_BINS) -> None:
        years = dataset.table("title").column("production_year")
        self.binner = EquiSizeBinner.fit(years.tolist(), num_bins)
        self.raw_column = "production_year"
        self.bin_column = BINNED_COLUMNS[self.raw_column]

    def bins_of(self, values: np.ndarray) -> np.ndarray:
        """Vectorised bin ids for an array of years."""
        boundaries = np.asarray(self.binner._boundaries)
        return np.minimum(
            np.searchsorted(boundaries, values, side="left"), self.binner.num_bins - 1
        )

    def augment(self, relation: Relation) -> Relation:
        """Return a copy of ``relation`` with the bin column added."""
        columns = dict(relation.columns)
        columns[self.bin_column] = self.bins_of(relation.column(self.raw_column))
        return Relation(relation.name, columns)

    def rewrite(self, predicate: Predicate) -> Predicate:
        """Rewrite year predicates onto the bin column (widening ranges)."""
        if isinstance(predicate, TruePredicate):
            return predicate
        if isinstance(predicate, And):
            return And([self.rewrite(p) for p in predicate.predicates])
        if isinstance(predicate, Range) and predicate.column == self.raw_column:
            return self.binner.bin_predicate(predicate, self.bin_column)
        if isinstance(predicate, Eq) and predicate.column == self.raw_column:
            return Eq(self.bin_column, self.binner.bin_of(predicate.value))
        if isinstance(predicate, In) and predicate.column == self.raw_column:
            return In(self.bin_column, {self.binner.bin_of(v) for v in predicate.values})
        return predicate


@dataclass
class FilterBundle:
    """One filter per table, all of one variant/parameterisation (§10.4).

    Values are CCFs in the precompute-once deployment, or
    :class:`~repro.store.FilterStore` instances when the bundle targets the
    mutable serving layer — both expose the same ``compile``/``query_many``/
    ``size_in_bits`` surface the evaluation harness uses.
    """

    name: str
    kind: str
    params: CCFParams
    ccfs: dict[str, ConditionalCuckooFilterBase | FilterStore] = field(default_factory=dict)
    binning: YearBinning | None = None

    def total_size_bits(self) -> int:
        """Summed sketch size across tables (Figure 8's x-axis)."""
        return sum(ccf.size_in_bits() for ccf in self.ccfs.values())

    def total_size_mb(self) -> float:
        """Summed sketch size in megabytes."""
        return self.total_size_bits() / 8 / 1_000_000

    def query_predicate(self, table: str, predicate: Predicate) -> Predicate:
        """Rewrite a query predicate into the form the table's CCF stores."""
        if self.binning is not None and table == "title":
            return self.binning.rewrite(predicate)
        return predicate


def ccf_attribute_columns(dataset: IMDBDataset, table: str) -> tuple[str, ...]:
    """The columns a table's CCF sketches (year replaced by its bin)."""
    return tuple(
        BINNED_COLUMNS.get(column, column) for column in dataset.predicate_columns(table)
    )


def build_filter_bundle(
    dataset: IMDBDataset,
    kind: str,
    params: CCFParams,
    name: str | None = None,
    num_year_bins: int = DEFAULT_YEAR_BINS,
    target_load: float | None = None,
    store_config: StoreConfig | None = None,
) -> FilterBundle:
    """Build one filter per table over its join key and predicate columns.

    With ``store_config`` the bundle targets the mutable serving layer:
    each table becomes a sharded :class:`~repro.store.FilterStore` (plain
    levels — the store's deletable/compactable variant) that is filled,
    compacted once to right-size, and can keep absorbing inserts and
    deletes after the build — no occupancy prediction or resize-retry loop
    is needed because stores grow levels on demand.
    """
    if store_config is not None and kind != "plain":
        raise ValueError(
            "FilterStore levels must be plain CCFs: plain placement is the "
            "only policy whose entries can be deleted and relocated during "
            f"compaction (got kind={kind!r}); see DESIGN.md §8"
        )
    binning = YearBinning(dataset, num_year_bins)
    bundle = FilterBundle(name=name or f"{kind}", kind=kind, params=params, binning=binning)
    for table in dataset.tables:
        relation = dataset.table(table)
        if table == "title":
            relation = binning.augment(relation)
        key_column = dataset.join_key(table)
        attr_columns = ccf_attribute_columns(dataset, table)
        schema = AttributeSchema(attr_columns)
        keys = relation.column(key_column)
        attr_arrays = [relation.column(c) for c in attr_columns]
        if store_config is not None:
            store = FilterStore(schema, params, store_config)
            store.insert_many(keys, attr_arrays)
            store.compact()
            bundle.ccfs[table] = store
            continue
        fingerprinter = ConditionalCuckooFilterBase.make_fingerprinter(schema, params)
        counts = distinct_row_counts(
            keys, [fingerprinter.fingerprint_column(i, c) for i, c in enumerate(attr_arrays)]
        )
        predicted = predicted_entries(
            kind, counts, params.max_dupes, params.max_chain, params.bucket_size
        )
        num_buckets = recommended_num_buckets(predicted, params.bucket_size, target_load)
        ccf = None
        for _attempt in range(3):
            ccf = make_ccf(kind, schema, num_buckets, params)
            ccf.insert_many(keys, attr_arrays)
            if not ccf.failed:
                break
            num_buckets *= 2
        if ccf is None or ccf.failed:
            raise RuntimeError(
                f"{kind} CCF for {table} overflowed (buckets={num_buckets}); "
                "the variant cannot hold this table at a reasonable size"
            )
        bundle.ccfs[table] = ccf
    return bundle


def build_cuckoo_baseline(
    dataset: IMDBDataset, fingerprint_bits: int = 12, bucket_size: int = 4, seed: int = 0
) -> dict[str, CuckooFilter]:
    """Key-only cuckoo filters per table: the pre-built state of the art."""
    filters: dict[str, CuckooFilter] = {}
    for table in dataset.tables:
        keys = dataset.table(table).distinct(dataset.join_key(table))
        cuckoo = CuckooFilter.from_capacity(
            len(keys),
            bucket_size=bucket_size,
            fingerprint_bits=fingerprint_bits,
            target_load=0.9,
            seed=seed,
        )
        cuckoo.insert_many(keys)
        filters[table] = cuckoo
    return filters


@dataclass
class InstanceResult:
    """One (query, base table) evaluation row (a point in Figure 6)."""

    query_id: int
    base_table: str
    num_filters_applied: int
    m_predicate: int
    m_exact: int
    m_exact_binned: int
    m_methods: dict[str, int]

    def rf(self, method: str) -> float:
        """Reduction factor of a method ('exact', 'exact_binned', or a bundle)."""
        if self.m_predicate == 0:
            return 0.0
        if method == "exact":
            return self.m_exact / self.m_predicate
        if method == "exact_binned":
            return self.m_exact_binned / self.m_predicate
        return self.m_methods[method] / self.m_predicate

    def fpr(self, method: str, baseline: str = "exact_binned") -> float:
        """False positive rate of a method relative to a semijoin baseline.

        §10.6: fraction of base rows outside the baseline result that the
        method nonetheless passes.
        """
        reference = self.m_exact if baseline == "exact" else self.m_exact_binned
        negatives = self.m_predicate - reference
        if negatives <= 0:
            return 0.0
        return (self.m_methods[method] - reference) / negatives


def evaluate_workload(
    dataset: IMDBDataset,
    queries: Iterable[JoinQuery],
    bundles: list[FilterBundle],
    cuckoo_filters: dict[str, CuckooFilter] | None = None,
    num_year_bins: int = DEFAULT_YEAR_BINS,
) -> list[InstanceResult]:
    """Evaluate every (query, base table) instance under every method."""
    binning = YearBinning(dataset, num_year_bins)
    augmented: dict[str, Relation] = {}
    for table in dataset.tables:
        relation = dataset.table(table)
        augmented[table] = binning.augment(relation) if table == "title" else relation

    results: list[InstanceResult] = []
    for query in queries:
        for base_ref in query.tables:
            base = base_ref.table
            relation = augmented[base]
            key_column = dataset.join_key(base)
            # Base-table predicates evaluate exactly (no binning on the scan
            # itself, §10.3).
            own_mask = base_ref.predicate.mask(relation.columns)
            m_predicate = int(own_mask.sum())
            others = query.others(base)
            if m_predicate == 0:
                results.append(
                    InstanceResult(
                        query.query_id,
                        base,
                        len(others),
                        0,
                        0,
                        0,
                        {bundle.name: 0 for bundle in bundles} | {"cuckoo": 0},
                    )
                )
                continue
            base_keys = relation.column(key_column)[own_mask]
            unique_keys, inverse = np.unique(base_keys, return_inverse=True)

            exact_pass = np.ones(len(unique_keys), dtype=bool)
            binned_pass = np.ones(len(unique_keys), dtype=bool)
            method_pass = {
                bundle.name: np.ones(len(unique_keys), dtype=bool) for bundle in bundles
            }
            if cuckoo_filters is not None:
                method_pass["cuckoo"] = np.ones(len(unique_keys), dtype=bool)

            for other in others:
                other_relation = augmented[other.table]
                other_key = dataset.join_key(other.table)
                exact_mask = other.predicate.mask(other_relation.columns)
                exact_keys = np.unique(other_relation.column(other_key)[exact_mask])
                exact_pass &= np.isin(unique_keys, exact_keys)

                binned_predicate = (
                    binning.rewrite(other.predicate) if other.table == "title" else other.predicate
                )
                binned_mask = binned_predicate.mask(other_relation.columns)
                binned_keys = np.unique(other_relation.column(other_key)[binned_mask])
                binned_pass &= np.isin(unique_keys, binned_keys)

                for bundle in bundles:
                    ccf = bundle.ccfs[other.table]
                    compiled = ccf.compile(bundle.query_predicate(other.table, other.predicate))
                    method_pass[bundle.name] &= ccf.query_many(unique_keys, compiled)
                if cuckoo_filters is not None:
                    method_pass["cuckoo"] &= cuckoo_filters[other.table].contains_many(
                        unique_keys
                    )

            results.append(
                InstanceResult(
                    query_id=query.query_id,
                    base_table=base,
                    num_filters_applied=len(others),
                    m_predicate=m_predicate,
                    m_exact=int(exact_pass[inverse].sum()),
                    m_exact_binned=int(binned_pass[inverse].sum()),
                    m_methods={
                        name: int(passing[inverse].sum())
                        for name, passing in method_pass.items()
                    },
                )
            )
    return results


def aggregate_rf(results: list[InstanceResult], method: str) -> float:
    """Workload-level reduction factor: total rows kept over total scanned."""
    total_predicate = sum(r.m_predicate for r in results)
    if total_predicate == 0:
        return 0.0
    if method == "exact":
        kept = sum(r.m_exact for r in results)
    elif method == "exact_binned":
        kept = sum(r.m_exact_binned for r in results)
    else:
        kept = sum(r.m_methods[method] for r in results)
    return kept / total_predicate


def aggregate_fpr(
    results: list[InstanceResult], method: str, baseline: str = "exact_binned"
) -> float:
    """Workload-level FPR relative to a semijoin baseline (§10.6)."""
    reference = sum(
        (r.m_exact if baseline == "exact" else r.m_exact_binned) for r in results
    )
    negatives = sum(r.m_predicate for r in results) - reference
    if negatives <= 0:
        return 0.0
    kept = sum(r.m_methods[method] for r in results)
    return (kept - reference) / negatives


def rf_by_join_count(
    results: list[InstanceResult], method: str
) -> dict[int, float]:
    """Figure 9: aggregate RF grouped by the number of filters applied."""
    grouped: dict[int, list[InstanceResult]] = {}
    for result in results:
        grouped.setdefault(result.num_filters_applied, []).append(result)
    return {count: aggregate_rf(rows, method) for count, rows in sorted(grouped.items())}
