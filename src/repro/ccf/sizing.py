"""Sizing rules for conditional cuckoo filters (§8, Table 1, Figures 3-5).

Given the distribution of distinct attribute vectors per key (the paper's
``A = r_X``), each variant's occupied-entry count is predictable:

* Bloom CCF: one entry per distinct key — ``n_k``;
* Mixed (Bloom conversion): ``Σ min(r_k, d)`` (a converted group occupies
  exactly ``d`` slots);
* Chained: ``Σ min(r_k, d·Lmax)`` (``r_k`` when Lmax is uncapped);
* Plain: ``Σ min(r_k, 2b)`` (the pair's physical limit — reaching it is
  exactly the failure mode of Figure 4).

Note Table 1 in the paper prints ``E max{A, d}``; the derivation in §8's text
uses ``min`` ("Bloom filter conversion will allocate a maximum of
max{d, r_k} entries ... bounded by n_k E min{A, d}") and ``min`` is what the
structure actually does, so we implement ``min`` — Figure 3's bench then
validates the prediction against realised occupancy.

Load-factor targets come from the paper's Figure 4 empirics (b=4 → ~75%,
b=6 → ~87%) and size the table as ``m·b ≈ E[Z'] / β`` with ``b ≈ 2d``.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.ccf.base import first_copies
from repro.cuckoo.buckets import next_power_of_two

#: Empirical attainable load factors by bucket size for duplicate-heavy data
#: (paper Figure 4: "b = 4 achieves ~75% regardless of duplicates; b = 6
#: achieves ~87%").  Keys are bucket sizes; values the safe target load.
LOAD_FACTOR_TARGETS: dict[int, float] = {2: 0.55, 3: 0.65, 4: 0.75, 5: 0.82, 6: 0.85, 8: 0.88}


def load_factor_target(bucket_size: int) -> float:
    """Return a safe target load factor for ``bucket_size`` entries/bucket."""
    if bucket_size in LOAD_FACTOR_TARGETS:
        return LOAD_FACTOR_TARGETS[bucket_size]
    if bucket_size > max(LOAD_FACTOR_TARGETS):
        return LOAD_FACTOR_TARGETS[max(LOAD_FACTOR_TARGETS)]
    return min(LOAD_FACTOR_TARGETS.values())


def recommended_bucket_size(max_dupes: int) -> int:
    """§8's rule of thumb: ``b ≈ 2d`` so a pair holds at least 4 keys."""
    return 2 * max_dupes


def distinct_vector_counts(rows: Iterable[tuple[object, tuple]]) -> Counter:
    """Count distinct attribute vectors per key over (key, attrs) rows."""
    per_key: dict[object, set] = {}
    for key, attrs in rows:
        per_key.setdefault(key, set()).add(tuple(attrs))
    return Counter({key: len(vectors) for key, vectors in per_key.items()})


def distinct_row_counts(keys: np.ndarray, vectors: Sequence[np.ndarray]) -> np.ndarray:
    """`distinct_vector_counts`' counts for column-major rows, in key order.

    ``vectors`` holds one attribute fingerprint column per attribute.  The
    keys are coded densely, and the rows are deduplicated by one
    `np.unique` over their (key code, vector) identity (`first_copies`),
    instead of a Python set per key.
    """
    codes = np.unique(np.asarray(keys), return_inverse=True)[1].reshape(-1)
    first = first_copies([codes, *vectors])
    return np.bincount(codes[first == np.arange(len(codes))])


def predicted_entries(
    kind: str,
    dupe_counts: Mapping[object, int] | Iterable[int],
    max_dupes: int,
    max_chain: int | None = None,
    bucket_size: int | None = None,
) -> int:
    """Predict occupied entries Z' for a CCF variant (Table 1, corrected).

    ``dupe_counts`` is the per-key count of distinct attribute vectors
    (``r_k``), as a mapping or a bare iterable of counts.
    """
    counts = dupe_counts.values() if isinstance(dupe_counts, Mapping) else dupe_counts
    counts = list(counts)
    if kind == "bloom":
        return len(counts)
    if kind == "mixed":
        return sum(min(r, max_dupes) for r in counts)
    if kind == "chained":
        if max_chain is None:
            return sum(counts)
        return sum(min(r, max_dupes * max_chain) for r in counts)
    if kind == "plain":
        if bucket_size is None:
            raise ValueError("plain sizing needs bucket_size (pair limit is 2b)")
        return sum(min(r, 2 * bucket_size) for r in counts)
    raise ValueError(f"unknown CCF kind {kind!r}")


def recommended_num_buckets(
    predicted: int, bucket_size: int, target_load: float | None = None
) -> int:
    """Size the table: smallest power-of-two m with m·b·β ≥ predicted entries."""
    if predicted < 0:
        raise ValueError("predicted entry count must be non-negative")
    beta = load_factor_target(bucket_size) if target_load is None else target_load
    if not 0.0 < beta <= 1.0:
        raise ValueError("target load must be in (0, 1]")
    slots_needed = max(1.0, predicted / beta)
    return max(2, next_power_of_two(math.ceil(slots_needed / bucket_size)))


def bit_efficiency(size_in_bits: int, num_keys: int, fpr: float) -> float:
    """Eq. (8): sketch bits over the information-theoretic minimum.

    ``Efficiency = size / (n · log2(1/ρ))``; 1.0 is optimal for sets, a Bloom
    filter sits at ~1.44, and the paper's optimised chained filter at ~1.93
    on all-duplicate multisets.
    """
    if num_keys < 1:
        raise ValueError("num_keys must be positive")
    if not 0.0 < fpr < 1.0:
        raise ValueError("fpr must be in (0, 1)")
    return size_in_bits / (num_keys * math.log2(1.0 / fpr))


def cuckoo_bits_per_item(fpr: float, load_factor: float = 0.95, semisort: bool = False) -> float:
    """§4.2's space model: ``(log2(1/ρ) + 3)/β``, or ``+2`` with semi-sorting."""
    if not 0.0 < fpr < 1.0:
        raise ValueError("fpr must be in (0, 1)")
    if not 0.0 < load_factor <= 1.0:
        raise ValueError("load_factor must be in (0, 1]")
    overhead = 2.0 if semisort else 3.0
    return (math.log2(1.0 / fpr) + overhead) / load_factor


def bloom_bits_per_item(fpr: float) -> float:
    """Bloom reference: ``1.44 · log2(1/ρ)`` bits per item (§4.2)."""
    if not 0.0 < fpr < 1.0:
        raise ValueError("fpr must be in (0, 1)")
    return 1.44 * math.log2(1.0 / fpr)
