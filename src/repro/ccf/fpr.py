"""False-positive-rate estimators for conditional cuckoo filters (§7).

Unlike a plain cuckoo filter, a CCF's FPR is not a single constant: a query
can go wrong on the key fingerprint, on the attribute sketch, or both, and
the rates depend on the stored data and the query.  This module implements
the paper's bounds:

* Eq. (4) — key-only queries: ``FPR_key ≤ E[D] · 2^-|κ|`` with ``D`` the
  occupied (distinct-fingerprint) entries in the probed bucket pair;
* Eq. (6) — Bloom attribute sketches: ``ρ_k^v`` where ``ρ_k`` is the
  per-entry Bloom FPR and ``v`` the number of never-inserted values probed;
* Eq. (7) — fingerprint vectors with chaining:
  ``p ≤ d·Lmax · E[2^{-|α|·Ṽ}]`` with ``Ṽ`` the count of predicate
  attributes that mismatch the stored row.

:func:`estimate_query_fpr` instruments a live filter to produce the same
decomposition Figure 2 plots (key-caused vs attribute-caused vs overall).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.ccf.base import CompiledQuery, ConditionalCuckooFilterBase
from repro.ccf.predicates import Predicate


def key_only_fpr_bound(mean_occupied_pair_entries: float, key_bits: int) -> float:
    """Eq. (4): expected occupied pair entries times ``2^-|κ|``."""
    if mean_occupied_pair_entries < 0:
        raise ValueError("occupied entry count must be non-negative")
    return min(1.0, mean_occupied_pair_entries * 2.0**-key_bits)


def vector_attr_fpr(attr_bits: int, num_mismatched: int) -> float:
    """Spurious-match probability of one vector entry: ``2^{-|α|·Ṽ}``."""
    if num_mismatched < 0:
        raise ValueError("mismatch count must be non-negative")
    return 2.0 ** (-attr_bits * num_mismatched)


def chained_attr_fpr_bound(
    attr_bits: int, mismatch_counts: list[int], max_dupes: int, max_chain: int | None
) -> float:
    """Eq. (7): sum of per-entry spurious-match probabilities, capped at the
    ``d·Lmax`` entries a chained query can inspect."""
    cap = len(mismatch_counts)
    if max_chain is not None:
        cap = min(cap, max_dupes * max_chain)
    total = sum(vector_attr_fpr(attr_bits, v) for v in sorted(mismatch_counts)[:cap])
    return min(1.0, total)


def bloom_attr_fpr(fill_ratio: float, num_hashes: int, num_absent_values: int) -> float:
    """Eq. (6): ``ρ_k^v`` with ``ρ_k = fill^h`` for the realised bit pattern."""
    if not 0.0 <= fill_ratio <= 1.0:
        raise ValueError("fill_ratio must be in [0, 1]")
    if num_absent_values < 0:
        raise ValueError("absent value count must be non-negative")
    if num_absent_values == 0:
        return 1.0
    return (fill_ratio**num_hashes) ** num_absent_values


def bloom_textbook_fpr(num_bits: int, num_hashes: int, num_items: int) -> float:
    """§7.2's standard formula ``(1 - e^{-hn/s})^h`` (an underestimate for
    small filters, per Bose et al.)."""
    if num_bits < 1 or num_hashes < 1 or num_items < 0:
        raise ValueError("invalid Bloom parameters")
    return (1.0 - math.exp(-num_hashes * num_items / num_bits)) ** num_hashes


@dataclass
class FPREstimate:
    """Decomposed FPR estimate for one (key, predicate) query (Figure 2)."""

    key_part: float
    attr_part: float

    @property
    def overall(self) -> float:
        """Union bound over the two causes."""
        return min(1.0, self.key_part + self.attr_part)


def estimate_query_fpr(
    ccf: ConditionalCuckooFilterBase,
    key: object,
    predicate: Predicate | CompiledQuery | None,
    key_in_data: bool,
) -> FPREstimate:
    """Estimate the FPR of one query against a live filter (§7.2).

    ``key_in_data`` selects the decomposition case: if the key is absent the
    bound is the key-fingerprint collision rate over the probed entries —
    the occupied slots of the key's pair and the pair's stashed entries,
    which a query probes too (DESIGN.md §1); if the key is present (but no
    row matches), false positives can only come from the attribute sketches
    of the key's own entries.
    """
    compiled = ccf._resolve_compiled(predicate)
    fingerprint = ccf.geometry.fingerprint_of(key)
    home = ccf.geometry.home_index(key)
    right = ccf.geometry.alt_index(home, fingerprint)

    if not key_in_data:
        occupied = ccf.buckets.count(home)
        if right != home:
            occupied += ccf.buckets.count(right)
        occupied += int(np.count_nonzero(ccf.stash.pairs == min(home, right)))
        key_part = occupied * 2.0**-ccf.params.key_bits
        return FPREstimate(key_part=min(1.0, key_part), attr_part=0.0)

    # Key present: p(k ∈ H) = 1; accumulate attribute-sketch match odds over
    # the entries a query would probe (the key's fingerprint slots, along the
    # chain for chained filters).
    attr_total = 0.0
    limit = ccf._walk_limit()
    walked = 0
    d = ccf.params.max_dupes
    for left, pair_right in ccf.geometry.pair_walk(home, fingerprint):
        if walked >= limit:
            break
        walked += 1
        slots, stashed = ccf._fp_entries_in_pair(left, pair_right, fingerprint)
        avecs = ccf._copy_avecs(slots, stashed)
        for avec, row in zip(avecs, ccf._copy_rows(slots, stashed)):
            attr_total += _copy_match_probability(ccf, avec, row, compiled)
        if ccf.kind == "chained" and len(avecs) == d:
            continue
        break
    return FPREstimate(key_part=0.0, attr_part=min(1.0, attr_total))


def _copy_match_probability(
    ccf: ConditionalCuckooFilterBase,
    avec: tuple[int, ...],
    row: int,
    compiled: CompiledQuery | None,
) -> float:
    """Probability that one copy's sketch spuriously admits the predicate:
    its attribute vector's, or for a payload copy (``row >= 0``) its sketch
    row's."""
    if compiled is None:
        return 1.0
    if row < 0:
        probability = 1.0
        for attr_index, _values, fps in compiled.constraints:
            if avec[attr_index] in fps:
                continue
            # One constrained attribute mismatching contributes a 2^-|α|
            # chance per admissible fingerprint (union bound over in-lists).
            probability *= min(1.0, len(fps) * 2.0**-ccf.params.attr_bits)
        return probability
    sketches = ccf._sketch_rows
    fill = int.from_bytes(sketches.row_bytes(row), "little").bit_count() / sketches.num_bits
    per_probe = fill**ccf._sketch_hashes
    probability = 1.0
    for _attr_index, values, fps in compiled.constraints:
        # A Bloom entry sketches raw values, a Mixed group fingerprints.
        num_candidates = len(fps) if ccf._needs_avec else len(values)
        probability *= min(1.0, num_candidates * per_probe)
    return probability
