"""Level compaction: merge a shard's level stack into one right-sized filter.

Because every level of a shard shares one pair geometry (same bucket count,
same seeds — enforced by :class:`~repro.store.config.StoreConfig`), an entry
observed at bucket ``b`` of any level belongs to the bucket pair
``{b, b XOR h(κ)}`` in *every* level, and so does a stashed entry, which
records its pair id (DESIGN.md §1).  Compaction exploits this: it gathers
every level's slots and stash entries, deduplicates rows per (pair,
fingerprint, attribute vector), right-sizes a single merged filter — same
bucket count, **taller buckets** (bucket size never changes pair identity)
— and places each row back into its own pair: the table rows first, then
the stashed rows wherever their pair has room.

Right-sizing follows the rebuild-time sizing argument of *Smaller and More
Flexible Cuckoo Filters* (arXiv:2505.05847): instead of overprovisioning the
store up front, each compaction picks the smallest bucket size that holds
the surviving entries at the configured target load while respecting the
hottest pair's 2b capacity, so space tracks the live data after churn.

The placement reuses PR 2's bulk-build shape (DESIGN.md §7): the
conflict-free first wave — entries whose resident bucket still has room —
is scattered into the fingerprint/attribute/flag columns in one vectorised
pass; only the residue runs the sequential pair-placement kernel.  Because
rows are pre-deduplicated and plain placement has no cross-pair policy, the
wave is policy-equivalent to replaying ``_insert_hashed`` row by row:
membership answers are identical, only slot positions may differ.
"""

from __future__ import annotations

import numpy as np

from repro.ccf.attributes import AttributeSchema
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF

#: How many times a failing merge grows the merged bucket size before
#: giving up.  Failures need adversarial pair congestion, so one or two
#: retries is already generous.
MERGE_RETRIES = 4


def collect_live_rows(
    levels: list[PlainCCF],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, dict[int, int]]:
    """Gather every live row across ``levels``, deduplicated per pair.

    Stashed entries are slots of their pairs (DESIGN.md §1): table rows,
    then stash rows, share one (pair, fingerprint, vector) dedup.  Returns
    ``(buckets, fps, avecs, stashed, pair_counts)``: each distinct row's
    bucket (a stash row's is its pair id), fingerprint and attribute vector,
    which rows came from a stash, and the per-pair table-row counts.
    """
    parts = []
    for level in levels:
        # Each level's occupied slots straight out of the packed columns:
        # one fancy-index per column and one vectorised jump pass (shared
        # geometry) instead of a per-entry Python walk.
        bucket_idx, slot_idx = np.nonzero(level.buckets.occupied_mask())
        fps = level.buckets.fps[bucket_idx, slot_idx].astype(np.int64)
        pairs = np.minimum(bucket_idx, level.geometry.alt_indices_many(bucket_idx, fps))
        parts.append((bucket_idx, fps, pairs, level._avecs[bucket_idx, slot_idx].astype(np.int64)))
    num_table_rows = sum(len(part[1]) for part in parts)
    for level in levels:
        stash = level.stash
        parts.append((stash.pairs, stash.fps, stash.pairs, stash.avecs.astype(np.int64)))
    buckets, fps, pairs, avecs = (np.concatenate(column) for column in zip(*parts))
    _, first = np.unique(np.column_stack((pairs, fps, avecs)), axis=0, return_index=True)
    first.sort()
    stashed = first >= num_table_rows
    hot, counts = np.unique(pairs[first[~stashed]], return_counts=True)
    return (
        buckets[first],
        fps[first],
        avecs[first],
        stashed,
        dict(zip(hot.tolist(), counts.tolist())),
    )


def right_sized_bucket_size(
    num_rows: int,
    num_buckets: int,
    pair_counts: dict[int, int],
    target_load: float,
    min_bucket_size: int,
    max_dupes: int,
) -> int:
    """Smallest bucket size holding ``num_rows`` at ``target_load``.

    Two floors: global occupancy (rows over ``m*b`` slots stays under the
    target) and the hottest pair (a pair's rows must fit its ``2b`` slots —
    the plain variant's only structural cap).
    """
    hottest = max(pair_counts.values(), default=0)
    by_load = -(-num_rows // max(1, round(num_buckets * target_load)))
    by_pair = -(-hottest // 2)
    by_dupes = -(-max_dupes // 2)
    return max(min_bucket_size, by_load, by_pair, by_dupes, 1)


def _scatter(
    merged: PlainCCF, targets: np.ndarray, fps: np.ndarray, avecs: np.ndarray, rows: np.ndarray
) -> np.ndarray:
    """One vectorised first wave: ``rows`` take free slots of their
    ``targets`` buckets (DESIGN.md §7's ranking, planned by the active
    kernel backend — `repro.kernels`); returns the rows left over."""
    planned, placed, slots, residue = merged.buckets.plan_bulk_placement(targets[rows])
    if placed.size:
        merged.buckets.fps[placed, slots] = fps[rows[planned]]
        merged._avecs[placed, slots] = avecs[rows[planned]]
        merged.buckets.note_bulk_placement(placed)
    return rows[residue]


def merge_levels(
    schema: AttributeSchema,
    params: CCFParams,
    levels: list[PlainCCF],
    target_load: float,
) -> PlainCCF:
    """Merge a level stack into one right-sized plain CCF.

    The merged filter keeps the stack's bucket count and seeds (so it stays
    interchangeable with any future level) and answers exactly the union of
    the levels' memberships: every live row lands back in its own bucket
    pair, and the row/discard counters sum.  Table rows go first: the
    first wave, then the residue through the sequential pair placement,
    which may kick but never leaves the pair.  Stashed rows then take a free
    slot of their pair without kicks, where there is one, and stay stashed
    otherwise.  Right-sizing counts the table rows only.
    """
    num_buckets = levels[0].buckets.num_buckets
    buckets, fps, avecs, stashed, pair_counts = collect_live_rows(levels)
    table = np.flatnonzero(~stashed)
    bucket_size = right_sized_bucket_size(
        len(table),
        num_buckets,
        pair_counts,
        target_load,
        params.bucket_size,
        params.max_dupes,
    )
    last_error: PlainCCF | None = None
    for _attempt in range(MERGE_RETRIES):
        merged = PlainCCF(schema, num_buckets, params.replace(bucket_size=bucket_size))
        for i in _scatter(merged, buckets, fps, avecs, table).tolist():
            merged._insert_hashed(int(fps[i]), int(buckets[i]), None, tuple(avecs[i].tolist()))
        if not merged.failed:
            if stashed.any():  # a stash row's bucket is its pair id
                rest = _scatter(merged, buckets, fps, avecs, np.flatnonzero(stashed))
                alts = merged.geometry.alt_indices_many(buckets, fps)
                rest = _scatter(merged, alts, fps, avecs, rest)
                merged.stash.extend(fps[rest], buckets[rest], avecs=avecs[rest])
            merged.num_rows_inserted = sum(level.num_rows_inserted for level in levels)
            merged.num_rows_discarded = sum(level.num_rows_discarded for level in levels)
            return merged
        last_error = merged
        bucket_size += 1
    raise RuntimeError(
        f"compaction could not place {len(table)} rows in {num_buckets} buckets "
        f"even at bucket_size={bucket_size - 1} (stash={len(last_error.stash)})"
    )
