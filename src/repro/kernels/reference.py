"""The reference (numpy) kernel suite — the behaviour every backend must match.

These are the repository's hot kernels, extracted from ``cuckoo/batch.py``
and ``cuckoo/buckets.py`` into pure functions over column arrays: nothing in
here touches a ``SlotMatrix`` or a filter object, only the fingerprint
matrix, the occupancy-count column and per-batch index/fingerprint vectors.
That purity is the backend contract (DESIGN.md §12): a backend reimplements
these signatures over its own array library and must reproduce the reference
bit for bit — same placements, same stash contents (and order), same
answers.

Randomness: the wave-eviction kernel draws victim slots from a *stateless
counter-based SplitMix64 stream* (``mix64(counter ^ victim_seed) %
bucket_size``) instead of a stateful ``np.random.Generator``.  The stream is
reproducible in any backend from two integers, so vectorised numpy rounds
and the sequential (numba) loop consume identical draws — the keystone of
cross-backend bit-identity.  The host object persists the counter; no
per-call RNG construction, no reseeding.
"""

from __future__ import annotations

import numpy as np

from repro.hashing.mixers import mix64_many
from repro.kernels._sequential import TAIL_ITEMS, kick_tail
from repro.kernels.dispatch import KernelBackend

_EMPTY_I64 = np.empty(0, dtype=np.int64)


def pair_eq(
    table: np.ndarray, qfps: np.ndarray, homes: np.ndarray, alts: np.ndarray
) -> np.ndarray:
    """Fused bucket-pair probe: one gather over each key's home+alt rows.

    Returns the ``(n, 2, bucket_size)`` equality mask of each query
    fingerprint against its home row (``[:, 0]``) and alternate row
    (``[:, 1]``).  Both rows are gathered in a single ``take`` over the live
    matrix and compared at the matrix's native dtype, so packed tables probe
    at their narrow width end to end.  Query fingerprints are always valid
    stored values (non-negative, never the sentinel), so the unsigned cast
    is exact.
    """
    n = len(qfps)
    bucket_size = table.shape[1]
    idx = np.empty((n, 2), dtype=np.intp)
    idx[:, 0] = homes
    idx[:, 1] = alts
    gathered = np.take(table, idx.reshape(-1), axis=0)
    eq = gathered.reshape(n, 2 * bucket_size) == qfps.astype(table.dtype, copy=False)[:, None]
    return eq.reshape(n, 2, bucket_size)


def grouped_ranks(
    *keys: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Stable within-group ranks for rows grouped by equal key tuples.

    Returns ``(order, boundary, group_start, rank)``, all in sorted space:
    ``order`` sorts rows by the key arrays with original position as the
    tie-break (so earlier rows rank first within their group), ``boundary``
    marks each group's first sorted row, ``group_start`` maps every sorted
    position to its group's first sorted position, and ``rank`` is each
    sorted row's 0-based position within its group.  Requires at least one
    row.  The one audited copy of the grouped-rank idiom shared by
    :func:`plan_bulk_placement` and the batch-delete rank-deduping kernel
    (:func:`delete_plan`).
    """
    n = len(keys[0])
    positions = np.arange(n)
    order = np.lexsort((positions,) + tuple(reversed(keys)))
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    changed = np.zeros(n - 1, dtype=bool)
    for key in keys:
        sorted_key = key[order]
        changed |= sorted_key[1:] != sorted_key[:-1]
    boundary[1:] = changed
    group_start = np.maximum.accumulate(np.where(boundary, positions, 0))
    return order, boundary, group_start, positions - group_start


def plan_bulk_placement(
    table: np.ndarray, counts: np.ndarray, empty: int, homes: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Plan a conflict-free first wave: one row per free slot per bucket.

    Given each row's target bucket, rows are ranked within their bucket
    (stable sort, so earlier rows win) and the first
    ``bucket_size - counts[bucket]`` of each bucket's rows are assigned to
    that bucket's actual free slots (holes from deletions honoured via a
    per-bucket empty-slot rank).  Returns ``(rows, buckets, slots,
    residue)``: the planned rows (indices into ``homes``), their target
    buckets and slots, and the left-over row indices in ascending input
    order.

    The planner only *reads* the columns; callers scatter into
    ``table[buckets, slots]`` (and any parallel columns) and update the
    occupancy column themselves.  Shared by the cuckoo-filter first wave,
    wave eviction, and store compaction.
    """
    n = len(homes)
    bucket_size = table.shape[1]
    if n == 0:
        return _EMPTY_I64, _EMPTY_I64, _EMPTY_I64, _EMPTY_I64
    order, _boundary, _group_start, rank = grouped_ranks(homes)
    sorted_homes = homes[order]
    free = (bucket_size - counts[sorted_homes]).astype(np.int64)
    placed = rank < free
    placed_buckets = sorted_homes[placed]
    slots = _EMPTY_I64
    if placed_buckets.size:
        touched, inverse = np.unique(placed_buckets, return_inverse=True)
        emptiness = table[touched] == empty
        empty_rank = np.cumsum(emptiness, axis=1) - 1
        slot_of_rank = np.full((len(touched), bucket_size), -1, dtype=np.int64)
        for slot in range(bucket_size):
            here = emptiness[:, slot]
            slot_of_rank[here, empty_rank[here, slot]] = slot
        slots = slot_of_rank[inverse, rank[placed]]
    residue = order[~placed]
    residue.sort()
    return order[placed], placed_buckets, slots, residue


def delete_plan(
    eq: np.ndarray, fps: np.ndarray, homes: np.ndarray, alts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Plan a vectorised first-match deletion, bit-identical to a scalar loop.

    ``eq`` is the batch's fused pair-probe mask (:func:`pair_eq`).  Each key
    claims the slot a scalar loop would have cleared: the r-th batch
    occurrence of a (fingerprint, pair) group takes the group's r-th
    matching slot in home-then-alternate slot order (**rank deduping** —
    duplicate keys in one batch can never claim the same slot).  Distinct
    groups touch disjoint (bucket, fingerprint) slots, so the snapshot
    ranking equals sequential processing.

    Returns ``(clear_buckets, clear_slots, deleted, scalar_rows,
    overflow)``: the pairwise-distinct occupied slots to clear, the rows
    they satisfy, and the two residues the caller must run through the
    scalar kernel in batch order — rows of groups whose members disagree on
    home orientation (two keys sharing a pair from opposite ends — their
    interleaved scans don't rank-decompose), and rows whose rank overflows
    the table matches into the stash scan.
    """
    n = len(fps)
    eq_home = eq[:, 0]
    eq_alt = eq[:, 1]
    match_home = eq_home.sum(axis=1)
    match_alt = np.where(alts == homes, 0, eq_alt.sum(axis=1))
    # Rank each row within its (fingerprint, pair) group, in batch order.
    pair_lo = np.minimum(homes, alts)
    order, boundary, group_start, sorted_rank = grouped_ranks(fps, pair_lo)
    rank = np.empty(n, dtype=np.int64)
    rank[order] = sorted_rank
    gid = np.cumsum(boundary) - 1
    differs = homes[order] != homes[order[group_start]]
    group_mixed = np.zeros(int(gid[-1]) + 1, dtype=bool)
    np.logical_or.at(group_mixed, gid, differs)
    scalar_rows = np.empty(n, dtype=bool)
    scalar_rows[order] = group_mixed[gid]

    vec = ~scalar_rows
    take_home = vec & (rank < match_home)
    take_alt = vec & ~take_home & (rank < match_home + match_alt)
    overflow = vec & ~take_home & ~take_alt
    rows_h = np.nonzero(take_home)[0]
    slots_h = _EMPTY_I64
    if rows_h.size:
        csum = np.cumsum(eq_home[rows_h], axis=1)
        slots_h = (csum == (rank[rows_h] + 1)[:, None]).argmax(axis=1)
    rows_a = np.nonzero(take_alt)[0]
    slots_a = _EMPTY_I64
    if rows_a.size:
        csum = np.cumsum(eq_alt[rows_a], axis=1)
        slots_a = (csum == (rank[rows_a] - match_home[rows_a] + 1)[:, None]).argmax(axis=1)
    clear_buckets = np.concatenate([homes[rows_h], alts[rows_a]])
    clear_slots = np.concatenate([slots_h, slots_a]).astype(np.int64, copy=False)
    return clear_buckets, clear_slots, take_home | take_alt, scalar_rows, overflow


def victim_slots(counter: int, count: int, victim_seed: int, bucket_size: int) -> np.ndarray:
    """``count`` victim-slot draws from the counter-based SplitMix64 stream.

    Draw ``i`` is ``mix64(uint64(counter + i) ^ victim_seed) % bucket_size``
    — a pure function of the stream position, so any backend reproduces the
    identical sequence from the two integers alone.
    """
    stream = np.arange(counter, counter + count, dtype=np.uint64)
    return (
        mix64_many(stream ^ np.uint64(victim_seed)) % np.uint64(bucket_size)
    ).astype(np.int64)


def wave_kick(
    table: np.ndarray,
    counts: np.ndarray,
    empty: int,
    item_fps: np.ndarray,
    cur: np.ndarray,
    origins: np.ndarray,
    kicks: np.ndarray,
    out: np.ndarray,
    max_kicks: int,
    index_mask: int,
    jump_seed: int,
    victim_seed: int,
    victim_counter: int,
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Wave eviction: process the whole kick residue per round, vectorised.

    Every in-flight item targets one bucket (``cur``).  Each round first
    places every item whose target has room (:func:`plan_bulk_placement`,
    conflicts rank-resolved), stashes items whose chains exhausted
    ``max_kicks`` (recorded in batch order; their ``out`` rows are cleared),
    then performs **one eviction per contested bucket**: the earliest item
    targeting each bucket wins (losers retry next round against the
    winner-free bucket), swaps into a victim slot drawn from the
    counter-based SplitMix64 stream, and continues as the victim — bound for
    the victim's alternate bucket ``bucket ^ (mix64(victim ^ jump_seed) &
    index_mask)``, always within the victim's own pair, so per-pair
    fingerprint multisets (and hence membership answers) evolve exactly as
    under scalar kicking.  Winners are processed in ascending item order so
    stream consumption matches a sequential scan draw for draw.  Once at
    most ``TAIL_ITEMS`` items are in flight, the shared sequential tail
    (:func:`~repro.kernels._sequential.kick_tail`) finishes them one chain
    at a time — the same tail every backend runs.

    Mutates ``table``, ``counts`` and ``out`` in place; the item arrays are
    consumed.  Returns ``(stash_fps, stash_buckets, placed,
    victim_counter)``: the stashed fingerprints in stash order with the
    buckets they were bound for (one of each item's own pair), the number
    of slots filled (the host reconciles its occupancy total) and the
    advanced stream counter.
    """
    bucket_size = table.shape[1]
    stash_fps_parts: list[np.ndarray] = []
    stash_buckets_parts: list[np.ndarray] = []
    placed_total = 0
    while item_fps.size > TAIL_ITEMS:
        rows, placed_buckets, slots, rem = plan_bulk_placement(table, counts, empty, cur)
        if rows.size:
            table[placed_buckets, slots] = item_fps[rows]
            np.add.at(counts, placed_buckets, 1)
            placed_total += int(placed_buckets.size)
            item_fps = item_fps[rem]
            cur = cur[rem]
            origins = origins[rem]
            kicks = kicks[rem]
        exhausted = kicks >= max_kicks
        if exhausted.any():
            stash_fps_parts.append(item_fps[exhausted])
            stash_buckets_parts.append(cur[exhausted])
            out[origins[exhausted]] = False
            keep = ~exhausted
            item_fps = item_fps[keep]
            cur = cur[keep]
            origins = origins[keep]
            kicks = kicks[keep]
        if item_fps.size <= TAIL_ITEMS:
            break
        # One eviction per destination bucket this round; earliest item wins.
        _uniq, winners = np.unique(cur, return_index=True)
        winners.sort()
        victim_buckets = cur[winners]
        slots = victim_slots(victim_counter, winners.size, victim_seed, bucket_size)
        victim_counter += int(winners.size)
        victim_fps = table[victim_buckets, slots].astype(np.int64)
        table[victim_buckets, slots] = item_fps[winners]
        item_fps[winners] = victim_fps
        jumps = (
            mix64_many(victim_fps.astype(np.uint64) ^ np.uint64(jump_seed))
            & np.uint64(index_mask)
        ).astype(np.int64)
        cur[winners] = victim_buckets ^ jumps
        kicks[winners] += 1
    tail_fps, tail_buckets, tail_placed, victim_counter = kick_tail(
        table, counts, empty, item_fps, cur, origins, kicks, out, max_kicks, jump_seed,
        victim_seed, victim_counter,
    )
    stash_fps_parts.append(tail_fps)
    stash_buckets_parts.append(tail_buckets)
    return (
        np.concatenate(stash_fps_parts),
        np.concatenate(stash_buckets_parts),
        placed_total + tail_placed,
        victim_counter,
    )


def make_backend() -> KernelBackend:
    """The always-available numpy reference backend."""
    return KernelBackend(
        name="numpy",
        pair_eq=pair_eq,
        grouped_ranks=grouped_ranks,
        plan_bulk_placement=plan_bulk_placement,
        delete_plan=delete_plan,
        wave_kick=wave_kick,
        info={"array_module": "numpy", "numpy_version": np.__version__},
    )
