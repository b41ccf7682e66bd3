"""Sequential kernel implementations shared by the python and numba backends.

The ``*_impl`` functions are the *exact* functions the numba backend
JIT-compiles — written in the numba-compatible subset of Python/numpy
(scalar loops, no fancy indexing, no Python objects), and served
un-jitted as the ``"python"`` backend so their bit-identity to the
vectorised numpy reference is property-testable on machines without numba
installed.  The python backend is a correctness oracle, not a fast path:
interpreted per-item loops are orders of magnitude slower than either real
backend at scale.  The kick tail (`kick_tail`, `kick_one`) is plain Python
run by every backend, never jitted.

Equivalence to the reference (``reference.py``), round for round:

* **Placement pass** — first-fit in item order over live occupancy equals
  the rank-based plan: within a bucket holding ``f`` free slots, the first
  ``f`` items targeting it (in item order) take its empty slots in slot
  order, exactly the ``rank < free`` / empty-slot-rank assignment of
  :func:`~repro.kernels.reference.plan_bulk_placement`; survivors compact
  in place, preserving the reference's ascending-residue order.
* **Exhaust pass** — over-budget chains stash in batch order, matching the
  reference's boolean-mask compaction.
* **Eviction pass** — a per-round bucket stamp (``contested``) lets the
  *earliest* item win each bucket, which is precisely what the reference's
  ``np.unique(cur, return_index=True)`` + ascending-winner sort computes;
  victim slots come from the same counter-based SplitMix64 stream, consumed
  in ascending item order in both backends, so every draw lands on the same
  item.
* **Tail** — once at most `TAIL_ITEMS` items are in flight, every backend
  (the numpy reference included) finishes them through the one shared
  pure-Python `kick_tail`, whose per-item step (`kick_one`) is also the
  kick loop of `SlotMatrix.place`, every cuckoo structure's scalar
  placement.

uint64 discipline: all mixing arithmetic stays in uint64 via typed
module-level constants — in numba, mixing uint64 with int64 operands
promotes to float64 and silently destroys the hash; in plain python, the
host wrappers run under ``np.errstate(over="ignore")`` because scalar
uint64 wrap-around (intended here) emits RuntimeWarnings that jitted code
never produces.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.hashing.mixers import mix64

#: In-flight items at or below which another wave round costs more than
#: finishing each chain on its own; every backend hands them to `kick_tail`.
TAIL_ITEMS = 4

_EMPTY_I64 = np.empty(0, dtype=np.int64)
_U27 = np.uint64(27)
_U30 = np.uint64(30)
_U31 = np.uint64(31)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def mix64_scalar(x):
    """SplitMix64 finalizer on one uint64 (numba-compatible `mix64` twin)."""
    x = (x ^ (x >> _U30)) * _MIX1
    x = (x ^ (x >> _U27)) * _MIX2
    return x ^ (x >> _U31)


def pair_eq_impl(table, qfps, homes, alts):
    """Scalar twin of the fused pair probe.

    ``qfps`` must already be cast to the table dtype (the host wrapper does
    this) so every comparison runs width-exact — a uint64 table compared
    against int64 queries would promote to float64 and lose bits.
    """
    n = qfps.shape[0]
    bucket_size = table.shape[1]
    eq = np.zeros((n, 2, bucket_size), dtype=np.bool_)
    for i in range(n):
        home = homes[i]
        alt = alts[i]
        fp = qfps[i]
        for slot in range(bucket_size):
            eq[i, 0, slot] = table[home, slot] == fp
            eq[i, 1, slot] = table[alt, slot] == fp
    return eq


def wave_kick_impl(
    table,
    counts,
    empty,
    item_fps,
    cur,
    origins,
    kicks,
    out,
    max_kicks,
    index_mask,
    jump_seed,
    victim_seed,
    victim_counter,
):
    """Scalar twin of the reference's wave rounds (see module docstring).

    ``empty`` must be a scalar of the table dtype and ``index_mask`` /
    ``jump_seed`` / ``victim_seed`` uint64 scalars (host wrapper casts).
    Mutates ``table``, ``counts``, ``out`` and the item arrays in place and
    stops once at most `TAIL_ITEMS` items are in flight, compacted at the
    front of the item arrays.  Returns ``(stash_fps, stash_buckets, n_live,
    placed, counter)``; the host wrapper runs `kick_tail` on the survivors.
    """
    num_buckets = table.shape[0]
    bucket_size = table.shape[1]
    bucket_size_u = np.uint64(bucket_size)
    n = item_fps.shape[0]
    stash_fps = np.empty(n, dtype=np.int64)
    stash_buckets = np.empty(n, dtype=np.int64)
    n_stash = 0
    placed = 0
    n_live = n
    contested = np.zeros(num_buckets, dtype=np.int64)
    round_id = 0
    counter = victim_counter
    while n_live > TAIL_ITEMS:
        # Placement pass: first-fit in item order == the rank-based plan.
        write = 0
        for r in range(n_live):
            bucket = cur[r]
            if counts[bucket] < bucket_size:
                for slot in range(bucket_size):
                    if table[bucket, slot] == empty:
                        table[bucket, slot] = item_fps[r]
                        break
                counts[bucket] += 1
                placed += 1
            else:
                item_fps[write] = item_fps[r]
                cur[write] = bucket
                origins[write] = origins[r]
                kicks[write] = kicks[r]
                write += 1
        n_live = write
        # Exhaust pass: stash over-budget chains in batch order.
        write = 0
        for r in range(n_live):
            if kicks[r] >= max_kicks:
                stash_fps[n_stash] = item_fps[r]
                stash_buckets[n_stash] = cur[r]
                out[origins[r]] = False
                n_stash += 1
            else:
                item_fps[write] = item_fps[r]
                cur[write] = cur[r]
                origins[write] = origins[r]
                kicks[write] = kicks[r]
                write += 1
        n_live = write
        if n_live <= TAIL_ITEMS:
            break
        # Eviction pass: one eviction per contested bucket, earliest item
        # wins; losers retry next round against the winner-free bucket.
        round_id += 1
        for r in range(n_live):
            bucket = cur[r]
            if contested[bucket] == round_id:
                continue
            contested[bucket] = round_id
            slot = np.int64(
                mix64_scalar(np.uint64(counter) ^ victim_seed) % bucket_size_u
            )
            counter += 1
            victim = table[bucket, slot]
            table[bucket, slot] = item_fps[r]
            item_fps[r] = np.int64(victim)
            jump = np.int64(mix64_scalar(np.uint64(victim) ^ jump_seed) & index_mask)
            cur[r] = bucket ^ jump
            kicks[r] += 1
    return (
        stash_fps[:n_stash].copy(),
        stash_buckets[:n_stash].copy(),
        n_live,
        placed,
        counter,
    )


def kick_one(table, counts, empty, fp, bucket, kicks, max_kicks, jump_seed, victim_seed, counter):
    """Finish one in-flight item's kick chain: the shared sequential tail.

    Exactly one wave round after another with a single item in flight: the
    item (bound for ``bucket``, ``kicks`` evictions spent) takes the first
    free slot if the bucket has room; otherwise, budget permitting, it swaps
    into victim slot ``mix64(counter ^ victim_seed) % bucket_size`` and
    continues as the victim toward the victim's alternate bucket.  Pure
    Python over Python ints — O(kicks), nothing sized by the table — and
    never jitted: for a handful of items the dispatch would cost more than
    the work.  ``empty``, the seeds and ``counter`` must be Python ints.
    Mutates ``table`` and ``counts``; returns ``(fp, placed, counter,
    path)``, where ``fp`` is the in-flight fingerprint to stash when
    ``placed`` is False.  ``path`` reports each write in order as
    ``(bucket, slot, displaced fingerprint)`` — the evictions, then, if
    placed, the free slot (displacing ``empty``) — so a caller with
    companion columns (the CCFs, the hash tables) can move them along the
    same chain.
    """
    index_mask = table.shape[0] - 1
    bucket_size = table.shape[1]
    path = []
    while counts[bucket] >= bucket_size:
        if kicks >= max_kicks:
            return fp, False, counter, path
        slot = mix64(counter ^ victim_seed) % bucket_size
        counter += 1
        victim = int(table[bucket, slot])
        table[bucket, slot] = fp
        path.append((bucket, slot, victim))
        fp = victim
        bucket ^= mix64(victim ^ jump_seed) & index_mask
        kicks += 1
    slot = table[bucket].tolist().index(empty)
    table[bucket, slot] = fp
    path.append((bucket, slot, empty))
    counts[bucket] += 1
    return fp, True, counter, path


def kick_tail(
    table, counts, empty, item_fps, cur, origins, kicks, out, max_kicks, jump_seed, victim_seed,
    counter,
):
    """Settle the wave survivors one whole chain at a time, in item order.

    Every backend finishes its rounds here (arguments as for `kick_one`,
    plus the survivors' item arrays and the ``out`` column, whose stashed
    origins it clears).  Returns the tail's share of the `wave_kick` result:
    ``(stash_fps, stash_buckets, placed, counter)``; a stashed item's bucket
    is one of its own pair.
    """
    stash_fps, stash_buckets, placed = [], [], 0
    for fp, bucket, origin, used in zip(
        item_fps.tolist(), cur.tolist(), origins.tolist(), kicks.tolist()
    ):
        fp, ok, counter, path = kick_one(
            table, counts, empty, fp, bucket, used, max_kicks, jump_seed, victim_seed, counter
        )
        if ok:
            placed += 1
        else:
            out[origin] = False
            stash_fps.append(fp)
            stash_buckets.append(path[-1][0] if path else bucket)
    return (
        np.array(stash_fps, dtype=np.int64),
        np.array(stash_buckets, dtype=np.int64),
        placed,
        counter,
    )


def host_wrappers(
    pair_eq_fn: Callable, wave_kick_fn: Callable
) -> tuple[Callable, Callable]:
    """Wrap raw impls (plain or jitted) with the host-side casting shims.

    The shims pin down everything the impls assume: query fingerprints cast
    to the table dtype, the EMPTY sentinel as a table-dtype scalar, masks
    and seeds as uint64 scalars — and run under ``errstate(over="ignore")``
    so the plain-python backend's intentional uint64 wrap-around stays
    silent.  The wave wrapper skips the rounds (and their per-bucket
    ``contested`` array) when the batch already fits the tail, then
    finishes the survivors through `kick_tail`.
    """

    def pair_eq(table, qfps, homes, alts):
        with np.errstate(over="ignore"):
            return pair_eq_fn(
                table, qfps.astype(table.dtype, copy=False), homes, alts
            )

    def wave_kick(
        table,
        counts,
        empty,
        item_fps,
        cur,
        origins,
        kicks,
        out,
        max_kicks,
        index_mask,
        jump_seed,
        victim_seed,
        victim_counter,
    ):
        stash_fps = stash_buckets = _EMPTY_I64
        n_live, placed = item_fps.shape[0], 0
        if n_live > TAIL_ITEMS:
            with np.errstate(over="ignore"):
                stash_fps, stash_buckets, n_live, placed, victim_counter = wave_kick_fn(
                    table,
                    counts,
                    table.dtype.type(empty),
                    item_fps,
                    cur,
                    origins,
                    kicks,
                    out,
                    int(max_kicks),
                    np.uint64(index_mask),
                    np.uint64(jump_seed),
                    np.uint64(victim_seed),
                    int(victim_counter),
                )
        tail_fps, tail_buckets, tail_placed, victim_counter = kick_tail(
            table, counts, int(empty), item_fps[:n_live], cur[:n_live], origins[:n_live],
            kicks[:n_live], out, max_kicks, jump_seed, victim_seed, int(victim_counter),
        )
        return (
            np.concatenate((stash_fps, tail_fps)),
            np.concatenate((stash_buckets, tail_buckets)),
            int(placed) + tail_placed,
            victim_counter,
        )

    return pair_eq, wave_kick


def make_backend():
    """The un-jitted ``"python"`` test backend (reference-parity oracle)."""
    from repro.kernels import reference
    from repro.kernels.dispatch import KernelBackend

    pair_eq, wave_kick = host_wrappers(pair_eq_impl, wave_kick_impl)
    return KernelBackend(
        name="python",
        pair_eq=pair_eq,
        grouped_ranks=reference.grouped_ranks,
        plan_bulk_placement=reference.plan_bulk_placement,
        delete_plan=reference.delete_plan,
        wave_kick=wave_kick,
        info={"array_module": "numpy", "jit": None},
    )
