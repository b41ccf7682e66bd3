"""Pair geometry and the chained pair walk (§4.2, §6.2).

:class:`PairGeometry` is the cuckoo layer's
:class:`~repro.cuckoo.geometry.BucketGeometry` — the home-bucket hash, the
key fingerprint and the XOR alternate-bucket map that every fingerprint
structure shares — plus the one-way chain step ``l̃ = h(min(l, l'), κ)`` of
the chained CCF.  A predicate view shares its source filter's
``PairGeometry``, which is what guarantees it probes exactly the buckets
its source filled.

The *pair walk* yields the deterministic sequence of bucket pairs a
fingerprint may occupy.  Chain steps can collide with pairs already on the
walk (a cycle); the paper detects cycles (Floyd) and extends the chain.  We
reproduce that with a deterministic retry counter mixed into the chain hash —
the same resolution is replayed identically at insert and query time, which
is the property Lemma 2's correctness argument needs.

:meth:`PairGeometry.walk_many` is the batch form of the query-side walk
(Algorithm 5): every unresolved key of a batch moves one bucket pair forward
per round, under the same cycle and walk-limit rules as the scalar walk,
with the caller supplying what counts as a hit in a pair.  A pair's stashed
entries count as its slots (DESIGN.md §1).
"""

from __future__ import annotations

from typing import Callable, Iterator

import numpy as np

from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.geometry import BucketGeometry
from repro.cuckoo.stash import Stash
from repro.hashing.mixers import derive_seed, mix64, mix64_many

#: How many deterministic re-hashes the walk tries when the next pair is
#: already visited, before giving up on extending the chain.
CYCLE_BUMP_LIMIT = 16

#: Walk length at which `PairGeometry.walk_many` stops scanning each key's
#: visited pairs and moves them to a hash set.  Up to here a scan takes less
#: time per hop than the set for 4 to 500 walking keys (DESIGN.md §5), and
#: join probes walk at most 21 pairs; a scan's cost grows with the walk.
SCAN_PAIRS = 64

# Odd 64-bit multipliers decorrelating the chain-step inputs (SplitMix64 /
# Murmur finalizer constants).
_CHAIN_FP_MULT = 0x9E3779B97F4A7C15
_CHAIN_BUMP_MULT = 0xBF58476D1CE4E5B9
_MASK64 = 0xFFFFFFFFFFFFFFFF
# The golden-ratio multiplier as a wrapping int64.
_FIB_MULT = np.int64(_CHAIN_FP_MULT - (1 << 64))


class PairGeometry(BucketGeometry):
    """Bucket geometry plus the one-way chain step of chained CCFs."""

    __slots__ = ("_chain_salt",)

    def __init__(self, num_buckets: int, key_bits: int, seed: int = 0) -> None:
        super().__init__(num_buckets, key_bits, seed)
        self._chain_salt = derive_seed(seed, "geom-chain")

    def chain_step(self, pair_id: int, fingerprint: int, bump: int = 0) -> int:
        """One-way chain hash ``h(min(l, l'), κ)`` with a cycle-retry bump.

        Pure integer mixing (this is the hottest hash on the chained query
        path): the three inputs are spread by odd multipliers, folded with
        the chain salt and avalanched.
        """
        mixed = (
            pair_id
            ^ (fingerprint * _CHAIN_FP_MULT & _MASK64)
            ^ (bump * _CHAIN_BUMP_MULT & _MASK64)
            ^ self._chain_salt
        )
        return mix64(mixed) & (self.num_buckets - 1)

    def chain_step_many(
        self, pair_ids: np.ndarray, fingerprints: np.ndarray, bump: int = 0
    ) -> np.ndarray:
        """Batch `chain_step` (int64 array, bit-identical per element).

        uint64 wrap-around multiplication is the scalar path's ``& 2**64-1``.
        """
        mixed = (
            pair_ids.astype(np.uint64)
            ^ fingerprints.astype(np.uint64) * np.uint64(_CHAIN_FP_MULT)
            ^ np.uint64((bump * _CHAIN_BUMP_MULT & _MASK64) ^ self._chain_salt)
        )
        return (mix64_many(mixed) & np.uint64(self.num_buckets - 1)).astype(np.int64)

    def pair_walk(self, home: int, fingerprint: int) -> Iterator[tuple[int, int]]:
        """Yield the deterministic chain of bucket pairs for a fingerprint.

        The first pair derives from the home bucket; each later pair from the
        chain hash of the previous pair id (min of its two buckets, per
        §6.2).  Already-visited pairs are skipped via the deterministic bump;
        the generator ends when :data:`CYCLE_BUMP_LIMIT` consecutive retries
        fail to find a fresh pair.
        """
        left = home
        right = self.alt_index(left, fingerprint)
        pair_id = left if left < right else right
        visited = {pair_id}
        yield left, right
        while True:
            bump = 0
            nxt = self.chain_step(pair_id, fingerprint, bump)
            nxt_right = self.alt_index(nxt, fingerprint)
            nxt_id = nxt if nxt < nxt_right else nxt_right
            while nxt_id in visited:
                bump += 1
                if bump > CYCLE_BUMP_LIMIT:
                    return
                nxt = self.chain_step(pair_id, fingerprint, bump)
                nxt_right = self.alt_index(nxt, fingerprint)
                nxt_id = nxt if nxt < nxt_right else nxt_right
            visited.add(nxt_id)
            left, right, pair_id = nxt, nxt_right, nxt_id
            yield left, right

    def walk_one(
        self,
        home: int,
        fingerprint: int,
        max_dupes: int,
        limit: int,
        pair_hit: Callable[[int, int], tuple[int, bool]],
    ) -> bool:
        """`walk_many` for one key: ``pair_hit(left, right)`` returns the
        pair's copies of the fingerprint and whether one qualifies."""
        for walked, (left, right) in enumerate(self.pair_walk(home, fingerprint)):
            if walked >= limit:
                break
            copies, hit = pair_hit(left, right)
            if hit or copies != max_dupes:
                return hit
        # Lmax pairs exhausted (or the walk could not be extended) with every
        # pair d-full: answer True to preserve no-false-negatives.
        return True

    def walk_many(
        self,
        buckets: SlotMatrix,
        stash: Stash,
        fps: np.ndarray,
        homes: np.ndarray,
        alts: np.ndarray,
        *,
        max_dupes: int,
        limit: int,
        pair_hit: Callable[..., np.ndarray],
    ) -> np.ndarray:
        """Batch query walk (Algorithm 5), one bucket pair per round.

        Every key starts at its first pair ``(home, alt)``.  Each round
        probes the current pair of every walking key with one `pair_eq`
        over ``buckets`` and one `Stash.match` over ``stash`` and asks
        ``pair_hit(lefts, rights, eq, rows, at)`` whether the pair holds a
        qualifying copy (``eq`` is the ``(k, 2, b)`` fingerprint-equality
        mask, ``rows``/``at`` the pair's stashed copies).  A hit answers
        True.  Otherwise a key walks on while its pair holds exactly
        ``max_dupes`` copies, and answers False if not.  Walks that reach
        ``limit`` pairs, or whose next pair cannot be found within
        :data:`CYCLE_BUMP_LIMIT` bumps, answer True (Theorem 3).
        The pair sequence is :meth:`pair_walk`'s, so answers equal the
        scalar walk's key by key.

        Each key's visited pair ids sit in one row of a matrix that every
        hop scans, until the walks reach :data:`SCAN_PAIRS` pairs; from
        then on they sit in a hash set of (batch position, pair id) codes,
        so a hop costs O(1) however long the walk.
        """
        out = np.ones(len(fps), dtype=bool)
        index = np.arange(len(fps))
        lefts, rights = homes, alts
        jumps = lefts ^ rights
        pair_ids = np.minimum(lefts, rights)
        visited = pair_ids[:, None]
        far = None  # the _CodeSet, once walks are long
        walked = 0
        while index.size:
            eq = buckets.pair_eq(fps, lefts, rights)
            copies = eq[:, 0].sum(axis=1)
            copies += np.where(lefts == rights, 0, eq[:, 1].sum(axis=1))
            rows, at = stash.match(fps, lefts, rights)
            if rows.size:
                copies += np.bincount(rows, minlength=len(copies))
            hit = pair_hit(lefts, rights, eq, rows, at)
            walk_on = ~hit & (copies == max_dupes)
            out[index[~hit & ~walk_on]] = False
            walked += 1
            if walked >= limit:
                break
            keep = np.nonzero(walk_on)[0]
            if far is None:
                rows = visited[keep]

                def revisits(at, ids):
                    return (rows[at] == ids[:, None]).any(axis=1)

            else:
                codes = index[keep] * self.num_buckets

                def revisits(at, ids):
                    return ~far.add_new(codes[at] + ids)

            lefts, pair_ids, fresh = self._next_pairs(
                pair_ids[keep], fps[keep], jumps[keep], revisits
            )
            keep = keep[fresh]
            lefts, pair_ids = lefts[fresh], pair_ids[fresh]
            index, fps, jumps = index[keep], fps[keep], jumps[keep]
            rights = lefts ^ jumps
            if far is None:
                visited = np.concatenate([rows[fresh], pair_ids[:, None]], axis=1)
                if visited.shape[1] == SCAN_PAIRS:
                    far = _CodeSet()
                    far.add_new((index[:, None] * self.num_buckets + visited).ravel())
        return out

    def _next_pairs(
        self,
        pair_ids: np.ndarray,
        fps: np.ndarray,
        jumps: np.ndarray,
        revisits: Callable[[np.ndarray | slice, np.ndarray], np.ndarray],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One batch step of :meth:`pair_walk` past each key's visited pairs.

        Returns ``(lefts, pair ids, fresh)`` of the next pairs.  The chain
        step is bumped while ``revisits(keys, pair ids)`` says it landed on
        a pair that key has visited; ``fresh`` is False where no unvisited
        pair turned up within :data:`CYCLE_BUMP_LIMIT` bumps, which ends
        that walk.
        """
        lefts = self.chain_step_many(pair_ids, fps)
        next_ids = np.minimum(lefts, lefts ^ jumps)
        cycling = np.nonzero(revisits(slice(None), next_ids))[0]
        bump = 0
        while cycling.size and bump < CYCLE_BUMP_LIMIT:
            bump += 1
            step = self.chain_step_many(pair_ids[cycling], fps[cycling], bump)
            step_ids = np.minimum(step, step ^ jumps[cycling])
            lefts[cycling] = step
            next_ids[cycling] = step_ids
            cycling = cycling[revisits(cycling, step_ids)]
        fresh = np.ones(len(lefts), dtype=bool)
        fresh[cycling] = False
        return lefts, next_ids, fresh


class _CodeSet:
    """Insert-only hash set of non-negative int64 codes, batch at a time.

    Open addressing with linear probing, Fibonacci hashing and a load of at
    most one half, so `add_new` costs O(1) expected numpy work per code.
    """

    __slots__ = ("_table", "_bits", "_bound")

    def __init__(self) -> None:
        self._table = np.empty(0, dtype=np.int64)
        self._bits = 0
        self._bound = 0  # codes held, at most

    def add_new(self, codes: np.ndarray) -> np.ndarray:
        """Insert distinct ``codes``; True where a code was not yet present."""
        self._bound += len(codes)
        if 2 * self._bound > len(self._table):
            held = self._table[self._table >= 0]
            self._bound = len(held) + len(codes)
            self._bits = max(6, (2 * self._bound).bit_length())
            self._table = np.full(1 << self._bits, -1, dtype=np.int64)
            if held.size:
                self._insert(held, self._slots(held))
        return self._insert(codes, self._slots(codes))

    def _slots(self, codes: np.ndarray) -> np.ndarray:
        # Fibonacci hashing: the top bits of code * 2**64 / golden ratio, in
        # int64 (wrapping multiply; the mask drops the shift's sign bits).
        return ((codes * _FIB_MULT) >> (64 - self._bits)) & ((1 << self._bits) - 1)

    def _insert(self, codes: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Insert-if-absent, probing from ``slots`` on; True where inserted."""
        table = self._table
        held = table[slots]
        fresh = held < 0
        table[slots[fresh]] = codes[fresh]  # of several claimants of a slot, one wins
        fresh &= table[slots] == codes
        if fresh.all():
            return fresh
        # Lost claims and slots holding other codes probe the next slot; at
        # load <= 1/2 the recursion is as deep as the longest probe run.
        clash = np.nonzero(~fresh & (held != codes))[0]
        if clash.size:
            fresh[clash] = self._insert(codes[clash], (slots[clash] + 1) & (len(table) - 1))
        return fresh
