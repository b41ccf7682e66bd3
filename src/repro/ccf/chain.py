"""Pair geometry, the chained pair walk and its directory (§4.2, §6.2).

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

A walk depends only on its first pair and the fingerprint, so the geometry
keeps a *chain directory*: per (first pair id, fingerprint), the pairs of
the walk found so far (:class:`Chain`).  Bulk inserts and
:meth:`PairGeometry.walk_many`, the batch form of the query-side walk
(Algorithm 5), read and extend it; the batch walk probes every known pair
of each walking key in one pass, with the caller supplying what counts as
a hit in a pair.  A pair's stashed entries count as its slots (DESIGN.md
§1).  The scalar `pair_walk` and `walk_one` stay as the reference.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.geometry import BucketGeometry
from repro.cuckoo.stash import Stash
from repro.hashing.mixers import derive_seed, mix64, mix64_many

#: How many deterministic re-hashes the walk tries when the next pair is
#: already visited, before giving up on extending the chain.
CYCLE_BUMP_LIMIT = 16

# Odd 64-bit multipliers decorrelating the chain-step inputs (SplitMix64 /
# Murmur finalizer constants).
_CHAIN_FP_MULT = 0x9E3779B97F4A7C15
_CHAIN_BUMP_MULT = 0xBF58476D1CE4E5B9
_MASK64 = 0xFFFFFFFFFFFFFFFF

# Extending a chain appends to it; walks of one geometry in several threads
# (a filter and its marked view, say) must not interleave their appends.
# One lock for every geometry keeps geometries picklable; extensions are
# rare once a directory is warm.
_EXTEND_LOCK = threading.Lock()


class PairGeometry(BucketGeometry):
    """Bucket geometry plus the one-way chain step of chained CCFs, and the
    directory of the chains walked so far (DESIGN.md §5).

    A directory entry is a pure function of the geometry, and entries are
    made only for first cells that hold ``d`` copies (a walk or an insert
    went past them), so the directory holds at most one entry per such
    cell of the filters sharing the geometry and evicts nothing.
    """

    __slots__ = ("_chain_salt", "_chains")

    def __init__(self, num_buckets: int, key_bits: int, seed: int = 0) -> None:
        super().__init__(num_buckets, key_bits, seed)
        self._chain_salt = derive_seed(seed, "geom-chain")
        self._chains: dict[tuple[int, int], Chain] = {}

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
        """Batch query walk (Algorithm 5) over the chain directory.

        A *probe pass* is one `pair_eq` over ``buckets``, one `Stash.match`
        over ``stash`` and one ``pair_hit(lefts, rights, eq, rows, at)``
        call, which returns per pair a value that is nonzero where the pair
        holds a qualifying copy (``eq`` is the ``(k, 2, b)``
        fingerprint-equality mask, ``rows``/``at`` the pair's stashed
        copies).  The first pass probes every key's first pair ``(home,
        alt)``.  A key whose first pair does not hit but holds exactly
        ``max_dupes`` copies walks on along its chain, the directory entry
        of its first cell (`chain`): one more pass probes every known pair
        of every walking chain, and a chain is decided at the first of
        them that hits or holds another number of copies.  A chain whose
        known pairs are all ``d``-full is extended (`extend`) by 1, 2, 4,
        ... pairs and probed again, until it is decided, reaches ``limit``
        pairs or ends.

        Each key gets ``pair_hit``'s value at its deciding pair, 0 at a
        pair below ``max_dupes`` copies, and 1 where its walk reaches
        ``limit`` pairs or cannot be extended (Theorem 3).  The pairs are
        `pair_walk`'s, so answers equal the scalar walk's key by key; pairs
        past a deciding pair may be probed but never decide.
        """
        value, walk_on = _probe(buckets, stash, fps, homes, alts, max_dupes, pair_hit)
        out = value.copy()
        out[walk_on] = 1
        index = np.flatnonzero(walk_on)
        if not index.size or limit <= 1:
            return out
        cells: dict[tuple[int, int], int] = {}  # first cell -> its chain's position
        firsts = zip(np.minimum(homes[index], alts[index]).tolist(), fps[index].tolist())
        owner = np.fromiter(
            (cells.setdefault(cell, len(cells)) for cell in firsts), dtype=np.int64, count=len(index)
        )
        chains = [self.chain(pair_id, fp) for pair_id, fp in cells]
        answers = np.ones(len(chains), dtype=out.dtype)
        start = [1] * len(chains)  # each chain's first pair not yet probed
        grow = [1] * len(chains)  # pairs its next extension adds, doubling
        pending = list(range(len(chains)))
        while pending:
            short = [i for i in pending if start[i] == len(chains[i].lefts)]
            if short:
                self.extend(
                    [chains[i] for i in short],
                    [min(limit, start[i] + grow[i]) for i in short],
                )
            for i in short:
                grow[i] *= 2
            spans = [(i, start[i], min(len(chains[i].lefts), limit)) for i in pending]
            spans = [(i, begin, end) for i, begin, end in spans if begin < end]
            if not spans:
                break  # every pending walk reached the limit or its end
            lefts = np.array(
                [left for i, begin, end in spans for left in chains[i].lefts[begin:end]],
                dtype=np.int64,
            )
            span = np.repeat(np.arange(len(spans)), [end - begin for _, begin, end in spans])
            chain_fps = np.array([chains[i].fp for i, _, _ in spans], dtype=np.int64)[span]
            jumps = np.array([chains[i].jump for i, _, _ in spans], dtype=np.int64)[span]
            value, walk_on = _probe(
                buckets, stash, chain_fps, lefts, lefts ^ jumps, max_dupes, pair_hit
            )
            stops = np.flatnonzero(~walk_on)
            decided, first = np.unique(span[stops], return_index=True)
            positions = np.array([i for i, _, _ in spans], dtype=np.int64)
            answers[positions[decided]] = value[stops[first]]
            done = set(decided.tolist())
            pending = []
            for at, (i, _begin, end) in enumerate(spans):
                if at not in done and end < limit:
                    start[i] = end
                    pending.append(i)
        out[index] = answers[owner]
        return out

    # ------------------------------------------------------------------
    # The chain directory
    # ------------------------------------------------------------------

    def chain(self, pair_id: int, fingerprint: int) -> "Chain":
        """The directory entry of the chain whose first pair is ``pair_id``
        for ``fingerprint``, created with that pair alone."""
        key = (pair_id, fingerprint)
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = Chain(pair_id, fingerprint, self.fp_jump(fingerprint))
        return chain

    def chain_pair(self, pair_id: int, fingerprint: int, step: int) -> tuple[int, int] | None:
        """Pair ``step`` (0 is the first) of the chain whose first pair is
        ``pair_id``, as `pair_walk` yields it; None past the walk's end."""
        chain = self.chain(pair_id, fingerprint)
        if step >= len(chain.lefts):
            self.extend([chain], [step + 1])
            if step >= len(chain.lefts):
                return None
        left = chain.lefts[step]
        return left, left ^ chain.jump

    def extend(self, chains: Sequence["Chain"], sizes: Sequence[int]) -> None:
        """Extend each chain to ``sizes`` pairs, or to the end of its walk.

        `pair_walk`'s step for every chain at once: the chain hash of the
        chain's last pair id, bumped while it lands on a pair the chain
        holds, up to :data:`CYCLE_BUMP_LIMIT` bumps, after which the chain
        has ended.  Several chains hash in one `chain_step_many` call per
        step and bump; a single chain hashes through `chain_step`.
        """
        with _EXTEND_LOCK:
            self._extend(chains, sizes)

    def _extend(self, chains: Sequence["Chain"], sizes: Sequence[int]) -> None:
        todo: dict[Chain, int] = {}  # each chain once, at its largest size
        for chain, size in zip(chains, sizes):
            todo[chain] = max(size, todo.get(chain, 0))
        while todo := {c: s for c, s in todo.items() if len(c.lefts) < s and not c.ended}:
            stepping = list(todo)
            bump = 0
            while stepping:
                lefts = self._chain_steps(stepping, bump)
                cycling = []
                for chain, left in zip(stepping, lefts):
                    pair_id = min(left, left ^ chain.jump)
                    if pair_id in chain.seen:
                        cycling.append(chain)
                    else:
                        chain.lefts.append(left)
                        chain.seen.add(pair_id)
                        chain.last = pair_id
                bump += 1
                if bump > CYCLE_BUMP_LIMIT:
                    for chain in cycling:
                        chain.ended = True
                    break
                stepping = cycling

    def _chain_steps(self, chains: list["Chain"], bump: int) -> list[int]:
        """`chain_step` from each chain's last pair id, with one ``bump``."""
        if len(chains) == 1:
            return [self.chain_step(chains[0].last, chains[0].fp, bump)]
        pair_ids = np.array([chain.last for chain in chains], dtype=np.int64)
        fps = np.array([chain.fp for chain in chains], dtype=np.int64)
        return self.chain_step_many(pair_ids, fps, bump).tolist()


class Chain:
    """One entry of a `PairGeometry`'s chain directory (DESIGN.md §5).

    The pairs `pair_walk` yields for one (first pair id, fingerprint), as
    far as they have been found: ``lefts`` holds each pair's first bucket
    (the first pair's is its id, the smaller bucket), the partner being
    ``left ^ jump``; ``seen`` holds their pair ids and ``last`` the newest
    one; ``ended`` says that no further pair exists.
    """

    __slots__ = ("fp", "jump", "lefts", "seen", "last", "ended")

    def __init__(self, pair_id: int, fingerprint: int, jump: int) -> None:
        self.fp = fingerprint
        self.jump = jump
        self.lefts = [pair_id]
        self.seen = {pair_id}
        self.last = pair_id
        self.ended = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = ", ended" if self.ended else ""
        return f"Chain(fp={self.fp:#x}, pairs={len(self.lefts)}{end})"


def _probe(
    buckets: SlotMatrix,
    stash: Stash,
    fps: np.ndarray,
    lefts: np.ndarray,
    rights: np.ndarray,
    max_dupes: int,
    pair_hit: Callable[..., np.ndarray],
) -> tuple[np.ndarray, np.ndarray]:
    """One probe pass over pairs ``(lefts, rights)``: ``pair_hit``'s value
    per pair, and where the walk goes on (no hit, exactly ``max_dupes``
    copies, stashed copies included)."""
    eq = buckets.pair_eq(fps, lefts, rights)
    copies = eq[:, 0].sum(axis=1)
    copies += np.where(lefts == rights, 0, eq[:, 1].sum(axis=1))
    rows, at = stash.match(fps, lefts, rights)
    if rows.size:
        copies += np.bincount(rows, minlength=len(copies))
    value = pair_hit(lefts, rights, eq, rows, at)
    return value, (value == 0) & (copies == max_dupes)
