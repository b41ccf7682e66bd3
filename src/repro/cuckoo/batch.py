"""Shared core of the fingerprint-per-slot cuckoo filters.

`CuckooFilter` and `MultisetCuckooFilter` store a bare integer fingerprint
in each slot and differ only in their query surface (membership vs copy
counts); this mixin holds the single copy of everything else: construction,
the one insertion algorithm and the removal kernels.  Keys hash through the
filter's :class:`~repro.cuckoo.geometry.BucketGeometry`, the one geometry
every fingerprint structure shares, so a filter hashes a key exactly as a
CCF of the same bucket count, fingerprint width and seed does.

The kernels run on the live columnar matrix (no snapshot to build or
invalidate; DESIGN.md §6, §9), dispatched through the kernel backend seam
(`repro.kernels`, DESIGN.md §12):

* **Fused pair probe** — `contains_many`/`count_many` gather each key's home
  and alternate rows in one ``take`` over the (width-adaptive) fingerprint
  matrix (`SlotMatrix.pair_eq` → backend ``pair_eq``).
* **One kick loop** — `insert_many` scatters the conflict-free first wave
  (every key whose home bucket still has room) in one pass and hands the
  residue to the backend ``wave_kick`` kernel: every in-flight item
  attempts its target bucket per round, conflicting evictions are resolved
  one per bucket, and the last few items finish through the kernel's
  shared sequential tail.  Scalar `insert` is the same algorithm for a
  batch of one — home, then alternate, then the tail's kick chain — so
  ``insert(k)`` leaves state bit-identical to ``insert_many([k])``.  Victim
  slots come from a stateless counter-based SplitMix64 stream (seed and
  stream position live on the filter), so every backend reproduces the
  same kick chains and no RNG object exists.
* **Vectorised delete** — `delete_many` selects each key's first matching
  slot by rank over the pair equality mask, made conflict-safe for
  duplicate keys in one batch by rank-deduping within (fingerprint, pair)
  groups (backend ``delete_plan``); results and final state are
  bit-identical to a scalar loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro import obs
from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.geometry import BucketGeometry
from repro.cuckoo.stash import Stash
from repro.hashing.mixers import _mixed_seed, derive_seed
from repro.kernels import active_backend

DEFAULT_MAX_KICKS = 500

# Wave-eviction instrumentation: one record set per wave_kick call (never per
# key).  Relocations are counted from the victim-stream counter delta — each
# draw is exactly one eviction, and the counter advances identically on every
# backend, so this is the backend-stable kick-depth signal.
_WAVE_CALLS = obs.counter(
    "repro_wave_calls_total", "Wave-eviction kernel invocations."
)
_WAVE_ITEMS = obs.counter(
    "repro_wave_items_total", "In-flight items handed to the wave kernel."
)
_WAVE_RELOCATIONS = obs.counter(
    "repro_wave_relocations_total",
    "Evictions performed by the wave kernel (victim-stream counter delta).",
)
_WAVE_STASH_SPILLS = obs.counter(
    "repro_wave_stash_spills_total",
    "Items whose kick chains exhausted max_kicks and spilled to the stash.",
)
_WAVE_RELOCATION_HIST = obs.histogram(
    "repro_wave_relocations",
    "Evictions per wave_kick call (insert-depth distribution).",
)


class FingerprintBatchMixin:
    """Construction, hashing, placement and removal for fingerprint filters."""

    def __init__(
        self,
        num_buckets: int,
        bucket_size: int = 4,
        fingerprint_bits: int = 12,
        max_kicks: int = DEFAULT_MAX_KICKS,
        seed: int = 0,
        packed: bool = True,
    ) -> None:
        if fingerprint_bits < 1 or fingerprint_bits > 62:
            raise ValueError("fingerprint_bits must be in [1, 62]")
        self.fingerprint_bits = fingerprint_bits
        self.max_kicks = max_kicks
        self.seed = seed
        self.packed = packed
        self.buckets = SlotMatrix(
            num_buckets, bucket_size, fp_bits=fingerprint_bits if packed else None
        )
        self.geometry = BucketGeometry(num_buckets, fingerprint_bits, seed)
        self.num_items = 0
        self.failed = False
        self.stash = Stash()
        # The victim-slot stream of the kick loop: seed + position; each
        # draw is one eviction.
        self._wave_victim_seed = _mixed_seed(derive_seed(seed, "wave-kick"))
        self._wave_victim_counter = 0

    # ------------------------------------------------------------------
    # Hashing (the geometry's)
    # ------------------------------------------------------------------

    def fingerprint_of(self, key: object) -> int:
        """Return the fingerprint of ``key`` (``fingerprint_bits`` wide)."""
        return self.geometry.fingerprint_of(key)

    def home_index(self, key: object) -> int:
        """Return the primary bucket for ``key``."""
        return self.geometry.home_index(key)

    def alt_index(self, index: int, fingerprint: int) -> int:
        """Return the partner bucket of ``index`` for ``fingerprint``."""
        return self.geometry.alt_index(index, fingerprint)

    def fingerprints_of_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `fingerprint_of`."""
        return self.geometry.fingerprints_of_many(keys)

    def home_indices_of_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `home_index`."""
        return self.geometry.home_indices_of_many(keys)

    def _pair_eq_many(self, fps: np.ndarray, homes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Fused probe of each key's bucket pair: ``((n, 2, b) mask, alts)``."""
        alts = self.geometry.alt_indices_many(homes, fps)
        return self.buckets.pair_eq(fps, homes, alts), alts

    # ------------------------------------------------------------------
    # Size and occupancy
    # ------------------------------------------------------------------

    def load_factor(self) -> float:
        """Fraction of table slots occupied (stash excluded)."""
        return self.buckets.load_factor()

    def size_in_bits(self) -> int:
        """Size under the paper's accounting: one fingerprint per slot, plus
        one per stashed overflow entry."""
        return (self.buckets.capacity + len(self.stash)) * self.fingerprint_bits

    def __len__(self) -> int:
        return self.num_items

    def __contains__(self, key: object) -> bool:
        return self.contains(key)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------

    def _insert_hashed(self, fp: int, home: int) -> bool:
        """Placement kernel of `insert`: home, then alternate, then kick.

        The batch-of-one case of `insert_many`: `SlotMatrix.place` runs the
        wave kernel's sequential tail (`kick_one`) from the alternate
        bucket on the shared victim stream, so the two calls leave
        bit-identical state.  A chain that exhausts ``max_kicks`` evictions
        stashes its in-flight fingerprint in its pair (DESIGN.md §1) and
        returns False.
        """
        self.num_items += 1
        fp, placed, self._wave_victim_counter, path = self.buckets.place(
            fp, home, self.geometry.alt_index(home, fp), self.max_kicks,
            self.geometry.jump_seed, self._wave_victim_seed, self._wave_victim_counter,
        )
        if placed:
            return True
        self.stash.append(fp, self.geometry.pair_id(path[-1][0] if path else home, fp))
        self.failed = True
        return False

    def insert_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Insert a batch of keys; returns per-key results (False = stashed).

        The conflict-free first wave — keys ranked within their home bucket
        (stable sort), the first ``bucket_size - counts[bucket]`` of each
        written straight into that bucket's free slots — is scattered in
        one pass (`SlotMatrix.plan_bulk_placement`).  The residue starts at
        its alternate buckets in the backend ``wave_kick`` kernel, which
        runs the eviction rounds and the sequential tail directly on the
        fingerprint and occupancy columns (`repro.kernels.reference`); this
        method owns everything object-shaped: the stash, the ``failed``
        latch, occupancy reconciliation and the victim-stream counter.  An
        item whose chain exhausts ``max_kicks`` evictions is stashed in its
        pair (DESIGN.md §1) and its originating key reports False.

        A single key takes exactly the path of `insert`.  In larger batches
        *placement* depends on the batching (first-wave keys never probe
        their alternate bucket), but membership does not: evictions and the
        stash keep every copy in its own bucket pair, so `contains`/`count`
        answer exactly as after a per-key `insert` loop.  See DESIGN.md §5
        and §7.
        """
        fps = self.fingerprints_of_many(keys)
        homes = self.home_indices_of_many(keys)
        out = np.ones(len(fps), dtype=bool)
        if len(fps) == 0:
            return out
        buckets = self.buckets
        if not buckets.writeable:
            buckets.promote()
        self.num_items += len(fps)
        rows, placed_buckets, slots, residue = buckets.plan_bulk_placement(homes)
        if placed_buckets.size:
            buckets.fps[placed_buckets, slots] = fps[rows]
            buckets.note_bulk_placement(placed_buckets)
        if residue.size == 0:
            return out
        item_fps = fps[residue]
        counter_before = self._wave_victim_counter
        stash_fps, stash_buckets, placed, self._wave_victim_counter = (
            active_backend().wave_kick(
                buckets.fps,
                buckets.counts,
                buckets.empty,
                item_fps,
                self.geometry.alt_indices_many(homes[residue], item_fps),
                residue,
                np.zeros(residue.size, dtype=np.int64),
                out,
                self.max_kicks,
                buckets.num_buckets - 1,
                self.geometry.jump_seed,
                self._wave_victim_seed,
                counter_before,
            )
        )
        buckets.note_kernel_fills(placed)
        if obs.state.enabled:
            relocations = self._wave_victim_counter - counter_before
            _WAVE_CALLS.inc()
            _WAVE_ITEMS.inc(int(residue.size))
            _WAVE_RELOCATIONS.inc(relocations)
            _WAVE_STASH_SPILLS.inc(int(stash_fps.size))
            _WAVE_RELOCATION_HIST.observe(relocations)
        if stash_fps.size:
            alts = self.geometry.alt_indices_many(stash_buckets, stash_fps)
            self.stash.extend(stash_fps, np.minimum(stash_buckets, alts))
            self.failed = True
        return out

    # ------------------------------------------------------------------
    # Deletion
    # ------------------------------------------------------------------

    def _delete_hashed(self, fp: int, home: int) -> bool:
        """Removal kernel shared by `delete` and `delete_many`: the home
        bucket, the alternate, then the pair's stashed copies."""
        alt = self.alt_index(home, fp)
        buckets = self.buckets
        if not (buckets.remove_fp(home, fp) or (alt != home and buckets.remove_fp(alt, fp))):
            at = self.stash.find(fp, home, alt)
            if not at:
                return False
            self.stash.pop(at[0])
        self.num_items -= 1
        return True

    def delete_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Delete a batch of keys; returns the per-key `delete` results.

        Hashing, the pair probe and the slot clears are vectorised;
        results, cleared slots and final state match a scalar `delete` loop
        exactly (see `_delete_hashed_many`).  The usual deletion caveat
        applies per key.
        """
        fps = self.fingerprints_of_many(keys)
        homes = self.home_indices_of_many(keys)
        return self._delete_hashed_many(fps, homes)

    def _delete_hashed_many(self, fps: np.ndarray, homes: np.ndarray) -> np.ndarray:
        """Vectorised first-match deletion, bit-identical to the scalar loop.

        One fused pair probe snapshots every key's equality mask; each key
        then claims the slot a scalar loop would have cleared: the r-th
        batch occurrence of a (fingerprint, pair) group takes the group's
        r-th matching slot in home-then-alternate slot order (**rank
        deduping** — duplicate keys in one batch can never claim the same
        slot).  Distinct groups touch disjoint (bucket, fingerprint) slots,
        so the snapshot ranking equals sequential processing.  Only two
        residues run the scalar kernel, in batch order: groups whose
        members disagree on home orientation (two keys sharing a pair from
        opposite ends — their interleaved scans don't rank-decompose), and
        occurrences that overflow the table matches into the stash.
        The slot-claim plan is computed by the backend ``delete_plan``
        kernel (`repro.kernels`); this wrapper owns the mutation, the item
        counter and the scalar residue.
        """
        n = len(fps)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        eq, alts = self._pair_eq_many(fps, homes)
        clear_buckets, clear_slots, deleted, scalar_rows, overflow = (
            active_backend().delete_plan(eq, fps, homes, alts)
        )
        if clear_buckets.size:
            self.buckets.clear_slots(clear_buckets, clear_slots)
        out[deleted] = True
        self.num_items -= int(out.sum())
        # Sequential residue, in batch order so stash copies are consumed
        # exactly as a scalar loop would consume them.
        residual = scalar_rows | overflow if self.stash else scalar_rows
        for i in np.nonzero(residual)[0].tolist():
            out[i] = self._delete_hashed(int(fps[i]), int(homes[i]))
        return out
