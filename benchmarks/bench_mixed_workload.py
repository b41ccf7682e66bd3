"""Interleaved insert/query throughput: the snapshot-thrash workload.

PR 1's batch layer kept a version-keyed numpy snapshot of the object-slot
table: any mutation invalidated it, so interleaved insert/query either paid
an O(table) rebuild per query batch or fell back to the scalar probe loop
(`_prefer_scalar_probe`).  The columnar SlotMatrix removed that machinery —
batch probes index the *live* fingerprint matrix — so this is the workload
the refactor exists to win.

This benchmark replays PR 1's exact probe policy (resurrected below as
``SnapshotPathBaseline``: list-of-objects storage, version counter, cached
snapshot, scalar-fallback heuristic) against the columnar engine on the same
hashing, the same key stream and the same interleave, at 1M total operations,
and asserts the columnar path is at least 3x faster end to end.  Answers are
asserted equal: the columnar ``insert_many`` (first wave + wave eviction)
may place entries differently from the baseline's per-key kicks, but
membership is preserved (DESIGN.md §7).

Environment knobs: ``REPRO_MIXED_OPS`` (total operations, default 1M).
"""

from __future__ import annotations

import os
import random
import time

import numpy as np

from repro.bench.reporting import save_json
from repro.cuckoo.filter import CuckooFilter
from repro.hashing.mixers import hash64_many_masked

TOTAL_OPS = int(os.environ.get("REPRO_MIXED_OPS", 1_000_000))
BATCH = 2_000
#: The refactor's acceptance bar (ISSUE 2).
MIN_SPEEDUP = 3.0


class SnapshotPathBaseline:
    """PR 1's probe path, verbatim: object slots + cached snapshot.

    Wraps the same hashing salts as a `CuckooFilter` twin but stores slots
    in a Python list (the old ``BucketArray``), probes through a
    version-keyed ``(m, b)`` snapshot rebuilt with ``np.fromiter``, and
    routes small batches after a mutation through the scalar loop — the
    `_prefer_scalar_probe` heuristic, unchanged.
    """

    def __init__(self, twin: CuckooFilter) -> None:
        self.twin = twin
        self.num_buckets = twin.buckets.num_buckets
        self.bucket_size = twin.buckets.bucket_size
        self.slots: list[int | None] = [None] * twin.buckets.capacity
        self._version = 0
        self._snapshot: tuple[int, np.ndarray] | None = None
        self._scalar_probe_version = -1
        self._scalar_probe_rows = 0
        self._rng = random.Random(twin.seed)

    # -- PR 1 insert path: vectorised hashing, per-key list placement ------

    def insert_many(self, keys: np.ndarray) -> None:
        twin = self.twin
        fps = twin.fingerprints_of_many(keys).tolist()
        homes = twin.home_indices_of_many(keys).tolist()
        size = self.bucket_size
        for fp, home in zip(fps, homes):
            alt = twin.alt_index(home, fp)
            if self._try_add(home * size, fp) or self._try_add(alt * size, fp):
                continue
            self._kick(twin, home, fp)

    def _try_add(self, base: int, fp: int) -> bool:
        slots = self.slots
        for slot in range(self.bucket_size):
            if slots[base + slot] is None:
                slots[base + slot] = fp
                self._version += 1
                return True
        return False

    def _kick(self, twin: CuckooFilter, start: int, fp: int) -> None:
        rng = self._rng
        current = rng.choice((start, twin.alt_index(start, fp)))
        item = fp
        size = self.bucket_size
        for _ in range(twin.max_kicks):
            victim_slot = rng.randrange(size)
            index = current * size + victim_slot
            victim = self.slots[index]
            self.slots[index] = item
            self._version += 1
            item = victim
            current = twin.alt_index(current, item)
            if self._try_add(current * size, item):
                return

    # -- PR 1 probe path: snapshot rebuild or scalar fallback --------------

    def _fp_table(self) -> np.ndarray:
        version = self._version
        snapshot = self._snapshot
        if snapshot is None or snapshot[0] != version:
            flat = np.fromiter(
                (-1 if e is None else e for e in self.slots),
                dtype=np.int64,
                count=len(self.slots),
            )
            snapshot = (version, flat.reshape(self.num_buckets, self.bucket_size))
            self._snapshot = snapshot
        return snapshot[1]

    def _prefer_scalar_probe(self, count: int) -> bool:
        snapshot = self._snapshot
        version = self._version
        if snapshot is not None and snapshot[0] == version:
            return False
        if self._scalar_probe_version != version:
            self._scalar_probe_version = version
            self._scalar_probe_rows = 0
        if 4 * (self._scalar_probe_rows + count) < self.num_buckets:
            self._scalar_probe_rows += count
            return True
        return False

    def _contains_scalar(self, fp: int, home: int) -> bool:
        twin = self.twin
        size = self.bucket_size
        for bucket in (home, twin.alt_index(home, fp)):
            base = bucket * size
            if fp in self.slots[base : base + size]:
                return True
        return False

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        twin = self.twin
        fps = twin.fingerprints_of_many(keys)
        homes = twin.home_indices_of_many(keys)
        if self._prefer_scalar_probe(len(keys)):
            return np.fromiter(
                (
                    self._contains_scalar(fp, home)
                    for fp, home in zip(fps.tolist(), homes.tolist())
                ),
                dtype=bool,
                count=len(keys),
            )
        alts = homes ^ hash64_many_masked(fps, twin.geometry._jump_salt, self.num_buckets - 1)
        table = self._fp_table()
        fp_col = fps[:, None]
        found = (table[homes] == fp_col).any(axis=1)
        found |= (table[alts] == fp_col).any(axis=1)
        return found


def _interleave(insert_fn, query_fn, insert_batches, query_batches) -> float:
    start = time.perf_counter()
    for insert_keys, query_keys in zip(insert_batches, query_batches):
        insert_fn(insert_keys)
        query_fn(query_keys)
    return time.perf_counter() - start


def _key_stream(total_ops: int) -> tuple[list[np.ndarray], list[np.ndarray]]:
    rng = np.random.default_rng(29)
    rounds = total_ops // (2 * BATCH)
    inserts = [rng.integers(0, 1 << 40, size=BATCH) for _ in range(rounds)]
    queries = [rng.integers(0, 1 << 40, size=BATCH) for _ in range(rounds)]
    return inserts, queries


def test_mixed_workload_speedup():
    """1M interleaved ops: columnar live-array probes vs PR 1 snapshots."""
    inserts, queries = _key_stream(TOTAL_OPS)
    capacity = sum(len(batch) for batch in inserts)

    # Best-of-2 full runs per side (fresh structures each time, so every run
    # replays the identical interleave) damps scheduler noise without
    # favouring either path.
    baseline_seconds = float("inf")
    for _ in range(2):
        baseline = SnapshotPathBaseline(
            CuckooFilter.from_capacity(max(capacity, 1), target_load=0.85, seed=5)
        )
        baseline_seconds = min(
            baseline_seconds,
            _interleave(baseline.insert_many, baseline.contains_many, inserts, queries),
        )
    columnar_seconds = float("inf")
    for _ in range(2):
        columnar = CuckooFilter.from_capacity(max(capacity, 1), target_load=0.85, seed=5)
        columnar_answers: list[np.ndarray] = []
        columnar_seconds = min(
            columnar_seconds,
            _interleave(
                columnar.insert_many,
                lambda keys: columnar_answers.append(columnar.contains_many(keys)),
                inserts,
                queries,
            ),
        )

    # Same final membership picture on both sides (placement may differ, the
    # answers may not): every inserted key answers True.
    inserted = np.concatenate(inserts)
    assert bool(columnar.contains_many(inserted).all())
    assert not columnar.failed
    # And the interleaved probe answers agree with the baseline's final state
    # reply for the last round (cheap spot check; tests/test_batch_parity.py
    # covers the membership contract).
    assert columnar_answers[-1].tolist() == baseline.contains_many(queries[-1]).tolist()

    total_ops = 2 * capacity
    speedup = baseline_seconds / columnar_seconds
    save_json(
        "mixed_workload_speedup",
        {
            "total_ops": total_ops,
            "batch": BATCH,
            "snapshot_path_ops_per_second": total_ops / baseline_seconds,
            "columnar_ops_per_second": total_ops / columnar_seconds,
            "speedup": speedup,
        },
    )
    print(
        f"mixed workload: {total_ops} ops, snapshot path {baseline_seconds:.2f}s, "
        f"columnar {columnar_seconds:.2f}s, speedup {speedup:.1f}x"
    )
    # The acceptance bar is defined at the 1M-op scale (ISSUE 2); shrunken
    # REPRO_MIXED_OPS smoke runs only report, since fixed per-batch overheads
    # dominate below a few hundred thousand operations.
    if TOTAL_OPS >= 1_000_000:
        assert speedup >= MIN_SPEEDUP
