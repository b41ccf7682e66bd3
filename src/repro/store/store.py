"""FilterStore: a sharded, log-structured, mutable CCF serving layer.

The paper's deployment story (§2-§3) precomputes one fixed-capacity CCF per
table.  A production service under mutable traffic outgrows any pre-sized
filter; the FilterStore removes the cap while keeping every per-batch code
path a single vectorised fan-out:

1. **Route** — one salted hash partitions the batch across ``num_shards``
   shards (numpy scatter; results gather back to input order).
2. **Hash once** — key fingerprints, home buckets and attribute-fingerprint
   vectors are computed once per batch; every level of every shard shares
   one geometry, so the same arrays feed every level kernel.
3. **Level** — each shard appends to an LSM-style stack of plain-CCF levels
   (`shard.py`), growing a level when the active one saturates and merging
   the stack into one right-sized filter on compaction (`compaction.py`).

Persistence is SEG1 segments plus the WAL (DESIGN.md §10, §14):
``snapshot(path)`` stages a JSON manifest plus one SEG1 segment per level
into a temp directory and renames it into place (a crash can never leave a
torn store), and ``open(path)`` restores an equivalent store in
O(manifest) — sealed levels stay on disk as
:class:`~repro.store.segments.SegmentLevelRef` handles and map (read-only,
zero-copy) the first time a probe touches their shard.  :func:`read_manifest`
is the one reader of the manifest format, shared by ``open``, ``refresh``
and ``python -m repro.store inspect``.  The deployment contract: answers
after ``open`` equal answers before ``snapshot``.
"""

from __future__ import annotations

import json
import os
import shutil
import threading
from contextlib import ExitStack, nullcontext
from pathlib import Path
from time import perf_counter
from typing import Any, Mapping, Sequence

import numpy as np

from repro import obs
from repro.ccf.attributes import AttributeSchema
from repro.ccf.base import (
    CompiledQuery,
    ConditionalCuckooFilterBase,
    compile_predicate,
    validate_attr_columns,
)
from repro.ccf.chain import PairGeometry
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Predicate
from repro.ccf.serialize import SerializeError
from repro.hashing.mixers import derive_seed, hash64, hash64_many
from repro.kernels import active_backend
from repro.store import faults
from repro.store.config import DurabilityConfig, StoreConfig
from repro.store.metrics import store_metrics
from repro.store.segments import (
    SEGMENT_SUFFIX,
    SegmentLevelRef,
    warm_level,
    write_segment,
)
from repro.store.shard import FilterShard
from repro.store.wal import (
    OP_COMPACT,
    OP_DELETE,
    OP_INSERT,
    ShardWal,
    WAL_SUFFIX,
    record_replay,
    scan_wal,
    wal_dir,
    wal_name,
)

#: Manifest schema version; bump on layout changes.  Format 2 records each
#: level as ``{"file", "format": "segment", "seq"}`` (``seq`` optional), one
#: SEG1 segment per level; :func:`read_manifest` accepts nothing else.
MANIFEST_FORMAT = 2
MANIFEST_NAME = "manifest.json"

#: The operation kinds `OpCounters` tracks (batch calls and keys for each).
OP_KINDS = ("query", "insert", "delete")

#: The shard guard while no locks are installed (nullcontext is reusable).
_UNGUARDED = nullcontext()

#: Shard counters a manifest's shard record carries: record key -> the
#: `FilterShard` attribute it persists.
_SHARD_COUNTERS = {
    "rows_inserted": "rows_inserted",
    "rows_deleted": "rows_deleted",
    "compactions": "num_compactions",
    "entries_compacted": "entries_compacted",
}

# Persistence-path instrumentation: one record per snapshot/refresh call.
_SNAPSHOT_US = obs.histogram(
    "repro_store_snapshot_us", "Snapshot write duration in microseconds."
)
_SNAPSHOTS = obs.counter("repro_store_snapshots_total", "Snapshots written.")
_REFRESH_US = obs.histogram(
    "repro_store_refresh_us", "Snapshot refresh duration in microseconds."
)
_REFRESH_LEVELS = obs.counter(
    "repro_store_refresh_levels_total",
    "Levels handled by refresh, by outcome (reused = mapping kept).",
    ("outcome",),
)
_CHECKPOINTS = obs.counter(
    "repro_store_checkpoints_total", "Durable checkpoints committed."
)
_CHECKPOINT_US = obs.histogram(
    "repro_store_checkpoint_us", "Checkpoint (seal + WAL roll) duration in microseconds."
)


class OpCounters:
    """Served-operation counters: batch calls and keys per operation kind.

    One lock-protected bump per *batch* (not per key), so the counters stay
    exact under the serve layer's concurrent readers at negligible cost.
    Snapshots persist them and ``open`` restores them, so a restarted writer
    keeps its lifetime totals; the ``inspect`` CLI and ``stats()`` surface
    them (DESIGN.md §11).
    """

    __slots__ = ("_lock", "counts")

    def __init__(self, counts: Mapping[str, int] | None = None) -> None:
        self._lock = threading.Lock()
        self.counts = {
            f"{kind}_{unit}": 0 for kind in OP_KINDS for unit in ("calls", "keys")
        }
        if counts:
            for name, value in counts.items():
                if name in self.counts:
                    self.counts[name] = int(value)

    def record(self, kind: str, keys: int) -> None:
        """Count one batch call of ``kind`` covering ``keys`` keys."""
        with self._lock:
            self.counts[f"{kind}_calls"] += 1
            self.counts[f"{kind}_keys"] += keys

    def to_dict(self) -> dict[str, int]:
        """A plain-dict copy (stats / manifest form)."""
        with self._lock:
            return dict(self.counts)

    def __getstate__(self) -> dict:
        return {"counts": self.to_dict()}

    def __setstate__(self, state: dict) -> None:
        self.__init__(state["counts"])


class FilterStore:
    """Unbounded, mutable, persistent conditional-membership service."""

    def __init__(
        self,
        schema: AttributeSchema,
        params: CCFParams,
        config: StoreConfig | None = None,
    ) -> None:
        self.schema = schema
        self.params = params
        self.config = config or StoreConfig()
        self.fingerprinter = ConditionalCuckooFilterBase.make_fingerprinter(schema, params)
        #: The geometry every level of every shard shares.
        self.geometry = PairGeometry(
            self.config.level_buckets, params.key_bits, seed=params.seed
        )
        self._shard_salt = derive_seed(self.config.seed, "store-shard")
        self.shards = [
            FilterShard(i, schema, params, self.config)
            for i in range(self.config.num_shards)
        ]
        #: Lifetime served-operation counters (queries/inserts/deletes).
        self.ops = OpCounters()
        #: Durable-store attachment (None = the classic snapshot-only mode).
        #: Set by :meth:`attach_wal` or a WAL-carrying :meth:`open`; when
        #: set, every shard holds a live `ShardWal` and mutations are
        #: logged-before-applied under the root's WAL directory.
        self._root: Path | None = None
        self._durability: DurabilityConfig | None = None
        self._wal_gen = 0
        #: Latched when a checkpoint dies half-way: the in-memory state and
        #: the on-disk commit point can then disagree, so further writes
        #: would risk acking frames recovery cannot see.  Reopen to clear.
        self._wal_broken = False
        #: Per-shard reader/writer locks, installed by the serve layer
        #: (`repro.serve`).  None (the default) means unguarded single-thread
        #: access with zero overhead; installed, every per-shard kernel call
        #: runs under that shard's read or write lock, so a writer on shard i
        #: never blocks readers on shard j (DESIGN.md §11).
        self._shard_locks: Sequence[Any] | None = None

    # ------------------------------------------------------------------
    # Concurrency seams
    # ------------------------------------------------------------------

    def install_shard_locks(self, locks: Sequence[Any] | None) -> None:
        """Install (or with ``None`` remove) per-shard reader/writer locks.

        ``locks`` must provide one lock per shard with ``read_locked()`` /
        ``write_locked()`` context managers (see `repro.serve.locks.RWLock`).
        """
        if locks is not None and len(locks) != self.config.num_shards:
            raise ValueError(
                f"need one lock per shard ({self.config.num_shards}), got {len(locks)}"
            )
        self._shard_locks = locks

    def _read_guard(self, shard_id: int):
        locks = self._shard_locks
        return _UNGUARDED if locks is None else locks[shard_id].read_locked()

    def _write_guard(self, shard_id: int):
        locks = self._shard_locks
        return _UNGUARDED if locks is None else locks[shard_id].write_locked()

    @property
    def durable(self) -> bool:
        """Whether a WAL is attached (mutations survive a crash)."""
        return self._root is not None

    def _ensure_writable(self) -> None:
        if self._wal_broken:
            raise RuntimeError(
                "durable store is write-poisoned: a checkpoint failed part-way, "
                "so in-memory state and the on-disk commit point may disagree; "
                "reopen the store from its root to recover"
            )

    @property
    def generation(self) -> int:
        """Monotonic structural-change counter (sum of the shard counters).

        Bumped whenever any shard rolls a level, compacts, or adopts a
        refreshed stack — the cheap signal a serving worker compares before
        deciding whether cached per-shard state is stale.  Process-local
        (not persisted); cross-process staleness is carried by the serve
        runtime's published epoch instead.
        """
        return sum(shard.generation for shard in self.shards)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def shard_of(self, key: object) -> int:
        """The shard owning ``key`` (independent of the level hashes)."""
        return int(hash64(key, self._shard_salt) % self.config.num_shards)

    def shard_ids_of_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch `shard_of` (bit-identical per element)."""
        hashed = hash64_many(keys, self._shard_salt)
        return (hashed % np.uint64(self.config.num_shards)).astype(np.int64)

    def _scatter(
        self, keys: Sequence[object] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(shard ids, key fingerprints, home buckets, partner buckets).

        Hashed exactly once per batch: every level of every shard shares
        this geometry, so the same four arrays feed every level's fused
        probe kernel with no per-level re-hash (DESIGN.md §8/§9).
        """
        shard_ids = self.shard_ids_of_many(keys)
        fps = self.geometry.fingerprints_of_many(keys)
        homes = self.geometry.home_indices_of_many(keys)
        alts = self.geometry.alt_indices_many(homes, fps)
        return shard_ids, fps, homes, alts

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def insert(self, key: object, attrs: Mapping[str, Any] | Sequence[Any]) -> bool:
        """Insert one (key, attribute row)."""
        return bool(self.insert_many([key], [[v] for v in self.schema.row_values(attrs)])[0])

    def insert_many(
        self,
        keys: Sequence[object] | np.ndarray,
        attr_columns: Sequence[Sequence[Any] | np.ndarray],
    ) -> np.ndarray:
        """Insert a batch of rows: one hashing pass, one scatter, per-shard fills.

        Capacity is unbounded — shards roll new levels as they saturate —
        so unlike a fixed CCF this never needs pre-sizing.  Returns the
        per-row placement results in input order (False only on the rare
        MaxKicks overflow, where the row is stash-preserved).
        """
        self._ensure_writable()
        columns = list(attr_columns)
        n = len(keys)
        validate_attr_columns(columns, self.schema.num_attributes, n)
        self.ops.record("insert", n)
        out = np.ones(n, dtype=bool)
        if n == 0:
            return out
        shard_ids, fps, homes, alts = self._scatter(keys)
        avecs = self.fingerprinter.vectors_many(columns)
        for shard in self.shards:
            index = np.nonzero(shard_ids == shard.shard_id)[0]
            if index.size == 0:
                continue
            with self._write_guard(shard.shard_id):
                out[index] = shard.insert_hashed_rows(
                    fps[index], homes[index], [avecs[i] for i in index.tolist()], alts[index]
                )
        return out

    def delete(self, key: object, attrs: Mapping[str, Any] | Sequence[Any]) -> bool:
        """Delete one stored (key, attribute row); True if a row was removed."""
        return bool(self.delete_many([key], [[v] for v in self.schema.row_values(attrs)])[0])

    def delete_many(
        self,
        keys: Sequence[object] | np.ndarray,
        attr_columns: Sequence[Sequence[Any] | np.ndarray],
    ) -> np.ndarray:
        """Batch delete; each row is removed from its newest owning level.

        The usual cuckoo-deletion caveat applies per row: only delete rows
        known to have been inserted (a colliding row's entry may be removed
        otherwise).
        """
        self._ensure_writable()
        columns = list(attr_columns)
        n = len(keys)
        validate_attr_columns(columns, self.schema.num_attributes, n)
        self.ops.record("delete", n)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        shard_ids, fps, homes, alts = self._scatter(keys)
        avecs = self.fingerprinter.vectors_many(columns)
        for shard in self.shards:
            index = np.nonzero(shard_ids == shard.shard_id)[0]
            if index.size == 0:
                continue
            with self._write_guard(shard.shard_id):
                out[index] = shard.delete_hashed_rows(
                    fps[index], homes[index], [avecs[i] for i in index.tolist()], alts[index]
                )
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def compile(self, predicate: Predicate | None) -> CompiledQuery | None:
        """Compile a predicate once for every level of every shard."""
        return compile_predicate(self.schema, self.fingerprinter, predicate)

    def _resolve_compiled(
        self, predicate: Predicate | CompiledQuery | None
    ) -> CompiledQuery | None:
        if predicate is None or isinstance(predicate, CompiledQuery):
            return predicate
        return self.compile(predicate)

    def query(self, key: object, predicate: Predicate | CompiledQuery | None = None) -> bool:
        """Membership test for ``key`` under an optional predicate."""
        return bool(self.query_many([key], predicate)[0])

    def query_many(
        self,
        keys: Sequence[object] | np.ndarray,
        predicate: Predicate | CompiledQuery | None = None,
    ) -> np.ndarray:
        """Batch membership under one (compiled-once) predicate.

        One hashing pass and one scatter; each shard ORs its level answers
        newest-first.  No false negatives for live rows, the same contract
        as a single CCF.
        """
        compiled = self._resolve_compiled(predicate)
        n = len(keys)
        self.ops.record("query", n)
        out = np.zeros(n, dtype=bool)
        if n == 0:
            return out
        # One probe span per *traced* request (an active TraceContext): the
        # serving path gets per-request store attribution, while bulk
        # untraced scans keep the zero-span hot path.  Deliberately no
        # per-shard child spans — the scatter loop is the dispatch critical
        # path, and n_shards extra span records per batch is exactly the
        # cost the tracing-overhead gate bounds; a hot shard still shows in
        # `repro_probe_*` counters.
        traced = obs.state.enabled and obs.current() is not None
        if traced:
            with obs.span("store.probe", keys=int(n), shards=self.config.num_shards):
                self._query_scattered(keys, compiled, out)
        else:
            self._query_scattered(keys, compiled, out)
        return out

    def _query_scattered(
        self,
        keys: Sequence[object] | np.ndarray,
        compiled: CompiledQuery | None,
        out: np.ndarray,
    ) -> None:
        """Hash once, scatter to shards, OR each shard's level answers."""
        shard_ids, fps, homes, alts = self._scatter(keys)
        for shard in self.shards:
            index = np.nonzero(shard_ids == shard.shard_id)[0]
            if index.size == 0:
                continue
            with self._read_guard(shard.shard_id):
                out[index] = shard.query_hashed_many(
                    fps[index], homes[index], compiled, alts[index]
                )

    def contains_key(self, key: object) -> bool:
        """Key-only membership test."""
        return self.query(key, None)

    def contains_key_many(self, keys: Sequence[object] | np.ndarray) -> np.ndarray:
        """Batch key-only membership test."""
        return self.query_many(keys, None)

    def __contains__(self, key: object) -> bool:
        return self.contains_key(key)

    # ------------------------------------------------------------------
    # Maintenance and introspection
    # ------------------------------------------------------------------

    def compact(self) -> None:
        """Compact every shard's level stack into one right-sized filter.

        With shard locks installed, each shard compacts under its write
        lock: readers on other shards keep going, readers on this shard
        wait out one merge rather than seeing a half-replaced stack.
        On a durable store each shard logs a compaction frame first, so
        recovery re-merges at the same point in the operation order.
        """
        for shard in self.shards:
            self._compact_shard(shard.shard_id)

    def _compact_shard(self, shard_id: int) -> None:
        """Compact one shard under its write lock, logged first when durable.

        The one compaction step of `compact` and the maintenance scheduler,
        so both refuse a write-poisoned store (see `_ensure_writable`).
        """
        self._ensure_writable()
        shard = self.shards[shard_id]
        with self._write_guard(shard_id):
            shard.log_compact()
            shard.compact()

    def warm(self) -> int:
        """Prefault every mapped level's columns; returns bytes warmed.

        Materialises pending segment refs (O(metadata) each) and touches one
        byte per page of every mapped column, so the segment pages sit in
        the shared OS page cache before a worker pool forks/spawns against
        the same snapshot.  Promoted (heap) levels contribute nothing.
        """
        with obs.span("store.warm"):
            return sum(
                warm_level(level) for shard in self.shards for level in shard.levels
            )

    @property
    def num_levels(self) -> int:
        """Total level count across shards (pending segments counted unmapped)."""
        return sum(shard.num_levels for shard in self.shards)

    @property
    def num_entries(self) -> int:
        """Occupied table slots across every level of every shard (stash excluded)."""
        return sum(shard.num_entries for shard in self.shards)

    def load_factor(self) -> float:
        """Occupied fraction over the store's total slot capacity (in [0, 1])."""
        capacity = sum(shard.capacity for shard in self.shards)
        return self.num_entries / capacity if capacity else 0.0

    def size_in_bits(self) -> int:
        """Summed sketch size across all levels (manifest overhead excluded)."""
        return sum(shard.size_in_bits() for shard in self.shards)

    def size_in_bytes(self) -> float:
        """Summed sketch size in bytes."""
        return self.size_in_bits() / 8

    def __len__(self) -> int:
        """Number of live rows (inserted minus deleted)."""
        return sum(shard.rows_inserted - shard.rows_deleted for shard in self.shards)

    def stats(self) -> dict:
        """Per-shard occupancy, level shapes and compaction work, plus totals."""
        shards = [shard.stats() for shard in self.shards]
        return {
            "num_shards": self.config.num_shards,
            "level_buckets": self.config.level_buckets,
            "target_load": self.config.target_load,
            "fingerprint_dtype": shards[0]["fingerprint_dtype"] if shards else None,
            "bytes_per_slot": shards[0]["bytes_per_slot"] if shards else None,
            # What actually executes the probe/kick/delete kernels in this
            # process — benchmark artifacts and serve stats record it so a
            # number is never attributed to the wrong backend.
            "kernel_backend": active_backend().name,
            "levels": self.num_levels,
            "entries": self.num_entries,
            "load_factor": round(self.load_factor(), 4),
            "rows_inserted": sum(s["rows_inserted"] for s in shards),
            "rows_deleted": sum(s["rows_deleted"] for s in shards),
            "compactions": sum(s["compactions"] for s in shards),
            "entries_compacted": sum(s["entries_compacted"] for s in shards),
            "size_in_bytes": self.size_in_bytes(),
            "mapped_bytes": sum(s["mapped_bytes"] for s in shards),
            "resident_bytes": sum(s["resident_bytes"] for s in shards),
            "generation": self.generation,
            # Durability posture: None = snapshot-only; attached, the mode
            # plus live WAL shape (the serve runtime surfaces this as the
            # writer's durability line).
            "durability": None
            if self._durability is None
            else {
                **self._durability.to_dict(),
                "gen": self._wal_gen,
                "wal_bytes": sum(
                    s["wal"]["bytes"] for s in shards if s["wal"] is not None
                ),
                "wal_frames": sum(
                    s["wal"]["frames"] for s in shards if s["wal"] is not None
                ),
            },
            "ops": self.ops.to_dict(),
            "shards": shards,
            # The unified observability view: the process registry overlaid
            # with collection-time store gauges (repro.store.metrics).
            "metrics": store_metrics(self),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FilterStore(shards={self.config.num_shards}, levels={self.num_levels}, "
            f"rows={len(self)}, load={self.load_factor():.3f})"
        )

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def snapshot(self, path: str | Path) -> Path:
        """Write the store to a directory: manifest + one SEG1 segment per level.

        Each level is a segment file (`repro.ccf.mmapio`) — page-aligned raw
        columns that :meth:`open` maps back zero-copy.

        The write is staged: everything lands in a hidden sibling temp
        directory (manifest last, the commit point) and is renamed into
        place with ``os.replace``, so a crash while writing payloads leaves
        the target untouched — never a torn store.  Snapshots to a fresh
        path are fully atomic.  Overwriting an existing snapshot first
        displaces the old directory to a hidden sibling, so the previous
        data survives on disk until the new directory is in place; a crash
        in the narrow window between the two renames leaves the target
        momentarily absent but both snapshots intact under their hidden
        names (and the next snapshot to the same path cleans them up).
        """
        if self._root is not None and Path(path).resolve() == self._root:
            # Snapshotting a durable store onto its own root *is* a
            # checkpoint: seal, commit manifest-last, roll the WALs.  The
            # staged-directory protocol below would displace (and then
            # delete) the live WAL directory out from under the store.
            return self.checkpoint()
        start = perf_counter()
        with obs.span("store.snapshot", path=str(path)):
            root = self._snapshot(path)
        _SNAPSHOTS.inc()
        _SNAPSHOT_US.observe((perf_counter() - start) * 1e6)
        return root

    def _snapshot(self, path: str | Path) -> Path:
        root = Path(path)
        root.parent.mkdir(parents=True, exist_ok=True)
        # Clear staging/displaced debris from earlier runs, whatever their
        # pid: a crashed snapshot must not leak directories forever.
        for pattern in (f".{root.name}.tmp-*", f".{root.name}.old-*"):
            for stale in root.parent.glob(pattern):
                shutil.rmtree(stale, ignore_errors=True)
        staging = root.parent / f".{root.name}.tmp-{os.getpid()}"
        staging.mkdir()
        try:
            manifest = self._write_levels(staging)
            # The manifest is the commit point within the staging directory.
            (staging / MANIFEST_NAME).write_text(
                json.dumps(manifest, indent=2, sort_keys=True)
            )
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        faults.hit("snapshot.staged")
        if root.exists():
            displaced = root.parent / f".{root.name}.old-{os.getpid()}"
            os.replace(root, displaced)
            faults.hit("snapshot.displaced")
            os.replace(staging, root)
            shutil.rmtree(displaced)
        else:
            os.replace(staging, root)
        return root

    def _write_levels(
        self, directory: Path, prefix: str = "", durable: bool = False
    ) -> dict:
        """Write every level to a SEG1 segment in ``directory``; returns the
        manifest naming them, common to snapshots and checkpoints (no wal
        section).

        ``durable`` (checkpoints) checksums and fsyncs each segment and
        crosses the ``checkpoint.segment`` fault point after it.
        """
        shard_records = []
        for shard in self.shards:
            level_files = []
            for level_index, level in enumerate(shard.levels):
                name = (
                    f"{prefix}shard-{shard.shard_id:04d}"
                    f"-level-{level_index:04d}{SEGMENT_SUFFIX}"
                )
                if durable:
                    write_segment(level, directory / name, checksums=True, fsync=True)
                    faults.hit("checkpoint.segment")
                else:
                    write_segment(level, directory / name)
                # The seq names this level's content version: readers
                # refreshing onto this manifest keep any level they already
                # have mapped under the same seq (DESIGN.md §11).
                level_files.append(
                    {
                        "file": name,
                        "format": "segment",
                        "seq": shard.level_seqs[level_index],
                    }
                )
            counters = {k: getattr(shard, a) for k, a in _SHARD_COUNTERS.items()}
            shard_records.append({"levels": level_files, **counters})
        return {
            "format": MANIFEST_FORMAT,
            "kind": "plain",
            "schema": list(self.schema.names),
            "params": _params_to_dict(self.params),
            "config": self.config.to_dict(),
            "ops": self.ops.to_dict(),
            "shards": shard_records,
        }

    # ------------------------------------------------------------------
    # Durability (write-ahead logging; DESIGN.md §14)
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release the per-shard WAL file handles (no-op when not durable).

        Unsynced batch-mode bytes are synced first, so a clean close never
        costs acked frames even on later power loss.  The store must not
        be mutated afterwards; reopen from the root to resume.
        """
        for shard in self.shards:
            if shard.wal is not None:
                shard.wal.sync()
                shard.wal.close()
                shard.wal = None
        self._wal_broken = self._root is not None

    def attach_wal(
        self, path: str | Path, durability: DurabilityConfig | None = None
    ) -> Path:
        """Make this store durable, rooted at ``path``.

        Runs an initial :meth:`checkpoint`: the current state is sealed to
        checksummed segments under ``path``, a fresh per-shard WAL
        generation starts under ``path/wal/``, and from then on every
        mutation batch appends one checksummed frame *before* it applies.
        ``path`` may be a fresh directory or an existing snapshot of this
        store (upgrade-in-place); there must be exactly one durable writer
        per root at a time.  ``snapshot(path)`` onto the root becomes a
        checkpoint; reopen with plain :meth:`open`, which replays the log.
        """
        if self._root is not None:
            raise RuntimeError(f"a WAL is already attached at {self._root}")
        self._durability = durability or DurabilityConfig()
        self._root = Path(path).resolve()
        self._wal_gen = 0
        try:
            self.checkpoint()
        except BaseException:
            self._root = None
            self._durability = None
            raise
        return self._root

    def checkpoint(self) -> Path:
        """Seal state to segments and roll the WALs (the durable commit).

        Equivalent to a snapshot for a durable store: after it returns,
        recovery replays an empty log over freshly sealed checksummed
        segments.  The manifest ``os.replace`` is the single commit point —
        a crash anywhere before it leaves the previous generation (old
        manifest + old WALs) fully intact, a crash after it leaves the new
        one; either way no acked frame is lost.  Runs with every shard's
        write lock held (when installed): mutations wait, readers on
        already-mapped levels keep going.
        """
        if self._root is None:
            raise RuntimeError("no WAL attached: call attach_wal(path) first")
        self._ensure_writable()
        start = perf_counter()
        gen = self._wal_gen + 1
        with obs.span("store.checkpoint", path=str(self._root), gen=gen):
            with ExitStack() as stack:
                for shard in self.shards:
                    stack.enter_context(self._write_guard(shard.shard_id))
                root = self._checkpoint(gen)
        _CHECKPOINTS.inc()
        _CHECKPOINT_US.observe((perf_counter() - start) * 1e6)
        return root

    def _checkpoint(self, gen: int) -> Path:
        root = self._root
        root.mkdir(parents=True, exist_ok=True)
        wdir = wal_dir(root)
        wdir.mkdir(exist_ok=True)
        _reap_stale_wal_temps(wdir)
        faults.hit("checkpoint.begin")
        new_wals: list[ShardWal] = []
        try:
            # 1. Fresh WAL generation, one file per shard, seq chains
            #    continuing where the live logs stand.  Created (atomically,
            #    each) before the seal so the commit can switch instantly.
            for shard in self.shards:
                base_seq = 0 if shard.wal is None else shard.wal.last_seq
                new_wals.append(
                    ShardWal.create(
                        wdir / wal_name(shard.shard_id, gen),
                        shard.shard_id,
                        gen,
                        base_seq,
                        self._durability,
                    )
                )
            faults.hit("checkpoint.walled")
            # 2. Seal every level to a generation-prefixed checksummed
            #    segment.  Direct writes into the live root: until the
            #    manifest commits these names are unreferenced, so a crash
            #    leaves debris (reaped on the next open/checkpoint), never
            #    a torn store.
            manifest = self._write_levels(root, f"g{gen:06d}-", durable=True)
            manifest["wal"] = {"gen": gen, **self._durability.to_dict()}
            # 3. Commit: durable staged manifest, one atomic replace.
            staged = root / f".{MANIFEST_NAME}.tmp-{os.getpid()}"
            with open(staged, "w") as f:
                f.write(json.dumps(manifest, indent=2, sort_keys=True))
                f.flush()
                os.fsync(f.fileno())
            faults.hit("checkpoint.staged")
            os.replace(staged, root / MANIFEST_NAME)
            _fsync_dir_path(root)
            faults.hit("checkpoint.committed")
        except BaseException:
            # The store object may now disagree with the on-disk commit
            # point (e.g. manifest committed, WAL handles not switched).
            # Poison writes; the on-disk state itself is consistent and a
            # reopen recovers it.
            self._wal_broken = True
            for new_wal in new_wals:
                new_wal.close()
            for shard in self.shards:
                if shard.wal is not None:
                    shard.wal.close()
                    shard.wal = None
            raise
        # 4. Committed: switch the live logs, then retire the previous
        #    generation (close + unlink old WALs, unlink unreferenced
        #    segment payloads — including debris from crashed checkpoints).
        old_wals = [shard.wal for shard in self.shards]
        for shard, new_wal in zip(self.shards, new_wals):
            shard.wal = new_wal
        self._wal_gen = gen
        for old_wal in old_wals:
            if old_wal is not None:
                old_wal.close()
                old_wal.path.unlink(missing_ok=True)
        _reap_unreferenced_segments(root, manifest["shards"])
        for stale in wdir.glob(f"*{WAL_SUFFIX}"):
            if stale.name not in {wal_name(s.shard_id, gen) for s in self.shards}:
                stale.unlink()
        return root

    @classmethod
    def open(cls, path: str | Path) -> "FilterStore":
        """Restore a store from a :meth:`snapshot` directory.

        Opens in O(manifest): sealed levels are attached as lazy
        :class:`SegmentLevelRef` handles and memory-map on the first probe
        that reaches their shard, so cold-open cost and resident memory are
        independent of store size.  The manifest must pass
        :func:`read_manifest`, which raises :class:`SerializeError` on
        anything but a format-2 manifest of segment levels.

        A durable root (manifest carries a ``wal`` section) additionally
        **recovers**: each shard's log is scanned, a torn/corrupt tail is
        truncated at the last valid frame (never raising — those bytes were
        never acked), valid frames replay over the sealed baseline, and the
        logs re-attach for appending, so the returned store is the durable
        writer resuming exactly where the last acked batch left it.
        """
        root = Path(path)
        manifest = read_manifest(root)
        schema = AttributeSchema(manifest["schema"])
        params = CCFParams(**manifest["params"])
        config = StoreConfig.from_dict(manifest["config"])
        store = cls(schema, params, config)
        store.ops = OpCounters(manifest.get("ops"))
        for shard, record in zip(store.shards, manifest["shards"]):
            entries = record["levels"]
            shard.attach_pending_levels(
                [
                    SegmentLevelRef(root / entry["file"], config.level_buckets)
                    for entry in entries
                ],
                seqs=[entry.get("seq") for entry in entries],
            )
            _adopt_shard_counters(shard, record)
        if manifest.get("wal") is not None:
            store._recover_wal(root, manifest)
        return store

    def _recover_wal(self, root: Path, manifest: Mapping[str, Any]) -> None:
        """Replay and re-attach the per-shard logs of a durable root."""
        walsec = manifest["wal"]
        self._durability = DurabilityConfig.from_dict(walsec)
        self._root = root.resolve()
        self._wal_gen = gen = int(walsec["gen"])
        wdir = wal_dir(root)
        _reap_stale_wal_temps(wdir)
        # Reap crashed-checkpoint debris: logs of non-committed generations
        # and sealed payloads the committed manifest doesn't reference.
        expected = {wal_name(shard.shard_id, gen) for shard in self.shards}
        for stale in wdir.glob(f"*{WAL_SUFFIX}"):
            if stale.name not in expected:
                stale.unlink()
        _reap_unreferenced_segments(root, manifest["shards"])
        for stale in root.glob(f".{MANIFEST_NAME}.tmp-*"):
            if not _pid_alive(_path_pid(stale)):
                stale.unlink()
        for shard in self.shards:
            path = wdir / wal_name(shard.shard_id, gen)
            if not path.exists():
                raise SerializeError(
                    f"durable store is missing its log: manifest generation "
                    f"{gen} expects {path.name}",
                    source=str(path),
                )
            scan = scan_wal(path)
            if scan.shard_id != shard.shard_id or scan.gen != gen:
                raise SerializeError(
                    f"WAL header says shard {scan.shard_id} gen {scan.gen}, "
                    f"manifest expects shard {shard.shard_id} gen {gen}",
                    source=str(path),
                )
            if scan.frames:
                with obs.span(
                    "store.wal_replay", shard=shard.shard_id, frames=len(scan.frames)
                ):
                    _replay_frames(shard, scan.frames)
            record_replay(
                1 if scan.torn else 0,
                sum(frame.nrows for frame in scan.frames),
            )
            # Attach truncates the torn tail (the one destructive step) and
            # takes append ownership at the last acked frame.
            shard.wal = ShardWal.attach(scan, self._durability)

    def refresh(self, path: str | Path) -> dict[str, int]:
        """Adopt a newer snapshot of this store without a full reopen.

        The serve runtime's epoch signal (DESIGN.md §11): a reader holding a
        mapped store calls ``refresh(path)`` when the writer publishes a new
        snapshot.  Per shard, levels whose manifest ``seq`` matches one
        already attached are kept — their memory-mapped columns stay exactly
        as they are (unlinked old snapshot directories stay readable through
        the live mapping, so the writer may garbage-collect them) — and only
        rolled, compacted, or otherwise changed levels are (re-)attached.
        Shard counters adopt the published totals; this store's own served-op
        counters are untouched.

        The snapshot must come from the same store lineage: schema, params
        and config all have to match, or every shared-geometry kernel would
        silently mis-probe.  Returns ``{"levels_reused": ..,
        "levels_attached": ..}``.
        """
        if self._root is not None:
            raise RuntimeError(
                "refresh() is for read-only serving replicas; this store owns "
                "a WAL — its durable state advances through checkpoint(), not "
                "by adopting snapshots"
            )
        start = perf_counter()
        with obs.span("store.refresh", path=str(path)):
            result = self._refresh(path)
        _REFRESH_US.observe((perf_counter() - start) * 1e6)
        _REFRESH_LEVELS.labels(outcome="reused").inc(result["levels_reused"])
        _REFRESH_LEVELS.labels(outcome="attached").inc(result["levels_attached"])
        return result

    def _refresh(self, path: str | Path) -> dict[str, int]:
        root = Path(path)
        manifest = read_manifest(root)
        if list(manifest["schema"]) != list(self.schema.names):
            raise ValueError("cannot refresh from a snapshot with a different schema")
        if CCFParams(**manifest["params"]) != self.params:
            raise ValueError("cannot refresh from a snapshot with different params")
        if StoreConfig.from_dict(manifest["config"]) != self.config:
            raise ValueError("cannot refresh from a snapshot with a different config")
        reused = attached = 0
        for shard, record in zip(self.shards, manifest["shards"]):
            entries = record["levels"]
            seqs = [entry.get("seq") for entry in entries]
            refs = [
                SegmentLevelRef(root / entry["file"], self.config.level_buckets)
                for entry in entries
            ]
            with self._write_guard(shard.shard_id):
                shard_reused, shard_attached = shard.refresh_from(seqs, refs)
            reused += shard_reused
            attached += shard_attached
            _adopt_shard_counters(shard, record)
        return {"levels_reused": reused, "levels_attached": attached}


def read_manifest(root: str | Path) -> dict:
    """Load and validate the manifest of a snapshot or durable root.

    The one reader of the manifest format: :meth:`FilterStore.open`,
    :meth:`FilterStore.refresh` and ``python -m repro.store inspect`` all go
    through it.  It accepts only format 2 of a ``"plain"`` store (levels
    are plain CCFs, the one variant whose entries compaction can delete and
    relocate; DESIGN.md §8) with one shard record per configured shard and
    every level entry a ``"segment"``; anything else raises
    :class:`SerializeError` naming the manifest file.  A shard-record
    count below ``num_shards`` must never open: the missing shards would
    answer False for every row they own.
    """
    path = Path(root) / MANIFEST_NAME
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise SerializeError(
            f"manifest is not valid JSON: {exc}", source=str(path)
        ) from exc
    version = manifest.get("format") if isinstance(manifest, dict) else None
    if version != MANIFEST_FORMAT:
        raise SerializeError(
            f"unsupported FilterStore manifest format {version!r} "
            f"(this build reads format {MANIFEST_FORMAT})",
            source=str(path),
        )
    if manifest.get("kind") != "plain":
        raise SerializeError(
            f"manifest kind {manifest.get('kind')!r} is not a plain store",
            source=str(path),
        )
    shards = manifest["shards"]
    num_shards = manifest["config"]["num_shards"]
    if len(shards) != num_shards:
        raise SerializeError(
            f"manifest lists {len(shards)} shard records, config says "
            f"num_shards={num_shards}",
            source=str(path),
        )
    for shard_id, record in enumerate(shards):
        for entry in record["levels"]:
            if not isinstance(entry, dict) or entry.get("format") != "segment":
                raise SerializeError(
                    f"shard {shard_id} level entry {entry!r} is not a SEG1 segment",
                    source=str(path),
                )
    return manifest


def _adopt_shard_counters(shard: FilterShard, record: Mapping[str, Any]) -> None:
    """Set a shard's counters from its manifest record (open and refresh)."""
    for key, attr in _SHARD_COUNTERS.items():
        setattr(shard, attr, record[key])


def _params_to_dict(params: CCFParams) -> dict:
    """CCFParams as a JSON-safe dict (field names match the constructor)."""
    from dataclasses import asdict

    return asdict(params)


def _fsync_dir_path(path: Path) -> None:
    """Force a directory's entry table (renames, unlinks) to stable storage."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _path_pid(path: Path) -> int:
    """The pid suffix of a ``.…tmp-<pid>`` staging name (0 if malformed)."""
    _, _, tail = path.name.rpartition("-")
    return int(tail) if tail.isdigit() else 0


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process (signal-0 probe)."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


def _reap_stale_wal_temps(wdir: Path) -> int:
    """Remove WAL-roll staging files left by dead processes.

    A crash between `ShardWal.create`'s staged write and its rename leaves
    ``.shard-….wal.tmp-<pid>`` debris; files whose pid is still alive are
    left alone (a concurrent roll mid-flight).  Returns the reap count.
    """
    reaped = 0
    if not wdir.is_dir():
        return reaped
    for stale in wdir.glob(".*.tmp-*"):
        if not _pid_alive(_path_pid(stale)):
            stale.unlink(missing_ok=True)
            reaped += 1
    return reaped


def _reap_unreferenced_segments(root: Path, shard_records: Sequence[Mapping]) -> None:
    """Unlink segment files under ``root`` that no committed level entry names
    (superseded generations and debris from crashed checkpoints)."""
    referenced = {
        entry["file"] for record in shard_records for entry in record["levels"]
    }
    for stale in root.glob(f"*{SEGMENT_SUFFIX}"):
        if stale.is_file() and stale.name not in referenced:
            stale.unlink()


def _replay_frames(shard: FilterShard, frames: Sequence) -> None:
    """Re-apply a scanned frame chain to a shard (recovery redo).

    The shard's ``wal`` must be detached (frames must not re-log), and its
    counters must already hold the checkpoint-time values — replay advances
    them exactly as the original applications did.  Every shard mutation is
    deterministic given the frame arrays (partner buckets re-derive from
    the shared geometry; automatic ``compact_at`` merges re-trigger at the
    same fill points), so the replayed stack is bit-identical to the state
    the acked batches had built.
    """
    assert shard.wal is None, "replay would re-log frames"
    for frame in frames:
        fps = np.asarray(frame.fps, dtype=np.int64)
        homes = np.asarray(frame.homes, dtype=np.int64)
        if frame.op == OP_INSERT:
            shard.insert_hashed_rows(
                fps, homes, [tuple(row) for row in frame.avecs.tolist()]
            )
        elif frame.op == OP_DELETE:
            shard.delete_hashed_rows(
                fps, homes, [tuple(row) for row in frame.avecs.tolist()]
            )
        elif frame.op == OP_COMPACT:
            shard.compact()
        else:  # pragma: no cover - scan_wal rejects unknown ops
            raise SerializeError(f"unknown WAL op {frame.op}")
