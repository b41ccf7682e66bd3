"""One shard of the FilterStore: an LSM-style stack of plain-CCF levels.

A shard owns a disjoint slice of the key space.  Writes go to the **active
level** (the newest); when its occupancy crosses the configured target load
— or a placement failure latches ``failed`` — the level is sealed and a
fresh one is started, so a shard's capacity is unbounded while every level
stays inside the load regime where cuckoo placement succeeds.  Reads fan
across the stack newest-first and OR the per-level answers; deletes are
*routed to the owning level*: the newest level holding the exact row loses
it, other levels are untouched.

Every level shares one :class:`~repro.ccf.chain.PairGeometry` (same bucket
count, same seeds), so the store hashes a batch **once** and feeds the same
fingerprint/home arrays to every level's kernels — the per-level cost of a
query is one fancy-indexed probe, not a rehash.

Levels are plain CCFs deliberately: plain placement is the one policy whose
entries can be deleted and relocated safely (no chains to break, no Bloom
payloads to unlearn).  The paper's verdict that the plain variant "cannot
hold duplicate skew at a reasonable size" (§4.3) holds per level: a pair
that overflows stashes its extra rows — each an off-table slot of its own
pair, which dedup, deletes and probes read like any slot (DESIGN.md §1) —
rather than spilling into the next level, since a failed level rolls only
at the next chunk boundary.  Compaction re-packs rows into taller buckets
and puts stashed rows back where their pairs have room: on the JOB-light
store bundle of DESIGN.md §8, 10.9% of stored entries stay stashed, down
from 25.2% when compaction carried stashes over verbatim.
"""

from __future__ import annotations

import itertools
import uuid
from time import perf_counter
from typing import Sequence

import numpy as np

from repro import obs
from repro.ccf.attributes import AttributeSchema
from repro.ccf.base import CompiledQuery
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF
from repro.store.compaction import merge_levels
from repro.store.config import StoreConfig
from repro.store.segments import SegmentLevelRef
from repro.store.wal import OP_COMPACT, OP_DELETE, OP_INSERT, ShardWal

# Store-layer structural metrics (all batch- or event-granularity).  Probe
# outcomes are labelled by level depth-from-newest: depth 0 is the active
# level, so a drifting hit depth means reads are paying for old levels —
# the signal that compaction is overdue.
_LEVEL_ROLLS = obs.counter(
    "repro_store_level_rolls_total",
    "Active levels sealed because they reached target load (or failed).",
    ("shard",),
)
_COMPACTIONS = obs.counter(
    "repro_store_compactions_total", "Level-stack compactions run.", ("shard",)
)
_COMPACTION_ENTRIES = obs.counter(
    "repro_store_compaction_entries_total", "Entries merged by compactions."
)
_COMPACTION_BYTES = obs.counter(
    "repro_store_compaction_bytes_total",
    "Slot-column bytes read by compactions (stack size before the merge).",
)
_COMPACTION_US = obs.histogram(
    "repro_store_compaction_us", "Compaction duration in microseconds."
)
_PROBE_HITS = obs.counter(
    "repro_probe_hits_total",
    "Keys answered True, by level depth-from-newest that answered.",
    ("level",),
)
_PROBE_MISSES = obs.counter(
    "repro_probe_misses_total",
    "Keys no level of the probed shard answered True.",
)

#: Pre-bound per-depth children of ``_PROBE_HITS``: the query loop bumps
#: one per (shard, level) every batch, and the labels() dict round-trip
#: costs more than the inc itself.  Children survive registry clears, so
#: the cache never goes stale.
_PROBE_HIT_LEVELS: list = []


def _probe_hits_child(depth: int):
    while len(_PROBE_HIT_LEVELS) <= depth:
        _PROBE_HIT_LEVELS.append(
            _PROBE_HITS.labels(level=str(len(_PROBE_HIT_LEVELS)))
        )
    return _PROBE_HIT_LEVELS[depth]

#: Process-unique prefix + global counter for level sequence tokens.  A seq
#: names one immutable *content version* of a level: any mutation (insert,
#: delete, compaction, roll) assigns a fresh token, so two levels carrying the
#: same seq — even across processes, via snapshot manifests — are guaranteed
#: bit-identical.  `FilterStore.refresh` relies on this to keep already-mapped
#: levels attached instead of re-opening them (DESIGN.md §11).
_SEQ_PREFIX = uuid.uuid4().hex[:12]
_SEQ_COUNTER = itertools.count()


def alloc_level_seq() -> str:
    """A fresh level-content token, unique across processes and restarts."""
    return f"{_SEQ_PREFIX}-{next(_SEQ_COUNTER)}"


class FilterShard:
    """An unbounded level stack over one hash partition of the key space."""

    def __init__(
        self,
        shard_id: int,
        schema: AttributeSchema,
        params: CCFParams,
        config: StoreConfig,
    ) -> None:
        self.shard_id = shard_id
        self.schema = schema
        self.params = params
        self.config = config
        self._levels: list[PlainCCF] = [self._new_level()]
        self._pending_segments: list[SegmentLevelRef] = []
        #: Content tokens parallel to the level stack (see `alloc_level_seq`).
        self.level_seqs: list[str | None] = [alloc_level_seq()]
        #: Bumped on every structural change to the stack (roll, compaction,
        #: wholesale replacement, refresh) — the cheap staleness signal a
        #: serving worker polls instead of diffing level lists.
        self.generation = 0
        self.rows_inserted = 0
        self.rows_deleted = 0
        self.num_compactions = 0
        self.entries_compacted = 0
        #: Write-ahead log handle, attached by a durable FilterStore.  When
        #: set, every mutation batch appends one frame *before* it applies
        #: (redo logging): a crash mid-apply replays the whole frame over
        #: the checkpoint baseline, which re-derives the identical state.
        #: Detached (None) during recovery replay so replays don't re-log.
        self.wal: ShardWal | None = None

    def _new_level(self) -> PlainCCF:
        return PlainCCF(self.schema, self.config.level_buckets, self.params)

    # ------------------------------------------------------------------
    # Level stack (with lazy segment materialisation)
    # ------------------------------------------------------------------

    @property
    def levels(self) -> list[PlainCCF]:
        """The level stack; pending segment refs map on first access.

        A segment-backed ``FilterStore.open`` hands each shard its sealed
        levels as :class:`SegmentLevelRef` paths instead of loaded filters;
        the first probe (or any other level access) materialises them all as
        memmapped plain CCFs.  Mapping is O(metadata) per level — no slot
        data is read until a kernel gathers it.
        """
        if self._pending_segments:
            # Open every ref before committing: a failed open (corrupt or
            # missing segment) must leave the refs pending so the error
            # repeats on retry instead of silently emptying the stack.
            opened = [ref.open() for ref in self._pending_segments]
            self._levels = opened
            self._pending_segments = []
        return self._levels

    @levels.setter
    def levels(self, value: list[PlainCCF]) -> None:
        self._levels = list(value)
        self._pending_segments = []
        self.level_seqs = [alloc_level_seq() for _ in self._levels]
        self.generation += 1

    def attach_pending_levels(
        self,
        refs: list[SegmentLevelRef],
        seqs: Sequence[str | None],
    ) -> None:
        """Adopt a snapshot's level stack lazily (replacing the current one).

        ``seqs`` carries the manifest's per-level content tokens so a later
        :meth:`refresh_from` can recognise unchanged levels; a ``None`` seq
        (a manifest entry without one) is always treated as new content.
        """
        if not refs:
            raise ValueError("a shard needs at least one level")
        if len(seqs) != len(refs):
            raise ValueError("level seqs must parallel the refs")
        self._levels = []
        self._pending_segments = list(refs)
        self.level_seqs = list(seqs)
        self.generation += 1

    def refresh_from(
        self,
        seqs: Sequence[str | None],
        refs: Sequence[SegmentLevelRef],
    ) -> tuple[int, int]:
        """Adopt a newer snapshot's stack, reusing unchanged attached levels.

        ``seqs``/``refs`` describe the published stack newest-last.  Levels
        whose seq matches one already attached here are kept as-is (their
        mapped columns stay mapped — no reopen, no page-cache churn); new
        seqs are materialised from their ref.  Any local, unpublished
        mutation bumped the local seq, so it can never shadow published
        content.  Returns ``(reused, attached)``.
        """
        if not refs:
            raise ValueError("a shard needs at least one level")
        if len(seqs) != len(refs):
            raise ValueError("level seqs must parallel the refs")
        if self._pending_segments:
            # Nothing is materialised yet — stay lazy, adopt wholesale.
            self.attach_pending_levels(list(refs), seqs)
            return 0, len(refs)
        attached = {
            seq: level
            for seq, level in zip(self.level_seqs, self._levels)
            if seq is not None
        }
        new_levels: list[PlainCCF] = []
        reused = 0
        for seq, ref in zip(seqs, refs):
            current = attached.get(seq)
            if current is not None:
                new_levels.append(current)
                reused += 1
            else:
                new_levels.append(ref.open())
        self._levels = new_levels
        self._pending_segments = []
        self.level_seqs = list(seqs)
        self.generation += 1
        return reused, len(refs) - reused

    @property
    def num_levels(self) -> int:
        """Stack depth — counts pending segments without materialising them."""
        if self._pending_segments:
            return len(self._pending_segments)
        return len(self._levels)

    @property
    def num_pending_segments(self) -> int:
        """Sealed levels still waiting on disk (not yet mapped)."""
        return len(self._pending_segments)

    @property
    def active(self) -> PlainCCF:
        """The level currently taking writes (always the newest)."""
        return self.levels[-1]

    def _roll_level(self) -> None:
        """Seal the active level and start a fresh one (a structural change)."""
        self._levels.append(self._new_level())
        self.level_seqs.append(alloc_level_seq())
        self.generation += 1
        _LEVEL_ROLLS.labels(shard=str(self.shard_id)).inc()

    def _touch_level(self, index: int) -> None:
        """Record that the level at ``index`` changed content (fresh seq)."""
        self.level_seqs[index] = alloc_level_seq()

    def _target_slots(self, level: PlainCCF) -> int:
        # At least one slot, or a degenerate target_load could roll forever.
        return max(1, int(self.config.target_load * level.buckets.capacity))

    # ------------------------------------------------------------------
    # Mutations
    # ------------------------------------------------------------------

    def _alts_for(self, fps: np.ndarray, homes: np.ndarray, alts: np.ndarray | None) -> np.ndarray:
        """Partner buckets: accept the store's hash-once array or derive."""
        if alts is None:
            alts = self.active.geometry.alt_indices_many(homes, fps)
        return alts

    def _avec_matrix(self, avecs: Sequence[tuple[int, ...]], n: int) -> np.ndarray:
        """The batch's attribute-fingerprint vectors as an (n, nattrs) int64
        matrix — the WAL frame's third column group."""
        return np.asarray(avecs, dtype=np.int64).reshape(n, self.schema.num_attributes)

    def log_compact(self) -> None:
        """Append an explicit-compaction frame (callers compact right after).

        Only *explicit* compactions log: automatic ``compact_at`` merges
        re-derive deterministically while the triggering insert frame
        replays, and logging those too would compact twice on recovery.
        """
        if self.wal is not None:
            empty = np.empty(0, dtype=np.int64)
            self.wal.append(OP_COMPACT, empty, empty, empty.reshape(0, self.schema.num_attributes))

    def insert_hashed_rows(
        self,
        fps: np.ndarray,
        homes: np.ndarray,
        avecs: Sequence[tuple[int, ...]],
        alts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Insert pre-hashed rows, rolling new levels as the active saturates.

        Each chunk is sized to the active level's remaining room under the
        target load (a row adds at most one entry), so a single batch can
        seamlessly span a level roll — the unbounded-growth contract.

        Rows an older (sealed) level already stores are **not** inserted
        again (read-before-write dedup, screened with one vectorised
        fingerprint probe per sealed level): the stack keeps the monolith
        CCF's one-entry-per-row semantics, so a later delete of the row
        removes it from the store entirely, not copy-by-copy.
        """
        n = len(fps)
        if self.wal is not None and n:
            self.wal.append(OP_INSERT, fps, homes, self._avec_matrix(avecs, n))
        out = np.ones(n, dtype=bool)
        alts = self._alts_for(fps, homes, alts)
        start = 0
        while start < n:
            level = self.active
            room = self._target_slots(level) - level.num_entries
            if room <= 0 or level.failed:
                self._roll_level()
                continue
            stop = min(n, start + room)
            index = np.arange(start, stop)
            if len(self.levels) > 1:
                duplicate = self._rows_present_in(
                    self.levels[:-1], fps[index], homes[index], avecs, index, alts[index]
                )
                index = index[~duplicate]
            if index.size:
                out[index] = level._insert_hashed_rows(
                    fps[index], homes[index], [avecs[i] for i in index.tolist()]
                )
                self._touch_level(-1)
            start = stop
        self.rows_inserted += n
        if self.config.compact_at is not None and len(self.levels) >= self.config.compact_at:
            self.compact()
        return out

    def _rows_present_in(
        self,
        levels: list[PlainCCF],
        fps: np.ndarray,
        homes: np.ndarray,
        avecs: Sequence[tuple[int, ...]],
        index: np.ndarray,
        alts: np.ndarray,
    ) -> np.ndarray:
        """Which rows (fps/homes sliced by ``index``) some level already holds.

        A fused key-fingerprint probe (shared precomputed partner buckets,
        no per-level re-hash) screens each level; only candidates pay the
        exact (fingerprint, vector) pair scan.
        """
        duplicate = np.zeros(len(fps), dtype=bool)
        for level in levels:
            pending = np.nonzero(~duplicate)[0]
            if pending.size == 0:
                break
            candidate = level._single_pair_query_many(
                fps[pending], homes[pending], None, alts[pending]
            )
            for local in np.nonzero(candidate)[0].tolist():
                i = int(pending[local])
                if level._row_present(int(fps[i]), int(homes[i]), avecs[int(index[i])]):
                    duplicate[i] = True
        return duplicate

    def delete_hashed_rows(
        self,
        fps: np.ndarray,
        homes: np.ndarray,
        avecs: Sequence[tuple[int, ...]],
        alts: np.ndarray | None = None,
    ) -> np.ndarray:
        """Route each delete to its owning level (newest level wins).

        Levels are screened newest-first with one fused key-fingerprint
        probe (shared precomputed partner buckets); only candidate rows run
        the exact (fingerprint, vector) slot removal.  A row deleted in one
        level is not searched for in older ones, so re-inserted rows shadow
        their older copies correctly.
        """
        n = len(fps)
        if self.wal is not None and n:
            self.wal.append(OP_DELETE, fps, homes, self._avec_matrix(avecs, n))
        out = np.zeros(n, dtype=bool)
        alts = self._alts_for(fps, homes, alts)
        pending = np.arange(n)
        for level_index in range(len(self.levels) - 1, -1, -1):
            if pending.size == 0:
                break
            level = self.levels[level_index]
            present = level._single_pair_query_many(
                fps[pending], homes[pending], None, alts[pending]
            )
            touched = False
            for local in np.nonzero(present)[0].tolist():
                i = int(pending[local])
                if level._delete_hashed(int(fps[i]), int(homes[i]), avecs[i]):
                    out[i] = True
                    touched = True
            if touched:
                self._touch_level(level_index)
            pending = pending[~out[pending]]
        self.rows_deleted += int(out.sum())
        return out

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query_hashed_many(
        self,
        fps: np.ndarray,
        homes: np.ndarray,
        compiled: CompiledQuery | None,
        alts: np.ndarray | None = None,
    ) -> np.ndarray:
        """OR of the level answers, probing newest-first.

        Every level shares one geometry, so the partner buckets are hashed
        once (by the store) and each level runs only its fused gather —
        no per-level re-hash.  Keys already answered True drop out of the
        remaining levels' probes, so a hit in a young level costs nothing
        in the old ones.
        """
        out = np.zeros(len(fps), dtype=bool)
        alts = self._alts_for(fps, homes, alts)
        pending = np.arange(len(fps))
        record = obs.state.enabled
        for depth, level in enumerate(reversed(self.levels)):
            if pending.size == 0:
                break
            answers = level._query_hashed_many(
                fps[pending], homes[pending], compiled, alts[pending]
            )
            hit_idx = pending[answers]
            out[hit_idx] = True
            pending = pending[~answers]
            # hit_idx is needed for the scatter anyway, so the hit count is a
            # free .size read — no extra count_nonzero on the probe path.
            if record and hit_idx.size:
                _probe_hits_child(depth).inc(hit_idx.size)
        if record and pending.size:
            _PROBE_MISSES.inc(int(pending.size))
        return out

    # ------------------------------------------------------------------
    # Compaction and introspection
    # ------------------------------------------------------------------

    def compact(self) -> PlainCCF:
        """Merge the level stack into one right-sized filter (see compaction.py)."""
        if len(self.levels) == 1 and not self.levels[0].num_entries:
            return self.levels[0]
        entries = sum(level.num_entries for level in self.levels)
        self.entries_compacted += entries
        record = obs.state.enabled
        if record:
            mapped, resident = self.storage_nbytes()
            start = perf_counter()
        with obs.span("shard.compact", shard=self.shard_id, entries=entries):
            merged = merge_levels(
                self.schema, self.params, self.levels, self.config.target_load
            )
        if record:
            _COMPACTIONS.labels(shard=str(self.shard_id)).inc()
            _COMPACTION_ENTRIES.inc(entries)
            _COMPACTION_BYTES.inc(mapped + resident)
            _COMPACTION_US.observe((perf_counter() - start) * 1e6)
        self.num_compactions += 1
        self.levels = [merged]
        return merged

    @property
    def num_entries(self) -> int:
        """Occupied table slots across the stack (stash excluded, like CCFs)."""
        return sum(level.num_entries for level in self.levels)

    @property
    def num_stashed(self) -> int:
        """Stashed overflow entries across the stack."""
        return sum(len(level.stash) for level in self.levels)

    @property
    def capacity(self) -> int:
        """Total slots across the stack."""
        return sum(level.buckets.capacity for level in self.levels)

    def load_factor(self) -> float:
        """Occupied fraction of the whole stack (stash excluded, in [0, 1])."""
        capacity = self.capacity
        return self.num_entries / capacity if capacity else 0.0

    def size_in_bits(self) -> int:
        """Summed sketch size of the stack."""
        return sum(level.size_in_bits() for level in self.levels)

    def storage_nbytes(self) -> tuple[int, int]:
        """(mapped, resident) bytes of the stack's typed slot columns.

        Mapped bytes live in segment files (paged in on demand); resident
        bytes are private heap arrays.  Accessing this materialises pending
        segments — mapping is O(metadata), the columns stay on disk.
        """
        mapped = resident = 0
        for level in self.levels:
            level_mapped, level_resident = level.storage_nbytes()
            mapped += level_mapped
            resident += level_resident
        return mapped, resident

    def stats(self) -> dict:
        """Occupancy, level shape and compaction-work counters."""
        mapped_bytes, resident_bytes = self.storage_nbytes()
        return {
            "shard": self.shard_id,
            "levels": len(self.levels),
            "entries": self.num_entries,
            "stashed": self.num_stashed,
            "capacity": self.capacity,
            "fingerprint_dtype": self.active.buckets.fps.dtype.name,
            "bytes_per_slot": self.active.buckets.bytes_per_slot,
            "load_factor": round(self.load_factor(), 4),
            "level_loads": [round(level.load_factor(), 4) for level in self.levels],
            "level_bucket_sizes": [level.buckets.bucket_size for level in self.levels],
            "mapped_bytes": mapped_bytes,
            "resident_bytes": resident_bytes,
            "rows_inserted": self.rows_inserted,
            "rows_deleted": self.rows_deleted,
            "compactions": self.num_compactions,
            "entries_compacted": self.entries_compacted,
            "wal": None if self.wal is None else self.wal.stats(),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FilterShard(id={self.shard_id}, levels={len(self.levels)}, "
            f"entries={self.num_entries}, load={self.load_factor():.3f})"
        )
