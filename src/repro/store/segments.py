"""Segment-backed FilterStore levels: lazy, memory-mapped level handles.

A snapshotted store is a directory of per-level payloads plus a manifest.
With SEG1 segments (`repro.ccf.mmapio`) a level no longer needs loading at
all: :class:`SegmentLevelRef` holds the path and maps the level's columns on
first use, so ``FilterStore.open`` is O(manifest) however large the store is
and the OS pages slot data in as probes touch it — the out-of-core serving
path (DESIGN.md §10).

The ref also owns the level-shape validation that ``FilterStore.open`` used
to do eagerly: a mapped level must be a plain CCF on the store's shared
geometry, or every cross-level kernel (hash-once fan-out, delete routing,
compaction) would silently mis-probe.

Checkpoint segments checksum each column with the same CRC-32
(``zlib.crc32``) as the WAL's frames; snapshot segments carry none.
"""

from __future__ import annotations

from pathlib import Path

from repro.ccf.mmapio import (
    open_segment,
    read_segment_meta,
    segment_nbytes,
    warm_column,
    write_segment,
)
from repro.ccf.plain import PlainCCF
from repro.ccf.serialize import SerializeError

__all__ = [
    "SEGMENT_SUFFIX",
    "SegmentLevelRef",
    "read_segment_meta",
    "segment_nbytes",
    "warm_level",
    "write_segment",
]

#: File suffix of SEG1 level payloads inside a snapshot directory.
SEGMENT_SUFFIX = ".seg"


class SegmentLevelRef:
    """A sealed level living in a SEG1 file, opened (mapped) on first use.

    ``open()`` maps the segment's columns read-only and validates that the
    level fits the owning store (plain kind, manifest bucket count).  Refs
    are single-shot by design: the shard materialises every ref of its stack
    the first time any probe needs the levels, then drops them.

    Mapping uses `repro.ccf.mmapio.open_segment`'s default checksum policy:
    exactly the columns that carry a CRC-32 are validated — checkpoint-sealed
    baselines verify as they map, classic snapshots keep their O(metadata)
    open.
    """

    __slots__ = ("path", "expected_buckets")

    def __init__(self, path: str | Path, expected_buckets: int) -> None:
        self.path = Path(path)
        self.expected_buckets = expected_buckets

    def open(self) -> PlainCCF:
        """Map the segment and validate it against the store geometry."""
        level = open_segment(self.path)
        if not isinstance(level, PlainCCF):
            raise SerializeError(
                f"level segment holds a {level.kind!r} CCF; store levels "
                "must be plain (see DESIGN.md §8)",
                source=str(self.path),
            )
        if level.buckets.num_buckets != self.expected_buckets:
            raise SerializeError(
                f"level segment has {level.buckets.num_buckets} buckets, "
                f"the store manifest says {self.expected_buckets}",
                source=str(self.path),
            )
        return level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SegmentLevelRef({str(self.path)!r})"


def warm_level(level: PlainCCF) -> int:
    """Prefault a mapped level's typed columns; returns bytes warmed.

    A serving pool warms the baseline snapshot once in the parent so every
    worker — forked process or thread — attaches segments whose pages are
    already in the shared page cache (no per-worker read amplification).
    Heap-resident (promoted) levels contribute 0.
    """
    return (
        warm_column(level.buckets.fps)
        + warm_column(level.buckets.counts)
        + warm_column(level._avecs)
        + warm_column(level._flags)
    )
