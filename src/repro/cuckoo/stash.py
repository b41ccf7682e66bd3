"""The overflow stash of every cuckoo structure (DESIGN.md §1).

A placement that exhausts ``max_kicks`` keeps its in-flight entry here
instead of dropping it, as an **off-table slot of its own bucket pair**:
probes, copy counts, dedup and deletes compare ``(fingerprint, pair)``
exactly as a slot probe of that pair does.
"""

from __future__ import annotations

from typing import Any, Iterator, Sequence

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


class Stash:
    """Parallel columns in stash order: ``fps``, ``pairs`` (the pair id
    ``min(bucket, partner)``) and ``items``, one companion object per entry
    (a CCF's entry, a marked view's mark, or None)."""

    __slots__ = ("fps", "pairs", "items")

    def __init__(self) -> None:
        self.fps = self.pairs = _EMPTY
        self.items: list[Any] = []

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator[tuple[int, int, Any]]:
        return zip(self.fps.tolist(), self.pairs.tolist(), self.items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Stash) and list(self) == list(other)

    def append(self, fp: int, pair: int, item: Any = None) -> None:
        self.extend([fp], [pair], [item])

    def extend(self, fps: Sequence[int], pairs: Sequence[int], items: Sequence | None = None) -> None:
        self.fps = np.concatenate((self.fps, np.asarray(fps, dtype=np.int64)))
        self.pairs = np.concatenate((self.pairs, np.asarray(pairs, dtype=np.int64)))
        self.items.extend([None] * len(fps) if items is None else items)

    def pop(self, position: int) -> Any:
        self.fps = np.delete(self.fps, position)
        self.pairs = np.delete(self.pairs, position)
        return self.items.pop(position)

    def find(self, fp: int, left: int, right: int) -> list[int]:
        """Positions of the entries holding ``fp`` in pair ``(left, right)``."""
        if not self.items:
            return []
        return np.flatnonzero((self.fps == fp) & (self.pairs == min(left, right))).tolist()

    def match(self, fps: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> tuple:
        """Batch `find`: every (probe row, stash position) agreeing on the
        fingerprint and the pair, a probe's positions in stash order.  The
        stash is sorted by pair once: O((n + s) log s), never O(n * s)."""
        if not self.items:
            return _EMPTY, _EMPTY
        order = np.argsort(self.pairs, kind="stable")
        sorted_pairs = self.pairs[order]
        pairs = np.minimum(lefts, rights)
        lo = np.searchsorted(sorted_pairs, pairs, "left")
        width = np.searchsorted(sorted_pairs, pairs, "right") - lo
        rows = np.repeat(np.arange(len(pairs)), width)
        at = order[np.repeat(lo - (np.cumsum(width) - width), width) + np.arange(len(rows))]
        same = self.fps[at] == fps[rows]
        return rows[same], at[same]
