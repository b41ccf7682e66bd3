"""The overflow stash of every cuckoo structure (DESIGN.md §1).

A placement that exhausts ``max_kicks`` keeps its in-flight entry here
instead of dropping it, as an **off-table slot of its own bucket pair**:
probes, copy counts, dedup and deletes compare ``(fingerprint, pair)``
exactly as a slot probe of that pair does.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Iterator, Sequence

import numpy as np

_EMPTY = np.empty(0, dtype=np.int64)


class Stash:
    """Parallel columns in stash order: ``fps``, ``pairs`` (the pair id
    ``min(bucket, partner)``) and the typed companion columns its owner
    names, one row per entry: a CCF's ``avecs``, ``flags`` and sketch
    ``rows``, a marked view's ``marks``, none for a fingerprint filter.

    Each companion is built from its *fill*, the value an entry stashed
    without one takes; the fill's dtype and shape are the column's.
    """

    def __init__(self, **fills: Any) -> None:
        self.fps = self.pairs = _EMPTY
        self._fills = {name: np.asarray(fill) for name, fill in fills.items()}
        for name, fill in self._fills.items():
            setattr(self, name, np.empty((0, *fill.shape), dtype=fill.dtype))

    def __len__(self) -> int:
        return len(self.fps)

    def __iter__(self) -> Iterator[tuple[int, int, tuple]]:
        """``(fp, pair, companions)`` per entry, the companions as a tuple
        of plain values in declaration order."""
        columns = [getattr(self, name).tolist() for name in self._fills]
        companions = zip(*columns) if columns else repeat((), len(self))
        return zip(self.fps.tolist(), self.pairs.tolist(), companions)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Stash) and list(self) == list(other)

    def append(self, fp: int, pair: int, **companions: Any) -> None:
        self.extend([fp], [pair], **{name: [value] for name, value in companions.items()})

    def extend(self, fps: Sequence[int], pairs: Sequence[int], **companions: Any) -> None:
        """Stash entries in order; a companion column not given takes its
        fill."""
        unknown = set(companions) - set(self._fills)
        if unknown:
            raise TypeError(f"this stash has no column {sorted(unknown)}")
        count = len(fps)
        self.fps = np.concatenate((self.fps, np.asarray(fps, dtype=np.int64)))
        self.pairs = np.concatenate((self.pairs, np.asarray(pairs, dtype=np.int64)))
        for name, fill in self._fills.items():
            values = companions.get(name)
            shape = (count, *fill.shape)
            if values is None:
                values = np.broadcast_to(fill, shape)
            else:
                values = np.asarray(values, dtype=fill.dtype).reshape(shape)
            setattr(self, name, np.concatenate((getattr(self, name), values)))

    def pop(self, position: int) -> None:
        self.fps = np.delete(self.fps, position)
        self.pairs = np.delete(self.pairs, position)
        for name in self._fills:
            setattr(self, name, np.delete(getattr(self, name), position, axis=0))

    def find(self, fp: int, left: int, right: int) -> list[int]:
        """Positions of the entries holding ``fp`` in pair ``(left, right)``."""
        if not len(self.fps):
            return []
        return np.flatnonzero((self.fps == fp) & (self.pairs == min(left, right))).tolist()

    def match(self, fps: np.ndarray, lefts: np.ndarray, rights: np.ndarray) -> tuple:
        """Batch `find`: every (probe row, stash position) agreeing on the
        fingerprint and the pair, a probe's positions in stash order.  The
        stash is sorted by pair once: O((n + s) log s), never O(n * s)."""
        if not len(self.fps):
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
