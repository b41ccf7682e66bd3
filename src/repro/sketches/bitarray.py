"""Compact fixed-size bit arrays, and the bit rows of a CCF's sketches.

This is the storage primitive under every Bloom filter in the repository.
:class:`BitArray` deliberately exposes only what the sketches need: bit
get/set/clear, a bulk set, popcount, bitwise union/intersection with an
equally-sized array, and byte-level (de)serialisation.

:class:`BitRows` is a growable buffer of equal-width rows: the Bloom and
Mixed CCFs keep the sketches of all their payload slots as its rows, with
each sketch's matching flag and insert count in parallel columns, so a
batch probe gathers the matched sketches' bits with one numpy index
(`BitRows.words`) instead of joining them object by object (DESIGN.md §6).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


class BitRows:
    """Equal-width rows of ``num_bits`` bits, ``stride`` bytes apart, in one
    ``bytearray`` that grows by doubling, with two parallel columns: one
    flag per row in ``flags`` (True until cleared; a CCF keeps each payload
    sketch's matching flag there) and one count per row in ``counts`` (the
    values the sketch took).

    Rows are only ever appended, and a row keeps its index: a full buffer is
    copied into one twice as large.  Bits past ``num_bits`` in a row stay
    zero.
    """

    __slots__ = ("num_bits", "stride", "buf", "flags", "counts", "size", "_words")

    def __init__(self, num_bits: int, stride: int | None = None) -> None:
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        nbytes = (num_bits + 7) // 8
        if stride is None:
            stride = nbytes
        if stride < nbytes:
            raise ValueError(f"a {stride}-byte stride cannot hold {num_bits} bits")
        self.num_bits = num_bits
        self.stride = stride
        self.buf = bytearray()
        self.flags = np.ones(1, dtype=bool)
        self.counts = np.zeros(1, dtype=np.int64)
        self.size = 0
        self._words: np.ndarray | None = None

    def append(self) -> int:
        """Add one row of zero bits, flag True and count 0; returns its
        index."""
        end = (self.size + 1) * self.stride
        if end > len(self.buf):
            grown = bytearray(max(end, 2 * len(self.buf)))
            grown[: len(self.buf)] = self.buf
            self.buf = grown
            self._words = None
        if self.size == len(self.flags):
            self.flags = np.concatenate((self.flags, np.ones(self.size, dtype=bool)))
            self.counts = np.concatenate((self.counts, np.zeros(self.size, dtype=np.int64)))
        self.size += 1
        return self.size - 1

    def row_bytes(self, row: int) -> bytes:
        """The ``ceil(num_bits / 8)`` bytes of ``row`` (little-endian bit
        order within bytes, as `BitArray.to_bytes`)."""
        at = row * self.stride
        return bytes(self.buf[at : at + (self.num_bits + 7) // 8])

    def words(self) -> np.ndarray:
        """The rows as a live ``(rows, stride // 8)`` little-endian uint64
        matrix (``stride`` must be a multiple of 8), including the buffer's
        spare rows; gather the rows wanted by index."""
        if self._words is None:
            self._words = np.frombuffer(self.buf, dtype="<u8").reshape(-1, self.stride // 8)
        return self._words

    def __getstate__(self) -> tuple:
        # The cached word view would unpickle as a copy of the old buffer.
        return self.num_bits, self.stride, self.buf, self.flags, self.counts, self.size

    def __setstate__(self, state: tuple) -> None:
        self.num_bits, self.stride, self.buf, self.flags, self.counts, self.size = state
        self._words = None


class BitArray:
    """Fixed-length array of bits, all initially zero."""

    __slots__ = ("num_bits", "_buf")

    def __init__(self, num_bits: int) -> None:
        if num_bits < 0:
            raise ValueError("num_bits must be non-negative")
        self.num_bits = num_bits
        self._buf = bytearray((num_bits + 7) // 8)

    def _check_index(self, index: int) -> int:
        if index < 0:
            index += self.num_bits
        if not 0 <= index < self.num_bits:
            raise IndexError(f"bit index {index} out of range for {self.num_bits} bits")
        return index

    def get(self, index: int) -> bool:
        """Return the bit at ``index``."""
        index = self._check_index(index)
        return bool(self._buf[index >> 3] & (1 << (index & 7)))

    def set(self, index: int) -> None:
        """Set the bit at ``index`` to one."""
        index = self._check_index(index)
        self._buf[index >> 3] |= 1 << (index & 7)

    def set_many(self, indices: Sequence[int]) -> None:
        """Set the bit at every index in ``indices`` to one.

        The range is checked once for the whole sequence, before any bit is
        set; unlike `set`, indices count from zero only.
        """
        if indices and (min(indices) < 0 or max(indices) >= self.num_bits):
            raise IndexError(f"bit indices {list(indices)} out of range for {self.num_bits} bits")
        buf = self._buf
        for index in indices:
            buf[index >> 3] |= 1 << (index & 7)

    def clear(self, index: int) -> None:
        """Set the bit at ``index`` to zero."""
        index = self._check_index(index)
        self._buf[index >> 3] &= ~(1 << (index & 7)) & 0xFF

    def assign(self, index: int, value: bool) -> None:
        """Set the bit at ``index`` to ``value``."""
        if value:
            self.set(index)
        else:
            self.clear(index)

    def __getitem__(self, index: int) -> bool:
        return self.get(index)

    def __setitem__(self, index: int, value: bool) -> None:
        self.assign(index, bool(value))

    def __len__(self) -> int:
        return self.num_bits

    def count(self) -> int:
        """Return the number of one bits (popcount)."""
        return int.from_bytes(self._buf, "little").bit_count()

    def fill_ratio(self) -> float:
        """Return the fraction of bits set, or 0.0 for an empty array."""
        if self.num_bits == 0:
            return 0.0
        return self.count() / self.num_bits

    def any(self) -> bool:
        """Return True if at least one bit is set."""
        return any(self._buf)

    def reset(self) -> None:
        """Clear every bit."""
        self._buf[:] = bytes(len(self._buf))

    def _check_compatible(self, other: "BitArray") -> None:
        if not isinstance(other, BitArray):
            raise TypeError("expected a BitArray")
        if other.num_bits != self.num_bits:
            raise ValueError(
                f"size mismatch: {self.num_bits} bits vs {other.num_bits} bits"
            )

    def union_update(self, other: "BitArray") -> None:
        """In-place bitwise OR with another array of the same size."""
        self._check_compatible(other)
        for i, byte in enumerate(other._buf):
            self._buf[i] |= byte

    def intersection_update(self, other: "BitArray") -> None:
        """In-place bitwise AND with another array of the same size."""
        self._check_compatible(other)
        for i, byte in enumerate(other._buf):
            self._buf[i] &= byte

    def is_subset_of(self, other: "BitArray") -> bool:
        """Return True if every set bit here is also set in ``other``."""
        self._check_compatible(other)
        return all((mine & ~theirs) == 0 for mine, theirs in zip(self._buf, other._buf))

    def copy(self) -> "BitArray":
        """Return an independent copy."""
        clone = BitArray(self.num_bits)
        clone._buf[:] = self._buf
        return clone

    def to_bytes(self) -> bytes:
        """Serialise to bytes (little-endian bit order within bytes)."""
        return bytes(self._buf)

    @classmethod
    def from_bytes(cls, data: bytes, num_bits: int) -> "BitArray":
        """Deserialise from :meth:`to_bytes` output."""
        expected = (num_bits + 7) // 8
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes for {num_bits} bits, got {len(data)}")
        # Bits beyond num_bits in the final byte must be zero.
        spare = expected * 8 - num_bits
        if spare and data and (data[-1] >> (8 - spare)):
            raise ValueError("stray bits set beyond num_bits")
        array = cls(num_bits)
        array._buf[:] = data
        return array

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self.num_bits == other.num_bits and self._buf == other._buf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitArray(num_bits={self.num_bits}, set={self.count()})"
