"""A compact fixed-size bit array backed by a ``bytearray``.

This is the storage primitive under every Bloom filter in the repository.  It
deliberately exposes only what the sketches need: bit get/set/clear, a bulk
set, popcount, bitwise union/intersection with an equally-sized array, and
byte-level (de)serialisation.
"""

from __future__ import annotations

from typing import Sequence


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
        return sum(byte.bit_count() for byte in self._buf)

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
        for i in range(len(self._buf)):
            self._buf[i] = 0

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
        array = cls(num_bits)
        array._buf[:] = data
        # Bits beyond num_bits in the final byte must be zero.
        spare = expected * 8 - num_bits
        if spare and data and (data[-1] >> (8 - spare)):
            raise ValueError("stray bits set beyond num_bits")
        return array

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitArray):
            return NotImplemented
        return self.num_bits == other.num_bits and self._buf == other._buf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BitArray(num_bits={self.num_bits}, set={self.count()})"
