"""Salted hash families for multi-hash sketches (Bloom filters etc.).

A :class:`HashFamily` represents ``k`` pairwise-independent-ish hash functions
derived from a single seed.  Bloom filters use the standard Kirsch-Mitzenmacher
double-hashing construction: two base 64-bit hashes ``h1, h2`` generate the
family ``g_i(x) = h1(x) + i * h2(x)``, which preserves the asymptotic false
positive rate of truly independent hashes.
"""

from __future__ import annotations

from repro.hashing.mixers import derive_seed, hash64


class HashFamily:
    """A family of hash functions indexed by ``i`` in ``[0, num_hashes)``."""

    def __init__(self, num_hashes: int, seed: int = 0) -> None:
        if num_hashes < 1:
            raise ValueError("a hash family needs at least one hash function")
        self.num_hashes = num_hashes
        self.seed = seed
        self._salt1 = derive_seed(seed, "family-h1")
        self._salt2 = derive_seed(seed, "family-h2")

    def hash_pair(self, value: object) -> tuple[int, int]:
        """Return the two base hashes used for double hashing."""
        h1 = hash64(value, self._salt1)
        # Force h2 odd so successive probe strides never collapse to zero
        # modulo a power-of-two range.
        h2 = hash64(value, self._salt2) | 1
        return h1, h2

    def indexes(self, value: object, modulus: int) -> list[int]:
        """Return the ``num_hashes`` probe positions for ``value``."""
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        h1, h2 = self.hash_pair(value)
        return [(h1 + i * h2) % modulus for i in range(self.num_hashes)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HashFamily(num_hashes={self.num_hashes}, seed={self.seed:#x})"
