"""64-bit hashing utilities: canonical value encoding and fast integer mixing.

Two hash paths are offered behind one ``hash64`` entry point:

* Machine integers go through a SplitMix64-style finalizer (`mix64`), which is
  a handful of arithmetic operations in pure Python — important because the
  hot paths of the filters hash integer join keys and attribute values.
* Everything else (strings, bytes, floats, tuples, ...) is canonically
  serialised to bytes and hashed with the Jenkins lookup3 port, the hash
  family used by the paper's implementation.

Both paths accept a 64-bit ``seed`` so independent structures (and independent
hash functions within one structure) can derive uncorrelated hashes.

`mix64_many` / `hash64_many` are the batch counterparts: numpy-vectorised for
integer batches, element-wise otherwise, and bit-identical to the scalar
functions either way (the equivalence contract is recorded in DESIGN.md).
"""

from __future__ import annotations

import struct
from typing import Sequence

import numpy as np

from repro.hashing.lookup3 import hashlittle64

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Fixed odd constants from SplitMix64 / MurmurHash3's 64-bit finalizers.
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


def mix64(x: int) -> int:
    """Avalanche a 64-bit integer (SplitMix64 finalizer).

    Bijective on 64-bit integers, so distinct inputs never collide; its role
    is purely to decorrelate the bits of structured inputs such as sequential
    ids.
    """
    x &= _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def mix64_many(x: np.ndarray) -> np.ndarray:
    """Avalanche an array of 64-bit integers (vectorised `mix64`).

    Operates in ``uint64``, whose wrap-around multiplication matches the
    scalar path's mod-2**64 arithmetic bit for bit.
    """
    x = np.asarray(x, dtype=np.uint64)
    x = (x ^ (x >> np.uint64(30))) * np.uint64(_MIX1)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(_MIX2)
    return x ^ (x >> np.uint64(31))


def canonical_bytes(value: object) -> bytes:
    """Serialise ``value`` into a canonical, type-tagged byte string.

    Distinct values of the same type always produce distinct byte strings, and
    type tags keep e.g. ``1`` and ``"1"`` from colliding.  Supported types:
    ``None``, ``bool``, ``int``, ``float``, ``str``, ``bytes`` and (possibly
    nested) tuples/lists thereof.
    """
    if value is None:
        return b"n"
    if isinstance(value, bool):
        return b"B1" if value else b"B0"
    if isinstance(value, int):
        length = (value.bit_length() + 8) // 8 or 1
        return b"i" + length.to_bytes(2, "little") + value.to_bytes(length, "little", signed=True)
    if isinstance(value, float):
        return b"f" + struct.pack("<d", value)
    if isinstance(value, str):
        raw = value.encode("utf-8")
        return b"s" + len(raw).to_bytes(4, "little") + raw
    if isinstance(value, bytes):
        return b"b" + len(value).to_bytes(4, "little") + value
    if isinstance(value, (tuple, list)):
        parts = [b"t", len(value).to_bytes(4, "little")]
        for item in value:
            encoded = canonical_bytes(item)
            parts.append(len(encoded).to_bytes(4, "little"))
            parts.append(encoded)
        return b"".join(parts)
    raise TypeError(f"cannot canonically encode values of type {type(value).__name__}")


#: Per-seed cache of the mixed salt used by the integer fast path.  Seeds are
#: few (a handful of salts per structure), so this stays tiny.
_MIXED_SEED_CACHE: dict[int, int] = {}


def _mixed_seed(seed: int) -> int:
    mixed = _MIXED_SEED_CACHE.get(seed)
    if mixed is None:
        mixed = mix64(seed ^ _GOLDEN)
        _MIXED_SEED_CACHE[seed] = mixed
    return mixed


def hash64(value: object, seed: int = 0) -> int:
    """Hash an arbitrary supported value to 64 bits under ``seed``.

    Integers (excluding bools) take the fast `mix64` path; all other values
    are canonically encoded and hashed with lookup3.  The two paths occupy
    disjoint input spaces, so mixing them in one structure is safe.  A
    numpy scalar hashes as its Python value (``.item()``).
    """
    if isinstance(value, int) and not isinstance(value, bool):
        return mix64(value ^ _mixed_seed(seed))
    if isinstance(value, np.generic):
        # A numpy scalar hashes as its Python value, as it does in a batch.
        value = value.item()
        if type(value) is int:
            return mix64(value ^ _mixed_seed(seed))
    return hashlittle64(canonical_bytes(value), seed & _MASK64)


def as_native_list(values: Sequence[object] | np.ndarray) -> list:
    """Batch elements as native Python objects (numpy scalars unwrapped).

    Scalar hash/fingerprint paths dispatch on Python types, so batch code
    falling back to them must unwrap numpy scalars first; this is the one
    shared conversion rule.
    """
    return values.tolist() if isinstance(values, np.ndarray) else list(values)


def coerce_int_column(values: Sequence[object] | np.ndarray) -> np.ndarray | None:
    """Return ``values`` as a 1-D integer ndarray, or None.

    None means element-wise processing is required to preserve scalar
    semantics: non-integer dtypes, nested shapes, ints outside 64 bits, and
    Python or numpy bools (which would silently coerce to ints but
    hash/fingerprint through the canonical path, not the integer fast path).
    """
    if isinstance(values, np.ndarray):
        return values if values.ndim == 1 and values.dtype.kind in "iu" else None
    try:
        candidate = np.asarray(values)
    except (ValueError, TypeError, OverflowError):
        return None
    if (
        candidate.ndim == 1
        and candidate.dtype.kind in "iu"
        and not any(isinstance(v, (bool, np.bool_)) for v in values)
    ):
        return candidate
    return None


def hash64_many(values: Sequence[object] | np.ndarray, seed: int = 0) -> np.ndarray:
    """Hash a batch of values to 64 bits each, bit-identical to `hash64`.

    Integer-dtype arrays (and sequences that coerce to one) take a fully
    vectorised SplitMix64 path; anything else falls back to element-wise
    `hash64`, so mixed/typed batches still agree with the scalar API.
    Returns a ``uint64`` array of the same length.
    """
    arr = coerce_int_column(values)
    if arr is not None:
        # astype(uint64) is two's-complement for signed inputs, matching the
        # scalar path's ``x & _MASK64`` of negative Python ints.
        x = arr.astype(np.uint64) ^ np.uint64(_mixed_seed(seed))
        return mix64_many(x)
    # Element-wise fallback on native Python values, so the scalar type
    # dispatch in hash64 is unchanged.
    seq = as_native_list(values)
    return np.fromiter((hash64(v, seed) for v in seq), dtype=np.uint64, count=len(seq))


def hash64_many_masked(
    values: Sequence[object] | np.ndarray, seed: int, mask: int, fold: int | None = None
) -> np.ndarray:
    """Batch ``hash64(v, seed) & mask`` as int64 (requires ``mask < 2**63``).

    The one shared copy of the mask-and-cast dance used for fingerprints,
    bucket indices and XOR jumps across all cuckoo structures.  ``fold``
    (when not None) remaps that one reserved value to 0 after masking —
    the in-band EMPTY-sentinel reservation of packed slot storage
    (`repro.cuckoo.buckets.fingerprint_fold`), applied identically to the
    scalar path by the callers.
    """
    out = (hash64_many(values, seed) & np.uint64(mask)).astype(np.int64)
    if fold is not None:
        out[out == fold] = 0
    return out


#: Cap on the per-structure fingerprint->jump memo (`JumpCache`).
#: Fingerprint spaces up to 16 bits are fully memoised; wider spaces (or
#: adversarial key streams) evict least-recently-used entries instead of
#: growing without bound.
JUMP_CACHE_LIMIT = 1 << 16


class JumpCache:
    """Bounded LRU memo for ``hash64(fingerprint, salt) & mask`` jumps.

    The single shared eviction policy for every cuckoo structure's XOR-jump
    memo (scalar paths; batch paths compute jumps vectorised and bypass the
    memo entirely).  Jumps are pure functions of their inputs, so eviction
    is always safe — it only costs a re-derivation.  Hot fingerprints stay
    resident because lookups refresh recency.
    """

    __slots__ = ("salt", "mask", "limit", "_map")

    def __init__(self, salt: int, mask: int, limit: int = JUMP_CACHE_LIMIT) -> None:
        if limit < 1:
            raise ValueError("JumpCache limit must be at least 1")
        self.salt = salt
        self.mask = mask
        self.limit = limit
        self._map: dict[int, int] = {}

    def jump(self, fingerprint: int) -> int:
        """Memoised ``hash64(fingerprint, salt) & mask``."""
        memo = self._map
        jump = memo.get(fingerprint)
        if jump is None:
            jump = hash64(fingerprint, self.salt) & self.mask
            while len(memo) >= self.limit:
                # dicts iterate in insertion order; the first key is the LRU
                # entry because hits below reinsert at the tail.
                memo.pop(next(iter(memo)))
            memo[fingerprint] = jump
        else:
            # Refresh recency: delete + reinsert moves the key to the tail.
            del memo[fingerprint]
            memo[fingerprint] = jump
        return jump

    def __len__(self) -> int:
        return len(self._map)


def derive_seed(seed: int, purpose: str, index: int = 0) -> int:
    """Derive an independent 64-bit sub-seed for a named purpose.

    Structures use this to split one user-provided seed into uncorrelated
    salts (bucket hash, fingerprint hash, chain hash, kick RNG, ...).
    """
    return hash64((purpose, index), seed)
