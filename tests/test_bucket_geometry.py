"""One hashing geometry for every fingerprint structure (§4.2).

The cuckoo filters and the CCFs hash keys through the same
`BucketGeometry`: over the same bucket count, fingerprint width and seed,
they agree on every key's fingerprint, home bucket and partner bucket, and
their kick loops jump with the same ``jump_seed``.  That is what lets a key
filter extracted from a Bloom or Mixed CCF be a plain `CuckooFilter`.
"""

import pickle

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.geometry import jump_table
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter
from repro.hashing.mixers import hash64

SCHEMA = AttributeSchema(["color", "size"])
KEYS = np.arange(10_000, dtype=np.int64) * 7919 - 12_345


def _hashes(structure, keys=KEYS):
    """Batch fingerprints and homes of ``keys``, and their partner buckets."""
    fps = structure.fingerprints_of_many(keys)
    homes = structure.home_indices_of_many(keys)
    return fps, homes, structure.alt_indices_many(homes, fps)


@pytest.mark.parametrize(
    "num_buckets,bucket_size,key_bits,seed",
    [(2, 2, 5, 0), (16, 4, 8, 3), (256, 4, 12, 101), (1024, 6, 16, 7), (64, 4, 32, 42)],
)
def test_filters_and_ccfs_share_one_geometry(num_buckets, bucket_size, key_bits, seed):
    ccf = make_ccf(
        "plain",
        SCHEMA,
        num_buckets,
        CCFParams(key_bits=key_bits, bucket_size=bucket_size, max_dupes=1, seed=seed),
    )
    want_fps, want_homes, want_alts = _hashes(ccf.geometry)
    for structure in (
        CuckooFilter(num_buckets, bucket_size, key_bits, seed=seed),
        MultisetCuckooFilter(num_buckets, bucket_size, key_bits, seed=seed),
    ):
        assert np.array_equal(structure.fingerprints_of_many(KEYS), want_fps)
        assert np.array_equal(structure.home_indices_of_many(KEYS), want_homes)
        fps, homes, alts = _hashes(structure.geometry)
        assert np.array_equal(fps, want_fps)
        assert np.array_equal(homes, want_homes)
        assert np.array_equal(alts, want_alts)
        assert structure.geometry.jump_seed == ccf.geometry.jump_seed
        for key in KEYS[:200].tolist():
            fp, home = structure.fingerprint_of(key), structure.home_index(key)
            assert (fp, home) == (ccf.fingerprint_of(key), ccf.home_index(key))
            assert structure.alt_index(home, fp) == ccf.alt_index(home, fp)
    if bucket_size == 4:
        # The semi-sorted filter reserves 0 for empty slots: 0 folds to 1,
        # and the partner bucket follows the folded fingerprint.
        semisort = SemiSortedCuckooFilter(num_buckets, key_bits, seed=seed)
        folded = np.where(want_fps == 0, 1, want_fps)
        assert np.array_equal(semisort.fingerprints_of_many(KEYS), folded)
        assert np.array_equal(semisort.home_indices_of_many(KEYS), want_homes)
        homes, folded = want_homes[:200], folded[:200]
        assert [semisort.alt_index(h, fp) for h, fp in zip(homes.tolist(), folded.tolist())] == (
            ccf.geometry.alt_indices_many(homes, folded).tolist()
        )
        assert semisort.geometry.jump_seed == ccf.geometry.jump_seed



def _numpy_scalars():
    return [
        np.int64(-5),
        np.int64(2**62),
        np.uint32(7),
        np.uint64(2**63 + 5),
        np.bool_(True),
        np.bool_(False),
        np.float64(1.5),
        np.str_("x"),
    ]


BATCHES = {
    "int64 with negatives": np.concatenate(
        [np.arange(-300, 300, dtype=np.int64), np.array([-(2**63), 2**63 - 1], dtype=np.int64)]
    ),
    "uint64 from 2**63": np.array([2**63, 2**63 + 1, 2**64 - 1, 12345], dtype=np.uint64),
    "python ints": list(range(-200, 200, 3)),
    "bools": [True, False, True],
    "a numpy bool among ints": [np.True_, 2, 3],
    "strings": ["a", "", "title", "ß"],
    "numpy scalars": _numpy_scalars(),
}


@pytest.mark.parametrize("key_bits", [7, 8, 12, 16, 17, 32])
@pytest.mark.parametrize("batch", list(BATCHES), ids=list(BATCHES))
def test_batch_hashes_equal_the_scalar_ones(key_bits, batch):
    """`hashes_of_many` and the one-salt batch forms answer as the scalar
    fingerprint, home bucket and partner bucket do, key by key."""
    keys = BATCHES[batch]
    geometry = make_ccf(
        "chained", SCHEMA, 1024, CCFParams(key_bits=key_bits, bucket_size=4, seed=9)
    ).geometry
    natives = keys.tolist() if isinstance(keys, np.ndarray) else list(keys)
    fps = [geometry.fingerprint_of(key) for key in natives]
    homes = [geometry.home_index(key) for key in natives]
    alts = [geometry.alt_index(home, fp) for home, fp in zip(homes, fps)]
    batch_fps, batch_homes, batch_alts = geometry.hashes_of_many(keys)
    assert batch_fps.dtype == batch_homes.dtype == batch_alts.dtype == np.int64
    assert (batch_fps.tolist(), batch_homes.tolist(), batch_alts.tolist()) == (fps, homes, alts)
    assert geometry.fingerprints_of_many(keys).tolist() == fps
    assert geometry.home_indices_of_many(keys).tolist() == homes
    # Each numpy scalar hashes as its Python value.
    assert [geometry.fingerprint_of(key) for key in keys] == fps


def test_jump_table_holds_every_jump_hash():
    """Batch jumps are read from a table: at 12 bits it holds
    ``hash64(fp, salt)`` of every fingerprint, masked per bucket count."""
    fingerprints = np.arange(1 << 12)
    for num_buckets in (2, 256, 1 << 12, 1 << 20):
        geometry = make_ccf(
            "plain", SCHEMA, num_buckets, CCFParams(key_bits=12, bucket_size=4, seed=3)
        ).geometry
        hashes = [hash64(fp, geometry._jump_salt) for fp in fingerprints.tolist()]
        assert jump_table(geometry._jump_salt, 12).view(np.uint64).tolist() == hashes
        want = [h & (num_buckets - 1) for h in hashes]
        assert geometry.fp_jump_many(fingerprints).tolist() == want
        assert [geometry.fp_jump(fp) for fp in fingerprints.tolist()] == want


def test_a_pickled_geometry_carries_no_jump_table():
    """Geometries look their table up per batch, so a pickle holds none
    and its copy reads the same process-wide table."""
    geometry = make_ccf("chained", SCHEMA, 64, CCFParams(key_bits=16, bucket_size=4)).geometry
    fingerprints = np.arange(1 << 16)
    jumps = geometry.fp_jump_many(fingerprints)
    table = jump_table(geometry._jump_salt, 16)
    assert table.nbytes == 8 << 16
    blob = pickle.dumps(geometry)
    assert len(blob) < 8 << 10
    copy = pickle.loads(blob)
    assert np.array_equal(copy.fp_jump_many(fingerprints), jumps)
    assert jump_table(copy._jump_salt, 16) is table
