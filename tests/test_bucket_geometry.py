"""One hashing geometry for every fingerprint structure (§4.2).

The cuckoo filters and the CCFs hash keys through the same
`BucketGeometry`: over the same bucket count, fingerprint width and seed,
they agree on every key's fingerprint, home bucket and partner bucket, and
their kick loops jump with the same ``jump_seed``.  That is what lets a key
filter extracted from a Bloom or Mixed CCF be a plain `CuckooFilter`.
"""

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.cuckoo.semisort_filter import SemiSortedCuckooFilter

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

