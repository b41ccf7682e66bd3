"""Row deletion on the plain CCF (the FilterStore's level primitive)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.plain import PlainCCF
from repro.ccf.predicates import Eq

SCHEMA = AttributeSchema(["color", "size"])
PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=7)


def filled_plain(num_keys: int = 500) -> tuple[PlainCCF, np.ndarray, list]:
    ccf = PlainCCF(SCHEMA, 512, PARAMS)
    keys = np.arange(num_keys, dtype=np.int64)
    columns = [np.array(["red", "green", "blue"], dtype=object)[keys % 3], keys % 11]
    ccf.insert_many(keys, columns)
    return ccf, keys, columns


class TestPlainDelete:
    def test_delete_removes_the_row(self):
        ccf, keys, columns = filled_plain()
        assert ccf.delete(30, ("red", 8))
        assert not ccf.query(30)
        assert ccf.query(31)

    def test_delete_is_exact_per_row(self):
        ccf = PlainCCF(SCHEMA, 64, PARAMS)
        ccf.insert(5, ("red", 1))
        ccf.insert(5, ("blue", 2))
        assert ccf.delete(5, ("red", 1))
        assert not ccf.query(5, Eq("color", "red"))
        assert ccf.query(5, Eq("color", "blue"))

    def test_delete_missing_row_returns_false(self):
        ccf, _keys, _columns = filled_plain()
        assert not ccf.delete(30, ("green", 8))  # wrong attributes
        assert not ccf.delete(10**6, ("red", 8))  # never inserted
        assert ccf.query(30)

    def test_delete_many_matches_scalar(self):
        ccf_batch, keys, columns = filled_plain()
        ccf_scalar, _keys, _columns = filled_plain()
        victims = keys[::7]
        vcols = [columns[0][::7], columns[1][::7]]
        batch = ccf_batch.delete_many(victims, vcols)
        scalar = np.array(
            [
                ccf_scalar.delete(int(k), (c, int(s)))
                for k, c, s in zip(victims, vcols[0], vcols[1])
            ]
        )
        assert (batch == scalar).all()
        assert batch.all()
        assert ccf_batch.buckets.state() == ccf_scalar.buckets.state()
        assert ccf_batch.num_rows_inserted == ccf_scalar.num_rows_inserted

    def test_delete_counts_and_occupancy(self):
        ccf, keys, columns = filled_plain(200)
        before_entries = ccf.num_entries
        before_rows = ccf.num_rows_inserted
        deleted = ccf.delete_many(keys[:50], [columns[0][:50], columns[1][:50]])
        assert int(deleted.sum()) == 50
        assert ccf.num_entries == before_entries - 50
        assert ccf.num_rows_inserted == before_rows - 50

    def test_deleted_slot_is_reusable(self):
        ccf = PlainCCF(SCHEMA, 8, PARAMS.replace(bucket_size=1, max_dupes=2))
        keys = np.arange(8, dtype=np.int64)
        columns = [["red"] * 8, list(range(8))]
        ccf.insert_many(keys, columns)
        assert ccf.delete(3, ("red", 3))
        assert ccf.insert(3, ("blue", 9))
        assert ccf.query(3, Eq("color", "blue"))

    def test_reinsert_of_stashed_row_is_deduplicated(self):
        """A stashed row must not gain a second table copy on re-insert —
        otherwise one delete would leave a ghost member behind."""
        ccf = PlainCCF(SCHEMA, 2, PARAMS.replace(bucket_size=1, max_dupes=1))
        key = 0
        for size in range(12):
            ccf.insert(key, ("red", size))
        assert ccf.stash, "expected pair overflow to stash a victim"
        stashed = tuple(ccf.stash.avecs[0].tolist())
        target = next(
            s for s in range(12) if ccf.fingerprinter.vector(("red", s)) == stashed
        )
        entries_before = ccf.num_entries
        stash_before = len(ccf.stash)
        ccf.insert(key, ("red", target))  # deduped against the stash
        assert ccf.num_entries == entries_before
        assert len(ccf.stash) == stash_before
        assert ccf.delete(key, ("red", target))
        assert not ccf.delete(key, ("red", target))

    def test_delete_from_stash(self):
        """A stashed overflow row is deletable like any other."""
        ccf = PlainCCF(SCHEMA, 2, PARAMS.replace(bucket_size=1, max_dupes=1))
        key = 0
        sizes = list(range(12))
        for size in sizes:
            ccf.insert(key, ("red", size))
        assert ccf.stash, "expected pair overflow to stash a victim"
        fp, stashed = int(ccf.stash.fps[0]), ccf.stash.avecs[0].tolist()
        # Find the raw size whose fingerprint vector matches the stashed entry.
        target = next(
            s for s in sizes if list(ccf.fingerprinter.vector(("red", s))) == stashed
        )
        assert ccf.delete(key, ("red", target))
        assert [fp, stashed] not in [
            [int(f), avec.tolist()] for f, avec in zip(ccf.stash.fps, ccf.stash.avecs)
        ]


class TestDeleteUnsupportedVariants:
    @pytest.mark.parametrize("kind", ["chained", "bloom", "mixed"])
    def test_sketching_variants_cannot_unlearn(self, kind):
        ccf = make_ccf(kind, SCHEMA, 64, PARAMS)
        ccf.insert(1, ("red", 2))
        assert not ccf.supports_deletion
        with pytest.raises(NotImplementedError, match="cannot delete"):
            ccf.delete(1, ("red", 2))

    def test_plain_advertises_deletion(self):
        assert PlainCCF.supports_deletion
