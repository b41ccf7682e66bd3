"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import random
import numpy as np
import pytest
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import And, Eq, In


@pytest.fixture
def two_attr_schema() -> AttributeSchema:
    return AttributeSchema(["color", "size"])


@pytest.fixture
def default_params() -> CCFParams:
    return CCFParams(bucket_size=6, max_dupes=3, key_bits=12, attr_bits=8, seed=17)


def random_rows(
    num_keys: int,
    max_dupes: int,
    seed: int = 0,
    colors: tuple = ("red", "green", "blue", "black"),
    max_size: int = 40,
) -> list[tuple[int, tuple]]:
    """Keyed rows with a random number of distinct attribute pairs per key."""
    rng = random.Random(seed)
    rows: list[tuple[int, tuple]] = []
    for key in range(num_keys):
        seen: set[tuple] = set()
        for _ in range(rng.randint(1, max_dupes)):
            attrs = (rng.choice(colors), rng.randint(0, max_size))
            if attrs not in seen:
                seen.add(attrs)
                rows.append((key, attrs))
    rng.shuffle(rows)
    return rows


def _sketch_state(ccf, rows: list[int]) -> list:
    """Per copy with sketch row id ``rows[i]``: the sketch's bytes, flag
    and insert count, or None for a vector copy (row -1)."""
    sketches = ccf._sketch_rows
    return [
        None
        if row < 0
        else (sketches.row_bytes(row), bool(sketches.flags[row]), int(sketches.counts[row]))
        for row in rows
    ]


def ccf_state(ccf) -> dict:
    """Everything placement and the counters decide in a CCF, read from its
    columns: the slot columns, each payload slot's sketch bytes, flag and
    insert count, the stash columns with their pairs (in order), and the
    counters.  Sketch row ids are not compared: twins built in another
    order number their sketches differently."""
    capacity = ccf.buckets.capacity
    rows = [-1] * capacity if ccf._payload_rows is None else ccf._payload_rows.ravel().tolist()
    stash = ccf.stash
    return {
        "fps": ccf.buckets.fps.tolist(),
        "counts": ccf.buckets.counts.tolist(),
        "avecs": ccf._avecs.tolist(),
        "flags": ccf._flags.tolist(),
        "sketches": _sketch_state(ccf, rows),
        "stash": list(
            zip(
                stash.fps.tolist(),
                stash.pairs.tolist(),
                stash.avecs.tolist(),
                stash.flags.tolist(),
                _sketch_state(ccf, stash.rows.tolist()),
            )
        ),
        "counters": (
            ccf.num_rows_inserted,
            ccf.num_rows_discarded,
            ccf.num_kicks,
            ccf.failed,
            getattr(ccf, "num_conversions", None),
            getattr(ccf, "num_absorbed", None),
        ),
    }


#: Eq, In and conjunctive predicates over `tiny_chained_ccfs`' attributes.
TINY_PREDICATES = (
    Eq("color", "red"),
    In("size", (1, 3, 5)),
    And([Eq("color", "blue"), In("size", (0, 2, 4, 6))]),
)


@st.composite
def tiny_chained_ccfs(draw):
    """Chained CCFs over ``["color", "size"]`` on 2-16 buckets.

    b is 1-4, d is 1-2b and Lmax is None or 1-3; ``max_kicks=5`` and 4- or
    8-bit key fingerprints make stashes and shared fingerprints common, so
    chain walks run with and without the d-count early stop.
    """
    bucket_size = draw(st.integers(min_value=1, max_value=4))
    params = CCFParams(
        bucket_size=bucket_size,
        max_dupes=draw(st.integers(min_value=1, max_value=2 * bucket_size)),
        max_chain=draw(st.sampled_from((None, 1, 2, 3))),
        max_kicks=5,
        key_bits=draw(st.sampled_from((4, 8))),
        attr_bits=5,
        seed=draw(st.integers(min_value=0, max_value=50)),
    )
    num_buckets = draw(st.sampled_from((2, 4, 8, 16)))
    ccf = make_ccf("chained", AttributeSchema(["color", "size"]), num_buckets, params)
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.sampled_from(("red", "green", "blue")),
                st.integers(min_value=0, max_value=7),
            ),
            max_size=80,
        )
    )
    ccf.insert_many(
        np.array([key for key, _c, _s in rows], dtype=np.int64),
        [[color for _k, color, _s in rows], [size for _k, _c, size in rows]],
    )
    return ccf
