"""Kernel backend seam: dispatch, fallback, and cross-backend bit-identity.

Every registered backend must be *bit-identical* to the numpy reference —
same placements, same stash contents (and order), same answers — on every
structure that calls through the seam.  The always-available ``"python"``
backend runs the exact implementations the numba backend JIT-compiles, so
the property suite proves the sequential kernels equivalent to the
vectorised reference even on machines without numba; when numba *is*
importable the same traces run against the compiled backend too.

Also covered: selection precedence (explicit > env > default), graceful
degradation when a requested backend is missing or broken, the stateless
victim stream (determinism + counter persistence), and backend-name
surfacing through `FilterStore.stats()`, the inspect CLI and the serve
pool.
"""

from __future__ import annotations

import io
import random
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.ccf.attributes import AttributeSchema
from repro.ccf.factory import make_ccf
from repro.ccf.params import CCFParams
from repro.ccf.predicates import Eq, In, Range
from repro.ccf.range_ccf import DyadicRangeCCF
from repro.cuckoo.buckets import SlotMatrix
from repro.cuckoo.filter import CuckooFilter
from repro.cuckoo.multiset import MultisetCuckooFilter
from repro.kernels import (
    BackendUnavailable,
    active_backend,
    available_backends,
    backend_spec,
    set_backend,
)
from repro.kernels import dispatch
from repro.serve import WorkerPool
from repro.store import FilterStore, StoreConfig
from repro.store.__main__ import inspect as store_inspect

#: Backends every machine can parity-test; numba joins when importable.
BACKENDS = ["numpy", "python"]
try:  # pragma: no cover - exercised on the CI numba leg
    import numba  # noqa: F401

    BACKENDS.append("numba")
except Exception:
    pass

SCHEMA = AttributeSchema(["color", "size"])
COLORS = ("red", "green", "blue")
PREDICATES = (None, Eq("color", "red"), In("size", (1, 3, 5)))
CCF_PARAMS = CCFParams(key_bits=12, attr_bits=8, bucket_size=4, max_dupes=2, seed=11)

STORE_SCHEMA = AttributeSchema(["color", "size"])
STORE_PARAMS = CCFParams(key_bits=24, attr_bits=16, bucket_size=4, seed=23)


@pytest.fixture(autouse=True)
def _clean_dispatch(monkeypatch):
    """Isolate backend selection per test (env cleared, request cleared)."""
    monkeypatch.delenv(dispatch.ENV_VAR, raising=False)
    dispatch._reset_for_tests()
    yield
    dispatch._reset_for_tests()


def _poison_numba(monkeypatch):
    """Make the numba factory fail even where numba is installed/cached."""
    monkeypatch.delitem(dispatch._INSTANCES, "numba", raising=False)
    monkeypatch.setitem(sys.modules, "numba", None)


class TestDispatch:
    def test_default_backend_is_numpy(self):
        backend = active_backend()
        assert backend.name == "numpy"
        assert backend_spec() is None

    def test_available_backends_reports_reference_paths(self):
        table = available_backends()
        assert table["numpy"] is True
        assert table["python"] is True
        assert "numba" in table  # True or False depending on the machine

    def test_explicit_set_backend_wins_and_clears(self):
        backend = set_backend("python")
        assert backend.name == "python"
        assert active_backend().name == "python"
        assert backend_spec() == "python"
        set_backend(None)
        assert active_backend().name == "numpy"
        assert backend_spec() is None

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "python")
        dispatch._reset_for_tests()
        assert backend_spec() == "python"
        assert active_backend().name == "python"

    def test_explicit_request_outranks_env(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "python")
        dispatch._reset_for_tests()
        set_backend("numpy")
        assert active_backend().name == "numpy"

    def test_unknown_backend_strict_raises(self):
        with pytest.raises(BackendUnavailable, match="unknown kernel backend"):
            set_backend("gpu9000")

    def test_unknown_backend_lenient_warns_and_falls_back(self):
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            backend = set_backend("gpu9000", strict=False)
        assert backend.name == "numpy"

    def test_unknown_env_backend_warns_and_falls_back(self, monkeypatch):
        monkeypatch.setenv(dispatch.ENV_VAR, "gpu9000")
        dispatch._reset_for_tests()
        with pytest.warns(RuntimeWarning, match="unavailable"):
            assert active_backend().name == "numpy"

    def test_missing_numba_strict_raises(self, monkeypatch):
        _poison_numba(monkeypatch)
        with pytest.raises(BackendUnavailable, match="numba is not importable"):
            set_backend("numba")

    def test_missing_numba_falls_back_and_filter_still_works(self, monkeypatch):
        _poison_numba(monkeypatch)
        with pytest.warns(RuntimeWarning, match="falling back to 'numpy'"):
            backend = set_backend("numba", strict=False)
        assert backend.name == "numpy"
        # The degraded process must stay fully functional end to end.
        filt = CuckooFilter(32, 4, 12, seed=1)
        keys = np.arange(40, dtype=np.int64)
        assert filt.insert_many(keys).all()
        assert filt.contains_many(keys).all()

    def test_failed_factory_is_not_cached(self, monkeypatch):
        _poison_numba(monkeypatch)
        with pytest.raises(BackendUnavailable):
            set_backend("numba")
        # Once the import works again (monkeypatch undone), a retry must
        # succeed rather than replay the cached failure.
        assert "numba" not in dispatch._INSTANCES

    def test_backend_info_carries_provenance(self):
        ref = dispatch._instantiate("numpy")
        seq = dispatch._instantiate("python")
        assert ref.info.get("array_module") == "numpy"
        assert seq.info.get("jit") is None

    def test_reference_pair_eq_runs_without_numpy_astype(self, monkeypatch):
        """`numpy.astype` is new in NumPy 2.1 and the package supports
        numpy >= 1.24, so the reference probe must cast without it."""
        from repro.kernels import reference

        filt = CuckooFilter(64, 4, 12, seed=2)
        keys = np.arange(300, dtype=np.int64)
        filt.insert_many(keys[:200])
        fps = filt.fingerprints_of_many(keys)
        homes = filt.home_indices_of_many(keys)
        alts = np.array([filt.alt_index(h, fp) for h, fp in zip(homes.tolist(), fps.tolist())])
        want = reference.pair_eq(filt.buckets.fps, fps, homes, alts)
        answers = filt.contains_many(keys)
        monkeypatch.delattr(np, "astype", raising=False)
        got = reference.pair_eq(filt.buckets.fps, fps, homes, alts)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert np.array_equal(filt.contains_many(keys), answers)


# ---------------------------------------------------------------------------
# Cross-backend bit-identity
# ---------------------------------------------------------------------------


def _filter_state(filt) -> tuple:
    return (
        filt.buckets.state(),
        list(filt.stash),
        filt.num_items,
        filt.failed,
        filt._wave_victim_counter,
    )


def _run_trace(backend: str, ops, fp_bits, seed: int):
    """Replay one interleaved op trace under ``backend``; return observables."""
    set_backend(backend)
    try:
        packed = fp_bits is not None
        filt = CuckooFilter(
            32, 4, fp_bits if packed else 12, max_kicks=16, seed=seed, packed=packed
        )
        observed = []
        for op, keys in ops:
            arr = np.asarray(keys, dtype=np.int64)
            if op == "scalar":
                observed.append(("scalar", [filt.insert(k) for k in arr.tolist()]))
            elif op == "insert":
                observed.append(("insert", filt.insert_many(arr).tolist()))
            elif op == "delete":
                observed.append(("delete", filt.delete_many(arr).tolist()))
            else:
                observed.append(("query", filt.contains_many(arr).tolist()))
        return observed, _filter_state(filt)
    finally:
        set_backend(None)


OPS = st.lists(
    st.tuples(
        st.sampled_from(("scalar", "insert", "delete", "query")),
        st.lists(st.integers(min_value=0, max_value=120), max_size=60),
    ),
    min_size=1,
    max_size=6,
)


class TestCrossBackendParity:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        ops=OPS,
        fp_bits=st.sampled_from((None, 8, 12, 33)),
        seed=st.integers(min_value=0, max_value=7),
    )
    def test_interleaved_traces_bit_identical(self, ops, fp_bits, seed):
        reference = _run_trace("numpy", ops, fp_bits, seed)
        for backend in BACKENDS[1:]:
            assert _run_trace(backend, ops, fp_bits, seed) == reference

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        keys=st.lists(st.integers(min_value=0, max_value=40), max_size=120),
        seed=st.integers(min_value=0, max_value=5),
    )
    def test_multiset_duplicates_bit_identical(self, keys, seed):
        # Heavy duplication forces contested buckets and stash traffic —
        # the stash *order* must match across backends, not just its set.
        def run(backend):
            set_backend(backend)
            try:
                filt = MultisetCuckooFilter(16, 4, 12, max_kicks=16, seed=seed)
                arr = np.asarray(keys, dtype=np.int64)
                inserted = filt.insert_many(arr).tolist()
                queried = filt.contains_many(np.arange(50)).tolist()
                deleted = filt.delete_many(arr[::2]).tolist()
                return inserted, queried, deleted, _filter_state(filt)
            finally:
                set_backend(None)

        reference = run("numpy")
        for backend in BACKENDS[1:]:
            assert run(backend) == reference

    def test_overload_stash_order_matches(self):
        # 150% load: most keys fail; survivors and stash order must agree.
        keys = np.arange(192, dtype=np.int64)

        def run(backend):
            set_backend(backend)
            try:
                filt = CuckooFilter(32, 4, 12, max_kicks=8, seed=3)
                ok = filt.insert_many(keys)
                return ok.tolist(), _filter_state(filt)
            finally:
                set_backend(None)

        reference = run("numpy")
        assert reference[1][3] is True  # the overload really overflowed
        for backend in BACKENDS[1:]:
            assert run(backend) == reference

    @pytest.mark.parametrize("kind", ("plain", "chained", "bloom", "mixed"))
    def test_ccf_variant_answers_bit_identical(self, kind):
        rows = [(k % 90, COLORS[k % 3], k % 9) for k in range(260)]
        params = CCF_PARAMS.replace(max_chain=4 if kind == "chained" else None)
        probes = np.arange(120, dtype=np.int64)

        def run(backend):
            set_backend(backend)
            try:
                ccf = make_ccf(kind, SCHEMA, 128, params)
                for key, color, size in rows:
                    ccf.insert(key, (color, size))
                answers = [
                    ccf.query_many(probes, predicate).tolist()
                    for predicate in PREDICATES
                ]
                answers.append(ccf.contains_key_many(probes).tolist())
                # fps only: bloom/mixed payload sketches compare by identity.
                return answers, ccf.buckets.fps.tolist(), len(ccf.stash)
            finally:
                set_backend(None)

        reference = run("numpy")
        for backend in BACKENDS[1:]:
            assert run(backend) == reference

    def test_range_ccf_answers_bit_identical(self):
        rows = [(k % 70, COLORS[k % 3], k % 30) for k in range(200)]
        probes = np.arange(90, dtype=np.int64)

        def run(backend):
            set_backend(backend)
            try:
                ccf = DyadicRangeCCF("bloom", SCHEMA, "size", (0, 63), 256, CCF_PARAMS)
                for key, color, size in rows:
                    ccf.insert(key, (color, size))
                return [
                    ccf.query_many(probes, predicate).tolist()
                    for predicate in (None, Range("size", 3, 17))
                ]
            finally:
                set_backend(None)

        reference = run("numpy")
        for backend in BACKENDS[1:]:
            assert run(backend) == reference

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_mapped_readonly_columns_probe_and_promote(self, backend, tmp_path):
        # Build on the heap, remap the columns read-only (the SEG1 serve
        # path), then probe *and* insert: the probe must run on the
        # mapped columns as-is and the insert must CoW-promote first.
        base = CuckooFilter(64, 4, 12, seed=9)
        keys = np.arange(180, dtype=np.int64)
        base.insert_many(keys)

        def remap(filt, tag):
            fps_path = tmp_path / f"{tag}-fps.npy"
            counts_path = tmp_path / f"{tag}-counts.npy"
            np.save(fps_path, filt.buckets.fps)
            np.save(counts_path, filt.buckets.counts)
            filt.buckets = SlotMatrix.from_columns(
                np.load(fps_path, mmap_mode="r"),
                np.load(counts_path, mmap_mode="r"),
                fp_bits=filt.fingerprint_bits,
            )

        set_backend(backend)
        try:
            mapped = CuckooFilter(64, 4, 12, seed=9)
            mapped.insert_many(keys)
            remap(mapped, backend)
            assert not mapped.buckets.writeable
            probes = np.arange(400, dtype=np.int64)
            np.testing.assert_array_equal(
                mapped.contains_many(probes), base.contains_many(probes)
            )
            assert not mapped.buckets.writeable  # probing never promoted
            extra = np.arange(1000, 1040, dtype=np.int64)
            assert mapped.insert_many(extra).all()
            assert mapped.buckets.writeable  # the write path promoted
            assert mapped.contains_many(extra).all()
        finally:
            set_backend(None)


class TestVictimStream:
    def test_wave_build_is_deterministic_per_seed(self):
        def build():
            filt = CuckooFilter.from_capacity(2000, fingerprint_bits=12, seed=4)
            filt.insert_many(np.arange(1900, dtype=np.int64))
            return _filter_state(filt)

        first = build()
        assert first == build()
        assert first[-1] > 0  # the kick-heavy build actually drew victims

    def test_counter_persists_across_waves(self):
        filt = CuckooFilter.from_capacity(2000, fingerprint_bits=12, seed=4)
        filt.insert_many(np.arange(950, dtype=np.int64))
        after_first = filt._wave_victim_counter
        filt.insert_many(np.arange(950, 1900, dtype=np.int64))
        assert filt._wave_victim_counter >= after_first

    def test_no_generator_object_in_wave_path(self):
        # Neither insert path holds an RNG object — no numpy Generator, no
        # random.Random: the victim stream is a counter.
        for cls in (CuckooFilter, MultisetCuckooFilter):
            filt = cls(512, 4, 12, seed=4)
            filt.insert_many(np.arange(1900, dtype=np.int64))
            for key in range(1900, 1950):
                filt.insert(key)
            assert filt._wave_victim_counter > 0
            assert not any(
                isinstance(value, (np.random.Generator, random.Random))
                for value in vars(filt).values()
            )


# ---------------------------------------------------------------------------
# Backend-name surfacing (store stats, inspect CLI, serve pool)
# ---------------------------------------------------------------------------


def _store_rows(keys: np.ndarray) -> list:
    colors = np.array(COLORS, dtype=object)[keys % 3]
    return [colors, keys % 11]


class TestBackendSurfacing:
    def test_store_stats_report_active_backend(self):
        store = FilterStore(
            STORE_SCHEMA, STORE_PARAMS, StoreConfig(num_shards=1, level_buckets=64)
        )
        keys = np.arange(200, dtype=np.int64)
        assert store.insert_many(keys, _store_rows(keys)).all()
        assert store.stats()["kernel_backend"] == "numpy"
        set_backend("python")
        assert store.stats()["kernel_backend"] == "python"

    def test_inspect_cli_prints_backend_line(self, tmp_path):
        store = FilterStore(
            STORE_SCHEMA, STORE_PARAMS, StoreConfig(num_shards=1, level_buckets=64)
        )
        keys = np.arange(200, dtype=np.int64)
        store.insert_many(keys, _store_rows(keys))
        path = store.snapshot(tmp_path / "snap")
        set_backend("python")
        buffer = io.StringIO()
        assert store_inspect(path, out=buffer) == 0
        assert "kernel backend: python" in buffer.getvalue()

    def test_worker_pool_propagates_and_reports_backend(self, tmp_path):
        store = FilterStore(
            STORE_SCHEMA, STORE_PARAMS, StoreConfig(num_shards=2, level_buckets=64)
        )
        keys = np.arange(600, dtype=np.int64)
        assert store.insert_many(keys, _store_rows(keys)).all()
        path = store.snapshot(tmp_path / "snap")
        set_backend("python")
        with WorkerPool(path, num_workers=2, mode="thread") as pool:
            assert pool.kernel_backend == "python"
            np.testing.assert_array_equal(
                pool.query_many(keys), np.ones(keys.size, dtype=bool)
            )
            stats = pool.stats()
        assert stats["kernel_backend"] == "python"
        assert all(
            worker["kernel_backend"] == "python" for worker in stats["per_worker"]
        )

    def test_worker_pool_process_mode_replays_spec(self, tmp_path):
        # Spawned/forked workers re-import repro.kernels with fresh module
        # state; the pool must ship its spec so workers land on the same
        # backend.  (python backend is slow — keep the snapshot tiny.)
        store = FilterStore(
            STORE_SCHEMA, STORE_PARAMS, StoreConfig(num_shards=1, level_buckets=64)
        )
        keys = np.arange(200, dtype=np.int64)
        store.insert_many(keys, _store_rows(keys))
        path = store.snapshot(tmp_path / "snap")
        set_backend("python")
        with WorkerPool(path, num_workers=1, mode="process") as pool:
            stats = pool.stats()
        assert stats["kernel_backend"] == "python"
