"""Shared pieces of the layer-ledger benchmark: inputs, statistics,
registry deltas, provenance and the asyncio load generators."""

from __future__ import annotations

import asyncio
import hashlib
import os
import platform
import subprocess
import time
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.ccf import AttributeSchema, CCFParams
from repro.ccf.predicates import And, Eq
from repro.obs.export import histogram_quantile

ROOT = Path(__file__).resolve().parents[1]

#: The existing bench shape (bench_wal_recovery.py / bench_serve_latency.py).
SCHEMA = AttributeSchema(["status", "region"])
PARAMS = CCFParams(key_bits=16, attr_bits=8, bucket_size=4, seed=9)
NUM_SHARDS = 4
STATUS_VALUES = 5
REGION_VALUES = 7
BATCH_ROWS = 10_000

#: Registered serve predicates: one request in four carries one of these.
PREDICATES = {
    "status1": Eq("status", 1),
    "region2": Eq("region", 2),
    "status0_region0": And([Eq("status", 0), Eq("region", 0)]),
}


def satisfies(name: str, status: np.ndarray, region: np.ndarray) -> np.ndarray:
    """Which rows satisfy registered predicate ``name`` (the oracle side)."""
    if name == "status1":
        return status == 1
    if name == "region2":
        return region == 2
    if name == "status0_region0":
        return (status == 0) & (region == 0)
    raise KeyError(name)


def make_rows(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``n`` distinct int64 keys in random order, with attribute columns."""
    keys = np.unique(rng.integers(1, 1 << 62, size=n + n // 8 + 16, dtype=np.int64))
    keys = rng.permutation(keys)[:n]
    if len(keys) < n:  # pragma: no cover - 2^62 universe makes this vanishing
        raise RuntimeError("key generator produced too few distinct keys")
    status = rng.integers(0, STATUS_VALUES, size=n)
    region = rng.integers(0, REGION_VALUES, size=n)
    return keys, status, region


def absent_keys(rng: np.random.Generator, n: int, present: np.ndarray) -> np.ndarray:
    """``n`` distinct keys none of which is in ``present``."""
    candidates = np.unique(rng.integers(1, 1 << 62, size=n + n // 8 + 16, dtype=np.int64))
    candidates = candidates[~np.isin(candidates, present)]
    return rng.permutation(candidates)[:n]


def filter_signatures(store, keys, status, region) -> np.ndarray:
    """What a store level can tell rows apart by, packed into one int64:
    key fingerprint, bucket pair and attribute-fingerprint vector, computed
    with the store's own hashing."""
    geometry = store.geometry
    fps = geometry.fingerprints_of_many(keys).astype(np.int64)
    homes = geometry.home_indices_of_many(keys)
    pairs = np.minimum(homes, geometry.alt_indices_many(homes, fps)).astype(np.int64)
    avecs = np.asarray(store.fingerprinter.vectors_many([status, region]), dtype=np.int64)
    attr_span = 1 << store.params.attr_bits
    if (1 << store.params.key_bits) * store.config.level_buckets * attr_span ** avecs.shape[1] >= 1 << 63:
        raise ValueError("filter signature does not fit in 64 bits")
    packed = fps * store.config.level_buckets + pairs
    for column in avecs.T:
        packed = packed * attr_span + column
    return packed


def distinguishable(store, keys, status, region, taken: np.ndarray | None = None) -> np.ndarray:
    """Mask of rows whose filter signature no other row (here or in
    ``taken``) shares.

    Two such rows are one entry to the store (its read-before-write dedup
    keeps one), so deleting either would remove the other: a false negative
    by construction, not a defect.  Workloads that delete draw only
    distinguishable rows, so every delete and every lookup has one right
    answer.
    """
    signatures = filter_signatures(store, keys, status, region)
    offset = 0 if taken is None else len(taken)
    if taken is not None:
        signatures = np.concatenate([taken, signatures])
    _, inverse, counts = np.unique(signatures, return_inverse=True, return_counts=True)
    return counts[inverse[offset:]] == 1


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: Tail percentiles considered, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0)


def latency_summary(samples_s: list[float] | np.ndarray) -> dict:
    """Median and the highest percentile with at least 10 samples beyond it."""
    values = np.asarray(samples_s, dtype=float) * 1e3
    n = int(values.size)
    out: dict = {"samples": n}
    if n == 0:
        return out
    out["p50_ms"] = float(np.percentile(values, 50))
    out["p90_ms"] = float(np.percentile(values, 90))
    out["p99_ms"] = float(np.percentile(values, 99))
    for pct in TAIL_PERCENTILES:
        if n * (1 - pct / 100) >= 10:
            out["tail_percentile"] = pct
            out["tail_ms"] = float(np.percentile(values, pct))
            break
    return out


def steadiness(rates: list[float], bound: float) -> dict:
    """Per-window rates of one phase and whether the last window drifted
    from the first by more than the metric's bound."""
    rates = [float(r) for r in rates]
    if len(rates) < 2 or rates[0] == 0:
        return {"windows": rates, "drift": None, "flagged": False}
    drift = (rates[-1] - rates[0]) / rates[0]
    return {"windows": rates, "drift": drift, "flagged": abs(drift) > bound}


class MachineSpeed:
    """Times a fixed piece of interpreter and small-array numpy work,
    independent of the program, interleaved with the measured work.

    Other tenants of a shared machine slow this box down by up to ~1.6x,
    switching between a fast and a slow state every few tens of milliseconds
    and sometimes staying slow for a minute, so a run's figures move with the
    share of its time spent slow.  Calibration samples taken between the
    measured units (batches, probe calls, load windows) see the same share,
    so timing metrics are reported at the reference speed: a rate is
    multiplied by ``slowdown`` and a duration divided by it.  A program that
    gets 30% slower still reads 30% slower.  The record keeps raw values.

    Samples are CPU time of the calling thread: the slowdown is in the
    cycles themselves (CPU and wall time agree to 0.1% here), and CPU time
    leaves out waiting for the GIL while the program's own threads run.
    """

    #: Mean CPU seconds of one sample on a 2-core x86-64 box of this era.
    REFERENCE_S = 0.0018
    #: The slowest share of samples left out of the mean (preemptions).
    TRIM = 0.05

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Wall seconds spent calibrating, so set-up times can leave it out.
        self.spent_s = 0.0
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1 << 62, size=4096, dtype=np.int64)
        self._table = rng.integers(0, 1 << 30, size=1 << 18)

    def sample(self, count: int = 1) -> None:
        wall = perf_counter()
        for _ in range(count):
            start = time.thread_time()
            total = 0
            for i in range(8_000):
                total += (i * 2654435761) % 1021
            for _ in range(8):
                slots = (self._keys * 0x1E3779B97F4A7C15) >> 44
                self._table[slots & ((1 << 18) - 1)].sum()
            self.samples.append(time.thread_time() - start)
        self.spent_s += perf_counter() - wall

    @property
    def slowdown(self) -> float:
        """How much slower than the reference this run's box was."""
        return self.slowdown_of(self.samples)

    def slowdown_of(self, samples: list[float]) -> float:
        """The slowdown the given samples (those of one phase) read."""
        return trimmed_mean(samples, self.TRIM) / self.REFERENCE_S


def trimmed_mean(samples: list[float], trim: float = 0.05) -> float:
    """Mean of all but the slowest ``trim`` share of ``samples``.

    The box switches between a fast and a slow state, so a median flips
    from one to the other as the slow share crosses one half; a mean moves
    in proportion to the share, as the calibration samples' mean does.
    """
    ordered = np.sort(np.asarray(samples, dtype=float))
    return float(ordered[: max(1, int(len(ordered) * (1 - trim)))].mean())


# ---------------------------------------------------------------------------
# Program-exported counters
# ---------------------------------------------------------------------------


def counter(snapshot: dict, name: str, **labels: str) -> float:
    """Sum of a counter family's samples matching ``labels``."""
    family = snapshot.get(name)
    if family is None:
        return 0.0
    return float(
        sum(
            sample["value"]
            for sample in family["samples"]
            if all(sample["labels"].get(k) == v for k, v in labels.items())
        )
    )


def counter_by(snapshot: dict, name: str, label: str) -> dict[str, float]:
    """A counter family's values keyed by one label."""
    out: dict[str, float] = {}
    family = snapshot.get(name)
    for sample in family["samples"] if family else ():
        key = sample["labels"].get(label, "")
        out[key] = out.get(key, 0.0) + float(sample["value"])
    return out


def hist(snapshot: dict, name: str, **labels: str) -> dict:
    """One merged histogram sample (``count``/``sum``/``max``/``buckets``)."""
    merged = {"count": 0, "sum": 0.0, "max": 0.0, "buckets": {}}
    family = snapshot.get(name)
    for sample in family["samples"] if family else ():
        if not all(sample["labels"].get(k) == v for k, v in labels.items()):
            continue
        merged["count"] += sample["count"]
        merged["sum"] += sample["sum"]
        merged["max"] = max(merged["max"], sample["max"])
        for bound, n in sample["buckets"].items():
            merged["buckets"][bound] = merged["buckets"].get(bound, 0) + n
    return merged


def hist_delta(after: dict, before: dict) -> dict:
    """Histogram growth between two samples (``max`` is the later lifetime max)."""
    buckets = {
        bound: n - before["buckets"].get(bound, 0)
        for bound, n in after["buckets"].items()
        if n - before["buckets"].get(bound, 0) > 0
    }
    return {
        "count": after["count"] - before["count"],
        "sum": after["sum"] - before["sum"],
        "max": after["max"],
        "buckets": buckets,
    }


def hist_quantile_ms(sample: dict, q: float) -> float:
    """Quantile of a microsecond histogram, in milliseconds."""
    return histogram_quantile(sample, q) / 1e3 if sample["count"] else 0.0


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def source_digest() -> str:
    """sha256 over the program's sources: the commit key when the checkout
    carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def provenance(seed: int, workload: str, fsync: str | None) -> dict:
    from repro.kernels import active_backend

    try:
        import numba  # noqa: F401

        numba_importable = True
    except ImportError:
        numba_importable = False
    return {
        "git_commit": _git_commit(),
        "source_digest": source_digest(),
        "workload": workload,
        "seed": seed,
        "kernel_backend": active_backend().name,
        "numba_importable": numba_importable,
        "nproc": os.cpu_count(),
        "fsync": fsync,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "unix_time": time.time(),
    }


# ---------------------------------------------------------------------------
# Load generators (asyncio)
# ---------------------------------------------------------------------------


class Requests:
    """Pre-generated point lookups: key, predicate name (or None), and what
    the oracle demands (True required when the key is present and satisfies
    the predicate)."""

    def __init__(self, keys, predicates, must_hit, absent) -> None:
        self.keys = keys
        self.predicates = predicates
        self.must_hit = must_hit
        self.absent = absent

    def __len__(self) -> int:
        return len(self.keys)


class LoadResult:
    """Outcome of one load phase."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.lateness: list[float] = []
        self.completed = 0
        self.failed = 0
        self.attempted = 0
        self.absent = 0
        self.absent_true = 0
        self.elapsed = 0.0
        self.window_counts: list[int] = []

    def check(self, requests: Requests, index: int, answer: bool) -> None:
        self.completed += 1
        if requests.absent[index]:
            self.absent += 1
            self.absent_true += int(answer)
        elif requests.must_hit[index] and not answer:
            self.failed += 1  # false negative


async def _gather_within(result: LoadResult, aws: list, timeout: float) -> None:
    """Await every request; those still unanswered after ``timeout`` are
    cancelled and counted as failures."""
    try:
        await asyncio.wait_for(asyncio.gather(*aws), timeout)
    except asyncio.TimeoutError:
        result.failed += result.attempted - result.completed - result.failed


async def closed_loop(
    frontend, requests: Requests, clients: int, seconds: float, window_s: float,
    timeout: float = 20.0,
) -> LoadResult:
    """``clients`` callers that each send their next lookup when the last
    one returns; runs for ``seconds``."""
    result = LoadResult()
    cursor = [0]
    start = perf_counter()
    deadline = start + seconds
    windows = max(1, int(round(seconds / window_s)))
    counts = [0] * windows

    async def client() -> None:
        while True:
            now = perf_counter()
            if now >= deadline:
                return
            i = cursor[0] % len(requests)
            cursor[0] += 1
            result.attempted += 1
            try:
                answer = await frontend.query(requests.keys[i], requests.predicates[i])
            except Exception:  # noqa: BLE001 - every error is a counted failure
                result.failed += 1
                continue
            done = perf_counter()
            result.latencies.append(done - now)
            result.check(requests, i, answer)
            slot = min(windows - 1, int((done - start) / window_s))
            counts[slot] += 1

    await _gather_within(result, [client() for _ in range(clients)], seconds + timeout)
    result.elapsed = perf_counter() - start
    result.window_counts = counts
    return result


async def open_loop(
    frontend, requests: Requests, rate: float, seconds: float, rng: np.random.Generator,
    window_s: float, timeout: float = 20.0,
) -> LoadResult:
    """Poisson arrivals at ``rate``; each request timed from its scheduled
    send, so a stall also bills the requests queued behind it."""
    result = LoadResult()
    count = max(1, int(rate * seconds))
    arrivals = np.cumsum(rng.exponential(1.0 / rate, size=count))
    arrivals = arrivals[arrivals < seconds]
    windows = max(1, int(round(seconds / window_s)))
    counts = [0] * windows
    start = perf_counter()

    async def one(i: int, due: float) -> None:
        result.attempted += 1
        j = i % len(requests)
        try:
            answer = await frontend.query(requests.keys[j], requests.predicates[j])
        except Exception:  # noqa: BLE001 - errors and timeouts are failures
            result.failed += 1
            return
        done = perf_counter()
        result.latencies.append(done - due)
        result.check(requests, j, answer)
        slot = min(windows - 1, int((done - start) / window_s))
        counts[slot] += 1

    tasks = []
    for i, offset in enumerate(arrivals.tolist()):
        due = start + offset
        now = perf_counter()
        if due > now:
            await asyncio.sleep(due - now)
            now = perf_counter()
        result.lateness.append(max(0.0, now - due))
        tasks.append(asyncio.ensure_future(one(i, due)))
    await _gather_within(result, tasks, timeout)
    result.elapsed = perf_counter() - start
    result.window_counts = counts
    return result


class NullBackend:
    """A backend that answers instantly: what is left of a request's time
    through the front end is the harness floor no program change removes."""

    def query_many(self, keys, predicate=None):
        return np.zeros(len(keys), dtype=bool)

